"""Embedders and the exact k-nearest-neighbor flat index.

Distances are squared L2, which ranks identically to L2 without the square
root. The canonical distance between a stored vector and a query is defined
as ``float(np.sum((x64 - q64) ** 2))`` where both operands are the float32
stored values widened to float64; knn computes exactly this expression for
every returned entry, so results are bit-identical to a naive all-pairs
scan. A prefilter only narrows the candidate set: one float32 GEMV per
query, expanded with row norms that each index caches in float64 when it is
built, under a rounding bound relative to those norms (see ``_prefilter``).
Candidates are rescored canonically before ranking, and ties break by
record_id ascending.

Index snapshots are a small JSON header, the raw little-endian float32
vector block, and the record id table; round trips are byte-exact.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
import requests

from .corpus.records import to_embedding_text
from .corpus.reconcile import ReconciledView
from .corpus.schema import FilingType, SchemaRegistry

# Tokens are the runs of [a-z0-9] in the lowercased text. UTF-8 encodes every
# non-ASCII code point (lone surrogates too, under "surrogatepass") with bytes
# >= 0x80 only, so mapping every byte outside [a-z0-9] to a space and
# splitting the bytes gives the same tokens, already encoded.
_TOKEN_BYTES = bytes(c if c in b"0123456789abcdefghijklmnopqrstuvwxyz" else 0x20
                     for c in range(256))
# texts embedded per vectorised step; bounds the step's count matrix
_EMBED_CHUNK = 4096

_MAGIC = b"FSIDX1\n"


class IndexError_(ValueError):
    """Index construction or query contract violation."""


@dataclass(frozen=True)
class IndexScope:
    kind: str  # global | agent | table
    key: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("global", "agent", "table"):
            raise IndexError_(f"unknown scope kind {self.kind!r}")
        if self.kind == "global" and self.key:
            raise IndexError_("global scope takes no key")
        if self.kind != "global" and not self.key:
            raise IndexError_(f"{self.kind} scope requires a key")

    @classmethod
    def global_(cls) -> "IndexScope":
        return cls("global")

    @classmethod
    def agent(cls, filing_type: FilingType) -> "IndexScope":
        return cls("agent", filing_type.value)

    @classmethod
    def table(cls, table_id: str) -> "IndexScope":
        return cls("table", table_id)

    def label(self) -> str:
        return self.kind if self.kind == "global" else f"{self.kind}:{self.key}"

    @classmethod
    def parse(cls, label: str) -> "IndexScope":
        if label == "global":
            return cls.global_()
        kind, _, key = label.partition(":")
        return cls(kind, key)


class _TokenCodes(dict):
    """Token bytes -> hash bucket, offset by dim when the token's sign is
    negative; a token's code is computed on its first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: bytes) -> int:
        crc = zlib.crc32(token)
        code = self[token] = crc % self.dim + (0 if (crc >> 16) & 1 else self.dim)
        return code


class HashFeatureEmbedder:
    """Deterministic test embedder: feature-hash tokens into d signed buckets
    and L2-normalize. Pure function of the text."""

    kind = "hash"

    def __init__(self, dim: int = 64):
        if dim < 1:
            raise IndexError_("dim must be >= 1")
        self.dim = dim
        self._codes = _TokenCodes(dim)

    @property
    def fingerprint(self) -> str:
        return f"{self.kind}:{self.dim}"

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Signed bucket counts per text, L2-normalized; zero for a text
        without tokens. Counts are exact integers in float64 up to the
        division, so the result does not depend on the batch."""
        dim = self.dim
        out = np.empty((len(texts), dim), dtype=np.float32)
        for start in range(0, len(texts), _EMBED_CHUNK):
            chunk = texts[start:start + _EMBED_CHUNK]
            tokens = [t.lower().encode("utf-8", "surrogatepass")
                      .translate(_TOKEN_BYTES).split() for t in chunk]
            flat = list(chain.from_iterable(tokens))
            lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(chunk))
            cells = np.arange(0, len(chunk) * 2 * dim, 2 * dim).repeat(lengths)
            cells += np.fromiter(map(self._codes.__getitem__, flat),
                                 dtype=np.intp, count=len(flat))
            counts = np.bincount(cells, minlength=len(chunk) * 2 * dim)
            counts = counts.reshape(len(chunk), 2, dim)
            signed = (counts[:, 0] - counts[:, 1]).astype(np.float64)
            norms = np.sqrt(np.einsum("ij,ij->i", signed, signed))
            # a nonzero count vector has norm >= 1; a zero one stays zero
            out[start:start + len(chunk)] = signed / np.maximum(norms, 1.0)[:, None]
        return out


class MappingEmbedder:
    """Oracle embedder for tests and ceilings: exact text-to-vector lookup
    with a configurable default for unknown texts."""

    kind = "mapping"

    def __init__(self, dim: int, mapping: dict[str, np.ndarray],
                 default: np.ndarray | Callable[[str], np.ndarray] | None = None):
        self.dim = dim
        self.mapping = {k: np.asarray(v, dtype=np.float32) for k, v in mapping.items()}
        self.default = default

    @property
    def fingerprint(self) -> str:
        return f"{self.kind}:{self.dim}"

    def embed(self, text: str) -> np.ndarray:
        hit = self.mapping.get(text)
        if hit is not None:
            return hit
        if self.default is None:
            raise IndexError_(f"no mapping for text: {text[:60]!r}")
        if callable(self.default):
            return np.asarray(self.default(text), dtype=np.float32)
        return np.asarray(self.default, dtype=np.float32)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            out[i] = self.embed(text)
        return out


class RemoteEmbedder:
    """External embedding API client; same minimal wire shape as the
    completion endpoint family: {model, input} in, data[i].embedding out."""

    kind = "remote"

    def __init__(self, endpoint: str, model: str, dim: int,
                 timeout: float = 30.0, session: requests.Session | None = None):
        self.endpoint = endpoint
        self.model = model
        self.dim = dim
        self.timeout = timeout
        self.session = session or requests.Session()

    @property
    def fingerprint(self) -> str:
        return f"{self.kind}:{self.model}:{self.dim}"

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        resp = self.session.post(self.endpoint,
                                 json={"model": self.model, "input": list(texts)},
                                 timeout=self.timeout)
        resp.raise_for_status()
        data = resp.json()["data"]
        out = np.asarray([row["embedding"] for row in data], dtype=np.float32)
        if out.shape != (len(texts), self.dim):
            raise IndexError_(f"endpoint returned shape {out.shape}, "
                              f"expected {(len(texts), self.dim)}")
        return out

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


@dataclass(frozen=True)
class FlatIndex:
    """Record ids and their float32 vectors, row i for id i. Immutable: the
    vector block is held without a copy behind a read-only view, with its
    float64 squared row norms computed once for knn's prefilter, so the
    array passed in must not be written to afterwards."""

    scope: IndexScope
    dim: int
    record_ids: list[str] = field(default_factory=list)
    vectors: np.ndarray | None = None  # (n, dim) float32
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vectors = (np.zeros((0, self.dim), dtype=np.float32) if self.vectors is None
                   else np.ascontiguousarray(self.vectors, dtype=np.float32))
        if vectors.shape != (len(self.record_ids), self.dim):
            raise IndexError_("vectors shape does not match ids and dim")
        if len(set(self.record_ids)) != len(self.record_ids):
            raise IndexError_("duplicate record ids in index")
        vectors = vectors.view()
        vectors.flags.writeable = False
        sq_norms = np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)
        sq_norms.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "sq_norms", sq_norms)

    def __len__(self) -> int:
        return len(self.record_ids)

    def select(self, scope: IndexScope, positions: Sequence[int]) -> "FlatIndex":
        """The rows at ``positions``, in that order, as an index of
        ``scope``. Embeddings are a pure function of the text, so selecting
        a scope's rows from a wider index gives the ids and vector bytes
        that embedding the scope's records would."""
        return FlatIndex(scope=scope, dim=self.dim,
                         record_ids=[self.record_ids[pos] for pos in positions],
                         vectors=self.vectors[np.asarray(positions, dtype=np.intp)])


def scope_positions(view: ReconciledView) -> dict[IndexScope, list[int]]:
    """Positions in ``view.records`` of each agent and table scope's
    records, in view order: the rows ``build_index`` embeds for that scope.
    Scopes without records are absent."""
    agents: dict[FilingType, list[int]] = {}
    tables: dict[str, list[int]] = {}
    for pos, record in enumerate(view.records):
        agents.setdefault(record.filing_type, []).append(pos)
        tables.setdefault(record.table_id, []).append(pos)
    out = {IndexScope.agent(ft): rows for ft, rows in agents.items()}
    out.update((IndexScope.table(table_id), rows) for table_id, rows in tables.items())
    return out


def _scope_records(view: ReconciledView, scope: IndexScope):
    if scope.kind == "global":
        return list(view.records)
    if scope.kind == "agent":
        ft = FilingType.parse(scope.key)
        return [r for r in view.records if r.filing_type == ft]
    return [r for r in view.records if r.table_id == scope.key]


def build_index(view: ReconciledView, scope: IndexScope, embedder) -> FlatIndex:
    """Embed every reconciled record in scope, one entry per record."""
    records = _scope_records(view, scope)
    texts = [to_embedding_text(r) for r in records]
    vectors = embedder.embed_batch(texts) if texts else None
    index = FlatIndex(scope=scope, dim=embedder.dim,
                      record_ids=[r.record_id for r in records],
                      vectors=vectors)
    return index


def build_text_index(entries: Iterable[tuple[str, str]], embedder,
                     scope: IndexScope | None = None) -> FlatIndex:
    """Index arbitrary (entry_id, text) pairs; used for persona and table
    description routing indexes."""
    pairs = list(entries)
    texts = [text for _, text in pairs]
    vectors = embedder.embed_batch(texts) if texts else None
    return FlatIndex(scope=scope or IndexScope.global_(), dim=embedder.dim,
                     record_ids=[eid for eid, _ in pairs], vectors=vectors)


def build_persona_index(registry: SchemaRegistry, embedder) -> FlatIndex:
    return build_text_index(
        ((ft.value, registry.profile(ft).persona) for ft in FilingType),
        embedder)


def build_table_description_index(registry: SchemaRegistry,
                                  filing_type: FilingType, embedder) -> FlatIndex:
    return build_text_index(
        ((schema.table_id, schema.description)
         for schema in registry.tables_for(filing_type)),
        embedder,
        scope=IndexScope.agent(filing_type))


def canonical_distance(x: np.ndarray, q: np.ndarray) -> float:
    """The one true squared-L2: float32 inputs widened to float64."""
    x64 = np.asarray(x, dtype=np.float32).astype(np.float64)
    q64 = np.asarray(q, dtype=np.float32).astype(np.float64)
    return float(np.sum((x64 - q64) ** 2))


_U32 = 2.0 ** -24  # unit roundoff of float32
_U64 = 2.0 ** -53
_SUBNORMAL32 = 2.0 ** -149  # spacing of float32 near zero


def _prefilter(index: FlatIndex, q32: np.ndarray, take: int) -> np.ndarray:
    """Positions of a superset of the ``take`` rows nearest the query.

    For a row x and the query q, both float32 values, let p = |x|^2,
    r = |q|^2 and t = x.q. The float32 GEMV returns t' with
    |t' - t| <= g_d * sum_j |x_j q_j| <= g_d |x||q| <= g_d (p + r) / 2,
    where g_n = n u / (1 - n u) and u = 2^-24, for any summation order and
    with or without FMA; gradual underflow adds at most d * 2^-150. If the
    GEMV overflows (a non-finite result), the product is taken in float64
    instead, with u = 2^-53. The cached float64 norms, the float64
    expansion a = p - 2t' + r and the canonical distance itself together
    err by at most about (4d + 7) 2^-53 (p + r), far below g_d (p + r). So
    every row satisfies |a - dist| <= s = 2 g_(d+2) (p + r) + (d + 2) 2^-148,
    with a margin that also absorbs the rounding of a + s and a - s.
    The ``take`` rows with the smallest a + s have dist <= a + s <= B, the
    take-th smallest a + s, so the take-th smallest dist is at most B.
    Every row that belongs in the answer, ties included, then has
    a - s <= dist <= B.
    """
    q64 = q32.astype(np.float64)
    qq = float(q64 @ q64)
    with np.errstate(over="ignore", invalid="ignore"):
        dots, u = (index.vectors @ q32).astype(np.float64), _U32
    if not np.isfinite(dots).all():
        dots, u = index.vectors.astype(np.float64) @ q64, _U64
    gamma = (index.dim + 2) * u / (1 - (index.dim + 2) * u)
    # in place where possible: each pass is over every row of the index
    approx = index.sq_norms + qq
    slack = approx * (2.0 * gamma)
    slack += (index.dim + 2) * 2.0 * _SUBNORMAL32
    dots *= -2.0
    approx += dots
    bound = np.partition(approx + slack, take - 1)[take - 1]
    approx -= slack
    return np.flatnonzero(approx <= bound)


def knn(index: FlatIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by canonical distance; ties by record_id ascending.

    When k covers the index every row is scored; otherwise a float32
    prefilter with a proven rounding bound (``_prefilter``) picks the
    candidates. Either way the rows are scored with the canonical row-wise
    expression and ranked by (dist, id).
    """
    if k < 1:
        raise IndexError_("k must be >= 1")
    q32 = np.asarray(query, dtype=np.float32)
    if q32.shape != (index.dim,):
        raise IndexError_(f"query dim {q32.shape} does not match index dim {index.dim}")
    n = len(index)
    if n == 0:
        return []
    take = min(n, k)
    if take == n:
        rows, ids = index.vectors, index.record_ids
    else:
        positions = _prefilter(index, q32, take)
        rows = index.vectors[positions]
        ids = [index.record_ids[pos] for pos in positions.tolist()]
    x64 = rows.astype(np.float64)
    dists = np.sum((x64 - q32.astype(np.float64)) ** 2, axis=1).tolist()
    rescored = sorted(zip(dists, ids))
    return [(record_id, dist) for dist, record_id in rescored[:take]]


def r_precision(retrieved: Sequence[str], relevant: Iterable[str]) -> float:
    """Precision at R where R = |relevant|; ranks past |retrieved| are
    misses. Equals both precision@R and recall@R."""
    relevant_set = frozenset(relevant)
    if not relevant_set:
        raise ValueError("relevant set must be non-empty")
    r = len(relevant_set)
    top = list(retrieved)[:r]
    return len(frozenset(top) & relevant_set) / r


def precision_at_k(retrieved: Sequence[str], relevant: Iterable[str], k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    top = frozenset(list(retrieved)[:k])
    return len(top & frozenset(relevant)) / k


def recall_at_k(retrieved: Sequence[str], relevant: Iterable[str], k: int) -> float:
    relevant_set = frozenset(relevant)
    if not relevant_set:
        raise ValueError("relevant set must be non-empty")
    top = frozenset(list(retrieved)[:k])
    return len(top & relevant_set) / len(relevant_set)


# ---------------------------------------------------------------------------
# Snapshots

def save_index(index: FlatIndex, path: str | Path,
               embedder_fingerprint: str = "") -> None:
    ids_blob = "\n".join(index.record_ids).encode("utf-8")
    header = {
        "scope": index.scope.label(),
        "dim": index.dim,
        "count": len(index),
        "embedder": embedder_fingerprint,
        "ids_bytes": len(ids_blob),
    }
    vec = np.ascontiguousarray(index.vectors, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(vec.tobytes())
        fh.write(ids_blob)


def load_index(path: str | Path) -> tuple[FlatIndex, str]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MAGIC):
        raise IndexError_("not an index snapshot")
    header_end = blob.find(b"\n", len(_MAGIC))
    if header_end < 0:
        raise IndexError_("snapshot truncated in its header")
    header = _parse_header(blob[len(_MAGIC):header_end])
    dim = header["dim"]
    count = header["count"]
    vec_bytes = count * dim * 4
    vec_start = header_end + 1
    if len(blob) < vec_start + vec_bytes:
        raise IndexError_("snapshot truncated in its vector block")
    vectors = np.frombuffer(blob[vec_start:vec_start + vec_bytes],
                            dtype="<f4").reshape(count, dim).copy()
    ids_blob = blob[vec_start + vec_bytes:]
    if len(ids_blob) != header["ids_bytes"]:
        raise IndexError_("snapshot truncated")
    try:
        record_ids = ids_blob.decode("utf-8").split("\n") if ids_blob else []
    except UnicodeDecodeError as exc:
        raise IndexError_(f"snapshot id table is not UTF-8: {exc}") from None
    index = FlatIndex(scope=header["scope"], dim=dim,
                      record_ids=record_ids, vectors=vectors)
    return index, header["embedder"]


def _parse_header(raw: bytes) -> dict:
    """The snapshot header, checked field by field; ``scope`` is parsed."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise IndexError_(f"snapshot header is not UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict):
        raise IndexError_("snapshot header is not a JSON object")
    for name in ("dim", "count", "ids_bytes"):
        value = header.get(name)
        if type(value) is not int or value < 0:
            raise IndexError_(f"snapshot header {name} must be a non-negative integer")
    for name in ("scope", "embedder"):
        if not isinstance(header.get(name), str):
            raise IndexError_(f"snapshot header {name} must be a string")
    header["scope"] = IndexScope.parse(header["scope"])
    return header
