"""Embedders, the exact k-nearest-neighbor flat index, and the distances
that knn and the embedding route rank by.

Distances are squared L2, which ranks identically to L2 without the square
root. The canonical distance between a stored vector and a query is defined
as ``float(np.sum((x64 - q64) ** 2))`` where both operands are the float32
stored values widened to float64; ``row_distances`` computes exactly this
expression for every entry knn returns and every pair the embedding route
ranks, so results are bit-identical to a naive all-pairs scan. A
prefilter only narrows the candidate set: float32 dot products, one GEMM
per block of queries, expanded with row norms that each index caches in
float64 when it is built, under a rounding bound relative to those norms
(see ``_prefilter``).
Candidates are rescored canonically before ranking, and ties break by
record_id ascending.

Index snapshots are a small JSON header, the raw little-endian float32
vector block, and the record id table; round trips are byte-exact. The
header's ``crc32`` covers the vector block and the id table. A header
without one, as written before the checksum existed, still loads.
"""
from __future__ import annotations

import json
import operator
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .corpus.records import TEXT_ENCODER, FilingRecord, to_embedding_text
from .corpus.reconcile import ReconciledView
from .corpus.schema import FilingType

# Tokens are the runs of [a-z0-9] in the lowercased text. UTF-8 encodes every
# non-ASCII code point (lone surrogates too, under "surrogatepass") with bytes
# >= 0x80 only, so mapping every byte outside [a-z0-9] to a space and
# splitting the bytes gives the same tokens, already encoded.
#
# A chunk of texts is tokenized as one string, joined around a separator
# that the byte table keeps: a separator token starts the next text's row.
# Joining changes no token: the only context rule of str.lower (the Greek
# final sigma) yields non-ASCII letters either way, UTF-8 encodes each code
# point on its own, and the spaces around the separator break every token.
# A separator inside a text is a non-token character, so it becomes a space.
_SEP = "\x01"
_JOINER = f" {_SEP} "
_TOKEN_BYTES = bytes(c if c in b"0123456789abcdefghijklmnopqrstuvwxyz\x01" else 0x20
                     for c in range(256))
# texts embedded per vectorised step. A step's working set (its token list,
# int64 codes and count matrix and their float64 copies) grows with it, to
# about 15 MB at 4096 corpus records, so a step of 1024 keeps it to a few
# MB. Counts are exact integers, so no vector depends on the chunk.
_EMBED_CHUNK = 1024
# queries whose dot products knn takes from one GEMM; bounds its
# (block, n) float32 product, the one buffer that every block of a call fills
_KNN_BLOCK = 16

_MAGIC = b"FSIDX1\n"


class IndexError_(ValueError):
    """Index construction or query contract violation."""


SCOPE_KINDS = ("global", "agent", "table")


@dataclass(frozen=True)
class IndexScope:
    kind: str  # one of SCOPE_KINDS
    key: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SCOPE_KINDS:
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
    negative; a token's code is computed on its first lookup. The separator
    token's code is 2 * dim, a column of its own."""

    def __init__(self, dim: int):
        super().__init__({_SEP.encode(): 2 * dim})
        self.dim = dim

    def __missing__(self, token: bytes) -> int:
        crc = zlib.crc32(token)
        code = self[token] = crc % self.dim + (0 if (crc >> 16) & 1 else self.dim)
        return code


class _Embedder:
    """What every embedder shares: one text embeds as a batch of one, and
    the fingerprint a snapshot records is the subclass's kind and dim."""

    @property
    def fingerprint(self) -> str:
        return f"{self.kind}:{self.dim}"

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


class HashFeatureEmbedder(_Embedder):
    """Deterministic test embedder: feature-hash tokens into d signed buckets
    and L2-normalize. Pure function of the text."""

    kind = "hash"

    def __init__(self, dim: int = 64):
        if dim < 1:
            raise IndexError_("dim must be >= 1")
        self.dim = dim
        self._codes = _TokenCodes(dim)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Signed bucket counts per text, L2-normalized; zero for a text
        without tokens. Counts are exact integers in float64 up to the
        division, so the result does not depend on the batch. A chunk of
        ``build_index``'s record texts is counted from
        ``_embedding_text_rows``, so no record's text is rendered."""
        dim = self.dim
        out = np.empty((len(texts), dim), dtype=np.float32)
        for start in range(0, len(texts), _EMBED_CHUNK):
            chunk = texts[start:start + _EMBED_CHUNK]
            if isinstance(chunk, _RecordTexts):
                joined, n_rows, owners = _embedding_text_rows(chunk.records)
                counts = self._bucket_counts(joined, n_rows)
                counts = counts[:len(chunk)] + counts[owners]
            else:
                counts = self._bucket_counts(_join(chunk), len(chunk))
            signed = (counts[:, :dim] - counts[:, dim:-1]).astype(np.float64)
            norms = np.sqrt(np.einsum("ij,ij->i", signed, signed))
            # a nonzero count vector has norm >= 1; a zero one stays zero
            out[start:start + len(chunk)] = signed / np.maximum(norms, 1.0)[:, None]
        return out

    def _bucket_counts(self, joined: str, n_rows: int) -> np.ndarray:
        """Token counts of each of the ``n_rows`` rows that ``joined`` holds
        between its separators: one row of positive buckets, negative
        buckets and the separator column each, from one pass."""
        width = 2 * self.dim + 1
        tokens = (joined.lower().encode("utf-8", "surrogatepass")
                  .translate(_TOKEN_BYTES).split())
        codes = np.fromiter(map(self._codes.__getitem__, tokens),
                            dtype=np.intp, count=len(tokens))
        # every code but the separator's is below 2 * dim, so the running
        # count of separators is each token's row
        cells = np.add.accumulate(codes // (2 * self.dim))
        cells *= width
        cells += codes
        counts = np.bincount(cells, minlength=n_rows * width)
        return counts.reshape(n_rows, width)


def _join(texts: Sequence[str]) -> str:
    """The texts around the separator; a separator inside a text becomes
    the space that the tokenizer would read it as."""
    joined = _JOINER.join(texts)
    if joined.count(_SEP) != len(texts) - 1:
        joined = _JOINER.join(t.replace(_SEP, " ") for t in texts)
    return joined


def _embedding_text_rows(records: Sequence[FilingRecord]) -> tuple[str, int, list[int]]:
    """Rows whose tokens add up to each record's ``to_embedding_text``:
    each record's values, and each distinct key layout once, so keys are
    tokenized once per layout. Returns the rows joined by ``_JOINER``,
    their count, and ``owners``.

    Row i < len(records) is record i's non-null field values as a JSON
    array. The rows after them are one frame per distinct pair of table and
    non-null keys, in order of first use: ``{"fields": [keys...], "table":
    table_id}``, which holds the keys and the ``fields``, ``table`` and
    table-id tokens. ``owners[i]`` is the row of record i's frame. A token
    is a run of letters and digits, so none spans a quote, a bracket, a
    brace or ", ", and each key or value renders alike in an array and in
    an object. So each record's text has exactly the tokens of its value
    row and its frame row, in another order.

    The value rows come from one encode of all the records' arrays, whose
    ``], [`` between two records becomes ``]`` + joiner + ``[``. The
    pattern cannot overlap itself, so when the encoding holds it exactly
    len(records) - 1 times, those are the record boundaries. Otherwise a
    value holds it (a string, or two adjacent lists), and the arrays are
    encoded one by one. JSON escapes the separator, so no row holds it.

    A value row is a tuple, which JSON renders as a list and the cyclic GC
    stops tracking at its first collection (atomic values only), so a
    chunk's rows are never promoted and a large corpus triggers no full
    collection.
    """
    first_frame = len(records)
    values: list[tuple] = []
    frames: dict[tuple[str, tuple[str, ...]], int] = {}
    owners: list[int] = []
    for record in records:
        fields = record.fields
        if None in fields.values():
            fields = {k: v for k, v in fields.items() if v is not None}
        values.append(tuple(fields.values()))
        owners.append(frames.setdefault((record.table_id, tuple(fields)),
                                        first_frame + len(frames)))
    encoded = TEXT_ENCODER.encode(values)
    if encoded.count("], [") == len(values) - 1:
        body = encoded[1:-1].replace("], [", f"]{_JOINER}[")
    else:
        body = _JOINER.join(map(TEXT_ENCODER.encode, values))
    rows = [body] + [TEXT_ENCODER.encode({"fields": list(keys), "table": table_id})
                     for table_id, keys in frames]
    return _JOINER.join(rows), first_frame + len(frames), owners


class _RecordTexts(Sequence):
    """``to_embedding_text`` of each record, rendered only when read."""

    def __init__(self, records: Sequence[FilingRecord]):
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _RecordTexts(self.records[i])
        return to_embedding_text(self.records[i])


class MappingEmbedder(_Embedder):
    """Oracle embedder for tests and ceilings: exact text-to-vector lookup
    with an optional default for unknown texts, else ``IndexError_``. A
    vector is stacked as given, so a wrong shape reaches the dim checks."""

    kind = "mapping"

    def __init__(self, dim: int, mapping: dict[str, np.ndarray],
                 default: np.ndarray | None = None):
        self.dim = dim
        self.mapping = {k: np.asarray(v, dtype=np.float32) for k, v in mapping.items()}
        self.default = default

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        vectors = []
        for text in texts:
            hit = self.mapping.get(text, self.default)
            if hit is None:
                raise IndexError_(f"no mapping for text: {text[:60]!r}")
            vectors.append(hit)
        return np.array(vectors or np.zeros((0, self.dim)), dtype=np.float32)


@dataclass(frozen=True)
class FlatIndex:
    """Record ids and their float32 vectors, row i for id i. Immutable: the
    vector block is held without a copy behind a read-only view, with its
    float64 squared row norms computed once for knn's prefilter (``select``
    takes them from its parent), so the array passed in must not be written
    to afterwards."""

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
        sq_norms = np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)
        # a squared norm of float32 values overflows no float64, so it is
        # finite exactly when every component is
        if not np.isfinite(sq_norms).all():
            raise IndexError_("index vectors hold a value that is not finite")
        self._freeze(vectors, sq_norms)

    def _freeze(self, vectors: np.ndarray, sq_norms: np.ndarray) -> None:
        vectors = vectors.view()
        vectors.flags.writeable = False
        sq_norms.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "sq_norms", sq_norms)

    def __len__(self) -> int:
        return len(self.record_ids)

    def select(self, scope: IndexScope, positions: Sequence[int]) -> "FlatIndex":
        """The rows at ``positions``, in that order, as an index of
        ``scope``. Embeddings are a pure function of the text, so selecting
        a scope's rows from a wider index gives the ids and vector bytes
        that embedding the scope's records would. Each row's squared norm
        depends on that row alone, so the selected rows' ``sq_norms`` are
        taken from this index, not computed again. A position that is not
        an integer, is negative, is past the last row or repeats raises
        ``IndexError_``."""
        rows = np.asarray(positions)
        if rows.size == 0:
            rows = rows.astype(np.intp)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise IndexError_("positions must be a sequence of integers")
        if rows.size and (rows.min() < 0 or rows.max() >= len(self)):
            raise IndexError_(f"positions must lie in [0, {len(self)})")
        seen = np.zeros(len(self), dtype=bool)
        seen[rows] = True
        if np.count_nonzero(seen) != len(rows):
            raise IndexError_("positions repeat a row")
        record_ids = self.record_ids
        selected = object.__new__(FlatIndex)
        object.__setattr__(selected, "scope", scope)
        object.__setattr__(selected, "dim", self.dim)
        object.__setattr__(selected, "record_ids", [record_ids[pos] for pos in rows.tolist()])
        selected._freeze(self.vectors[rows], self.sq_norms[rows])
        return selected


def scope_positions(view: ReconciledView) -> dict[IndexScope, list[int]]:
    """Positions in ``view.records`` of each agent and table scope's
    records, in view order: the rows ``build_index`` embeds for that scope.
    Scopes without records are absent. The records are walked once per
    view: the result is kept in the view's memo, keyed by this function,
    which no plan step's memo key can equal. It is shared; do not change it."""
    return view.memo(scope_positions, partial(_walk_scopes, view))


def _walk_scopes(view: ReconciledView) -> dict[IndexScope, list[int]]:
    agents: dict[FilingType, list[int]] = {}
    tables: dict[str, list[int]] = {}
    for pos, record in enumerate(view.records):
        agents.setdefault(record.filing_type, []).append(pos)
        tables.setdefault(record.table_id, []).append(pos)
    out = {IndexScope.agent(ft): rows for ft, rows in agents.items()}
    out.update((IndexScope.table(table_id), rows) for table_id, rows in tables.items())
    return out


def build_index(view: ReconciledView, scope: IndexScope, embedder) -> FlatIndex:
    """Embed every reconciled record in scope, one entry per record. The
    embedder gets a lazy sequence of the records' embedding texts. An agent
    or table scope's records come from ``scope_positions``; an agent key may
    be any spelling ``FilingType.parse`` accepts."""
    records = view.records
    if scope.kind != "global":
        key = IndexScope.agent(FilingType.parse(scope.key)) if scope.kind == "agent" else scope
        records = [records[pos] for pos in scope_positions(view).get(key, ())]
    return FlatIndex(scope=scope, dim=embedder.dim,
                     record_ids=[r.record_id for r in records],
                     vectors=embedder.embed_batch(_RecordTexts(records)) if records else None)


def build_text_index(entries: Iterable[tuple[str, str]], embedder,
                     scope: IndexScope | None = None) -> FlatIndex:
    """Index arbitrary (entry_id, text) pairs; used for persona and table
    description routing indexes."""
    pairs = list(entries)
    texts = [text for _, text in pairs]
    vectors = embedder.embed_batch(texts) if texts else None
    return FlatIndex(scope=scope or IndexScope.global_(), dim=embedder.dim,
                     record_ids=[eid for eid, _ in pairs], vectors=vectors)


def canonical_distance(x: np.ndarray, q: np.ndarray) -> float:
    """The one true squared-L2: float32 inputs widened to float64. It is
    ``knn``'s reference, one row at a time: the knn-versus-naive gates in
    ``perfbench`` and the vindex tests check against it."""
    x64 = np.asarray(x, dtype=np.float32).astype(np.float64)
    q64 = np.asarray(q, dtype=np.float32).astype(np.float64)
    return float(np.sum((x64 - q64) ** 2))


def row_distances(rows: np.ndarray, q32: np.ndarray) -> list[float]:
    """``canonical_distance`` of each float32 row to the float32 query, in
    row order: every distance ``knn`` and ``route_embedding`` rank by."""
    return np.sum((rows.astype(np.float64) - q32.astype(np.float64)) ** 2, axis=1).tolist()


_U32 = 2.0 ** -24  # unit roundoff of float32
_U64 = 2.0 ** -53
_SUBNORMAL32 = 2.0 ** -149  # spacing of float32 near zero


def _prefilter(index: FlatIndex, q32: np.ndarray, dots32: np.ndarray,
               take: int, scratch: np.ndarray) -> np.ndarray:
    """Positions of a superset of the ``take`` rows nearest the query,
    given ``dots32``, the float32 dot products of every row with it.
    ``scratch`` is a (3, len(index)) float64 buffer that one ``knn`` call
    passes to each of its queries; its contents on entry are never read.

    For a row x and the query q, both finite float32 values, let p = |x|^2,
    r = |q|^2 and t = x.q. A float32 product, whether a GEMV or one column
    of a GEMM, returns t' with
    |t' - t| <= g_d * sum_j |x_j q_j| <= g_d |x||q| <= g_d (p + r) / 2,
    where g_n = n u / (1 - n u) and u = 2^-24, for any summation order and
    with or without FMA; gradual underflow adds at most d * 2^-150. If the
    product overflows (a non-finite result), it is taken in float64
    instead, with u = 2^-53. The cached float64 norms, the float64
    expansion a = p - 2t' + r and the canonical distance itself together
    err by at most about (4d + 7) 2^-53 (p + r), far below g_d (p + r). So
    every row satisfies |a - dist| <= s = 2 g_(d+2) (p + r) + (d + 2) 2^-148,
    with a margin that also absorbs the rounding of a + s and a - s.
    The ``take`` rows with the smallest a + s have dist <= a + s <= B, the
    take-th smallest a + s, so the take-th smallest dist is at most B.
    Every row that belongs in the answer, ties included, then has
    a - s <= dist <= B. When ``take`` is the index length, B is the largest
    a + s, so every row passes and is rescored.
    """
    q64 = q32.astype(np.float64)
    qq = float(q64 @ q64)
    dots, approx, slack = scratch
    # -2t', widened and scaled in one pass; both steps are exact, and a
    # float32 value is finite exactly when its widening is
    if np.isfinite(dots32).all():
        np.multiply(dots32, -2.0, out=dots, dtype=np.float64)
        u = _U32
    else:
        dots[:] = index.vectors.astype(np.float64) @ q64
        dots *= -2.0
        u = _U64
    gamma = (index.dim + 2) * u / (1 - (index.dim + 2) * u)
    # in place: each pass is over every row of the index
    np.add(index.sq_norms, qq, out=approx)
    np.multiply(approx, 2.0 * gamma, out=slack)
    slack += (index.dim + 2) * 2.0 * _SUBNORMAL32
    approx += dots
    upper = np.add(approx, slack, out=dots)
    upper.partition(take - 1)
    bound = upper[take - 1]
    approx -= slack
    return np.flatnonzero(approx <= bound)


def _rescore(index: FlatIndex, q32: np.ndarray, positions: np.ndarray,
             take: int) -> list[tuple[str, float]]:
    """The ``take`` nearest of the rows at ``positions``, by the canonical
    row-wise distance, then record id."""
    rows = index.vectors[positions]
    ids = [index.record_ids[pos] for pos in positions.tolist()]
    return [(record_id, dist)
            for dist, record_id in sorted(zip(row_distances(rows, q32), ids))[:take]]


def knn(index: FlatIndex, query: np.ndarray, k: int) -> list:
    """Exact top-k by canonical distance; ties by record_id ascending.

    ``query`` is one vector, which gives one hit list, or an (m, dim)
    matrix, which gives a list of m hit lists, one per row. A query that is
    not finite, or a k that is not an integer of at least 1, raises
    ``IndexError_``. A float32 prefilter with a proven rounding bound
    (``_prefilter``) picks each query's candidates, from dot products that
    one GEMM takes for a block of up to ``_KNN_BLOCK`` queries. The bound
    holds for any summation order, so how the GEMM rounds cannot change a
    result. The candidates are scored with the canonical row-wise
    expression and ranked by (dist, id). An empty index gives an empty hit
    list per query.

    One call allocates one (min(m, ``_KNN_BLOCK``), n) float32 product
    buffer, which every block's GEMM writes in turn, and one prefilter
    scratch, so its working set does not grow with the number of queries.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise IndexError_(f"k must be an integer, not {type(k).__name__}") from None
    if k < 1:
        raise IndexError_("k must be >= 1")
    q32 = np.asarray(query, dtype=np.float32)
    queries = q32[None] if q32.ndim == 1 else q32
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise IndexError_(f"query dim {q32.shape} does not match index dim {index.dim}")
    finite = np.isfinite(queries).all(axis=1)
    if not finite.all():
        raise IndexError_(f"query row {int(np.argmin(finite))} is not finite")
    n = len(index)
    if n == 0:
        return [] if q32.ndim == 1 else [[] for _ in queries]
    take = min(n, k)
    hits = []
    scratch = np.empty((3, n))
    product = np.empty((min(len(queries), _KNN_BLOCK), n), dtype=np.float32)
    for start in range(0, len(queries), _KNN_BLOCK):
        block = queries[start:start + _KNN_BLOCK]
        dots = product[:len(block)]
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(block, index.vectors.T, out=dots)
        hits += [_rescore(index, q, _prefilter(index, q, row, take, scratch), take)
                 for q, row in zip(block, dots)]
    return hits[0] if q32.ndim == 1 else hits


def r_precision(retrieved: Sequence[str], relevant: Iterable[str]) -> float:
    """Precision at R where R = |relevant|; ranks past |retrieved| are
    misses. Equals both precision@R and recall@R."""
    relevant_set = frozenset(relevant)
    if not relevant_set:
        raise ValueError("relevant set must be non-empty")
    r = len(relevant_set)
    top = list(retrieved)[:r]
    return len(frozenset(top) & relevant_set) / r


# ---------------------------------------------------------------------------
# Snapshots

def save_index(index: FlatIndex, path: str | Path,
               embedder_fingerprint: str = "") -> None:
    """Write a snapshot. Its id table is the ids joined by newlines, so an
    id that holds one is refused before the file is opened."""
    for record_id in index.record_ids:
        if "\n" in record_id:
            raise IndexError_(f"record id {record_id!r} holds a newline, which a "
                              "snapshot id table cannot store")
    ids_blob = "\n".join(index.record_ids).encode("utf-8")
    header = {
        "scope": index.scope.label(),
        "dim": index.dim,
        "count": len(index),
        "embedder": embedder_fingerprint,
        "ids_bytes": len(ids_blob),
    }
    vec_blob = np.ascontiguousarray(index.vectors, dtype="<f4").tobytes()
    header["crc32"] = zlib.crc32(ids_blob, zlib.crc32(vec_blob))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(vec_blob)
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
    vec_blob = blob[vec_start:vec_start + vec_bytes]
    ids_blob = blob[vec_start + vec_bytes:]
    if len(ids_blob) != header["ids_bytes"]:
        raise IndexError_("snapshot truncated")
    try:
        # one empty id makes an empty table, so the count decides
        record_ids = ids_blob.decode("utf-8").split("\n") if count or ids_blob else []
    except UnicodeDecodeError as exc:
        raise IndexError_(f"snapshot id table is not UTF-8: {exc}") from None
    if "crc32" in header and header["crc32"] != zlib.crc32(ids_blob, zlib.crc32(vec_blob)):
        raise IndexError_("snapshot checksum mismatch: vector block or id table damaged")
    vectors = np.frombuffer(vec_blob, dtype="<f4").reshape(count, dim).copy()
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
    crc = header.get("crc32", 0)  # absent in snapshots that predate it
    if type(crc) is not int or not 0 <= crc < 2 ** 32:
        raise IndexError_("snapshot header crc32 must be an unsigned 32-bit integer")
    header["scope"] = IndexScope.parse(header["scope"])
    return header
