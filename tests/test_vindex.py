from __future__ import annotations

import json
import re
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm import vindex
from filingswarm.vindex import (
    FlatIndex,
    HashFeatureEmbedder,
    IndexError_,
    IndexScope,
    MappingEmbedder,
    build_index,
    build_persona_index,
    build_table_description_index,
    build_text_index,
    canonical_distance,
    knn,
    load_index,
    precision_at_k,
    r_precision,
    recall_at_k,
    save_index,
)
from perfbench.gates import naive_knn


def make_index(ids_vectors, dim, scope=None):
    ids = [i for i, _ in ids_vectors]
    vectors = np.array([v for _, v in ids_vectors], dtype=np.float32).reshape(len(ids), dim)
    return FlatIndex(scope=scope or IndexScope.global_(), dim=dim,
                     record_ids=ids, vectors=vectors)


# --- distance and knn --------------------------------------------------------

def test_canonical_distance_hand_values():
    assert canonical_distance(np.array([1.0, 0.0], dtype=np.float32),
                              np.array([0.0, 1.0], dtype=np.float32)) == 2.0
    x = np.array([0.1, 0.2], dtype=np.float32)
    assert canonical_distance(x, x) == 0.0


def test_knn_orders_by_distance_then_id():
    index = make_index([("b", [1.0, 0.0]), ("a", [1.0, 0.0]), ("c", [0.0, 1.0])], 2)
    result = knn(index, np.array([1.0, 0.0], dtype=np.float32), k=3)
    assert [rid for rid, _ in result] == ["a", "b", "c"]
    assert result[0][1] == result[1][1] == 0.0
    assert result[2][1] == 2.0


def test_knn_matches_naive_oracle_with_duplicates():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((200, 8)).astype(np.float32)
    vectors[50:100] = vectors[:50]  # force exact ties
    ids = [f"r{i:03d}" for i in range(200)]
    index = FlatIndex(scope=IndexScope.global_(), dim=8, record_ids=ids, vectors=vectors)
    for qi in range(20):
        q = vectors[qi * 7 % 200]
        naive = sorted(
            ((canonical_distance(vectors[i], q), ids[i]) for i in range(200)),
            key=lambda pair: (pair[0], pair[1]))
        got = knn(index, q, k=10)
        assert [(rid, d) for rid, d in got] == [(rid, d) for d, rid in naive[:10]]


def test_knn_k_larger_than_index():
    index = make_index([("a", [1.0, 0.0])], 2)
    assert len(knn(index, np.zeros(2, dtype=np.float32), k=5)) == 1


def test_knn_guards():
    index = make_index([("a", [1.0, 0.0])], 2)
    with pytest.raises(IndexError_):
        knn(index, np.zeros(2, dtype=np.float32), k=0)
    with pytest.raises(IndexError_):
        knn(index, np.zeros(3, dtype=np.float32), k=1)
    empty = FlatIndex(scope=IndexScope.global_(), dim=2)
    assert knn(empty, np.zeros(2, dtype=np.float32), k=1) == []


@st.composite
def _knn_case(draw):
    """An index, a query and k. Rows sit at magnitudes from 1e-30 to 1e25
    (products beyond float32 range take the float64 fallback) or share one
    large offset coordinate with small residuals; some rows repeat exactly,
    and ids are shuffled so that ties break on them."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 9))
    k = draw(st.one_of(st.integers(1, n), st.just(n), st.integers(n, n + 3)))
    rng = np.random.default_rng(seed)
    residuals = rng.standard_normal((n + 1, dim))
    if draw(st.booleans()):
        vectors = residuals * 10.0 ** rng.uniform(-30, 25, size=(n + 1, 1))
    else:
        vectors = residuals * 10.0 ** draw(st.floats(-3, 1))
        vectors[:, rng.integers(dim)] += 10.0 ** draw(st.floats(3, 18))
    for _ in range(draw(st.integers(0, n - 1))):
        vectors[rng.integers(n)] = vectors[rng.integers(n)]
    ids = [f"r{i:02d}" for i in rng.permutation(n)]
    index = FlatIndex(scope=IndexScope.global_(), dim=dim, record_ids=ids,
                      vectors=vectors[:n].astype(np.float32))
    query = vectors[rng.integers(n)] if draw(st.booleans()) else vectors[n]
    return index, query.astype(np.float32), k


@settings(max_examples=400, deadline=None)
@given(_knn_case())
def test_knn_equals_naive_scan_at_any_magnitude(case):
    index, query, k = case
    assert knn(index, query, k) == naive_knn(index.vectors, index.record_ids, query, k)


def test_knn_float64_fallback_on_float32_overflow():
    vectors = np.array([[3e20, 0.0], [3e20, 1e15], [-3e20, 0.0]], dtype=np.float32)
    index = make_index([("a", vectors[0]), ("b", vectors[1]), ("c", vectors[2])], 2)
    query = np.array([3e20, 2e15], dtype=np.float32)
    with np.errstate(over="ignore"):
        assert not np.isfinite(vectors @ query).all()
    result = knn(index, query, 2)
    assert [rid for rid, _ in result] == ["b", "a"]
    assert result == naive_knn(index.vectors, index.record_ids, query, 2)


def test_index_is_immutable_with_cached_norms():
    index = make_index([("a", [3.0, 4.0]), ("b", [1.0, 0.0])], 2)
    assert index.sq_norms.tolist() == [25.0, 1.0]
    with pytest.raises(ValueError):
        index.vectors[0, 0] = 1.0
    with pytest.raises(AttributeError):
        index.vectors = np.zeros((2, 2), dtype=np.float32)


# --- scopes and index builds -------------------------------------------------

def test_scope_labels_round_trip():
    from filingswarm.corpus.schema import FilingType
    for scope in (IndexScope.global_(), IndexScope.agent(FilingType.THIRTEEN_F),
                  IndexScope.table("nport_holdings")):
        assert IndexScope.parse(scope.label()) == scope
    with pytest.raises(IndexError_):
        IndexScope.parse("bogus:xyz")
    with pytest.raises(IndexError_):
        IndexScope("agent", "")
    with pytest.raises(IndexError_):
        IndexScope("global", "13F")


def test_build_index_scopes(small_view):
    embedder = HashFeatureEmbedder(16)
    global_index = build_index(small_view, IndexScope.global_(), embedder)
    agent_index = build_index(small_view, IndexScope.parse("agent:13F"), embedder)
    table_index = build_index(small_view, IndexScope.parse("table:thirteenf_holdings"), embedder)

    assert len(global_index) == len(small_view)
    # the 13F agent owns exactly one table
    assert len(agent_index) == len(table_index)
    assert set(agent_index.record_ids) == set(table_index.record_ids)
    assert set(table_index.record_ids) == {
        r.record_id for r in small_view.table_records("thirteenf_holdings")}


def test_index_rejects_duplicate_ids():
    with pytest.raises(IndexError_):
        FlatIndex(scope=IndexScope.global_(), dim=2, record_ids=["a", "a"],
                  vectors=np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(IndexError_):
        FlatIndex(scope=IndexScope.global_(), dim=2, record_ids=["a"],
                  vectors=np.zeros((2, 2), dtype=np.float32))


def test_persona_and_table_description_indexes(registry):
    embedder = HashFeatureEmbedder(32)
    personas = build_persona_index(registry, embedder)
    assert sorted(personas.record_ids) == ["13F", "ADV", "NCEN", "NCSR", "NMFP", "NPORT"]
    from filingswarm.corpus.schema import FilingType
    tables = build_table_description_index(registry, FilingType.NPORT, embedder)
    assert sorted(tables.record_ids) == [
        "nport_derivatives", "nport_fund_info", "nport_holdings"]


def test_build_text_index_empty_is_empty():
    index = build_text_index([], HashFeatureEmbedder(8), IndexScope.global_())
    assert len(index) == 0


# --- snapshots ---------------------------------------------------------------

def test_snapshot_round_trip_byte_identical(small_view, tmp_path):
    embedder = HashFeatureEmbedder(16)
    index = build_index(small_view, IndexScope.parse("table:adv_entity"), embedder)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(index, p1, embedder.fingerprint)

    loaded, fingerprint = load_index(p1)
    assert fingerprint == embedder.fingerprint
    assert loaded.record_ids == index.record_ids
    assert loaded.scope == index.scope
    assert np.array_equal(loaded.vectors, index.vectors)

    save_index(loaded, p2, fingerprint)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_detects_truncation_and_bad_magic(small_view, tmp_path):
    embedder = HashFeatureEmbedder(8)
    index = build_index(small_view, IndexScope.parse("table:adv_entity"), embedder)
    path = tmp_path / "c.idx"
    save_index(index, path, embedder.fingerprint)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(IndexError_):
        load_index(path)
    path.write_bytes(b"NOTANIDX" + blob)
    with pytest.raises(IndexError_):
        load_index(path)


def _with_header(blob, vec_start, **changes):
    """The snapshot with header fields replaced, or removed where None."""
    header = json.loads(blob[len(b"FSIDX1\n"):vec_start - 1])
    for name, value in changes.items():
        if value is None:
            del header[name]
        else:
            header[name] = value
    return b"FSIDX1\n" + json.dumps(header).encode() + blob[vec_start - 1:]


_DAMAGE = {
    "header": (lambda b, v: b[:v - 10], "truncated"),
    "vector block": (lambda b, v: b[:v + 10], "truncated"),
    "vector block, whole floats": (lambda b, v: b[:v + 8], "truncated"),
    "id table": (lambda b, v: b[:-1], "truncated"),
    "header not JSON": (lambda b, v: b[:8] + b"#" + b[9:], "not UTF-8 JSON"),
    "header not UTF-8": (lambda b, v: b[:8] + b"\xff" + b[9:], "not UTF-8 JSON"),
    "header not an object": (lambda b, v: b"FSIDX1\n[1, 2]" + b[v - 1:], "not a JSON object"),
    "dim missing": (lambda b, v: _with_header(b, v, dim=None), "dim"),
    "dim a string": (lambda b, v: _with_header(b, v, dim="8"), "dim"),
    "dim a bool": (lambda b, v: _with_header(b, v, dim=True), "dim"),
    "count missing": (lambda b, v: _with_header(b, v, count=None), "count"),
    "count negative": (lambda b, v: _with_header(b, v, count=-1), "count"),
    "count a float": (lambda b, v: _with_header(b, v, count=2.0), "count"),
    "ids_bytes missing": (lambda b, v: _with_header(b, v, ids_bytes=None), "ids_bytes"),
    "ids_bytes a list": (lambda b, v: _with_header(b, v, ids_bytes=[3]), "ids_bytes"),
    "scope missing": (lambda b, v: _with_header(b, v, scope=None), "scope"),
    "scope a number": (lambda b, v: _with_header(b, v, scope=7), "scope"),
    "scope unknown kind": (lambda b, v: _with_header(b, v, scope="shelf:x"), "scope kind"),
    "scope without key": (lambda b, v: _with_header(b, v, scope="table"), "requires a key"),
    "embedder missing": (lambda b, v: _with_header(b, v, embedder=None), "embedder"),
    "embedder a list": (lambda b, v: _with_header(b, v, embedder=["h"]), "embedder"),
    "id table not UTF-8": (lambda b, v: b[:-1] + b"\xff", "not UTF-8"),
}


@pytest.mark.parametrize("where", list(_DAMAGE))
def test_truncated_snapshot_raises_index_error(small_view, tmp_path, where):
    embedder = HashFeatureEmbedder(8)
    index = build_index(small_view, IndexScope.parse("table:adv_entity"), embedder)
    path = tmp_path / "t.idx"
    save_index(index, path, embedder.fingerprint)
    blob = path.read_bytes()
    vec_start = blob.index(b"\n", len(b"FSIDX1\n")) + 1
    damage, message = _DAMAGE[where]
    path.write_bytes(damage(blob, vec_start))
    with pytest.raises(IndexError_, match=message):
        load_index(path)


# --- embedders ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _loop_embed(text: str, dim: int) -> np.ndarray:
    """Reference: the per-text loop over regex tokens."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.lower()):
        crc = zlib.crc32(token.encode("utf-8"))
        vec[crc % dim] += 1.0 if (crc >> 16) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec.astype(np.float32)


_AWKWARD = ["\u0130", "\u212a", "\u0301", "_", "7", "42", " ", "", "\ud800", "\u00b2",
            "ß", "Ⅻ", "ǅ", "ﬃ", "A", "z"]


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.one_of(
           st.text(),
           st.lists(st.one_of(st.sampled_from(_AWKWARD), st.characters())).map("".join)),
           max_size=12),
       dim=st.sampled_from([1, 2, 7, 64]),
       chunk=st.integers(1, 5))
def test_hash_embed_batch_is_bit_identical_to_the_loop(texts, dim, chunk):
    embedder = HashFeatureEmbedder(dim)
    with mock.patch.object(vindex, "_EMBED_CHUNK", chunk):
        batch = embedder.embed_batch(texts)
    assert batch.shape == (len(texts), dim) and batch.dtype == np.float32
    for row, text in zip(batch, texts):
        assert np.array_equal(row.view(np.uint32), _loop_embed(text, dim).view(np.uint32))
        assert np.array_equal(embedder.embed(text).view(np.uint32), row.view(np.uint32))


def test_hash_embedder_text_without_tokens_is_zero():
    batch = HashFeatureEmbedder(16).embed_batch(["", "__ -- ??", "\u00e9\u00b2", "\ud800"])
    assert not batch.any()


def test_hash_embedder_unit_norm_and_fingerprint():
    embedder = HashFeatureEmbedder(32)
    vec = embedder.embed("aggregate cash equity positions")
    assert vec.shape == (32,)
    assert np.isclose(np.linalg.norm(vec), 1.0)
    assert embedder.fingerprint == "hash:32"
    assert np.array_equal(vec, HashFeatureEmbedder(32).embed(
        "aggregate cash equity positions"))
    assert not np.array_equal(vec[:16], HashFeatureEmbedder(16).embed(
        "aggregate cash equity positions"))


def test_hash_embedder_batch_matches_single():
    embedder = HashFeatureEmbedder(16)
    texts = ["one", "two", "three"]
    batch = embedder.embed_batch(texts)
    for i, text in enumerate(texts):
        assert np.array_equal(batch[i], embedder.embed(text))


def test_mapping_embedder_hits_and_default():
    base = np.eye(3, dtype=np.float64)
    embedder = MappingEmbedder(3, {"a": base[0]}, default=base[2])
    assert np.array_equal(embedder.embed("a"), base[0])
    assert np.array_equal(embedder.embed("missing"), base[2])
    fn = MappingEmbedder(3, {}, default=lambda text: base[1])
    assert np.array_equal(fn.embed("anything"), base[1])


# --- ranking metrics ---------------------------------------------------------

def test_metric_hand_values():
    retrieved = ["a", "b", "c", "d"]
    relevant = {"a", "c"}
    assert r_precision(retrieved, relevant) == 0.5          # top-2 has one hit
    assert precision_at_k(retrieved, relevant, 1) == 1.0
    assert precision_at_k(retrieved, relevant, 3) == pytest.approx(2 / 3)
    assert recall_at_k(retrieved, relevant, 3) == 1.0
    assert recall_at_k(retrieved, relevant, 1) == 0.5


def test_metric_guards():
    with pytest.raises(ValueError):
        precision_at_k(["a"], {"a"}, 0)
    with pytest.raises(ValueError):
        recall_at_k(["a"], set(), 1)
    with pytest.raises(ValueError):
        r_precision(["a"], set())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_r_precision_equals_precision_and_recall_at_r(data):
    universe = [f"d{i}" for i in range(30)]
    relevant = data.draw(st.sets(st.sampled_from(universe), min_size=1, max_size=10))
    retrieved = data.draw(st.permutations(universe))
    r = len(relevant)
    rp = r_precision(retrieved, relevant)
    assert rp == precision_at_k(retrieved, relevant, r)
    assert rp == recall_at_k(retrieved, relevant, r)
