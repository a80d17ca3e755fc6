from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import zlib
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filingswarm
from filingswarm import vindex
from filingswarm.corpus import records as records_module
from filingswarm.corpus.reconcile import reconcile
from filingswarm.corpus.records import FilingRecord, build_store, to_embedding_text
from filingswarm.corpus.schema import FilingType
from filingswarm.corpus.synthetic import SyntheticConfig, generate_synthetic
from filingswarm.evalrun import build_routing_indexes
from filingswarm.vindex import (
    FlatIndex,
    HashFeatureEmbedder,
    IndexError_,
    IndexScope,
    MappingEmbedder,
    build_index,
    build_text_index,
    canonical_distance,
    knn,
    load_index,
    r_precision,
    save_index,
    scope_positions,
)


def naive_knn(index: FlatIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """knn's reference: every row ranked by (canonical_distance, id)."""
    ranked = sorted((canonical_distance(row, query), rid)
                    for row, rid in zip(index.vectors, index.record_ids))
    return [(rid, dist) for dist, rid in ranked[:k]]


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
        assert knn(index, q, k=10) == naive_knn(index, q, 10)


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


def test_knn_refuses_a_k_that_is_not_an_integer():
    # k = 5 is past the index length
    index = make_index([("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [1.0, 1.0])], 2)
    query = np.zeros(2, dtype=np.float32)
    for k in (2.5, 5.5, np.float64(2.0), "2"):
        with pytest.raises(IndexError_, match="k must be an integer"):
            knn(index, query, k)
        with pytest.raises(IndexError_, match="k must be an integer"):
            knn(index, query[None], k)
    for k in (2, np.int64(2), np.uint8(2), 5, np.int32(5)):
        assert knn(index, query, k) == naive_knn(index, query, int(k))


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
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_knn_equals_naive_scan_at_any_magnitude(case):
    index, query, k = case
    assert knn(index, query, k) == naive_knn(index, query, k)


@settings(max_examples=200, deadline=None)
@given(case=_knn_case(), seed=st.integers(0, 2**32 - 1), m=st.integers(0, 40))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_knn_of_a_query_matrix_is_each_rows_knn(case, seed, m):
    # m may span several GEMM blocks; rows are the case's query, index rows
    # (exact matches) and fresh draws at the case's magnitudes
    index, query, k = case
    rng = np.random.default_rng(seed)
    pool = np.vstack([query[None], index.vectors,
                      query * rng.standard_normal((4, index.dim)).astype(np.float32)])
    queries = pool[rng.integers(len(pool), size=m)]
    got = knn(index, queries, k)
    assert len(got) == m
    for row, hits in zip(queries, got):
        assert hits == knn(index, row, k)
        assert hits == naive_knn(index, row, k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_knn_of_a_query_matrix_mixes_overflow_and_ordinary_rows():
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((50, 3)).astype(np.float32)
    vectors[:3] *= np.float32(3e20)
    index = FlatIndex(scope=IndexScope.global_(), dim=3,
                      record_ids=[f"r{i:02d}" for i in range(50)], vectors=vectors)
    huge = np.array([3e20, 2e15, -1e20], dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(vectors @ huge).all()
    queries = np.vstack([rng.standard_normal((vindex._KNN_BLOCK + 3, 3)).astype(np.float32),
                         huge[None]])
    queries[[1, 7]] = queries[[7, 1]]
    queries[9] = huge
    for k in (1, 5, 49, 50, 51):
        got = knn(index, queries, k)
        assert len(got) == len(queries)
        for row, hits in zip(queries, got):
            assert hits == naive_knn(index, row, k)
    empty = FlatIndex(scope=IndexScope.global_(), dim=3)
    assert knn(empty, queries, 2) == [[]] * len(queries)
    assert knn(index, np.zeros((0, 3), dtype=np.float32), 2) == []


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), dim=st.integers(1, 6),
       m=st.integers(2, vindex._KNN_BLOCK), data=st.data())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_knn_of_a_block_with_one_overflowing_query_is_each_rows_naive_scan(seed, n, dim,
                                                                           m, data):
    # one GEMM block: ordinary queries and one whose float32 dot products
    # overflow against the huge rows, which only it takes in float64. Huge
    # rows hold +-3e20 in the first and last coordinates, so a dot product
    # is +inf, -inf or (inf - inf) NaN, and the nearest rows include each
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    huge_rows = rng.choice(n, size=data.draw(st.integers(1, n)), replace=False)
    for column in (0, -1):
        vectors[huge_rows, column] = np.float32(3e20) * rng.choice([-1, 1], size=len(huge_rows))
    index = FlatIndex(scope=IndexScope.global_(), dim=dim,
                      record_ids=[f"r{i:02d}" for i in rng.permutation(n)], vectors=vectors)
    queries = rng.standard_normal((m, dim)).astype(np.float32)
    at = data.draw(st.integers(0, m - 1))
    queries[at, 0], queries[at, -1] = np.float32(3e20), np.float32(3e20) * rng.choice([-1, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        dots = queries @ vectors.T
    assert not np.isfinite(dots[at]).all()
    assert np.isfinite(np.delete(dots, at, axis=0)).all()
    k = data.draw(st.integers(1, n + 1))
    got = knn(index, queries, k)
    assert len(got) == m
    for row, hits in zip(queries, got):
        assert hits == naive_knn(index, row, k)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_knn_refuses_a_query_that_is_not_finite(bad):
    index = make_index([("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [1.0, 1.0])], 2)
    query = np.array([bad, 0.0], dtype=np.float32)
    for k in (1, 3, 4):
        with pytest.raises(IndexError_, match="query row 0 is not finite"):
            knn(index, query, k)
    queries = np.array([[0.0, 1.0], [0.0, bad], [1.0, 1.0]], dtype=np.float32)
    with pytest.raises(IndexError_, match="query row 1 is not finite"):
        knn(index, queries, 2)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_index_refuses_vectors_that_are_not_finite(bad, tmp_path):
    vectors = np.ones((3, 2), dtype=np.float32)
    vectors[1, 0] = bad
    with pytest.raises(IndexError_, match="not finite"):
        FlatIndex(scope=IndexScope.global_(), dim=2, record_ids=["a", "b", "c"],
                  vectors=vectors)
    # a snapshot whose vector block holds one, with a checksum that matches
    index = FlatIndex(scope=IndexScope.global_(), dim=2, record_ids=["a", "b", "c"],
                      vectors=np.ones((3, 2), dtype=np.float32))
    path = tmp_path / "f.idx"
    save_index(index, path)
    blob = path.read_bytes()
    vec_start = blob.index(b"\n", len(b"FSIDX1\n")) + 1
    vec_blob = vectors.astype("<f4").tobytes()
    ids_blob = blob[vec_start + len(vec_blob):]
    blob = blob[:vec_start] + vec_blob + ids_blob
    path.write_bytes(_with_header(blob, vec_start,
                                  crc32=zlib.crc32(ids_blob, zlib.crc32(vec_blob))))
    with pytest.raises(IndexError_, match="not finite"):
        load_index(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_knn_float64_fallback_on_float32_overflow():
    vectors = np.array([[3e20, 0.0], [3e20, 1e15], [-3e20, 0.0]], dtype=np.float32)
    index = make_index([("a", vectors[0]), ("b", vectors[1]), ("c", vectors[2])], 2)
    query = np.array([3e20, 2e15], dtype=np.float32)
    with np.errstate(over="ignore"):
        assert not np.isfinite(vectors @ query).all()
    result = knn(index, query, 2)
    assert [rid for rid, _ in result] == ["b", "a"]
    assert result == naive_knn(index, query, 2)


def _traced(call):
    """``call()``, and the traced memory it peaked at and left held, in
    bytes over what was held before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - before, held - before


def test_knn_over_several_query_blocks_holds_one_product_block():
    rng = np.random.default_rng(3)
    n, dim = 20_000, 16
    index = FlatIndex(scope=IndexScope.global_(), dim=dim,
                      record_ids=[f"r{i:05d}" for i in range(n)],
                      vectors=rng.standard_normal((n, dim)).astype(np.float32))
    queries = rng.standard_normal((3 * vindex._KNN_BLOCK + 1, dim)).astype(np.float32)
    hits, peak, _ = _traced(lambda: knn(index, queries, 5))
    assert [h[0] for h in hits[-2:]] == [naive_knn(index, q, 5)[0] for q in queries[-2:]]
    product = vindex._KNN_BLOCK * n * 4  # one block's float32 dot products
    scratch = 3 * n * 8  # the prefilter's float64 rows
    # each query's own arrays take a few bytes per row; a second product
    # block alive at once would take 64
    assert peak < product + scratch + product // 4


def test_build_index_transient_memory_does_not_grow_past_one_chunk(registry):
    store = generate_synthetic(SyntheticConfig(records_per_table=2000, amendment_fraction=0.0),
                               seed=3, registry=registry)
    transients = []
    for n in (2048, 8192):
        view = reconcile(build_store(store.records[:n], registry))
        embedder = HashFeatureEmbedder(64)
        build_index(view, IndexScope.global_(), embedder)  # its token codes stay held
        index, peak, held = _traced(lambda: build_index(view, IndexScope.global_(), embedder))
        assert len(index) == n
        transients.append(peak - held)
    # past one chunk, a build's transient is one chunk's working set; the
    # index itself is held, not transient
    assert transients[1] < 1.25 * transients[0]


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


def test_build_index_takes_each_scope_from_the_one_walk(small_view):
    # the rows of every agent and table scope, in view order, from
    # scope_positions; an agent key may be spelled as FilingType.parse reads it
    embedder = HashFeatureEmbedder(8)
    positions = scope_positions(small_view)
    for scope, rows in positions.items():
        index = build_index(small_view, scope, embedder)
        assert index.record_ids == [small_view.records[pos].record_id for pos in rows]
    lower = build_index(small_view, IndexScope("agent", "13f"), embedder)
    assert lower.scope == IndexScope("agent", "13f")
    assert lower.record_ids == build_index(small_view, IndexScope.parse("agent:13F"),
                                           embedder).record_ids
    assert len(build_index(small_view, IndexScope.table("no_such_table"), embedder)) == 0
    with pytest.raises(ValueError, match="unknown filing type"):
        build_index(small_view, IndexScope("agent", "bogus"), embedder)


def test_index_rejects_duplicate_ids():
    with pytest.raises(IndexError_):
        FlatIndex(scope=IndexScope.global_(), dim=2, record_ids=["a", "a"],
                  vectors=np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(IndexError_):
        FlatIndex(scope=IndexScope.global_(), dim=2, record_ids=["a"],
                  vectors=np.zeros((2, 2), dtype=np.float32))


def test_select_refuses_positions_outside_the_index_or_repeated():
    index = make_index([("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [1.0, 1.0])], 2)
    scope = IndexScope.table("t")
    for positions in ([-1], [0, -3], [3], [2, 1, 3]):
        with pytest.raises(IndexError_, match=r"positions must lie in \[0, 3\)"):
            index.select(scope, positions)
    for positions in ([1, 1], [0, 2, 0]):
        with pytest.raises(IndexError_, match="positions repeat a row"):
            index.select(scope, positions)
    for positions in ([1.0], [[0, 1]], ["0"]):
        with pytest.raises(IndexError_, match="positions must be a sequence of integers"):
            index.select(scope, positions)
    assert index.select(scope, [2, 0]).record_ids == ["c", "a"]
    assert index.select(scope, np.array([1], dtype=np.uint32)).record_ids == ["b"]
    assert len(index.select(scope, [])) == 0


@settings(max_examples=300, deadline=None)
@given(case=_knn_case(), data=st.data())
def test_selected_index_equals_an_index_built_from_its_rows(case, data):
    # the norms come from the parent, at any magnitude; some rows may hold
    # float32 subnormals, whose squares underflow in float32 but not float64
    index, _, _ = case
    vectors = index.vectors.copy()
    tiny = data.draw(st.lists(st.integers(0, len(index) - 1), max_size=3))
    vectors[tiny] = np.float32(2.0 ** -149) * np.arange(1, index.dim + 1, dtype=np.float32)
    index = FlatIndex(scope=index.scope, dim=index.dim, record_ids=index.record_ids,
                      vectors=vectors)
    positions = data.draw(st.permutations(range(len(index))).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda m: order[:m])))
    scope = IndexScope.table("t")
    selected = index.select(scope, positions)
    built = FlatIndex(scope=scope, dim=index.dim,
                      record_ids=[index.record_ids[pos] for pos in positions],
                      vectors=index.vectors[positions].copy())
    assert selected.scope == built.scope and selected.dim == built.dim
    assert selected.record_ids == built.record_ids
    assert selected.vectors.tobytes() == built.vectors.tobytes()
    assert selected.sq_norms.tobytes() == built.sq_norms.tobytes()
    assert not selected.vectors.flags.writeable and not selected.sq_norms.flags.writeable


def test_persona_and_table_description_indexes(registry):
    embedder = HashFeatureEmbedder(32)
    personas, table_indexes = build_routing_indexes(registry, embedder)
    assert sorted(personas.record_ids) == ["13F", "ADV", "NCEN", "NCSR", "NMFP", "NPORT"]
    tables = table_indexes[FilingType.NPORT.value]
    assert sorted(tables.record_ids) == [
        "nport_derivatives", "nport_fund_info", "nport_holdings"]


@pytest.mark.parametrize("dim", [0, -1])
def test_hash_embedder_refuses_a_dim_below_one(dim):
    with pytest.raises(IndexError_, match="^dim must be >= 1$"):
        HashFeatureEmbedder(dim)


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


def test_snapshot_refuses_an_id_with_a_newline(tmp_path):
    index = FlatIndex(scope=IndexScope.global_(), dim=2, record_ids=["a", "b\nc"],
                      vectors=np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "n.idx"
    with pytest.raises(IndexError_, match=r"record id 'b\\nc' holds a newline"):
        save_index(index, path)
    assert not path.exists()


@pytest.mark.parametrize("record_ids", [[""], ["", "a"], ["a", ""]])
def test_snapshot_round_trips_an_empty_id(tmp_path, record_ids):
    index = FlatIndex(scope=IndexScope.global_(), dim=2, record_ids=record_ids,
                      vectors=np.arange(2 * len(record_ids), dtype=np.float32).reshape(-1, 2))
    path = tmp_path / "e.idx"
    save_index(index, path)
    loaded, _ = load_index(path)
    assert loaded.record_ids == record_ids
    assert np.array_equal(loaded.vectors, index.vectors)


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
    "vector block bit flip": (lambda b, v: b[:v] + bytes([b[v] ^ 1]) + b[v + 1:], "checksum"),
    "id table bit flip": (lambda b, v: b[:-1] + bytes([b[-1] ^ 1]), "checksum"),
    "crc32 off by one": (lambda b, v: _with_header(
        b, v, crc32=(json.loads(b[7:v - 1])["crc32"] + 1) % 2 ** 32), "checksum"),
    "crc32 a string": (lambda b, v: _with_header(b, v, crc32="0"), "crc32"),
    "crc32 a bool": (lambda b, v: _with_header(b, v, crc32=False), "crc32"),
    "crc32 negative": (lambda b, v: _with_header(b, v, crc32=-1), "crc32"),
    "crc32 past 32 bits": (lambda b, v: _with_header(b, v, crc32=2 ** 32), "crc32"),
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


def test_snapshot_without_a_checksum_still_loads(small_view, tmp_path):
    # snapshots written before the header carried crc32 load unchecked
    embedder = HashFeatureEmbedder(8)
    index = build_index(small_view, IndexScope.parse("table:adv_entity"), embedder)
    path = tmp_path / "old.idx"
    save_index(index, path, embedder.fingerprint)
    blob = path.read_bytes()
    vec_start = blob.index(b"\n", len(b"FSIDX1\n")) + 1
    assert type(json.loads(blob[7:vec_start - 1])["crc32"]) is int
    path.write_bytes(_with_header(blob, vec_start, crc32=None))
    loaded, fingerprint = load_index(path)
    assert fingerprint == embedder.fingerprint
    assert loaded.record_ids == index.record_ids
    assert np.array_equal(loaded.vectors.view(np.uint32), index.vectors.view(np.uint32))


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
            "ß", "Ⅻ", "ǅ", "ﬃ", "A", "z", vindex._SEP, "Σ", "ς"]


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


# Vector bytes of the small corpus's global index and of an index over
# awkward texts, hashed together: any change to tokens, codes or rounding in
# the batch path changes this digest.
EMBED_DIGEST = "b2720e83d2a484edafdb0f440014f5683c64067db21fdce23061bb7b13b674c8"

_PINNED_TEXTS = [
    "", " ", "\x01", "\x01 \x01\x01  \x01", "a\x01b", "\x01a\x01", "ΣΑΣ ς σ",
    "Οδυσσεύς", "\u0130stanbul K\u212aL", "e\u0301t\u00e9", "\ud800x\udfff9",
    "ß ﬃ Ⅻ ǅ \u00b2", "snake_case kebab-case 42x7", "Tab\tNew\nLine\r\x00end",
    '{"fields": {"cusip": "A1B2", "value": 1.5e-07}, "table": "t"}',
]


def test_embedded_vector_bytes_are_pinned(small_view):
    digest = hashlib.sha256()
    for dim in (1, 7, 64):
        embedder = HashFeatureEmbedder(dim)
        digest.update(build_index(small_view, IndexScope.global_(), embedder)
                      .vectors.tobytes())
        digest.update(build_text_index(
            ((str(i), text) for i, text in enumerate(_PINNED_TEXTS)), embedder)
            .vectors.tobytes())
    assert digest.hexdigest() == EMBED_DIGEST


@pytest.mark.parametrize("texts", [
    [vindex._SEP],
    [vindex._SEP * 3 + " " + vindex._SEP + "  "],
    ["a", vindex._SEP, "b"],
    ["x" + vindex._SEP + "y", vindex._SEP + " " + vindex._SEP, "σΣ" + vindex._SEP + "Σ z"],
])
def test_hash_embed_batch_reads_a_separator_in_a_text_as_a_space(texts):
    embedder = HashFeatureEmbedder(16)
    batch = embedder.embed_batch(texts)
    spaced = embedder.embed_batch([t.replace(vindex._SEP, " ") for t in texts])
    assert np.array_equal(batch.view(np.uint32), spaced.view(np.uint32))
    for row, text in zip(batch, texts):
        assert np.array_equal(row.view(np.uint32), _loop_embed(text, 16).view(np.uint32))


_RECORD_PIECES = ["{", "}", "}, {", ", ", '"', "\\", ": ", vindex._SEP, "é", "\ud800",
                  "Σς", "A1", "x", " ", "null"]
_record_text = st.lists(st.one_of(st.sampled_from(_RECORD_PIECES), st.characters()),
                        max_size=6).map("".join)
_scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _record_text)
_field_value = st.one_of(_scalar, st.lists(_scalar, max_size=3),
                         st.dictionaries(_record_text, _scalar, max_size=2))


def _record(i: int, table_id: str, fields: dict) -> FilingRecord:
    return FilingRecord(record_id=f"r{i}", accession_id="a", filing_type=FilingType.NPORT,
                        table_id=table_id, filer_id="f", period=date(2024, 3, 31),
                        is_amendment=False, amends=None, fields=fields)


@settings(max_examples=300, deadline=None)
@example(rows=[("t1", {"a": ["], [", {"}, {": "[x]"}], "b": None}),
               ("t1", {"a": 1, "b": 2}), ("t1", {"b": "{}", "a": "x"}),
               ("t1", {"a": None, "b": None}), ("té 3", {"a": 1, "b": 2}),
               ("t1", {}), ("T{2}", {"a": {"[": ["{", "}"]}, "b": [[], {}]})],
         dim=7, chunk=3)
@example(rows=[("t1", {"a": 1, "b": "x"}), ("t1", {"a": "], [", "b": 2}),
               ("t2", {"a": [[1], [2]], "b": None}), ("t2", {"a": 3}),
               ("t1", {"a": [1], "b": [2]}), ("t1", {"a": 4, "b": 5}),
               ("t1", {"a": [6], "b": 6}), ("t2", {"b": [[7]]})],
         dim=7, chunk=2)
@given(rows=st.lists(st.tuples(st.sampled_from(["t1", "T{2}", "té 3", "t\x01"]),
                               st.dictionaries(_record_text, _field_value, max_size=4)),
                     max_size=10),
       dim=st.sampled_from([1, 7, 64]),
       chunk=st.integers(1, 5))
def test_hash_embed_of_records_is_bit_identical_to_their_texts(rows, dim, chunk):
    records = [_record(i, table_id, fields) for i, (table_id, fields) in enumerate(rows)]
    texts = [to_embedding_text(r) for r in records]
    with mock.patch.object(vindex, "_EMBED_CHUNK", chunk):
        batch = HashFeatureEmbedder(dim).embed_batch(vindex._RecordTexts(records))
        expected = HashFeatureEmbedder(dim).embed_batch(texts)
    assert np.array_equal(batch.view(np.uint32), expected.view(np.uint32))


# Records drawn from a few key layouts shared across tables, with values that
# may be null and may hold the brackets, braces and separators that a JSON
# array or object renders around its items.
_BRACKETED = ['"], ["', '"}, {"', "], [", "}, {", "[", "]", "{", "}", "[]", "{}"]
_LAYOUT_KEYS = ["cusip", "value", "fund_ids", "Σ k", "{k}", '"], ["', "[x]"]
_bracketed_value = st.recursive(
    st.one_of(_scalar, st.sampled_from(_BRACKETED)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(_record_text, st.sampled_from(_BRACKETED)), inner,
                        max_size=2)),
    max_leaves=6)


@st.composite
def _layout_records(draw) -> list[FilingRecord]:
    layouts = draw(st.lists(st.lists(st.sampled_from(_LAYOUT_KEYS), unique=True, max_size=4),
                            min_size=1, max_size=3))
    records = []
    for i in range(draw(st.integers(0, 12))):
        table_id = draw(st.sampled_from(["t1", "t2", "T{2}"]))
        keys = draw(st.sampled_from(layouts))
        records.append(_record(i, table_id, {k: draw(_bracketed_value) for k in keys}))
    return records


@settings(max_examples=300, deadline=None)
@given(records=_layout_records(), dim=st.sampled_from([1, 7, 64]), chunk=st.integers(1, 5))
def test_hash_embed_of_records_sharing_key_layouts_is_bit_identical_to_their_texts(
        records, dim, chunk):
    texts = [to_embedding_text(r) for r in records]
    with mock.patch.object(vindex, "_EMBED_CHUNK", chunk):
        batch = HashFeatureEmbedder(dim).embed_batch(vindex._RecordTexts(records))
        expected = HashFeatureEmbedder(dim).embed_batch(texts)
    assert np.array_equal(batch.view(np.uint32), expected.view(np.uint32))


def test_embedding_text_rows_are_value_rows_then_one_frame_per_key_layout(small_view):
    records = small_view.records
    joined, n_rows, owners = vindex._embedding_text_rows(records)
    rows = joined.split(vindex._JOINER)
    layouts = [(r.table_id, tuple(k for k, v in r.fields.items() if v is not None))
               for r in records]
    frames = list(dict.fromkeys(layouts))
    assert n_rows == len(rows) == len(records) + len(frames)
    assert len(frames) < len(records)
    assert len(owners) == len(records)
    for record, layout, values, owner in zip(records, layouts, rows, owners):
        assert json.loads(values) == [record.fields[k] for k in layout[1]]
        assert owner == len(records) + frames.index(layout)
        assert json.loads(rows[owner]) == {"fields": list(layout[1]), "table": layout[0]}


@pytest.mark.parametrize("values", [
    [1, "x"], ["], ["], ['"], ["'], [[[1], [2]]], [[1], [2]], [{"k": [1]}, [2]], [[], []],
    [[1, [2]], "[3]"], [],
])
def test_embedding_text_rows_are_split_only_at_record_boundaries(values):
    # a value that renders "], [" sends the chunk to one encode per record;
    # the joined rows are the same either way
    records = [_record(0, "t1", {"a": 0}), _record(1, "t1", {f"v{i}": v for i, v in enumerate(values)}),
               _record(2, "t2", {"a": [0], "b": None}), _record(3, "t1", {"a": [1]})]
    joined, n_rows, owners = vindex._embedding_text_rows(records)
    rows = [json.dumps(list(v for v in r.fields.values() if v is not None))
            for r in records]
    layouts = list(dict.fromkeys(
        (r.table_id, tuple(k for k, v in r.fields.items() if v is not None)) for r in records))
    rows += [json.dumps({"fields": list(keys), "table": table}) for table, keys in layouts]
    assert joined == vindex._JOINER.join(rows)
    assert n_rows == len(rows)


def test_hash_build_index_renders_no_record_text(small_view, monkeypatch):
    embedder = HashFeatureEmbedder(16)
    expected = embedder.embed_batch([to_embedding_text(r) for r in small_view.records])

    def unused(record):
        raise AssertionError("a record's embedding text was rendered")

    monkeypatch.setattr(vindex, "to_embedding_text", unused)
    monkeypatch.setattr(records_module, "to_embedding_text", unused)
    index = build_index(small_view, IndexScope.global_(), HashFeatureEmbedder(16))
    assert np.array_equal(index.vectors.view(np.uint32), expected.view(np.uint32))


def test_hash_embedder_text_without_tokens_is_zero():
    batch = HashFeatureEmbedder(16).embed_batch(["", "__ -- ??", "\u00e9\u00b2", "\ud800",
                                                 vindex._SEP, vindex._SEP + " " + vindex._SEP])
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
    batch = embedder.embed_batch(["missing", "a"])
    assert batch.dtype == np.float32 and np.array_equal(batch, base[[2, 0]])
    assert embedder.embed_batch([]).shape == (0, 3)
    assert embedder.fingerprint == "mapping:3"
    strict = MappingEmbedder(3, {"a": base[0]})
    for embed in (strict.embed, lambda text: strict.embed_batch(["a", text])):
        with pytest.raises(IndexError_, match="no mapping for text: 'missing'"):
            embed("missing")


# --- ranking metrics ---------------------------------------------------------

def test_metric_hand_values():
    retrieved = ["a", "b", "c", "d"]
    relevant = {"a", "c"}
    assert r_precision(retrieved, relevant) == 0.5          # top-2 has one hit


def test_metric_guards():
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
    hits = len(set(retrieved[:r]) & relevant)
    assert rp == hits / r              # precision@R: hits over the R ranks read
    assert rp == hits / len(relevant)  # recall@R: hits over the relevant set


def test_importing_vindex_does_not_import_requests():
    package_root = str(Path(filingswarm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, filingswarm.vindex; print('requests' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
