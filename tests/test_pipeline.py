"""Pipeline stage tests: screening, decomposition, memory, drafting,
findings, revision, and the full pass.

Stage behavior is frozen against the rule provider; bounded-loop and
failure-path guarantees use small scripted providers instead.
"""
from __future__ import annotations

import ast
import gc
import json
import logging
import re
import warnings
from dataclasses import replace
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm.corpus.reconcile import reconcile
from filingswarm.corpus.records import FilingRecord, build_store
from filingswarm.corpus.schema import FilingType, load_default_registry
from filingswarm.evalrun import build_expert_indexes, judge_success
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.gateway.providers import ScriptedProvider
from filingswarm.gateway.types import FixtureMissError, GatewayError
from filingswarm import pipeline, plans, vindex
from filingswarm.pipeline import (
    LongTermMemory,
    PipelineResult,
    decompose,
    draft_plan,
    gather_swarm_intelligence,
    revise_plan,
    run_pipeline,
    screen_query,
)
from filingswarm.plans import Filter, Plan, PlanError, Retrieve, Return
from filingswarm.vindex import HashFeatureEmbedder
from perfbench import layers
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS, Sizes, generate_inputs

AUM_QUERY = ('Get the regulatory AUM for advisor "Test Advisors LLC" '
             'for period 2023-03-31.')
COUNTRY_QUERY = ('Get the country-level AUM for manager "Summit Advisors" '
                 'for period 2024-06-30.')
JUNK_QUERY = "Paint me a picture of the weather tomorrow."


def _user_query(request):
    for line in request.last_user_content().splitlines():
        if line.startswith("QUERY: "):
            return line[len("QUERY: "):]
    return ""


class _TagProvider:
    """Dispatches on the request tag; handlers are strings or callables."""

    def __init__(self, handlers):
        self.handlers = handlers

    def complete(self, request):
        handler = self.handlers[request.tag]
        content = handler(request) if callable(handler) else handler
        return content


# ---------------------------------------------------------------------------
# Screening


def test_screen_clean_query_passes_untouched():
    result = screen_query(AUM_QUERY, DeterministicProvider())
    assert result.verdict == "non_hallucinatory"
    assert result.rewrites == 0
    assert result.lineage == (AUM_QUERY,) and result.text == AUM_QUERY


def test_screen_rewrites_a_cueless_query():
    vague = ('I want to know the regulatory AUM for advisor '
             '"Test Advisors LLC" for period 2023-03-31.')
    result = screen_query(vague, DeterministicProvider())
    assert result.verdict == "non_hallucinatory"
    assert result.rewrites == 1
    assert result.text.startswith("Get the regulatory AUM")
    assert result.lineage == (vague, result.text)


def test_screen_stops_on_a_noop_rewrite():
    provider = _TagProvider({"classify": "hallucinatory 0.88",
                             "rewrite": _user_query})
    result = screen_query("circular question", provider, max_rewrites=5)
    assert result.verdict == "hallucinatory"
    assert result.rewrites == 0


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=20, deadline=None)
def test_screen_never_exceeds_the_rewrite_cap(max_rewrites):
    provider = _TagProvider({
        "classify": "hallucinatory 0.88",
        "rewrite": lambda request: _user_query(request) + " again",
    })
    result = screen_query("stubborn question", provider,
                          max_rewrites=max_rewrites)
    assert result.rewrites == max_rewrites
    assert result.verdict == "hallucinatory"
    assert len(result.lineage) == max_rewrites + 1


def test_screen_rejects_bad_arguments():
    with pytest.raises(ValueError):
        screen_query(AUM_QUERY, DeterministicProvider(), max_rewrites=-1)
    with pytest.raises(ValueError):
        screen_query("", DeterministicProvider())


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_two_table_question_gets_a_helper_step():
    result = decompose(COUNTRY_QUERY, DeterministicProvider())
    assert len(result) == 2
    assert result[0] == COUNTRY_QUERY
    assert "Summit Advisors" in result[1]


def test_decompose_single_table_question_is_itself():
    assert decompose(AUM_QUERY, DeterministicProvider()) == (AUM_QUERY,)


def test_decompose_strips_bullets_and_survives_empty_replies():
    bulleted = _TagProvider({"decompose": "- first step\n\n- second step"})
    assert decompose("anything", bulleted) == ("first step", "second step")
    silent = _TagProvider({"decompose": "   \n  "})
    assert decompose("anything", silent) == ("anything",)


# ---------------------------------------------------------------------------
# Long-term memory


def _tiny_plan(table="adv_entity", agent="ADV"):
    return Plan((Retrieve("r1", FilingType.parse(agent), table),
                 Return("ret", "r1")))


def test_memory_normalizes_keys_and_marks_provenance():
    memory = LongTermMemory()
    plan = _tiny_plan()
    memory.store("What Is  The AUM?", plan)
    hit = memory.lookup("what is the aum?")
    assert hit is plan  # the stored object itself, not a copy
    assert memory.lookup("a different question") is None
    assert len(memory) == 1


def test_memory_last_store_wins():
    memory = LongTermMemory()
    memory.store("q", _tiny_plan("adv_entity"))
    memory.store("q", _tiny_plan("adv_brokers"))
    hit = memory.lookup("q")
    assert hit.steps[0].table == "adv_brokers"
    assert len(memory) == 1


def test_memory_persists_appends_and_compacts(tmp_path):
    path = tmp_path / "memory.jsonl"
    memory = LongTermMemory(path)
    memory.store("q", _tiny_plan("adv_entity"))
    memory.store("q", _tiny_plan("adv_brokers"))
    memory.store("other", _tiny_plan())
    assert len(path.read_text().splitlines()) == 3

    reloaded = LongTermMemory(path)
    assert len(reloaded) == 2
    assert reloaded.lookup("q").steps[0].table == "adv_brokers"

    reloaded.compact()
    assert len(path.read_text().splitlines()) == 2
    assert LongTermMemory(path).lookup("q").steps[0].table == "adv_brokers"


def test_memory_without_a_path_compacts_to_nothing_and_keeps_its_plans():
    memory = LongTermMemory()
    plan = _tiny_plan()
    memory.store("q", plan)
    memory.compact()
    assert len(memory) == 1
    assert memory.lookup("q") == plan


def _journal(tmp_path, n=3):
    path = tmp_path / "memory.jsonl"
    memory = LongTermMemory(path)
    for i in range(n):
        memory.store(f"q{i}", _tiny_plan())
    return path


@pytest.mark.parametrize("cut", [1, 10, -2, -1])
def test_memory_skips_and_cuts_a_torn_final_line(tmp_path, cut):
    path = _journal(tmp_path)
    whole = path.read_bytes()
    last_start = whole.rindex(b"\n", 0, len(whole) - 1) + 1
    path.write_bytes(whole[:last_start + cut] if cut > 0 else whole[:cut - 1])
    memory = LongTermMemory(path)
    assert memory.torn_lines == 1
    assert len(memory) == 2 and memory.lookup("q2") is None
    assert path.read_bytes() == whole[:last_start]
    memory.store("q3", _tiny_plan())
    again = LongTermMemory(path)
    assert again.torn_lines == 0
    assert {k for k in ("q0", "q1", "q2", "q3") if again.lookup(k)} == {"q0", "q1", "q3"}


def test_memory_keeps_a_whole_final_line_without_its_newline(tmp_path):
    path = _journal(tmp_path)
    path.write_bytes(path.read_bytes()[:-1])
    memory = LongTermMemory(path)
    assert memory.torn_lines == 0 and len(memory) == 3
    memory.store("q3", _tiny_plan())
    assert len(LongTermMemory(path)) == 4


_TWO_ELEMENT_FILTER = (
    '{"steps": [{"id": "r1", "kind": "retrieve", "agent": "ADV", '
    '"table": "adv_entity", "filters": [["period", "eq"]]}, '
    '{"id": "ret", "kind": "return", "input": "r1"}]}')


@pytest.mark.parametrize("damage", [b"{not json", b'{"key": "q9"}', b"\xff\xfe", b"[1]",
                                    b'{"key": "q9", "plan": ' + _TWO_ELEMENT_FILTER.encode()
                                    + b"}"])
def test_memory_raises_on_a_bad_line_mid_file(tmp_path, damage):
    path = _journal(tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines[1] = damage
    path.write_bytes(b"\n".join(lines))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="line 2 is corrupt"):
        LongTermMemory(path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_memory_compact_leaves_the_old_or_the_new_journal(tmp_path, monkeypatch, fail_at):
    path = _journal(tmp_path)
    memory = LongTermMemory(path)
    memory.store("q0", _tiny_plan("adv_brokers"))
    old = path.read_bytes()
    real_journal_line = pipeline._journal_line
    calls = []

    def second_line_fails(key, plan):
        calls.append(plan)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_journal_line(key, plan)

    if fail_at == "write":
        monkeypatch.setattr(pipeline, "_journal_line", second_line_fails)
    else:
        monkeypatch.setattr(pipeline.os, "replace", mock.Mock(side_effect=OSError("crash")))
    with pytest.raises(OSError):
        memory.compact()
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.jsonl"]

    memory.compact()
    new = path.read_bytes()
    assert len(new.splitlines()) == 3 and new != old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.jsonl"]
    assert LongTermMemory(path).lookup("q0").steps[0].table == "adv_brokers"


def test_memory_store_after_compact_lands_in_the_renamed_journal(tmp_path):
    path = tmp_path / "memory.jsonl"
    memory = LongTermMemory(path)
    memory.store("q0", _tiny_plan())
    memory.store("q1", _tiny_plan())
    memory.compact()
    memory.store("q2", _tiny_plan("adv_brokers"))
    assert len(path.read_bytes().splitlines()) == 3
    reloaded = LongTermMemory(path)
    assert {k for k in ("q0", "q1", "q2") if reloaded.lookup(k)} == {"q0", "q1", "q2"}
    assert reloaded.lookup("q2").steps[0].table == "adv_brokers"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.jsonl"]


def test_memory_line_is_readable_when_store_returns(tmp_path):
    path = tmp_path / "memory.jsonl"
    memory = LongTermMemory(path)
    for i in range(3):
        memory.store(f"q{i}", _tiny_plan())
        assert path.read_bytes().count(b"\n") == i + 1
        assert LongTermMemory(path).lookup(f"q{i}") is not None
    memory.store("q3", _tiny_plan())
    assert len(LongTermMemory(path)) == 4


@pytest.mark.parametrize("cycle", [False, True])
def test_a_dropped_memory_closes_its_journal(tmp_path, cycle):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        memory = LongTermMemory(tmp_path / "memory.jsonl")
        memory.store("q", _tiny_plan())
        if cycle:
            memory.itself = memory
        del memory
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(LongTermMemory(tmp_path / "memory.jsonl")) == 1


# ---------------------------------------------------------------------------
# Drafting


def test_draft_uses_the_planner(registry):
    result = draft_plan(AUM_QUERY, (AUM_QUERY,), DeterministicProvider(), registry)
    assert not result.from_memory
    assert not result.fallback
    assert result.attempts == 1
    assert result.plan.steps[0].table == "adv_entity"


def test_draft_prefers_a_valid_memory_hit(registry):
    memory = LongTermMemory()
    memory.store(AUM_QUERY, _tiny_plan())
    result = draft_plan(AUM_QUERY, (AUM_QUERY,), DeterministicProvider(), registry,
                        memory)
    assert result.from_memory
    assert result.attempts == 0
    assert result.plan is memory.lookup(AUM_QUERY)


def test_draft_skips_a_memory_hit_that_no_longer_validates(registry):
    memory = LongTermMemory()
    memory.store(AUM_QUERY, Plan((Retrieve("r1", FilingType.parse("ADV"),
                                           "dropped_table"),
                                  Return("ret", "r1"))))
    result = draft_plan(AUM_QUERY, (AUM_QUERY,), DeterministicProvider(), registry,
                        memory)
    assert not result.from_memory
    assert result.plan.steps[0].table == "adv_entity"


def test_draft_reprompts_once_on_an_invalid_plan(registry):
    replies = iter(["{not json", (
        '{"steps": [{"id": "r1", "kind": "retrieve", "agent": "ADV", '
        '"table": "adv_entity", "filters": []}, '
        '{"id": "ret", "kind": "return", "input": "r1"}]}')])
    provider = _TagProvider({"plan": lambda request: next(replies)})
    result = draft_plan(AUM_QUERY, (AUM_QUERY,), provider, registry)
    assert result.attempts == 2
    assert not result.fallback
    assert result.plan.steps[0].table == "adv_entity"


def test_draft_reprompts_then_falls_back_on_a_malformed_step(registry):
    det = DeterministicProvider()
    plan_requests = []

    def plan(request):
        plan_requests.append(request)
        return _TWO_ELEMENT_FILTER

    def routed(request):
        return det.complete(request)

    provider = _TagProvider({"plan": plan, "route_agent": routed, "route_table": routed})
    result = draft_plan(AUM_QUERY, (AUM_QUERY,), provider, registry)
    assert result.fallback
    assert result.attempts == 2
    assert "step r1: malformed" in plan_requests[1].last_user_content()
    assert result.plan.steps[0].table == "adv_entity"


def test_draft_falls_back_to_a_routed_retrieve(registry):
    # planner declines twice (no advisor slot), routing still lands on ADV
    vague = "Calculate the regulatory AUM mystery for period 2024-03-31."
    result = draft_plan(vague, (vague,), DeterministicProvider(), registry)
    assert result.fallback
    assert result.attempts == 2
    retrieve = result.plan.steps[0]
    assert isinstance(retrieve, Retrieve)
    assert retrieve.table == "adv_entity"
    assert retrieve.filters == (Filter("period", "eq", "2024-03-31"),)


def test_draft_unplannable_and_unroutable_raises(registry):
    with pytest.raises(PlanError, match="unroutable"):
        draft_plan(JUNK_QUERY, (JUNK_QUERY,), DeterministicProvider(), registry)


def test_draft_fixture_miss_propagates(registry):
    with pytest.raises(FixtureMissError):
        draft_plan(AUM_QUERY, (AUM_QUERY,), ScriptedProvider({}), registry)


def _planner_down(request):
    raise GatewayError("down")


@pytest.mark.parametrize("plan, logged", [
    (_planner_down, "planner failed after 1 attempt(s) (down); using fallback retrieve"),
    ("CANNOT PLAN",
     "planner failed after 2 attempt(s) (planner declined); using fallback retrieve"),
], ids=["gateway-error", "two-rejected-replies"])
def test_draft_logs_how_many_planner_attempts_it_made(registry, caplog, plan, logged):
    det = DeterministicProvider()

    def routed(request):
        return det.complete(request)

    provider = _TagProvider({"plan": plan, "route_agent": routed, "route_table": routed})
    with caplog.at_level(logging.WARNING, logger=pipeline.log.name):
        result = draft_plan(AUM_QUERY, (AUM_QUERY,), provider, registry)
    assert result.fallback
    assert [r.getMessage() for r in caplog.records] == [logged]


# ---------------------------------------------------------------------------
# Findings


_13F = FilingType.parse("13F")
_PUTS_Q1 = (Filter("period", "eq", "2023-03-31"), Filter("put_call", "eq", "PUT"))


def test_findings_probe_matches_and_coverage(registry, small_view):
    plan = Plan((Retrieve("r1", _13F, "thirteenf_holdings"), Return("ret", "r1")))
    (line,) = gather_swarm_intelligence(plan, small_view, registry)
    table_rows = small_view.table_records("thirteenf_holdings")
    sparse = [name for name in registry.table("thirteenf_holdings").field_names
              if any(r.fields.get(name) is None for r in table_rows)]
    assert "put_call" in sparse  # cash rows leave it null
    assert "value_usd" not in sparse
    assert line == (f"13F/thirteenf_holdings step r1: {len(table_rows)} records match; "
                    f"sparse fields: {', '.join(sparse[:3])}")


class _CountingEmbedder:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


@pytest.fixture(scope="module")
def indexed(small_view, registry):
    """A 32-dim embedder and the expert indexes it builds over the view."""
    embedder = HashFeatureEmbedder(32)
    return embedder, build_expert_indexes(small_view, registry, embedder)


def _knn_calls(monkeypatch):
    calls = []

    def counting_knn(index, query, k):
        calls.append(k)
        return vindex.knn(index, query, k)

    monkeypatch.setattr(pipeline, "knn", counting_knn)
    return calls


def test_findings_of_a_matching_step_search_nothing(registry, small_view, indexed,
                                                    monkeypatch):
    embedder, indexes = indexed
    counting = _CountingEmbedder(embedder)
    knn_calls = _knn_calls(monkeypatch)
    plan = Plan((Retrieve("r1", _13F, "thirteenf_holdings", _PUTS_Q1),
                 Retrieve("r2", FilingType.parse("ADV"), "adv_entity"),
                 Return("ret", "r1")))
    findings = gather_swarm_intelligence(
        plan, small_view, registry, query_text="put options",
        table_indexes=indexes, embedder=counting)
    assert [re.search(r": [1-9]\d* records match", line) is not None
            for line in findings] == [True, True]
    assert counting.calls == 0
    assert knn_calls == []
    assert findings == gather_swarm_intelligence(plan, small_view, registry)


def _zero_match(filters):
    return Plan((Retrieve("r1", _13F, "thirteenf_holdings", filters), Return("ret", "r1")))


@pytest.mark.parametrize("filters, emptying", [
    # the first filter already matches nothing
    ((Filter("manager_id", "eq", "MGR9999"), Filter("period", "eq", "2023-03-31")), 0),
    # the period keeps rows; the put_call value matches none of them
    ((Filter("period", "eq", "2023-03-31"), Filter("put_call", "eq", "put"),
      Filter("value_usd", "range", (0, 1e12))), 1),
    # each filter alone keeps rows, the last empties their intersection
    ((Filter("security_class", "eq", "COM"), Filter("put_call", "eq", "PUT")), 1),
])
def test_findings_name_the_filter_that_empties_the_selection(registry, small_view, indexed,
                                                             filters, emptying):
    embedder, indexes = indexed
    plan = _zero_match(filters)
    (line,) = gather_swarm_intelligence(
        plan, small_view, registry, query_text="put options on treasuries",
        table_indexes=indexes, embedder=embedder, k=5)
    # every shorter prefix keeps rows; the prefix ending at that filter keeps none
    for n in range(1, len(filters) + 1):
        prefix = Retrieve("p", _13F, "thirteenf_holdings", filters[:n])
        assert bool(plans.select_records(small_view, prefix)) == (n <= emptying)
    # the values come from the 5 nearest records, nearest first, each once
    emptied = filters[emptying]
    field = emptied.field
    index = indexes["thirteenf_holdings"]
    nearest = [small_view.by_record_id[rid].fields.get(field) for rid, _ in
               vindex.knn(index, embedder.embed("put options on treasuries"), 5)]
    expected = []
    for value in nearest:
        if value is not None and value not in expected:
            expected.append(value)
    assert expected
    named = (f"13F/thirteenf_holdings step r1: 0 records match; "
             f"no rows remain after {field} {emptied.op} {emptied.value!r}")
    assert line == f"{named}; nearest records have {field} {', '.join(map(repr, expected[:3]))}"

    # without an index the filter is still named, with no values
    assert gather_swarm_intelligence(plan, small_view, registry) == (named,)


def test_findings_of_an_empty_table_name_no_filter(registry, monkeypatch):
    empty = reconcile(build_store([], registry))
    embedder = HashFeatureEmbedder(32)
    indexes = build_expert_indexes(empty, registry, embedder)
    knn_calls = _knn_calls(monkeypatch)
    for filters in ((), _PUTS_Q1):
        assert gather_swarm_intelligence(
            _zero_match(filters), empty, registry, query_text="put options",
            table_indexes=indexes, embedder=embedder) == (
            "13F/thirteenf_holdings step r1: 0 records match",)
    assert knn_calls == []


def test_findings_include_semantic_neighbors_when_indexed(registry, small_view, indexed,
                                                          monkeypatch):
    embedder, indexes = indexed
    knn_calls = _knn_calls(monkeypatch)
    plan = _zero_match((Filter("security_class", "eq", "OPT PUT"),))
    (line,) = gather_swarm_intelligence(
        plan, small_view, registry, query_text="OPT-PUT option positions",
        table_indexes=indexes, embedder=embedder, k=5)
    assert knn_calls == [5]
    named, nearest = line.split("; nearest records have security_class ")
    assert named.endswith("no rows remain after security_class eq 'OPT PUT'")
    values = ast.literal_eval(f"({nearest},)")
    assert 1 <= len(values) <= 3
    assert set(values) <= {"COM", "OPT-PUT", "OPT-CALL"}

    # k beyond the index searches every row
    knn_calls.clear()
    gather_swarm_intelligence(
        plan, small_view, registry, query_text="OPT-PUT option positions",
        table_indexes=indexes, embedder=embedder, k=10_000)
    assert knn_calls == [len(indexes["thirteenf_holdings"])]


def test_findings_embed_the_query_once_per_call(registry, small_view, indexed):
    embedder, indexes = indexed
    steps = (Retrieve("r1", _13F, "thirteenf_holdings", (Filter("put_call", "eq", "put"),)),
             Retrieve("r2", _13F, "thirteenf_holdings", _PUTS_Q1),
             Retrieve("r3", FilingType.parse("ADV"), "adv_entity",
                      (Filter("period", "eq", "1999-12-31"),)))
    expected = tuple(
        line for step in steps
        for line in gather_swarm_intelligence(
            Plan((step, Return("ret", step.step_id))), small_view, registry,
            query_text="option positions", table_indexes=indexes,
            embedder=embedder, k=5))
    counting = _CountingEmbedder(embedder)
    findings = gather_swarm_intelligence(
        Plan(steps + (Return("ret", "r1"),)), small_view, registry,
        query_text="option positions", table_indexes=indexes,
        embedder=counting, k=5)
    assert counting.calls == 1  # two zero-match steps share one query vector
    assert findings == expected
    assert ["; nearest records have " in line for line in findings] == [True, False, True]

    gather_swarm_intelligence(
        Plan(steps + (Return("ret", "r1"),)), small_view, registry,
        query_text="option positions", table_indexes={}, embedder=counting)
    assert counting.calls == 1  # no step has a table index


def _holding(n, period, put_call):
    return FilingRecord(
        record_id=f"A13F-{n}:0", accession_id=f"A13F-{n}", filing_type=_13F,
        table_id="thirteenf_holdings", filer_id="MGR0001",
        period=date.fromisoformat(period), is_amendment=False, amends=None,
        fields={"period": period, "manager_id": "MGR0001", "manager_name": "Summit Advisors",
                "issuer_name": "Acme Corp", "cusip": f"00000000{n}", "security_class": "OPT",
                "put_call": put_call, "value_usd": 1000.0, "shares": 10.0})


def test_findings_lines_format(registry):
    view = reconcile(build_store([_holding(0, "2023-03-31", "PUT"),
                                  _holding(1, "2023-03-31", None),
                                  _holding(2, "2023-06-30", "CALL")], registry))
    embedder = HashFeatureEmbedder(32)
    indexes = build_expert_indexes(view, registry, embedder)

    def lines(step, **indexed):
        return gather_swarm_intelligence(Plan((step, Return("ret", step.step_id))),
                                         view, registry, **indexed)

    assert lines(Retrieve("r1", _13F, "thirteenf_holdings",
                          (Filter("period", "eq", "2023-03-31"),))) == (
        "13F/thirteenf_holdings step r1: 2 records match; sparse fields: put_call",)
    assert lines(Retrieve("r2", _13F, "thirteenf_holdings",
                          (Filter("value_usd", "range", (1, 2)),))) == (
        "13F/thirteenf_holdings step r2: 0 records match; "
        "no rows remain after value_usd range (1, 2)",)
    assert lines(Retrieve("r2", _13F, "thirteenf_holdings",
                          (Filter("put_call", "eq", "put"),)),
                 query_text="put options", table_indexes=indexes, embedder=embedder) == (
        "13F/thirteenf_holdings step r2: 0 records match; "
        "no rows remain after put_call eq 'put'; nearest records have put_call 'PUT', 'CALL'",)


@pytest.mark.parametrize("rows, line", [
    (1000, "13F/thirteenf_holdings step r1: 1000 records match; sparse fields: put_call"),
    # a share of 2000/2001 rounds to 1.0 at three decimals
    (2001, "13F/thirteenf_holdings step r1: 2001 records match"),
])
def test_findings_name_a_field_sparse_at_three_decimals(registry, rows, line):
    records = [_holding(n, "2023-03-31", "PUT" if n else None) for n in range(rows)]
    view = reconcile(build_store(records, registry))
    plan = Plan((Retrieve("r1", _13F, "thirteenf_holdings"), Return("ret", "r1")))
    assert gather_swarm_intelligence(plan, view, registry) == (line,)


def test_findings_lines_golden(registry, small_view, indexed):
    embedder, indexes = indexed
    plan = Plan((Retrieve("r1", _13F, "thirteenf_holdings", _PUTS_Q1[:1]),
                 Retrieve("r2", _13F, "thirteenf_holdings",
                          (Filter("period", "eq", "2023-06-30"),
                           Filter("security_class", "eq", "OPT PUT"))),
                 Return("ret", "r1")))
    assert gather_swarm_intelligence(
        plan, small_view, registry, query_text="OPT-PUT positions for period 2023-06-30",
        table_indexes=indexes, embedder=embedder) == (
        "13F/thirteenf_holdings step r1: 64 records match; sparse fields: put_call",
        "13F/thirteenf_holdings step r2: 0 records match; "
        "no rows remain after security_class eq 'OPT PUT'; "
        "nearest records have security_class 'OPT-PUT', 'OPT-CALL', 'COM'")


# ---------------------------------------------------------------------------
# Revision


def test_revise_echo_marks_the_plan_optimized(registry):
    memory = LongTermMemory()
    draft = draft_plan(AUM_QUERY, (AUM_QUERY,), DeterministicProvider(), registry).plan
    final = revise_plan(AUM_QUERY, draft, (), DeterministicProvider(), registry,
                        memory)
    assert final is draft  # an echo keeps the draft itself
    assert memory.lookup(AUM_QUERY).steps == draft.steps


def _counted_validations(monkeypatch):
    """The plans validate_plan is called on from here on."""
    validated = []
    real = plans.validate_plan

    def counted(plan, registry):
        validated.append(plan)
        return real(plan, registry)
    monkeypatch.setattr(plans, "validate_plan", counted)
    monkeypatch.setattr(pipeline, "validate_plan", counted)
    return validated


def test_revise_decodes_and_validates_a_different_plan(registry, monkeypatch):
    draft = draft_plan(AUM_QUERY, (AUM_QUERY,), DeterministicProvider(), registry).plan
    other = _tiny_plan("adv_brokers")
    validated = _counted_validations(monkeypatch)
    provider = _TagProvider({"replan": " " + plans.plan_to_json(other) + "\n"})
    final = revise_plan(AUM_QUERY, draft, (), provider, registry)
    assert len(validated) == 1
    assert final.steps == other.steps != draft.steps
    assert final.passed_against(registry)


@pytest.mark.parametrize("reply", ["{not json", '{"steps": []}', "[1]"])
def test_revise_keeps_the_draft_when_the_reply_is_not_a_plan(registry, reply):
    draft = draft_plan(AUM_QUERY, (AUM_QUERY,), DeterministicProvider(), registry).plan
    final = revise_plan(AUM_QUERY, draft, (), _TagProvider({"replan": reply}), registry)
    assert final == draft


def test_a_plan_is_validated_again_against_another_registry(registry, monkeypatch):
    memory = LongTermMemory()
    draft = draft_plan(AUM_QUERY, (AUM_QUERY,), DeterministicProvider(), registry).plan
    memory.store(AUM_QUERY, draft)
    validated = _counted_validations(monkeypatch)
    assert draft_plan(AUM_QUERY, (AUM_QUERY,), None, registry, memory).from_memory
    assert validated == []
    other = load_default_registry()
    assert other is not registry
    hit = draft_plan(AUM_QUERY, (AUM_QUERY,), None, other, memory)
    assert hit.from_memory
    assert len(validated) == 1
    assert hit.plan.passed_against(other) and not hit.plan.passed_against(registry)


def test_revise_keeps_the_draft_when_the_reviser_fails(registry):
    draft = draft_plan(AUM_QUERY, (AUM_QUERY,), DeterministicProvider(), registry).plan
    provider = _TagProvider({"replan": "CANNOT PLAN"})
    final = revise_plan(AUM_QUERY, draft, (), provider, registry)
    assert final == draft


def _reviser_down(request):
    raise GatewayError("reviser is down")


def test_revise_keeps_and_stores_the_draft_when_the_reviser_raises(registry, small_view,
                                                                  caplog):
    det = DeterministicProvider()
    provider = _TagProvider({tag: _reviser_down if tag == "replan"
                             else det.complete
                             for tag in ("classify", "decompose", "plan", "replan")})
    memory = LongTermMemory()
    draft = draft_plan(AUM_QUERY, (AUM_QUERY,), det, registry).plan
    with caplog.at_level(logging.WARNING, logger=pipeline.log.name):
        assert revise_plan(AUM_QUERY, draft, (), provider, registry, memory) is draft
    assert [r.getMessage() for r in caplog.records] == [
        "revision failed (reviser is down); keeping draft"]
    assert memory.lookup(AUM_QUERY) is draft

    result = run_pipeline(AUM_QUERY, provider, small_view, registry, LongTermMemory())
    assert result.status == "answered"
    assert result.final_plan is result.draft and not result.revised


# ---------------------------------------------------------------------------
# Full pass


def test_pipeline_answers_a_benchmark_question(registry, small_view, bench):
    instance = next(i for i in bench if i.template_id == "E0")
    result = run_pipeline(instance.text, DeterministicProvider(), small_view,
                          registry)
    assert result.status == "answered"
    assert not result.revised  # the rule reviser echoes the draft
    assert judge_success(result.answer, instance.gold_answer)


def test_pipeline_rejects_offtopic_queries(registry, small_view):
    result = run_pipeline(JUNK_QUERY, DeterministicProvider(), small_view,
                          registry)
    assert result.status == "rejected"
    assert "screened" in result.error
    assert result.answer is None


_EMPTY_MEAN = (
    '{"steps": [{"id": "r1", "kind": "retrieve", "agent": "ADV", '
    '"table": "adv_entity", '
    '"filters": [["advisor_name", "eq", "Nobody Here"]]}, '
    '{"id": "a1", "kind": "aggregate", "input": "r1", "function": "mean", '
    '"value_field": "regulatory_aum"}, '
    '{"id": "ret", "kind": "return", "input": "a1"}]}')


def test_pipeline_reports_execution_failures(registry, small_view):
    provider = _TagProvider({
        "classify": "non_hallucinatory 0.99",
        "decompose": _user_query,
        "plan": _EMPTY_MEAN,
        "replan": "CANNOT PLAN",
    })
    result = run_pipeline("Get the mean AUM of nobody.", provider, small_view,
                          registry)
    assert result.status == "failed"
    assert result.error.startswith("ExecutionError")
    # the result keeps what the stages reached before execution failed
    assert result.screen is not None and result.subqueries is not None
    assert result.attempts == 1 and not result.fallback
    assert result.draft is not None and result.final_plan == result.draft
    assert not result.revised and not result.from_memory
    assert result.answer is None


_SUM_AUM = (
    '{"steps": [{"id": "r1", "kind": "retrieve", "agent": "ADV", '
    '"table": "adv_entity"}, '
    '{"id": "a1", "kind": "aggregate", "input": "r1", "function": "sum", '
    '"value_field": "regulatory_aum"}, '
    '{"id": "ret", "kind": "return", "input": "a1"}]}')


def test_pipeline_fails_on_a_sum_too_large_for_a_float(registry):
    # the schema takes a JSON integer of any size; float() of this one overflows
    record = FilingRecord(
        record_id="AADV-0:0", accession_id="AADV-0", filing_type=FilingType.ADV,
        table_id="adv_entity", filer_id="ADV0001", period=date(2023, 3, 31),
        is_amendment=False, amends=None,
        fields={"period": "2023-03-31", "advisor_id": "ADV0001", "regulatory_aum": 10**400})
    view = reconcile(build_store([record], registry))
    provider = _TagProvider({
        "classify": "non_hallucinatory 0.99",
        "decompose": _user_query,
        "plan": _SUM_AUM,
        "replan": "CANNOT PLAN",
    })
    result = run_pipeline("Get the total AUM of every advisor.", provider, view, registry)
    assert result.status == "failed"
    assert result.error == "ExecutionError: step a1: non-finite result"
    assert result.final_plan is not None and result.answer is None


def test_a_failed_memory_plan_still_reports_the_memory_hit(registry, small_view):
    memory = LongTermMemory()
    memory.store("Get the mean AUM of nobody.", plans.plan_from_json(_EMPTY_MEAN))
    provider = _TagProvider({"classify": "non_hallucinatory 0.99",
                             "decompose": _user_query})  # no planner tags
    result = run_pipeline("Get the mean AUM of nobody.", provider, small_view,
                          registry, memory=memory)
    assert result.status == "failed"
    assert result.error.startswith("ExecutionError")
    assert result.from_memory and result.attempts == 0
    assert result.final_plan is result.draft and not result.revised


def test_a_failed_decompose_leaves_no_draft(registry, small_view):
    def refuse(request):
        raise GatewayError("provider is down")
    provider = _TagProvider({"classify": "non_hallucinatory 0.99", "decompose": refuse})
    result = run_pipeline(AUM_QUERY, provider, small_view, registry)
    assert result.status == "failed"
    assert result.error == "GatewayError: provider is down"
    assert result.screen is not None
    assert result.subqueries is None and result.draft is None
    assert result.final_plan is None and result.attempts == 0


def test_pipeline_fails_on_an_unparseable_verdict(registry, small_view):
    provider = _TagProvider({"classify": "maybe 0.5"})
    result = run_pipeline(AUM_QUERY, provider, small_view, registry)
    assert result.status == "failed"
    assert result.error.startswith("GatewayError: unparseable classification")


def test_pipeline_memory_short_circuits_the_second_run(registry, small_view,
                                                       bench):
    instance = next(i for i in bench if i.template_id == "E0")
    memory = LongTermMemory()
    first = run_pipeline(instance.text, DeterministicProvider(), small_view,
                         registry, memory=memory)
    second = run_pipeline(instance.text, DeterministicProvider(), small_view,
                          registry, memory=memory)
    assert first.status == second.status == "answered"
    assert not first.from_memory
    assert second.from_memory
    assert second.findings == ()
    assert second.final_plan is first.final_plan
    assert judge_success(second.answer, first.answer)


@pytest.mark.parametrize("text", ["", "   ", "\n\t"])
def test_pipeline_fails_on_a_blank_query_without_a_completion(registry, small_view, text):
    provider = _TagProvider({})  # any completion raises KeyError
    result = run_pipeline(text, provider, small_view, registry)
    assert result == PipelineResult(status="failed",
                                    error="ValueError: query must be non-empty")


def test_pipeline_validates_each_plan_once(registry, small_view, bench, monkeypatch):
    instance = next(i for i in bench if i.template_id == "E0")
    validated = _counted_validations(monkeypatch)
    memory = LongTermMemory()
    first = run_pipeline(instance.text, DeterministicProvider(), small_view,
                         registry, memory=memory)
    assert first.status == "answered" and not first.from_memory
    assert len(validated) == 1  # the planner reply; the reviser echoed it
    validated.clear()
    second = run_pipeline(instance.text, DeterministicProvider(), small_view,
                          registry, memory=memory)
    assert second.status == "answered" and second.from_memory
    assert validated == []  # the stored plan passed against this registry


class _PlansWith:
    """The rule provider, with fixed replies for some tags."""

    def __init__(self, **replies):
        self.inner = DeterministicProvider()
        self.replies = replies

    def complete(self, request):
        if request.tag in self.replies:
            return self.replies[request.tag]
        return self.inner.complete(request)


def test_pipeline_result_says_how_the_plan_was_drafted_and_revised(registry, small_view,
                                                                   bench):
    instance = next(i for i in bench if i.template_id == "E0")
    memory = LongTermMemory()
    first = run_pipeline(instance.text, DeterministicProvider(), small_view, registry,
                         memory=memory)
    assert (first.attempts, first.fallback, first.revised) == (1, False, False)
    second = run_pipeline(instance.text, DeterministicProvider(), small_view, registry,
                          memory=memory)
    assert second.from_memory
    assert (second.attempts, second.fallback, second.revised) == (0, False, False)

    head = first.draft.steps[0]
    open_range = Filter(head.filters[0].field, "range", (None, None))
    other = plans.plan_to_json(replace(first.draft, steps=(
        replace(head, filters=head.filters + (open_range,)), *first.draft.steps[1:])))
    revised = run_pipeline(instance.text, _PlansWith(replan=other), small_view, registry)
    assert revised.status == "answered"
    assert revised.revised and revised.final_plan.steps != revised.draft.steps

    fell_back = run_pipeline(instance.text, _PlansWith(plan="CANNOT PLAN"), small_view,
                             registry)
    assert fell_back.status == "answered"
    assert (fell_back.attempts, fell_back.fallback) == (2, True)


def test_a_plan_that_sums_a_text_column_is_refused_before_execution(registry, small_view):
    sums_names = (
        '{"steps": [{"id": "r1", "kind": "retrieve", "agent": "ADV", '
        '"table": "adv_entity"}, '
        '{"id": "a1", "kind": "aggregate", "input": "r1", "function": "sum", '
        '"value_field": "advisor_name"}, '
        '{"id": "ret", "kind": "return", "input": "a1"}]}')
    result = run_pipeline(AUM_QUERY, _PlansWith(plan=sums_names), small_view, registry)
    assert result.status == "answered"
    assert (result.attempts, result.fallback) == (2, True)


# A sum over the Return step: validation must refuse it as a PlanError, so
# the planner is asked again, the draft falls back and the reviser is refused.
_SUMS_THE_RETURN = (
    '{"steps": [{"id": "r1", "kind": "retrieve", "agent": "ADV", '
    '"table": "adv_entity"}, '
    '{"id": "ret", "kind": "return", "input": "r1"}, '
    '{"id": "a1", "kind": "aggregate", "input": "ret", "function": "sum", '
    '"value_field": "regulatory_aum"}]}')


def test_a_plan_that_reads_the_return_step_is_retried_then_falls_back(registry,
                                                                       small_view):
    provider = _PlansWith(plan=_SUMS_THE_RETURN, replan=_SUMS_THE_RETURN)
    result = run_pipeline(AUM_QUERY, provider, small_view, registry)
    assert result.status == "answered"
    assert (result.attempts, result.fallback) == (2, True)
    assert result.final_plan is result.draft


def test_a_journaled_plan_that_reads_the_return_step_is_planned_again(registry,
                                                                      small_view,
                                                                      tmp_path):
    path = tmp_path / "memory.jsonl"
    path.write_text(json.dumps({"key": LongTermMemory.normalize(AUM_QUERY),
                                "plan": json.loads(_SUMS_THE_RETURN)}) + "\n")
    result = run_pipeline(AUM_QUERY, DeterministicProvider(), small_view, registry,
                          memory=LongTermMemory(path))
    assert result.status == "answered"
    assert not result.from_memory and not result.fallback


def test_pipeline_fixture_miss_propagates(registry, small_view):
    with pytest.raises(FixtureMissError):
        run_pipeline(AUM_QUERY, ScriptedProvider({}), small_view, registry)


class _MissesReplan:
    """The rule provider for every tag but ``replan``, whose fixture is
    missing."""

    def __init__(self):
        self.inner = DeterministicProvider()

    def complete(self, request):
        if request.tag == "replan":
            raise FixtureMissError("fixture miss: tag='replan'")
        return self.inner.complete(request)


def test_pipeline_replan_fixture_miss_propagates(registry, small_view, bench):
    instance = next(i for i in bench if i.template_id == "E0")
    with pytest.raises(FixtureMissError, match="replan"):
        run_pipeline(instance.text, _MissesReplan(), small_view, registry)


# ---------------------------------------------------------------------------
# The benchmark's view of the stages

_STAGES = ("screen_query", "decompose", "draft_plan", "gather_swarm_intelligence",
           "revise_plan", "execute_plan", "validate_plan")


def test_every_pipeline_stage_records_a_benchmark_span(tmp_path):
    """perfbench times each stage by patching its name on this module, and a
    name nothing calls any more would read 0 without a warning."""
    span_names = {attr: name for module, attr, name, _ in layers.PATCHES
                  if module is pipeline}
    assert set(_STAGES) <= set(span_names)
    workload = WORKLOADS["agentic-qa"]
    generate_inputs(workload, 6, Sizes(records_per_table=120, filers=8, per_template=2,
                                       variegate_n=1), tmp_path)
    tracer = Tracer()
    with tracer.installed(layers.PATCHES):
        state = workload.setup(tmp_path, tracer)
        workload.run_pass(state, tracer, 0, tracer.now)
    recorded = {span.name for span in tracer.spans}
    assert [stage for stage in _STAGES if span_names[stage] not in recorded] == []


# Patch targets that a tiny pass of every workload leaves uncalled, each with
# its reason. A target that stops being called and is not listed here would
# read 0 in the benchmark without a warning.
_UNCALLED_TARGETS = {
    "pipeline.route_generative": "the fallback plan is not needed at this size",
    "plans.validate_plan": "the pipeline validates through its own name first",
    "routing.knn": "routing ranks its indexes itself; the name stays for the patch",
    "vindex.to_embedding_text": "the hash embedder counts record chunks without "
                                "rendering record texts",
}


def test_every_patch_target_outside_the_known_list_is_called(tmp_path):
    """Each target gets a span named after its own module and attribute, so
    targets that share a layer's span name are told apart."""
    targets = {f"{module.__name__.rsplit('.', 1)[-1]}.{attr}": (module, attr)
               for module, attr, _, _ in layers.PATCHES}
    tracer = Tracer()
    for name, workload in WORKLOADS.items():
        generate_inputs(workload, 6, Sizes(records_per_table=120, filers=8, per_template=2,
                                           variegate_n=1), tmp_path / name)
        with tracer.installed([(module, attr, target, None)
                               for target, (module, attr) in targets.items()]):
            state = workload.setup(tmp_path / name, tracer)
            workload.run_pass(state, tracer, 0, tracer.now)
    uncalled = set(targets) - {span.name for span in tracer.spans}
    assert set(_UNCALLED_TARGETS) <= set(targets)
    assert uncalled <= set(_UNCALLED_TARGETS), sorted(uncalled - set(_UNCALLED_TARGETS))
