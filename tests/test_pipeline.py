"""Pipeline stage tests: screening, decomposition, memory, drafting,
findings, revision, and the full pass.

Stage behavior is frozen against the rule provider; bounded-loop and
failure-path guarantees use small scripted providers instead.
"""
from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm.corpus.schema import FilingType
from filingswarm.evalrun import judge_success
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.gateway.providers import ScriptedProvider
from filingswarm.gateway.types import ChatResponse, FixtureMissError
from filingswarm import pipeline
from filingswarm.pipeline import (
    Finding,
    LongTermMemory,
    PipelineConfig,
    Query,
    SubQuery,
    SubQuerySet,
    decompose,
    draft_plan,
    findings_to_lines,
    gather_swarm_intelligence,
    revise_plan,
    run_pipeline,
    screen_query,
)
from filingswarm.plans import Filter, Plan, PlanError, Retrieve, Return
from filingswarm.vindex import HashFeatureEmbedder, IndexScope, build_index

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
        return ChatResponse(content=content, provider_id="test", latency=0.0)


def _wrap(text):
    query = Query(text, "user", (text,))
    return SubQuerySet(query, (SubQuery(0, text),))


def test_query_dataclass_guards():
    with pytest.raises(ValueError, match="non-empty"):
        Query("  ", "user", ("  ",))
    with pytest.raises(ValueError, match="origin"):
        Query("x", "telepathy", ("x",))
    with pytest.raises(ValueError, match="lineage"):
        Query("x", "user", ("y",))


# ---------------------------------------------------------------------------
# Screening


def test_screen_clean_query_passes_untouched():
    result = screen_query(AUM_QUERY, DeterministicProvider())
    assert result.verdict == "non_hallucinatory"
    assert result.rewrites == 0
    assert result.query.origin == "user"
    assert result.query.lineage == (AUM_QUERY,)


def test_screen_rewrites_a_cueless_query():
    vague = ('I want to know the regulatory AUM for advisor '
             '"Test Advisors LLC" for period 2023-03-31.')
    result = screen_query(vague, DeterministicProvider())
    assert result.verdict == "non_hallucinatory"
    assert result.rewrites == 1
    assert result.query.origin == "rewritten"
    assert result.query.text.startswith("Get the regulatory AUM")
    assert result.query.lineage[0] == vague


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
    assert len(result.query.lineage) == max_rewrites + 1


def test_screen_rejects_bad_arguments():
    with pytest.raises(ValueError):
        screen_query(AUM_QUERY, DeterministicProvider(), max_rewrites=-1)
    with pytest.raises(ValueError):
        screen_query("", DeterministicProvider())


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_two_table_question_gets_a_helper_step():
    query = Query(COUNTRY_QUERY, "user", (COUNTRY_QUERY,))
    result = decompose(query, DeterministicProvider())
    assert len(result.subqueries) == 2
    assert result.subqueries[0].text == COUNTRY_QUERY
    assert "Summit Advisors" in result.subqueries[1].text
    assert result.texts() == [sq.text for sq in result.subqueries]


def test_decompose_single_table_question_is_itself():
    query = Query(AUM_QUERY, "user", (AUM_QUERY,))
    result = decompose(query, DeterministicProvider())
    assert [sq.text for sq in result.subqueries] == [AUM_QUERY]


def test_decompose_strips_bullets_and_survives_empty_replies():
    query = Query("anything", "user", ("anything",))
    bulleted = _TagProvider({"decompose": "- first step\n\n- second step"})
    result = decompose(query, bulleted)
    assert result.texts() == ["first step", "second step"]
    silent = _TagProvider({"decompose": "   \n  "})
    assert decompose(query, silent).texts() == ["anything"]


# ---------------------------------------------------------------------------
# Long-term memory


def _tiny_plan(table="adv_entity", agent="ADV"):
    return Plan((Retrieve("r1", FilingType.parse(agent), table),
                 Return("ret", "r1")))


def test_memory_normalizes_keys_and_marks_provenance():
    memory = LongTermMemory()
    memory.store("What Is  The AUM?", _tiny_plan())
    hit = memory.lookup("what is the aum?")
    assert hit is not None
    assert hit.provenance == "memory"
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


@pytest.mark.parametrize("damage", [b"{not json", b'{"key": "q9"}', b"\xff\xfe", b"[1]"])
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
    real_plan_to_dict = pipeline.plan_to_dict
    calls = []

    def second_line_fails(plan):
        calls.append(plan)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_plan_to_dict(plan)

    if fail_at == "write":
        monkeypatch.setattr(pipeline, "plan_to_dict", second_line_fails)
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


# ---------------------------------------------------------------------------
# Drafting


def test_draft_uses_the_planner(registry):
    result = draft_plan(_wrap(AUM_QUERY), DeterministicProvider(), registry)
    assert not result.from_memory
    assert not result.fallback
    assert result.attempts == 1
    assert result.plan.provenance == "draft"
    assert result.plan.source_subquery == AUM_QUERY
    assert result.plan.steps[0].table == "adv_entity"


def test_draft_prefers_a_valid_memory_hit(registry):
    memory = LongTermMemory()
    memory.store(AUM_QUERY, _tiny_plan())
    result = draft_plan(_wrap(AUM_QUERY), DeterministicProvider(), registry,
                        memory)
    assert result.from_memory
    assert result.attempts == 0
    assert result.plan.provenance == "memory"


def test_draft_skips_a_memory_hit_that_no_longer_validates(registry):
    memory = LongTermMemory()
    memory.store(AUM_QUERY, Plan((Retrieve("r1", FilingType.parse("ADV"),
                                           "dropped_table"),
                                  Return("ret", "r1"))))
    result = draft_plan(_wrap(AUM_QUERY), DeterministicProvider(), registry,
                        memory)
    assert not result.from_memory
    assert result.plan.steps[0].table == "adv_entity"


def test_draft_reprompts_once_on_an_invalid_plan(registry):
    replies = iter(["{not json", (
        '{"steps": [{"id": "r1", "kind": "retrieve", "agent": "ADV", '
        '"table": "adv_entity", "filters": []}, '
        '{"id": "ret", "kind": "return", "input": "r1"}]}')])
    provider = _TagProvider({"plan": lambda request: next(replies)})
    result = draft_plan(_wrap(AUM_QUERY), provider, registry)
    assert result.attempts == 2
    assert not result.fallback
    assert result.plan.steps[0].table == "adv_entity"


def test_draft_falls_back_to_a_routed_retrieve(registry):
    # planner declines twice (no advisor slot), routing still lands on ADV
    vague = "Calculate the regulatory AUM mystery for period 2024-03-31."
    result = draft_plan(_wrap(vague), DeterministicProvider(), registry)
    assert result.fallback
    assert result.attempts == 2
    retrieve = result.plan.steps[0]
    assert isinstance(retrieve, Retrieve)
    assert retrieve.table == "adv_entity"
    assert retrieve.filters == (Filter("period", "eq", "2024-03-31"),)


def test_draft_unplannable_and_unroutable_raises(registry):
    with pytest.raises(PlanError, match="unroutable"):
        draft_plan(_wrap(JUNK_QUERY), DeterministicProvider(), registry)


def test_draft_fixture_miss_propagates(registry):
    with pytest.raises(FixtureMissError):
        draft_plan(_wrap(AUM_QUERY), ScriptedProvider({}), registry)


# ---------------------------------------------------------------------------
# Findings


def test_findings_probe_matches_and_coverage(registry, small_view):
    plan = Plan((Retrieve("r1", FilingType.parse("13F"), "thirteenf_holdings"),
                 Return("ret", "r1")))
    findings = gather_swarm_intelligence(plan, small_view, registry)
    assert len(findings) == 1
    finding = findings[0]
    table_rows = small_view.table_records("thirteenf_holdings")
    assert finding.matched_record_count == len(table_rows)
    assert len(finding.sample_record_ids) == min(10, len(table_rows))
    coverage = dict(finding.field_coverage)
    assert coverage["value_usd"] == 1.0
    assert 0.0 < coverage["put_call"] < 1.0  # cash rows leave it null
    assert finding.semantic_neighbor_ids == ()


def test_findings_include_semantic_neighbors_when_indexed(registry, small_view):
    embedder = HashFeatureEmbedder(32)
    index = build_index(small_view, IndexScope.table("thirteenf_holdings"),
                        embedder)
    plan = Plan((Retrieve("r1", FilingType.parse("13F"), "thirteenf_holdings"),
                 Return("ret", "r1")))
    findings = gather_swarm_intelligence(
        plan, small_view, registry, query_text="option positions",
        table_indexes={"thirteenf_holdings": index}, embedder=embedder, k=5)
    neighbors = findings[0].semantic_neighbor_ids
    assert len(neighbors) == 5
    assert set(neighbors) <= set(index.record_ids)


class _CountingEmbedder:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


def test_findings_embed_the_query_once_per_call(registry, small_view):
    embedder = HashFeatureEmbedder(32)
    steps = (Retrieve("r1", FilingType.parse("13F"), "thirteenf_holdings"),
             Retrieve("r2", FilingType.parse("ADV"), "adv_entity"))
    indexes = {s.table: build_index(small_view, IndexScope.table(s.table), embedder)
               for s in steps}
    expected = tuple(
        finding for step in steps
        for finding in gather_swarm_intelligence(
            Plan((step, Return("ret", step.step_id))), small_view, registry,
            query_text="option positions", table_indexes=indexes,
            embedder=embedder, k=5))
    counting = _CountingEmbedder(embedder)
    findings = gather_swarm_intelligence(
        Plan(steps + (Return("ret", "r1"),)), small_view, registry,
        query_text="option positions", table_indexes=indexes,
        embedder=counting, k=5)
    assert counting.calls == 1
    assert findings == expected
    assert all(len(f.semantic_neighbor_ids) == 5 for f in findings)

    gather_swarm_intelligence(
        Plan(steps + (Return("ret", "r1"),)), small_view, registry,
        query_text="option positions", table_indexes={}, embedder=counting)
    assert counting.calls == 1  # no step has a table index


def test_findings_lines_format():
    finding = Finding(
        agent=FilingType.parse("13F"), table_id="thirteenf_holdings",
        step_id="r1", matched_record_count=2,
        sample_record_ids=("a", "b"),
        field_coverage=(("period", 1.0), ("put_call", 0.5)),
        semantic_neighbor_ids=("x", "y"))
    assert findings_to_lines((finding,)) == [
        "13F/thirteenf_holdings step r1: 2 records match; "
        "sparse fields: put_call; 2 semantic neighbors"]


# ---------------------------------------------------------------------------
# Revision


def test_revise_echo_marks_the_plan_optimized(registry):
    memory = LongTermMemory()
    draft = draft_plan(_wrap(AUM_QUERY), DeterministicProvider(), registry).plan
    query = Query(AUM_QUERY, "user", (AUM_QUERY,))
    final = revise_plan(query, draft, (), DeterministicProvider(), registry,
                        memory)
    assert final.provenance == "optimized"
    assert final.steps == draft.steps
    assert final.source_subquery == draft.source_subquery
    assert memory.lookup(AUM_QUERY).steps == draft.steps


def test_revise_keeps_the_draft_when_the_reviser_fails(registry):
    draft = draft_plan(_wrap(AUM_QUERY), DeterministicProvider(), registry).plan
    query = Query(AUM_QUERY, "user", (AUM_QUERY,))
    provider = _TagProvider({"replan": "CANNOT PLAN"})
    final = revise_plan(query, draft, (), provider, registry)
    assert final == draft
    assert final.provenance == "draft"


# ---------------------------------------------------------------------------
# Full pass


def test_pipeline_config_guards():
    with pytest.raises(ValueError):
        PipelineConfig(max_rewrites=-1)
    with pytest.raises(ValueError):
        PipelineConfig(semantic_k=0)


def test_pipeline_answers_a_benchmark_question(registry, small_view, bench):
    instance = next(i for i in bench if i.template_id == "E0")
    result = run_pipeline(instance.text, DeterministicProvider(), small_view,
                          registry)
    assert result.status == "answered"
    assert result.final_plan.provenance == "optimized"
    assert judge_success(result.answer, instance.gold_answer)


def test_pipeline_rejects_offtopic_queries(registry, small_view):
    result = run_pipeline(JUNK_QUERY, DeterministicProvider(), small_view,
                          registry)
    assert result.status == "rejected"
    assert "screened" in result.error
    assert result.answer is None


def test_pipeline_reports_execution_failures(registry, small_view):
    empty_mean = (
        '{"steps": [{"id": "r1", "kind": "retrieve", "agent": "ADV", '
        '"table": "adv_entity", '
        '"filters": [["advisor_name", "eq", "Nobody Here"]]}, '
        '{"id": "a1", "kind": "aggregate", "input": "r1", "function": "mean", '
        '"value_field": "regulatory_aum"}, '
        '{"id": "ret", "kind": "return", "input": "a1"}]}')
    provider = _TagProvider({
        "classify": "non_hallucinatory 0.99",
        "decompose": _user_query,
        "plan": empty_mean,
        "replan": "CANNOT PLAN",
    })
    result = run_pipeline("Get the mean AUM of nobody.", provider, small_view,
                          registry)
    assert result.status == "failed"
    assert result.error.startswith("ExecutionError")


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
    assert second.final_plan.provenance == "memory"
    assert judge_success(second.answer, first.answer)


def test_pipeline_fixture_miss_propagates(registry, small_view):
    with pytest.raises(FixtureMissError):
        run_pipeline(AUM_QUERY, ScriptedProvider({}), small_view, registry)
