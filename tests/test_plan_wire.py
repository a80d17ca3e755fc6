"""The plan's wire form: what the planner, the reviser and the memory
journal see of a plan, pinned byte for byte."""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm import pipeline
from filingswarm.corpus.schema import FilingType
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.gateway.types import request_digest
from filingswarm.pipeline import (
    LongTermMemory,
    draft_plan,
    revise_plan,
    run_pipeline,
)
from filingswarm.plans import (
    AGG_FUNCTIONS,
    ARITH_OPS,
    Aggregate,
    Arithmetic,
    Filter,
    Join,
    Plan,
    PlanError,
    Retrieve,
    Return,
    answer_to_dict,
    execute_plan,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    validate_plan,
)
from filingswarm.vindex import HashFeatureEmbedder, IndexScope, build_index


class _RecordingProvider:
    """The rule provider, recording the digest of every replan request, and
    its DRAFT_PLAN line's JSON beside the reply."""

    def __init__(self):
        self.inner = DeterministicProvider()
        self.replan_digests: list[str] = []
        self.echoes: list[tuple[str, str]] = []

    def complete(self, request):
        reply = self.inner.complete(request)
        if request.tag == "replan":
            self.replan_digests.append(request_digest(request))
            line = next(line for line in request.last_user_content().splitlines()
                        if line.startswith("DRAFT_PLAN: "))
            self.echoes.append((line[len("DRAFT_PLAN: "):], reply))
        return reply


# sha256 over the replan request digests, the draft and final plan JSON, the
# answer, status, error and from_memory of every op, then the journal bytes.
# Computed on the code that decoded the reviser's echo and re-encoded each
# plan for its journal line; a plan's JSON is ``{"steps": [...]}``.
GOLDEN_PIPELINE_SHA256 = "6eb917da6eb110a676f0b6c6ef26a9ed1dae6b51294e8fdbf896b63e434356a4"


def test_pipeline_wire_bytes_are_pinned(registry, small_view, bench, tmp_path):
    embedder = HashFeatureEmbedder(32)
    indexes = {table: build_index(small_view, IndexScope.table(table), embedder)
               for table in small_view.by_table}
    texts = [instance.text for instance in bench]
    texts += texts[::5]  # a fifth of the questions asked again
    path = tmp_path / "memory.jsonl"
    memory = LongTermMemory(path)
    provider = _RecordingProvider()
    digest = hashlib.sha256()
    hits = 0
    for text in texts:
        before = len(provider.replan_digests)
        result = run_pipeline(text, provider, small_view, registry, memory=memory,
                              table_indexes=indexes, embedder=embedder)
        row = {
            "status": result.status,
            "error": result.error,
            "from_memory": result.from_memory,
            "replan": provider.replan_digests[before:],
            "draft": None if result.draft is None else plan_to_json(result.draft),
            "final": None if result.final_plan is None else plan_to_json(result.final_plan),
            "answer": None if result.answer is None else answer_to_dict(result.answer),
        }
        digest.update(json.dumps(row, sort_keys=True).encode("utf-8") + b"\n")
        hits += result.from_memory
    journal = path.read_bytes()
    digest.update(journal)
    assert len(journal.splitlines()) == len(provider.replan_digests) > 0
    assert 0 < hits < len(texts)
    assert digest.hexdigest() == GOLDEN_PIPELINE_SHA256


# ---------------------------------------------------------------------------
# One encoding per plan

_TEXT = st.text(max_size=6)  # non-ASCII letters included
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | _TEXT)  # NaN never equals itself
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=6)
_FILTERS = st.one_of(
    st.builds(Filter, _TEXT, st.sampled_from(("eq", "contains")), _VALUES),
    st.builds(Filter, _TEXT, st.just("range"), st.lists(_SCALARS, min_size=2, max_size=2)))
_NAMES = st.lists(_TEXT, max_size=3).map(tuple)
_STEPS = st.one_of(
    st.builds(Retrieve, _TEXT, st.sampled_from(FilingType), _TEXT,
              st.lists(_FILTERS, max_size=3).map(tuple), st.none() | _NAMES),
    st.builds(Aggregate, _TEXT, _TEXT, st.sampled_from(AGG_FUNCTIONS), _NAMES,
              st.none() | _TEXT),
    st.builds(Arithmetic, _TEXT, _TEXT, _TEXT, st.sampled_from(ARITH_OPS)),
    st.builds(Join, _TEXT, _TEXT, _TEXT, st.lists(_TEXT, min_size=1, max_size=3).map(tuple)),
    st.builds(Return, _TEXT, _TEXT))
_PLANS = st.builds(Plan, st.lists(_STEPS, min_size=1, max_size=5).map(tuple))


def _dumps(plan):
    return json.dumps(plan_to_dict(plan), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(_PLANS, _TEXT)
def test_plan_json_and_journal_line_are_the_dict_encodings(plan, key):
    assert json.loads(plan_to_json(plan)).keys() == {"steps"}
    assert plan_to_json(plan) == _dumps(plan)
    assert plan_to_json(plan) == _dumps(plan)  # from the kept JSON
    assert pipeline._journal_line(key, plan) == json.dumps(
        {"key": key, "plan": plan_to_dict(plan)}, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(_PLANS)
def test_a_decoded_plan_round_trips_to_equal_steps(plan):
    decoded = plan_from_json(plan_to_json(plan))
    again = plan_from_json(plan_to_json(decoded))
    assert again.steps == decoded.steps
    assert plan_to_json(again) == plan_to_json(decoded)


def test_restamp_keeps_the_validation_record_and_replace_does_not(registry):
    plan = Plan((Retrieve("r1", FilingType.ADV, "adv_entity"), Return("ret", "r1")))
    validate_plan(plan, registry)
    plan_to_json(plan)
    copy = replace(plan)
    assert not copy.passed_against(registry) and copy._json is None


def test_execute_plan_validates_a_plan_nobody_validated(registry, small_view):
    bad = Plan((Retrieve("r1", FilingType.ADV, "no_such_table"), Return("ret", "r1")))
    with pytest.raises(PlanError, match="unknown table"):
        execute_plan(bad, small_view, registry)


# ---------------------------------------------------------------------------
# Plans written before a plan was its steps alone

_STAMPS = {"provenance": "memory", "source_subquery": "What is the AUM?"}


def _stamped_json(plan):
    """The plan as older code wrote it: its steps plus the two stamps."""
    return json.dumps({**plan_to_dict(plan), **_STAMPS}, sort_keys=True)


def test_an_older_journal_line_loads_and_its_hit_answers_alike(registry, small_view,
                                                               bench, tmp_path):
    instance = next(i for i in bench if i.template_id == "E0")
    first = run_pipeline(instance.text, DeterministicProvider(), small_view, registry)
    assert first.status == "answered" and not first.from_memory
    key = LongTermMemory.normalize(instance.text)
    path = tmp_path / "memory.jsonl"
    path.write_text('{"key": ' + json.dumps(key) + ', "plan": '
                    + _stamped_json(first.final_plan) + '}\n', encoding="utf-8")
    memory = LongTermMemory(path)
    assert memory.lookup(instance.text).steps == first.final_plan.steps
    hit = run_pipeline(instance.text, DeterministicProvider(), small_view, registry,
                       memory=memory)
    assert hit.status == "answered" and hit.from_memory
    assert answer_to_dict(hit.answer) == answer_to_dict(first.answer)


class _Replies:
    """Fixed replies by request tag."""

    def __init__(self, **replies):
        self.replies = replies

    def complete(self, request):
        return self.replies[request.tag]


def test_planner_and_reviser_replies_with_the_older_stamps_parse_to_equal_steps(registry):
    entity = Plan((Retrieve("r1", FilingType.ADV, "adv_entity"), Return("ret", "r1")))
    brokers = Plan((Retrieve("r1", FilingType.ADV, "adv_brokers"), Return("ret", "r1")))
    text = _STAMPS["source_subquery"]
    drafted = draft_plan(text, (text,), _Replies(plan=_stamped_json(entity)), registry)
    assert not drafted.fallback and drafted.plan.steps == entity.steps
    final = revise_plan(text, drafted.plan, (),
                        _Replies(replan=_stamped_json(brokers)), registry)
    assert final.steps == brokers.steps


def test_the_rule_reviser_echoes_the_draft_plan_line_byte_for_byte(registry, small_view,
                                                                   bench):
    provider = _RecordingProvider()
    for instance in bench:
        result = run_pipeline(instance.text, provider, small_view, registry)
        if result.final_plan is not None:
            assert not result.revised
    assert provider.echoes and all(sent == reply for sent, reply in provider.echoes)
