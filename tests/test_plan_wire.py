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
from filingswarm.pipeline import LongTermMemory, run_pipeline
from filingswarm.plans import (
    AGG_FUNCTIONS,
    ARITH_OPS,
    PROVENANCES,
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
    restamp_plan,
    validate_plan,
)
from filingswarm.vindex import HashFeatureEmbedder, IndexScope, build_index


class _RecordingProvider:
    """The rule provider, recording the digest of every replan request."""

    def __init__(self):
        self.inner = DeterministicProvider()
        self.replan_digests: list[str] = []

    def complete(self, request):
        if request.tag == "replan":
            self.replan_digests.append(request_digest(request))
        return self.inner.complete(request)


# sha256 over the replan request digests, the draft and final plan JSON, the
# answer, status, error and from_memory of every op, then the journal bytes.
# Computed on the code that decoded the reviser's echo and re-encoded each
# plan for its journal line.
GOLDEN_PIPELINE_SHA256 = "143768f967a3bba36ecf7cfd507abdd6b14564cf251937e85c0366c7dc35a3f2"


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
    memory.close()
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
_SOURCES = st.none() | _TEXT
_PLANS = st.builds(Plan, st.lists(_STEPS, min_size=1, max_size=5).map(tuple),
                   st.sampled_from(PROVENANCES), _SOURCES)


def _dumps(plan):
    return json.dumps(plan_to_dict(plan), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(_PLANS, _TEXT)
def test_plan_json_and_journal_line_are_the_dict_encodings(plan, key):
    assert plan_to_json(plan) == _dumps(plan)
    assert plan_to_json(plan) == _dumps(plan)  # from the kept steps JSON
    assert pipeline._journal_line(key, plan) == json.dumps(
        {"key": key, "plan": plan_to_dict(plan)}, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(_PLANS, st.sampled_from(PROVENANCES), _SOURCES)
def test_a_restamped_plan_encodes_its_own_provenance_and_source(plan, provenance, source):
    before = plan_to_json(plan)
    stamped = restamp_plan(plan, provenance, source)
    assert stamped.steps is plan.steps
    assert (stamped.provenance, stamped.source_subquery) == (provenance, source)
    assert plan_to_json(stamped) == _dumps(stamped)
    assert plan_to_json(plan) == before


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
    stamped = restamp_plan(plan, "memory", "q")
    assert stamped.passed_against(registry)
    assert stamped._steps_json == plan._steps_json
    copy = replace(plan, provenance="memory")
    assert not copy.passed_against(registry) and copy._steps_json is None


def test_execute_plan_validates_a_plan_nobody_validated(registry, small_view):
    bad = Plan((Retrieve("r1", FilingType.ADV, "no_such_table"), Return("ret", "r1")))
    for plan in (bad, restamp_plan(bad, "optimized", "q")):
        with pytest.raises(PlanError, match="unknown table"):
            execute_plan(plan, small_view, registry)
