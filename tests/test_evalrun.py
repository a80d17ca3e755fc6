"""Answer judging, retrieval/routing/agentic studies, and report output."""
from __future__ import annotations

import dataclasses
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from filingswarm import evalrun, vindex
from filingswarm.corpus.reconcile import reconcile
from filingswarm.corpus.schema import FilingType
from filingswarm.evalrun import (
    ABS_TOL,
    REL_TOL,
    GoldProvider,
    build_oracle_retrieval_embedder,
    build_expert_indexes,
    build_oracle_route_embedder,
    build_perfect_fixtures,
    judge_success,
    render_agentic_markdown,
    render_retrieval_markdown,
    render_routing_markdown,
    report_to_json,
    report_to_markdown,
    retrieval_units,
    run_agentic,
    run_retrieval_ablation,
    run_routing_ablation,
)
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.gateway.providers import ScriptedProvider
from filingswarm.gateway.types import FixtureMissError, GatewayError
from filingswarm.pipeline import LongTermMemory
from filingswarm.plans import ListValue, Scalar, TableValue
from filingswarm.routing import Route, route_generative
from filingswarm.vindex import HashFeatureEmbedder, IndexScope, build_index, scope_positions


@pytest.fixture(scope="module")
def gold(bench, small_view, registry):
    return GoldProvider(bench, small_view)


@pytest.fixture(scope="module")
def reps(bench):
    """First benchmark instance of each template, in benchmark order."""
    first = {}
    for instance in bench:
        first.setdefault(instance.template_id, instance)
    return list(first.values())


class _Boom:
    def complete(self, request):
        raise GatewayError("provider is down")


# ---------------------------------------------------------------------------
# Judging

def test_judging_tolerances_are_fixed():
    assert REL_TOL == 1e-6
    assert ABS_TOL == 1e-9


def test_judge_scalar_uses_relative_band_on_large_values():
    gold = Scalar(1e9)
    assert judge_success(Scalar(1e9 + 100.0), gold)
    assert not judge_success(Scalar(1e9 + 2000.0), gold)


def test_judge_scalar_uses_absolute_floor_near_zero():
    gold = Scalar(0.0)
    assert judge_success(Scalar(5e-10), gold)
    assert not judge_success(Scalar(1e-7), gold)


def test_judge_is_type_strict():
    assert not judge_success(None, Scalar(1.0))
    assert not judge_success(ListValue(("1.0",)), Scalar(1.0))
    assert not judge_success(Scalar(1.0), ListValue(("1.0",)))
    assert not judge_success(
        TableValue(columns=("v",), rows=((1.0,),)), Scalar(1.0))


def test_judge_list_ignores_order_and_multiplicity():
    gold = ListValue(("alpha", "beta"))
    assert judge_success(ListValue(("beta", "alpha")), gold)
    # membership is set-based, so repeats do not change the verdict
    assert judge_success(ListValue(("alpha", "alpha", "beta")), gold)
    assert not judge_success(ListValue(("alpha",)), gold)
    assert not judge_success(ListValue(("alpha", "beta", "gamma")), gold)


def test_judge_table_canonicalizes_columns_and_rows():
    gold = TableValue(columns=("country", "value_usd"),
                      rows=(("US", 10.0), ("IE", 5.0)))
    shuffled = TableValue(columns=("value_usd", "country"),
                          rows=((5.0 + 1e-12, "IE"), (10.0, "US")))
    assert judge_success(shuffled, gold)
    assert not judge_success(
        TableValue(columns=("country", "value_usd"),
                   rows=(("US", 10.0), ("IE", 5.0), ("IE", 5.0))), gold)
    assert not judge_success(
        TableValue(columns=("country", "shares"),
                   rows=(("US", 10.0), ("IE", 5.0))), gold)
    assert not judge_success(
        TableValue(columns=("country", "value_usd"),
                   rows=(("US", 10.0), ("FR", 5.0))), gold)


def test_judge_table_tolerates_none_cells_and_float_noise():
    gold = TableValue(columns=("label", "value_usd"), rows=((None, 10.0),))
    assert judge_success(
        TableValue(columns=("value_usd", "label"), rows=((10.0 + 1e-6, None),)),
        gold)
    assert not judge_success(
        TableValue(columns=("label", "value_usd"), rows=(("x", 10.0),)), gold)


# ---------------------------------------------------------------------------
# Retrieval ablation

def test_retrieval_units_skip_a_gold_route_whose_table_holds_no_relevant_record(
        bench, small_view):
    instance = bench[0]
    empty = Route(FilingType.ADV, "adv_brokers")
    assert all(small_view.by_record_id[rid].table_id != empty.table
               for rid in instance.relevant_record_ids)
    widened = dataclasses.replace(instance, gold_routes=instance.gold_routes + (empty,))
    units = retrieval_units([widened], small_view)
    assert [unit.route for unit in units] == [
        unit.route for unit in retrieval_units([instance], small_view)]
    assert empty not in [unit.route for unit in units]


def test_retrieval_units_target_one_gold_table_each(bench, small_view):
    units = retrieval_units(bench, small_view)
    assert units, "benchmark must produce at least one retrieval unit"
    by_instance: dict[int, int] = {}
    for unit in units:
        instance = bench[unit.instance_index]
        assert unit.query_text == (
            f"{instance.text} Focus on table {unit.route.table}.")
        assert unit.relevant
        assert unit.relevant <= instance.relevant_record_ids
        for rid in unit.relevant:
            assert small_view.by_record_id[rid].table_id == unit.route.table
        by_instance[unit.instance_index] = by_instance.get(unit.instance_index, 0) + 1
    for idx, instance in enumerate(bench):
        if instance.template_id == "E0":
            assert by_instance[idx] == 1
            assert instance.gold_routes[0].agent is FilingType.THIRTEEN_F


def test_scope_index_labels_cover_every_level(small_view, registry):
    # the ablation's narrower indexes are rows selected from the global one
    whole = build_index(small_view, IndexScope.global_(), HashFeatureEmbedder(16))
    positions = scope_positions(small_view)
    agents = {f"agent:{ft.value}" for ft in FilingType}
    tables = {f"table:{s.table_id}" for s in registry.all_tables()}
    labels = {scope.label() for scope in positions}
    assert {whole.scope.label()} | labels == {"global"} | agents | tables
    assert len(whole.record_ids) == len(small_view.records)
    # 13F holds a single table, so its filing index is that table's index
    assert (positions[IndexScope.parse("agent:13F")]
            == positions[IndexScope.parse("table:thirteenf_holdings")])


class _CountingEmbedder(HashFeatureEmbedder):
    def __init__(self, dim):
        super().__init__(dim)
        self.batches = 0

    def embed_batch(self, texts):
        self.batches += 1
        return super().embed_batch(texts)


def test_scope_indexes_equal_separate_builds_from_one_embedding(small_view, registry):
    embedder = _CountingEmbedder(16)
    whole = build_index(small_view, IndexScope.global_(), embedder)
    positions = scope_positions(small_view)
    selected = {scope.label(): whole.select(scope, rows)
                for scope, rows in positions.items()}
    assert embedder.batches == 1
    tables = {f"table:{s.table_id}" for s in registry.all_tables()}
    assert set(selected) == {f"agent:{ft.value}" for ft in FilingType} | tables
    assert len(selected) == 6 + len(tables)
    for label, index in selected.items():
        alone = build_index(small_view, IndexScope.parse(label), HashFeatureEmbedder(16))
        assert index.scope == alone.scope
        assert index.record_ids == alone.record_ids
        assert index.vectors.tobytes() == alone.vectors.tobytes()


def test_retrieval_ablation_embeds_queries_in_one_batch(bench, small_view, registry):
    embedder = _CountingEmbedder(64)
    report = run_retrieval_ablation(bench, small_view, embedder, registry)
    assert embedder.batches == 2  # the records, then the distinct query texts
    assert report == run_retrieval_ablation(bench, small_view,
                                            HashFeatureEmbedder(64), registry)


def test_retrieval_ablation_walks_the_view_once(bench, small_store, registry,
                                                monkeypatch):
    walked = []
    walk = vindex._walk_scopes
    monkeypatch.setattr(vindex, "_walk_scopes",
                        lambda view: walked.append(view) or walk(view))
    view = reconcile(small_store)
    report = run_retrieval_ablation(bench, view, HashFeatureEmbedder(64), registry)
    assert report == run_retrieval_ablation(bench, view, HashFeatureEmbedder(64),
                                            registry)
    assert walked == [view]


def test_retrieval_ablation_narrower_scope_never_hurts(bench, small_view, registry):
    report = run_retrieval_ablation(bench, small_view,
                                    HashFeatureEmbedder(64), registry)
    assert report["kind"] == "retrieval"
    assert report["n_instances"] == len(bench)
    overall = {k: report["scopes"][k]["overall"]["r_precision"]
               for k in ("global", "agent", "table")}
    assert overall["table"] + 1e-12 >= overall["agent"]
    assert overall["agent"] + 1e-12 >= overall["global"]
    # single-table filing: agent scope and table scope are the same search
    agent_13f = report["scopes"]["agent"]["per_filing"]["13F"]
    table_13f = report["scopes"]["table"]["per_filing"]["13F"]
    assert agent_13f == table_13f


def test_oracle_retrieval_embedder_is_a_true_ceiling(bench, small_view, registry):
    units = retrieval_units(bench, small_view)
    oracle = build_oracle_retrieval_embedder(units, small_view)
    report = run_retrieval_ablation(bench, small_view, oracle, registry)
    for kind in ("global", "agent", "table"):
        scope = report["scopes"][kind]
        assert scope["overall"]["r_precision"] == 1.0
        for filing, cell in scope["per_filing"].items():
            assert cell["r_precision"] == 1.0, (kind, filing)


# ---------------------------------------------------------------------------
# Routing ablation

def test_oracle_route_embedder_routes_every_question(bench, registry):
    oracle = build_oracle_route_embedder(bench, registry)
    report = run_routing_ablation(bench, "embedding", registry,
                                  embedder=oracle)
    assert report["strategy"] == "embedding"
    cell = report["splits"]["overall"]["both"]
    assert cell["acc_agent"] == 1.0
    assert cell["acc_table_given_agent"] == 1.0
    assert cell["acc_overall"] == 1.0
    assert cell["n_samples"] == len(bench)
    # confusion is only attached to the headline cell
    assert "confusion" in cell
    assert "confusion" not in report["splits"]["easy"]["templated"]
    # a purely templated benchmark has no variegated split to report
    assert "variegated" not in report["splits"]["overall"]


def test_routing_ablation_guards(bench, registry):
    # refused before any instance is routed, so also with no instances
    for instances in (bench[:1], []):
        with pytest.raises(ValueError, match="embedding strategy needs an embedder"):
            run_routing_ablation(instances, "embedding", registry)
        with pytest.raises(ValueError, match="unknown strategy 'psychic'"):
            run_routing_ablation(instances, "psychic", registry,
                                 provider=DeterministicProvider())
        for strategy in ("generative", "swarm"):
            with pytest.raises(ValueError, match=f"{strategy} strategy needs a provider"):
                run_routing_ablation(instances, strategy, registry)


def test_routing_ablation_turns_gateway_errors_into_misses(bench, registry):
    report = run_routing_ablation(bench[:3], "generative", registry,
                                  provider=_Boom())
    cell = report["splits"]["overall"]["both"]
    assert cell["acc_agent"] == 0.0
    assert cell["acc_overall"] == 0.0
    assert cell["n_samples"] == 3


def test_routing_ablation_propagates_fixture_misses(bench, registry):
    with pytest.raises(FixtureMissError):
        run_routing_ablation(bench[:1], "generative", registry,
                             provider=ScriptedProvider({}))


# ---------------------------------------------------------------------------
# Gold provider and recorded ceilings

def test_gold_provider_answers_routing_slots_from_gold(bench, registry, gold):
    for instance in bench[:6]:
        n = len(instance.gold_routes)
        outcome = route_generative(instance.text, gold, registry, n_routes=n)
        assert not outcome.unroutable
        assert outcome.predicted == instance.gold_routes


def test_gold_provider_refuses_slots_beyond_gold(bench, registry, gold):
    instance = bench[0]
    n = len(instance.gold_routes)
    outcome = route_generative(instance.text, gold, registry, n_routes=n + 1)
    assert outcome.unroutable
    assert outcome.predicted == instance.gold_routes


def test_recorded_fixtures_replay_to_perfect_scores(reps, small_view, registry):
    recorder = build_perfect_fixtures(reps, small_view, registry)
    scripted = ScriptedProvider(recorder.captured)

    gen = run_routing_ablation(reps, "generative", registry, provider=scripted)
    assert gen["splits"]["overall"]["both"]["acc_overall"] == 1.0

    swarm = run_routing_ablation(reps, "swarm", registry, provider=scripted)
    assert swarm["splits"]["overall"]["both"]["acc_overall"] == 1.0

    agentic = run_agentic(reps, scripted, small_view, registry)
    assert all(r["success"] for r in agentic["records"])
    assert agentic["splits"]["overall"]["both"]["success_rate"] == 1.0

    # the recording is closed: an unseen question must fail loudly, not
    # silently fall back to some other answer source
    foreign = dataclasses.replace(reps[0], text="What is the meaning of life?")
    with pytest.raises(FixtureMissError):
        run_routing_ablation([foreign], "generative", registry,
                             provider=scripted)


# ---------------------------------------------------------------------------
# Agentic study

def test_run_agentic_expands_counts_per_gold_route(reps, small_view, registry, gold):
    report = run_agentic(reps, gold, small_view, registry)
    assert report["kind"] == "agentic"
    assert report["n_instances"] == len(reps)
    assert report["n_expanded"] == sum(len(i.gold_routes) for i in reps)

    expected_by_filing: dict[str, int] = {}
    for instance in reps:
        for route in instance.gold_routes:
            agent = route.agent.value
            expected_by_filing[agent] = expected_by_filing.get(agent, 0) + 1
    assert {f: cell["n"] for f, cell in report["per_filing"].items()} \
        == expected_by_filing

    for idx, record in enumerate(report["records"]):
        assert record["instance_index"] == idx
        assert record["template_id"] == reps[idx].template_id
        assert record["status"] == "answered"
        assert record["success"] is True
        assert record["from_memory"] is False
        assert record["error"] is None
        assert record["agents"] == sorted(
            {r.agent.value for r in reps[idx].gold_routes})


def test_run_agentic_threaded_matches_serial(reps, small_view, registry, gold):
    serial = run_agentic(reps[:4], gold, small_view, registry, workers=1)
    threaded = run_agentic(reps[:4], gold, small_view, registry, workers=3)
    assert serial["records"] == threaded["records"]


def test_run_agentic_experts_search_their_table_index(reps, small_view, registry):
    rule, replans = DeterministicProvider(), []

    def complete(request):
        if request.tag == "replan":
            replans.append(request.last_user_content())
        # every plan asks for a security class that no record holds
        return rule.complete(request).replace('"eq", "COM"]', '"eq", "COMMON"]')

    run_agentic(reps[:1], SimpleNamespace(complete=complete), small_view, registry)
    (replan,) = replans
    assert ("13F/thirteenf_holdings step r1: 0 records match; no rows remain after "
            "security_class eq 'COMMON'; nearest records have security_class 'COM'") in replan


def _count_builds(monkeypatch) -> list[str]:
    """The table of each index ``evalrun`` builds from here on."""
    built, real = [], evalrun.build_index

    def counting(view, scope, embedder):
        built.append(scope.key)
        return real(view, scope, embedder)

    monkeypatch.setattr(evalrun, "build_index", counting)
    return built


def test_expert_indexes_build_each_table_once_on_its_first_lookup(small_view, registry,
                                                                   monkeypatch):
    built = _count_builds(monkeypatch)
    table_ids = [schema.table_id for schema in registry.all_tables()]
    indexes = build_expert_indexes(small_view, registry, HashFeatureEmbedder(32))
    assert list(indexes) == table_ids and len(indexes) == len(table_ids)
    with pytest.raises(KeyError):
        indexes["no_such_table"]
    assert indexes.get("no_such_table") is None
    with pytest.raises(TypeError):
        indexes["no_such_table"] = None
    assert built == []

    index = indexes["thirteenf_holdings"]
    assert indexes["thirteenf_holdings"] is index
    assert built == ["thirteenf_holdings"]
    alone = build_index(small_view, IndexScope.table("thirteenf_holdings"),
                        HashFeatureEmbedder(32))
    assert index.record_ids == alone.record_ids
    assert index.vectors.tobytes() == alone.vectors.tobytes()


def test_expert_indexes_build_each_table_once_under_concurrent_lookups(
        small_view, registry, monkeypatch):
    built, real = [], evalrun.build_index

    def slow(view, scope, embedder):
        built.append(scope.key)
        time.sleep(0.01)  # the other threads reach the lock meanwhile
        return real(view, scope, embedder)

    monkeypatch.setattr(evalrun, "build_index", slow)
    indexes = build_expert_indexes(small_view, registry, HashFeatureEmbedder(32))
    tables = list(indexes)
    workers = 6
    start = threading.Barrier(workers, timeout=30)

    def lookup(offset):
        start.wait()
        # each thread walks every table, from its own first table
        return {table: indexes[table] for table in tables[offset:] + tables[:offset]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            seen = list(pool.map(lookup, range(workers), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(built) == sorted(tables)
    for got in seen:
        assert all(got[table] is indexes[table] for table in tables)


def test_run_agentic_embeds_only_the_tables_its_experts_search(reps, small_view, registry,
                                                              gold, monkeypatch):
    built = _count_builds(monkeypatch)
    run_agentic(reps, gold, small_view, registry, workers=2)
    assert built == []  # every gold plan matches records, so no expert searches
    rule = DeterministicProvider()

    def complete(request):
        return rule.complete(request).replace('"eq", "COM"]', '"eq", "COMMON"]')

    run_agentic(reps[:1], SimpleNamespace(complete=complete), small_view, registry)
    assert built == ["thirteenf_holdings"]


def test_run_agentic_threaded_with_shared_memory_matches_serial(bench, small_view,
                                                                 registry, tmp_path):
    # Each question is asked twice in a row, so two workers would take both
    # asks at once if the asks of one text ran in different tasks.
    instances = [instance for instance in bench for _ in range(2)]

    def records(workers):
        memory = LongTermMemory(tmp_path / f"memory-{workers}.jsonl")
        return run_agentic(instances, DeterministicProvider(), small_view, registry,
                           memory=memory, workers=workers)["records"]

    serial = records(1)
    assert any(r["from_memory"] for r in serial) and any(r["success"] for r in serial)
    assert records(3) == serial


def test_run_agentic_records_failures_instead_of_aborting(reps, small_view, registry):
    report = run_agentic(reps[:2], _Boom(), small_view, registry)
    assert report["splits"]["overall"]["both"]["success_rate"] == 0.0
    for record in report["records"]:
        assert record["status"] == "failed"
        assert record["success"] is False
        assert record["error"].startswith("GatewayError")


class _FirstCallCrashes:
    """Raises a non-gateway error on its first completion, then defers."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("provider crashed")
        return self.inner.complete(request)


def test_run_agentic_records_an_unexpected_provider_error(reps, small_view, registry, gold):
    report = run_agentic(reps[:2], _FirstCallCrashes(gold), small_view, registry)
    crashed, answered = report["records"]
    assert crashed["status"] == "failed" and crashed["success"] is False
    assert crashed["error"] == "RuntimeError: provider crashed"
    assert answered["status"] == "answered" and answered["success"] is True
    assert report["splits"]["overall"]["both"]["wins"] == 1


def test_run_agentic_rejects_bad_worker_count(reps, small_view, registry, gold):
    with pytest.raises(ValueError, match="workers"):
        run_agentic(reps[:1], gold, small_view, registry, workers=0)


def test_run_agentic_propagates_fixture_misses(reps, small_view, registry):
    with pytest.raises(FixtureMissError):
        run_agentic(reps[:1], ScriptedProvider({}), small_view, registry)


# ---------------------------------------------------------------------------
# Reports

def test_retrieval_markdown_table_shape():
    section = {"scopes": {
        "global": {"per_filing": {"13F": {"r_precision": 0.5, "units": 2}},
                   "overall": {"r_precision": 0.5, "units": 2}},
        "table": {"per_filing": {"13F": {"r_precision": 1.0, "units": 2}},
                  "overall": {"r_precision": 1.0, "units": 2}},
    }}
    assert render_retrieval_markdown(section) == (
        "| Scope | 13F | Overall |\n"
        "|---|---|---|\n"
        "| global | 50.0 | 50.0 |\n"
        "| table | 100.0 | 100.0 |")


def test_routing_markdown_rounds_to_one_decimal():
    section = {"strategy": "generative", "splits": {"overall": {"both": {
        "acc_agent": 0.827, "acc_table_given_agent": 0.991,
        "acc_overall": 0.8196, "n_samples": 1209, "n_units": 1209}}}}
    assert render_routing_markdown(section) == (
        "Strategy: generative\n"
        "| Split | Variant | Agent | Table|Agent | Overall | N |\n"
        "|---|---|---|---|---|---|\n"
        "| overall | both | 82.7 | 99.1 | 82.0 | 1209 |")


def test_agentic_markdown_fills_missing_cells_with_dashes():
    section = {
        "per_filing": {"NPORT": {"success_rate": 1.0, "n": 3, "wins": 3}},
        "splits": {"overall": {"both": {"success_rate": 0.75, "n": 4, "wins": 3}}},
        "n_instances": 4,
        "n_expanded": 6,
    }
    text = render_agentic_markdown(section)
    assert "| NPORT | 100.0 | 3 |" in text
    assert "| Easy | - | - | - |" in text
    assert "| Overall | - | - | 75.0 |" in text
    assert text.endswith("Questions: 4 (filing-expanded count 6)")


def test_full_report_markdown_has_all_three_sections(bench, small_view, registry, gold):
    subset = bench[:4]
    units = retrieval_units(subset, small_view)
    retrieval = run_retrieval_ablation(
        subset, small_view, build_oracle_retrieval_embedder(units, small_view),
        registry)
    routing = run_routing_ablation(subset, "generative", registry, provider=gold)
    agentic = run_agentic(subset, gold, small_view, registry)
    text = report_to_markdown(
        {"retrieval": retrieval, "routing": [routing], "agentic": agentic})
    assert "## Retrieval scope ablation" in text
    assert "## Routing strategies" in text
    assert "## Agentic question answering" in text
    assert "Strategy: generative" in text
    assert text.endswith("\n")


def test_report_json_is_key_sorted_and_byte_stable(bench, registry):
    first = {"b": 1, "a": {"y": 2.0, "x": [3, 1]}}
    second = {"a": {"x": [3, 1], "y": 2.0}, "b": 1}
    assert report_to_json(first) == report_to_json(second)
    assert report_to_json(first).endswith("\n")

    oracle = build_oracle_route_embedder(bench, registry)
    runs = [run_routing_ablation(bench, "embedding", registry, embedder=oracle)
            for _ in range(2)]
    assert report_to_json(runs[0]) == report_to_json(runs[1])
