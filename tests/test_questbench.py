"""Benchmark templates: instantiation, oracles, canonical plans, and the
file format.

A tiny hand-built corpus freezes expected answers for three templates; the
shared synthetic fixture checks the structural guarantees across all eleven.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import replace
from datetime import date

import pytest

from filingswarm.corpus.records import CorpusStore, FilingRecord
from filingswarm.corpus.reconcile import reconcile
from filingswarm.corpus.schema import FilingType, load_default_registry
from filingswarm.evalrun import judge_success
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.gateway.providers import ScriptedProvider
from filingswarm.gateway.types import FixtureMissError, GatewayError
from filingswarm.plans import ListValue, Scalar, TableValue, execute_plan, plan_to_json
from filingswarm.questbench import (
    ALL_IDS,
    EASY_IDS,
    HARD_IDS,
    TEMPLATES,
    UnsatisfiableTemplateError,
    canonical_plan,
    export_benchmark,
    generate_benchmark,
    instantiate,
    load_benchmark,
    oracle_solve,
    variegate,
)

REGISTRY = load_default_registry()
P1 = date(2023, 3, 31)

ANSWER_CLASSES = {"float": Scalar, "list": ListValue, "dataframe": TableValue}


def _rec(table_id, filing_type, acc, no, filer, fields, period=P1):
    return FilingRecord(
        record_id=f"{acc}:{no}", accession_id=acc, filing_type=filing_type,
        table_id=table_id, filer_id=filer, period=period, is_amendment=False,
        amends=None, fields=dict(fields, period=period.isoformat()))


@pytest.fixture(scope="module")
def micro_view():
    store = CorpusStore(REGISTRY)
    tf = [
        {"manager_id": "MGR0001", "manager_name": "Summit Peak Advisors",
         "issuer_name": "Alpha Industries", "cusip": "CUS000001",
         "security_class": "COM", "put_call": None,
         "value_usd": 1000.50, "shares": 10.0},
        {"manager_id": "MGR0001", "manager_name": "Summit Peak Advisors",
         "issuer_name": "Beta Corp", "cusip": "CUS000002",
         "security_class": "COM", "put_call": None,
         "value_usd": 2000.25, "shares": 20.0},
    ]
    for i, fields in enumerate(tf):
        store.add(_rec("thirteenf_holdings", FilingType.THIRTEEN_F,
                       "A13F-1", i, "MGR0001", fields))
    opts = [
        {"manager_id": "MGR0002", "manager_name": "Granite Bay Capital",
         "issuer_name": "Alpha Industries", "cusip": "CUS000001",
         "security_class": "OPT-CALL", "put_call": "CALL",
         "value_usd": 500.00, "shares": 5.0},
        {"manager_id": "MGR0002", "manager_name": "Granite Bay Capital",
         "issuer_name": "Beta Corp", "cusip": "CUS000002",
         "security_class": "OPT-PUT", "put_call": "PUT",
         "value_usd": 250.00, "shares": 2.0},
    ]
    for i, fields in enumerate(opts):
        store.add(_rec("thirteenf_holdings", FilingType.THIRTEEN_F,
                       "A13F-2", i, "MGR0002", fields))

    store.add(_rec("adv_entity", FilingType.ADV, "AADV-1", 0, "ADV0001", {
        "advisor_id": "ADV0001", "advisor_name": "Test Advisors LLC",
        "regulatory_aum": 1234.5, "employee_count": 12.0,
        "client_count": 40.0, "state": "NY"}))

    ncen = [
        {"trust_id": "TR0001", "fund_id": "FND0001",
         "fund_name": "Growth Fund", "advisor_id": "ADV0001",
         "advisor_name": "Test Advisors LLC", "fund_type": "equity"},
        {"trust_id": "TR0001", "fund_id": "FND0002",
         "fund_name": "Income Fund", "advisor_id": "ADV0001",
         "advisor_name": "Test Advisors LLC", "fund_type": "bond"},
    ]
    for i, fields in enumerate(ncen):
        store.add(_rec("ncen_fund_registry", FilingType.NCEN,
                       "ANCEN-1", i, "TR0001", fields))
    return reconcile(store)


def test_template_registry_shape():
    assert set(TEMPLATES) == set(ALL_IDS)
    assert ALL_IDS == EASY_IDS + HARD_IDS
    for template_id in EASY_IDS:
        assert TEMPLATES[template_id].difficulty == "easy"
    for template_id in HARD_IDS:
        assert TEMPLATES[template_id].difficulty == "hard"
    for template in TEMPLATES.values():
        assert template.answer_type in ANSWER_CLASSES
        assert template.gold_routes


# ---------------------------------------------------------------------------
# Hand-frozen instances


def test_cash_positions_instance_is_frozen(micro_view):
    instance = instantiate(TEMPLATES["E0"], micro_view, random.Random(0))
    assert instance.text == ('Get the aggregate cash equity positions for '
                             'manager "Summit Peak Advisors" for period '
                             '2023-03-31.')
    assert instance.variant == "templated"
    assert instance.gold_answer.value == 3000.75
    assert instance.relevant_record_ids == frozenset({"A13F-1:0", "A13F-1:1"})
    assert [r.label() for r in instance.gold_routes] == [
        "13F/thirteenf_holdings"]


def test_option_positions_instance_is_frozen(micro_view):
    instance = instantiate(TEMPLATES["E1"], micro_view, random.Random(0))
    assert instance.slot_values["manager"] == "Granite Bay Capital"
    assert instance.gold_answer.value == 750.0
    assert instance.relevant_record_ids == frozenset({"A13F-2:0", "A13F-2:1"})


def test_aum_instance_is_frozen(micro_view):
    instance = instantiate(TEMPLATES["E2"], micro_view, random.Random(0))
    assert instance.gold_answer.value == 1234.5
    assert instance.relevant_record_ids == frozenset({"AADV-1:0"})


def test_fund_list_instance_is_frozen(micro_view):
    instance = instantiate(TEMPLATES["E3"], micro_view, random.Random(0))
    assert isinstance(instance.gold_answer, ListValue)
    assert set(instance.gold_answer.values) == {"Growth Fund", "Income Fund"}
    assert instance.relevant_record_ids == frozenset({"ANCEN-1:0", "ANCEN-1:1"})


@pytest.mark.parametrize("template_id", ["E0", "E2", "E3"])
def test_canonical_plan_matches_oracle_on_the_micro_corpus(micro_view,
                                                           template_id):
    instance = instantiate(TEMPLATES[template_id], micro_view, random.Random(1))
    answer, relevant = oracle_solve(instance, micro_view)
    assert judge_success(answer, instance.gold_answer)
    assert relevant == instance.relevant_record_ids
    executed = execute_plan(canonical_plan(instance, micro_view), micro_view,
                            REGISTRY)
    assert judge_success(executed, instance.gold_answer)


def test_a_renamed_fund_is_named_as_in_each_period():
    # The fund-row oracle finds the fund by its name in the period, so each
    # H0 and H2 candidate must name the fund as that period's row does.
    store = CorpusStore(REGISTRY)
    p2 = date(2023, 6, 30)
    for period, acc, name in ((P1, "ANPORT-1", "Old Fund"), (p2, "ANPORT-2", "New Fund")):
        rows = (
            ("nport_fund_info", {"fund_id": "FND0001", "fund_name": name, "series_id": "S1",
                                 "total_assets": 10.0, "net_assets": 9.0}),
            ("nport_holdings", {"fund_id": "FND0001", "issuer_name": "Alpha Industries",
                                "cusip": "CUS000001", "instrument_type": "equity",
                                "country": "US", "value_usd": 1.0, "shares": 1.0}),
            ("nport_derivatives", {"fund_id": "FND0001", "derivative_type": "custom basket",
                                   "counterparty_name": "Bank", "underlying": "Basket",
                                   "notional_value": 5.0,
                                   "expiration_date": period.isoformat()}))
        for no, (table, fields) in enumerate(rows):
            store.add(_rec(table, FilingType.NPORT, acc, no, "TR0001", fields, period))
    view = reconcile(store)
    for template_id in ("H0", "H2"):
        template = TEMPLATES[template_id]
        candidates = template.candidates(view)
        assert {(slots["fund"], slots["period"]) for slots in candidates} == {
            ("Old Fund", P1.isoformat()), ("New Fund", p2.isoformat())}
        for slots in candidates:
            answer, _ = template.solve(view, slots)
            assert len(answer.rows) == 1, (template_id, slots)


def test_two_funds_of_one_name_are_both_in_the_fund_row_answers():
    # The canonical plan joins every nport_fund_info row with the fund's
    # name in the period, so the oracle must take every such fund's rows.
    store = CorpusStore(REGISTRY)
    for fund_id, cusip in (("FND0001", "CUS000001"), ("FND0002", "CUS000002")):
        acc = f"ANPORT-{fund_id}"
        rows = (
            ("nport_fund_info", {"fund_id": fund_id, "fund_name": "Same Fund",
                                 "series_id": fund_id, "total_assets": 10.0,
                                 "net_assets": 9.0}),
            ("nport_holdings", {"fund_id": fund_id, "issuer_name": "Alpha Industries",
                                "cusip": cusip, "instrument_type": "equity",
                                "country": "US", "value_usd": 1.0, "shares": 1.0}),
            ("nport_derivatives", {"fund_id": fund_id, "derivative_type": "custom basket",
                                   "counterparty_name": "Bank", "underlying": cusip,
                                   "notional_value": 5.0,
                                   "expiration_date": P1.isoformat()}))
        for no, (table, fields) in enumerate(rows):
            store.add(_rec(table, FilingType.NPORT, acc, no, "TR0001", fields))
    view = reconcile(store)
    for template_id in ("H0", "H2"):
        template = TEMPLATES[template_id]
        for slots in template.candidates(view):
            answer, relevant = template.solve(view, slots)
            assert [row[0] for row in answer.rows] == ["FND0001", "FND0002"], template_id
            executed = execute_plan(template.plan(view, slots), view, REGISTRY)
            assert executed.rows == answer.rows
            assert executed.supporting_record_ids == answer.supporting_record_ids
            assert len(relevant) == 4 and judge_success(executed, answer)


def test_unsatisfiable_templates_raise():
    empty = reconcile(CorpusStore(REGISTRY))
    with pytest.raises(UnsatisfiableTemplateError, match="E0"):
        instantiate(TEMPLATES["E0"], empty, random.Random(0))
    with pytest.raises(UnsatisfiableTemplateError):
        generate_benchmark(empty, per_template=1, seed=0)


@pytest.mark.parametrize("aums, detail", [
    ((10**400,), "int too large to convert to float"),
    ((1e308, 1e308), "sum is inf"),
], ids=["huge-int", "overflowing-sum"])
def test_an_oracle_sum_that_is_not_a_finite_number_is_unsatisfiable(aums, detail):
    store = CorpusStore(REGISTRY)
    for i, aum in enumerate(aums):
        store.add(_rec("adv_entity", FilingType.ADV, "AADV-1", i, "ADV0001", {
            "advisor_id": "ADV0001", "advisor_name": "Big Advisors",
            "regulatory_aum": aum, "state": "NY"}))
    message = ("template E2 has no finite answer for "
               "{'advisor': 'Big Advisors', 'period': '2023-03-31'}: " + detail)
    with pytest.raises(UnsatisfiableTemplateError, match=f"^{re.escape(message)}$"):
        generate_benchmark(reconcile(store), per_template=1, seed=0, template_ids=("E2",))


# ---------------------------------------------------------------------------
# Synthetic-corpus guarantees


def test_benchmark_is_deterministic_per_seed(small_view):
    first = generate_benchmark(small_view, per_template=2, seed=5)
    second = generate_benchmark(small_view, per_template=2, seed=5)
    assert first == second
    assert len(first) == 2 * len(ALL_IDS)


def test_template_streams_draw_independently(small_view):
    full = generate_benchmark(small_view, per_template=3, seed=7)
    only_e0 = generate_benchmark(small_view, per_template=3, seed=7,
                                 template_ids=("E0",))
    assert [i for i in full if i.template_id == "E0"] == only_e0


def test_bench_instances_are_well_formed(bench, small_view):
    assert len(bench) == 4 * len(ALL_IDS)
    for instance in bench:
        assert instance.variant == "templated"
        assert instance.text == instance.base_text
        assert instance.relevant_record_ids
        assert all(rid in small_view for rid in instance.relevant_record_ids)
        expected = ANSWER_CLASSES[TEMPLATES[instance.template_id].answer_type]
        assert isinstance(instance.gold_answer, expected)
        assert "{" not in instance.text  # every slot was filled


@pytest.fixture(scope="module")
def nulled_view(small_store, registry):
    """The shared corpus with 15% of its non-key field values null, name
    fields such as ``adv_brokers.advisor_name`` and
    ``ncen_fund_registry.fund_name`` among them. Half of those are left out
    of the record, which ingest allows and the executor reads as null."""
    rng = random.Random(17)
    store = CorpusStore(registry)
    for r in small_store.records:
        keys = registry.table(r.table_id).key_fields
        fields = {}
        for name, value in r.fields.items():
            roll = rng.random()
            if name in keys or roll >= 0.15:
                fields[name] = value
            elif roll < 0.075:
                fields[name] = None
        store.add(replace(r, fields=fields))
    return reconcile(store)


def test_canonical_plans_match_oracles_across_all_templates(bench, small_view,
                                                            nulled_view, registry):
    for instance in bench:
        executed = execute_plan(canonical_plan(instance, small_view),
                                small_view, registry)
        assert judge_success(executed, instance.gold_answer), instance.template_id
    # Every slot of every template, on the corpus as generated and on one
    # with nulls: the oracle follows the executor's null rules.
    for view in (small_view, nulled_view):
        for template_id in ALL_IDS:
            template = TEMPLATES[template_id]
            for slots in template.candidates(view):
                answer, relevant = template.solve(view, slots)
                executed = execute_plan(template.plan(view, slots), view, registry)
                assert judge_success(executed, answer), (template_id, slots)
                if len(template.gold_routes) == 1:  # its one retrieve's matches
                    assert executed.supporting_record_ids == tuple(sorted(relevant)), \
                        (template_id, slots)


# ---------------------------------------------------------------------------
# Variegation


def test_variegation_rewrites_but_keeps_gold(bench):
    base = next(i for i in bench if i.template_id == "E0")
    variants = variegate(base, DeterministicProvider(), n=2)
    assert len(variants) == 2
    assert len({v.text for v in variants} | {base.text}) == 3
    for variant in variants:
        assert variant.variant == "variegated"
        assert variant.base_text == base.text
        assert variant.gold_answer == base.gold_answer
        assert variant.relevant_record_ids == base.relevant_record_ids
        assert variant.slot_values == base.slot_values


class _Refuses:
    def complete(self, request):
        raise GatewayError("offline")


class _Blank:
    def complete(self, request):
        return "   "


def test_variegation_failure_modes(bench):
    base = bench[0]
    with pytest.raises(ValueError):
        variegate(base, DeterministicProvider(), n=0)
    assert variegate(base, _Refuses(), n=2) == []
    assert variegate(base, _Blank(), n=2) == []
    with pytest.raises(FixtureMissError):
        variegate(base, ScriptedProvider({}), n=1)


def test_mixed_benchmark_interleaves_variants(bench_mixed):
    assert len(bench_mixed) == 3 * 4 * len(ALL_IDS)
    kinds = [i.variant for i in bench_mixed[:3]]
    assert kinds == ["templated", "variegated", "variegated"]


# ---------------------------------------------------------------------------
# File format


def test_benchmark_file_round_trip(tmp_path, bench):
    path = tmp_path / "bench.jsonl"
    export_benchmark(bench, path)
    assert load_benchmark(path) == bench


@pytest.mark.parametrize("damage, error", [
    (lambda line: line[:-5], "JSONDecodeError"),
    (lambda line: line.replace('"text"', '"txet"'), "KeyError('text')"),
    (lambda line: json.dumps({**json.loads(line), "gold_routes": []}),
     "ValueError('gold_routes is empty')"),
])
def test_a_damaged_benchmark_line_names_the_file_and_line(tmp_path, bench, damage, error):
    path = tmp_path / "bench.jsonl"
    export_benchmark(bench[:3], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = damage(lines[1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 2: {re.escape(error)}"):
        load_benchmark(path)


# The export bytes of a variegated benchmark, every canonical plan and every
# template's candidate list on the shared corpus, hashed together: any change
# to a template's candidates, oracle or plan changes this digest.
BENCH_DIGEST = "ea1a2864aa76b1ac487cfc0b7a389fed210814bbba58638af9bbb416c685cd12"


def test_bench_plans_and_candidates_are_pinned(tmp_path, small_view):
    instances = generate_benchmark(small_view, per_template=1, seed=3,
                                   gateway=DeterministicProvider(),
                                   variegate_n=1)
    assert {i.template_id for i in instances} == set(ALL_IDS)
    path = tmp_path / "bench.jsonl"
    export_benchmark(instances, path)
    digest = hashlib.sha256(path.read_bytes())
    for instance in instances:
        digest.update(plan_to_json(canonical_plan(instance, small_view)).encode())
        digest.update(b"\n")
    for template_id in ALL_IDS:
        candidates = TEMPLATES[template_id].candidates(small_view)
        digest.update(json.dumps(candidates, sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == BENCH_DIGEST
