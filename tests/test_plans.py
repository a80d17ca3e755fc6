"""Plan DSL: validation, execution semantics, and serialization.

All expected numbers are computed by hand from the micro corpus below.
"""
from __future__ import annotations

import json
import re
import sys
import threading
from dataclasses import replace
from datetime import date
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filingswarm.corpus.records import CorpusStore, FilingRecord
from filingswarm.corpus.reconcile import ReconciledView, reconcile
from filingswarm.corpus.schema import (
    FieldDef,
    FilingType,
    SchemaRegistry,
    TableSchema,
    load_default_registry,
)
from filingswarm import plans, questbench
from filingswarm.pipeline import gather_swarm_intelligence
from filingswarm.plans import (
    Aggregate,
    Arithmetic,
    ExecutionError,
    Filter,
    Join,
    ListValue,
    Plan,
    PlanError,
    Retrieve,
    Return,
    Scalar,
    TableValue,
    answer_from_dict,
    answer_to_dict,
    execute_plan,
    plan_from_json,
    plan_to_json,
    select_records,
    validate_plan,
)
from filingswarm.plans import _matches

REGISTRY = load_default_registry()
P1 = date(2023, 3, 31)


def _rec(table_id, filing_type, acc, no, fields):
    return FilingRecord(
        record_id=f"{acc}:{no}", accession_id=acc, filing_type=filing_type,
        table_id=table_id, filer_id=fields.get("manager_id") or fields.get("advisor_id") or "TR0001",
        period=P1, is_amendment=False, amends=None,
        fields=dict(fields, period=P1.isoformat()))


@pytest.fixture(scope="module")
def view():
    store = CorpusStore(REGISTRY)
    h = "thirteenf_holdings"
    t13 = FilingType.THIRTEEN_F
    rows = [
        {"manager_id": "MGR0001", "manager_name": "Summit Peak Advisors",
         "issuer_name": "Alpha Industries", "cusip": "CUS000001",
         "security_class": "COM", "put_call": None, "value_usd": 1000.50, "shares": 10.0},
        {"manager_id": "MGR0001", "manager_name": "Summit Peak Advisors",
         "issuer_name": "Beta Corp", "cusip": "CUS000002",
         "security_class": "COM", "put_call": None, "value_usd": 2000.25, "shares": 20.0},
        {"manager_id": "MGR0001", "manager_name": "Summit Peak Advisors",
         "issuer_name": "Alpha Industries", "cusip": "CUS000003",
         "security_class": "OPT-CALL", "put_call": "CALL", "value_usd": 500.00, "shares": 5.0},
        {"manager_id": "MGR0002", "manager_name": "Granite Bay Capital",
         "issuer_name": "Alpha Industries", "cusip": "CUS000001",
         "security_class": "COM", "put_call": None, "value_usd": 99.00, "shares": 1.0},
    ]
    for i, fields in enumerate(rows):
        store.add(_rec(h, t13, f"A13F-{fields['manager_id']}", i, fields))

    ncen = [
        {"trust_id": "TR0001", "fund_id": "FND0001", "fund_name": "Growth Fund",
         "advisor_id": "ADV0001", "advisor_name": "Test Advisors LLC", "fund_type": "equity"},
        {"trust_id": "TR0001", "fund_id": "FND0002", "fund_name": "Income Fund",
         "advisor_id": "ADV0001", "advisor_name": "Test Advisors LLC", "fund_type": "bond"},
        {"trust_id": "TR0001", "fund_id": "FND0003", "fund_name": "Cash Fund",
         "advisor_id": None, "advisor_name": None, "fund_type": "money market"},
    ]
    for i, fields in enumerate(ncen):
        store.add(_rec("ncen_fund_registry", FilingType.NCEN, "ANCEN-1", i, fields))

    nmfp = [
        {"fund_id": "FND0001", "fund_name": "Growth Fund", "net_assets": 5000.0,
         "seven_day_yield": 1.0, "wam_days": 30.0},
        {"fund_id": "FND0003", "fund_name": "Cash Fund", "net_assets": 700.0,
         "seven_day_yield": 2.0, "wam_days": 20.0},
    ]
    for i, fields in enumerate(nmfp):
        store.add(_rec("nmfp_fund_info", FilingType.NMFP, "ANMFP-1", i, fields))
    return reconcile(store)


def retrieve_13f(step_id="r1", filters=(), columns=None):
    return Retrieve(step_id=step_id, agent=FilingType.THIRTEEN_F,
                    table="thirteenf_holdings", filters=tuple(filters),
                    columns=columns)


MGR1 = Filter("manager_id", "eq", "MGR0001")
COM = Filter("security_class", "eq", "COM")


def run(view, *steps):
    return execute_plan(Plan(tuple(steps)), view, REGISTRY)


# --- execution ---------------------------------------------------------------

def test_sum_skips_null_values(view):
    answer = run(view,
                 retrieve_13f(filters=[MGR1, COM]),
                 Aggregate(step_id="a", input_step="r1", function="sum",
                           value_field="value_usd"),
                 Return(step_id="ret", input_step="a"))
    assert isinstance(answer, Scalar)
    assert answer.value == 3000.75
    assert len(answer.supporting_record_ids) == 2


def test_count_and_mean(view):
    answer = run(view, retrieve_13f(filters=[MGR1]),
                 Aggregate(step_id="a", input_step="r1", function="count"),
                 Return(step_id="ret", input_step="a"))
    assert answer.value == 3.0

    answer = run(view, retrieve_13f(filters=[MGR1, COM]),
                 Aggregate(step_id="a", input_step="r1", function="mean",
                           value_field="value_usd"),
                 Return(step_id="ret", input_step="a"))
    assert answer.value == 1500.375


def test_mean_of_empty_input_fails(view):
    with pytest.raises(ExecutionError, match="mean of empty"):
        run(view,
            retrieve_13f(filters=[Filter("cusip", "eq", "NOPE")]),
            Aggregate(step_id="a", input_step="r1", function="mean",
                      value_field="value_usd"),
            Return(step_id="ret", input_step="a"))


def test_groupby_sum_sorts_by_group_key(view):
    answer = run(view, retrieve_13f(filters=[MGR1]),
                 Aggregate(step_id="a", input_step="r1", function="groupby-sum",
                           group_fields=("issuer_name",), value_field="value_usd"),
                 Return(step_id="ret", input_step="a"))
    assert isinstance(answer, TableValue)
    assert answer.columns == ("issuer_name", "value_usd")
    assert answer.rows == (("Alpha Industries", 1500.50), ("Beta Corp", 2000.25))


def test_groupby_none_key_sorts_first(view):
    answer = run(view, retrieve_13f(filters=[MGR1]),
                 Aggregate(step_id="a", input_step="r1", function="groupby-sum",
                           group_fields=("put_call",), value_field="value_usd"),
                 Return(step_id="ret", input_step="a"))
    # equity rows have no put_call; the null group leads the output
    assert answer.rows == ((None, 3000.75), ("CALL", 500.0))


def test_filter_ops(view):
    contains = run(view,
                   retrieve_13f(filters=[Filter("issuer_name", "contains", "alpha")],
                                columns=("cusip",)),
                   Return(step_id="ret", input_step="r1"))
    assert sorted(contains.values) == ["CUS000001", "CUS000001", "CUS000003"]

    ranged = run(view,
                 retrieve_13f(filters=[MGR1, Filter("value_usd", "range", [600.0, None])],
                              columns=("cusip",)),
                 Return(step_id="ret", input_step="r1"))
    assert sorted(ranged.values) == ["CUS000001", "CUS000002"]


def test_range_over_text_matches_nothing(view):
    answer = run(view,
                 retrieve_13f(filters=[Filter("issuer_name", "range", [1.0, 2.0])],
                              columns=("cusip",)),
                 Return(step_id="ret", input_step="r1"))
    assert answer.values == ()


def test_matching_records_ignores_projection(view):
    step = retrieve_13f(filters=[MGR1], columns=("cusip",))
    assert len(select_records(view, step).records) == 3


def test_arithmetic_wallet_share(view):
    answer = run(view,
                 retrieve_13f("opt", filters=[MGR1, Filter("security_class", "contains", "OPT")]),
                 Aggregate(step_id="num", input_step="opt", function="sum",
                           value_field="value_usd"),
                 retrieve_13f("all", filters=[MGR1]),
                 Aggregate(step_id="den", input_step="all", function="sum",
                           value_field="value_usd"),
                 Arithmetic(step_id="share", left_step="num", right_step="den", op="div"),
                 Return(step_id="ret", input_step="share"))
    assert answer.value == 500.0 / 3500.75
    # support covers both branches, sorted, each record once
    assert answer.supporting_record_ids == \
        ("A13F-MGR0001:0", "A13F-MGR0001:1", "A13F-MGR0001:2")


def test_division_by_zero_fails(view):
    with pytest.raises(ExecutionError, match="division by zero"):
        run(view,
            retrieve_13f("opt", filters=[Filter("cusip", "eq", "NOPE")]),
            Aggregate(step_id="num", input_step="opt", function="count"),
            retrieve_13f("all", filters=[Filter("cusip", "eq", "NOPE2")]),
            Aggregate(step_id="den", input_step="all", function="sum",
                      value_field="value_usd"),
            Arithmetic(step_id="q", left_step="num", right_step="den", op="div"),
            Return(step_id="ret", input_step="q"))


def test_join_left_wins_and_appends_extra_columns(view):
    answer = run(view,
                 Retrieve(step_id="funds", agent=FilingType.NCEN,
                          table="ncen_fund_registry",
                          filters=(Filter("advisor_id", "eq", "ADV0001"),),
                          columns=("fund_id", "fund_name")),
                 Retrieve(step_id="info", agent=FilingType.NMFP,
                          table="nmfp_fund_info",
                          columns=("fund_id", "fund_name", "net_assets")),
                 Join(step_id="j", left_step="funds", right_step="info",
                      on_fields=("fund_id",)),
                 Return(step_id="ret", input_step="j"))
    # FND0002 has no fund info row; the join is inner
    assert answer.columns == ("fund_id", "fund_name", "net_assets")
    assert answer.rows == (("FND0001", "Growth Fund", 5000.0),)


def test_join_drops_null_keys(view):
    answer = run(view,
                 Retrieve(step_id="funds", agent=FilingType.NCEN,
                          table="ncen_fund_registry",
                          columns=("advisor_id", "fund_id")),
                 Retrieve(step_id="funds2", agent=FilingType.NCEN,
                          table="ncen_fund_registry",
                          columns=("advisor_id", "fund_type")),
                 Join(step_id="j", left_step="funds", right_step="funds2",
                      on_fields=("advisor_id",)),
                 Return(step_id="ret", input_step="j"))
    # the advisor-less money market fund joins with nothing
    assert all(row[0] == "ADV0001" for row in answer.rows)
    assert len(answer.rows) == 4  # 2 left rows x 2 right rows


def test_single_column_return_coerces_to_list(view):
    answer = run(view,
                 Retrieve(step_id="r1", agent=FilingType.NCEN,
                          table="ncen_fund_registry", columns=("fund_name",)),
                 Return(step_id="ret", input_step="r1"))
    assert isinstance(answer, ListValue)
    assert answer.values == ("Growth Fund", "Income Fund", "Cash Fund")


def test_execution_is_deterministic(view):
    plan = Plan((retrieve_13f(filters=[MGR1]),
                 Aggregate(step_id="a", input_step="r1", function="groupby-sum",
                           group_fields=("issuer_name",), value_field="value_usd"),
                 Return(step_id="ret", input_step="a")))
    a = execute_plan(plan, view, REGISTRY)
    b = execute_plan(plan, view, REGISTRY)
    assert a == b


# Sums over MGR0001's holdings: options 500.00, all 1000.50 + 2000.25 + 500.00.
_ARITHMETIC = {
    "add": 4000.75,
    "sub": -3000.75,
    "mul": 1750375.0,
}


@pytest.mark.parametrize("op", list(_ARITHMETIC))  # div: test_arithmetic_wallet_share
def test_arithmetic_ops(view, op):
    answer = run(view,
                 retrieve_13f("opt", filters=[MGR1, Filter("security_class", "contains", "OPT")]),
                 Aggregate(step_id="num", input_step="opt", function="sum",
                           value_field="value_usd"),
                 retrieve_13f("all", filters=[MGR1]),
                 Aggregate(step_id="den", input_step="all", function="sum",
                           value_field="value_usd"),
                 Arithmetic(step_id="x", left_step="num", right_step="den", op=op),
                 Return(step_id="ret", input_step="x"))
    assert answer.value == _ARITHMETIC[op]


# The right operand is a groupby-sum table, so the join indexes its columns
# itself rather than a retrieve's selection. Sums by put_call over all four
# holdings: null 1000.50 + 2000.25 + 99.00, CALL 500.00; by manager:
# MGR0001 3500.75, MGR0002 99.00.
_DERIVED_JOINS = {
    # the three null-put_call rows on the left never meet the null group
    "null keys": ("put_call", (("CALL", "CUS000003", 500.0),)),
    "manager": ("manager_id", (("MGR0001", "CUS000001", 3500.75),
                               ("MGR0001", "CUS000002", 3500.75),
                               ("MGR0001", "CUS000003", 3500.75),
                               ("MGR0002", "CUS000001", 99.0))),
}


@pytest.mark.parametrize("case", list(_DERIVED_JOINS))
def test_join_with_a_derived_right_operand(view, case):
    key, rows = _DERIVED_JOINS[case]
    answer = run(view,
                 retrieve_13f("left", columns=(key, "cusip")),
                 retrieve_13f("all"),
                 Aggregate(step_id="sums", input_step="all", function="groupby-sum",
                           group_fields=(key,), value_field="value_usd"),
                 Join(step_id="j", left_step="left", right_step="sums", on_fields=(key,)),
                 Return(step_id="ret", input_step="j"))
    assert answer.columns == (key, "cusip", "value_usd")
    assert answer.rows == rows


def _adv_view(*aums):
    """One adv_entity record per ``regulatory_aum`` value, all in one state.
    The schema takes a JSON integer of any size."""
    store = CorpusStore(REGISTRY)
    for i, aum in enumerate(aums):
        store.add(_rec("adv_entity", FilingType.ADV, f"AADV-{i}", 0,
                       {"advisor_id": f"ADV{i:04d}", "advisor_name": "Big Advisors",
                        "state": "NY", "regulatory_aum": aum}))
    return reconcile(store)


_ADV = Retrieve(step_id="r1", agent=FilingType.ADV, table="adv_entity")
_AUM_AGGREGATES = {
    "sum": Aggregate(step_id="a", input_step="r1", function="sum",
                     value_field="regulatory_aum"),
    "mean": Aggregate(step_id="a", input_step="r1", function="mean",
                      value_field="regulatory_aum"),
    "groupby-sum": Aggregate(step_id="a", input_step="r1", function="groupby-sum",
                             group_fields=("state",), value_field="regulatory_aum"),
}


@pytest.mark.parametrize("aums", [(10**400,), (1e308, 1e308), (10**400, -10**400)],
                         ids=["huge-int", "overflowing-sum", "cancelling-huge-ints"])
@pytest.mark.parametrize("function", list(_AUM_AGGREGATES))
def test_an_aggregate_without_a_finite_result_is_an_execution_error(function, aums):
    with pytest.raises(ExecutionError, match=r"^step a: non-finite result$"):
        run(_adv_view(*aums), _ADV, _AUM_AGGREGATES[function], Return("ret", "a"))


def test_every_aggregate_adds_each_value_as_a_float_left_to_right():
    # exact integer addition gives 2**53 + 2; adding one float at a time drops each 1
    view = _adv_view(2**53, 1, 1)
    support = ("AADV-0:0", "AADV-1:0", "AADV-2:0")
    total = 9007199254740992.0
    assert questbench._sum(r.fields["regulatory_aum"]
                           for r in view.table_records("adv_entity")) == total
    assert run(view, _ADV, _AUM_AGGREGATES["sum"], Return("ret", "a")) == Scalar(total, support)
    assert run(view, _ADV, _AUM_AGGREGATES["groupby-sum"], Return("ret", "a")) == \
        TableValue(("state", "regulatory_aum"), (("NY", total),), support)
    assert run(view, _ADV, _AUM_AGGREGATES["mean"], Return("ret", "a")) == \
        Scalar(3002399751580330.5, support)


@pytest.mark.parametrize("function, expected", [
    ("sum", Scalar(1e308, ("AADV-0:0",))),
    ("mean", Scalar(1e308, ("AADV-0:0",))),
    ("groupby-sum", TableValue(("state", "regulatory_aum"), (("NY", 1e308),),
                               ("AADV-0:0",))),
])
def test_an_aggregate_keeps_the_largest_finite_values(function, expected):
    assert run(_adv_view(1e308), _ADV, _AUM_AGGREGATES[function],
               Return("ret", "a")) == expected


@pytest.mark.parametrize("op", ["add", "mul"])
def test_arithmetic_without_a_finite_result_is_an_execution_error(op):
    with pytest.raises(ExecutionError, match=r"^step x: non-finite result$"):
        run(_adv_view(1e308), _ADV, _AUM_AGGREGATES["sum"],
            Aggregate(step_id="b", input_step="r1", function="sum",
                      value_field="regulatory_aum"),
            Arithmetic(step_id="x", left_step="a", right_step="b", op=op),
            Return("ret", "x"))


# --- validation --------------------------------------------------------------

def ret(input_step="r1"):
    return Return(step_id="ret", input_step=input_step)


def test_plan_requires_exactly_one_return():
    with pytest.raises(PlanError, match="exactly one return"):
        validate_plan(Plan((retrieve_13f(),)), REGISTRY)
    with pytest.raises(PlanError, match="exactly one return"):
        validate_plan(Plan((retrieve_13f(), ret(), Return(step_id="ret2", input_step="r1"))), REGISTRY)


def test_unknown_table_and_mismatched_agent():
    bad_table = Retrieve(step_id="r1", agent=FilingType.ADV, table="nope")
    with pytest.raises(PlanError, match="unknown table"):
        validate_plan(Plan((bad_table, ret())), REGISTRY)
    wrong_agent = Retrieve(step_id="r1", agent=FilingType.ADV, table="nport_holdings")
    with pytest.raises(PlanError, match="does not belong"):
        validate_plan(Plan((wrong_agent, ret())), REGISTRY)


def test_unknown_filter_field_and_column():
    with pytest.raises(PlanError, match="unknown filter field"):
        validate_plan(Plan((retrieve_13f(filters=[Filter("bogus", "eq", 1)]), ret())), REGISTRY)
    with pytest.raises(PlanError, match="unknown column"):
        validate_plan(Plan((retrieve_13f(columns=("bogus",)), ret())), REGISTRY)
    with pytest.raises(PlanError, match="empty column"):
        validate_plan(Plan((retrieve_13f(columns=()), ret())), REGISTRY)


def _reply_plan(*steps):
    """The plan that a planner reply decodes to: each step as sent (a dict)
    or in its wire form, then a return of the last one."""
    docs = [s if isinstance(s, dict) else plans.plan_to_dict(Plan((s,)))["steps"][0]
            for s in steps]
    docs.append({"id": "ret", "kind": "return", "input": docs[-1]["id"]})
    return plan_from_json(json.dumps({"steps": docs}))


def test_aggregate_validation():
    base = retrieve_13f()
    with pytest.raises(PlanError, match="value_field"):
        validate_plan(Plan((base, Aggregate(step_id="a", input_step="r1",
                                            function="sum"), ret("a"))), REGISTRY)
    with pytest.raises(PlanError, match="takes no fields"):
        validate_plan(Plan((base, Aggregate(step_id="a", input_step="r1",
                                            function="count", value_field="value_usd"),
                            ret("a"))), REGISTRY)
    with pytest.raises(PlanError, match="requires group fields"):
        validate_plan(Plan((base, Aggregate(step_id="a", input_step="r1",
                                            function="groupby-sum",
                                            value_field="value_usd"), ret("a"))), REGISTRY)
    with pytest.raises(PlanError, match="cannot be grouped"):
        validate_plan(Plan((base, Aggregate(step_id="a", input_step="r1",
                                            function="groupby-sum",
                                            group_fields=("value_usd",),
                                            value_field="value_usd"), ret("a"))), REGISTRY)
    with pytest.raises(PlanError, match="must be a table"):
        validate_plan(Plan((base,
                            Aggregate(step_id="a", input_step="r1", function="count"),
                            Aggregate(step_id="b", input_step="a", function="count"),
                            ret("b"))), REGISTRY)
    for function in ("sum", "mean"):
        with pytest.raises(PlanError, match=f"^step a: {function} takes no group fields$"):
            validate_plan(Plan((base, Aggregate(step_id="a", input_step="r1",
                                                function=function, group_fields=("cusip",),
                                                value_field="value_usd"),
                                ret("a"))), REGISTRY)
        with pytest.raises(PlanError, match=f"{function} needs a number column, "
                                            "'issuer_name' is text"):
            validate_plan(Plan((base, Aggregate(step_id="a", input_step="r1",
                                                function=function,
                                                value_field="issuer_name"),
                                ret("a"))), REGISTRY)
    with pytest.raises(PlanError, match="groupby-sum needs a number column"):
        validate_plan(Plan((base, Aggregate(step_id="a", input_step="r1",
                                            function="groupby-sum",
                                            group_fields=("cusip",),
                                            value_field="issuer_name"), ret("a"))), REGISTRY)
    trusts = Retrieve("r1", FilingType.NCEN, "ncen_trust_registry")
    with pytest.raises(PlanError, match="cannot group by list column 'fund_ids'"):
        validate_plan(Plan((trusts, Aggregate(step_id="a", input_step="r1",
                                              function="groupby-sum",
                                              group_fields=("fund_ids",),
                                              value_field="fund_count"), ret("a"))), REGISTRY)
    # a name that is not a string in the reply names no column
    for unhashable in (["value_usd"], {"value_usd": 1}):
        step = {"id": "a", "kind": "aggregate", "input": "r1", "function": "sum",
                "value_field": unhashable}
        with pytest.raises(PlanError, match="value_field must name an input column"):
            validate_plan(_reply_plan(base, step), REGISTRY)
        step = dict(step, function="groupby-sum", group_fields=[unhashable],
                    value_field="value_usd")
        with pytest.raises(PlanError, match="unknown group field"):
            validate_plan(_reply_plan(base, step), REGISTRY)
    # a groupby-sum's value column is a number column downstream
    validate_plan(Plan((base, Aggregate(step_id="g", input_step="r1", function="groupby-sum",
                                        group_fields=("cusip",), value_field="value_usd"),
                        Aggregate(step_id="a", input_step="g", function="sum",
                                  value_field="value_usd"), ret("a"))), REGISTRY)


def test_arithmetic_needs_scalars():
    with pytest.raises(PlanError, match="is not scalar"):
        validate_plan(Plan((retrieve_13f("x"), retrieve_13f("y"),
                            Arithmetic(step_id="a", left_step="x", right_step="y", op="add"),
                            ret("a"))), REGISTRY)


def test_join_needs_tables_and_shared_keys():
    with pytest.raises(PlanError, match="is not a table"):
        validate_plan(Plan((retrieve_13f("x"),
                            Aggregate(step_id="c", input_step="x", function="count"),
                            retrieve_13f("y"),
                            Join(step_id="j", left_step="c", right_step="y",
                                 on_fields=("cusip",)),
                            ret("j"))), REGISTRY)
    with pytest.raises(PlanError, match="join key"):
        validate_plan(Plan((retrieve_13f("x", columns=("cusip",)),
                            retrieve_13f("y", columns=("value_usd",)),
                            Join(step_id="j", left_step="x", right_step="y",
                                 on_fields=("cusip",)),
                            ret("j"))), REGISTRY)
    join = {"id": "j", "kind": "join", "left": "x", "right": "y", "on": [["cusip"]]}
    with pytest.raises(PlanError, match="join key"):
        validate_plan(_reply_plan(retrieve_13f("x"), retrieve_13f("y"), join), REGISTRY)
    trusts = [Retrieve(sid, FilingType.NCEN, "ncen_trust_registry") for sid in "xy"]
    with pytest.raises(PlanError, match="cannot join on list column 'fund_ids'"):
        validate_plan(Plan((*trusts, Join(step_id="j", left_step="x", right_step="y",
                                          on_fields=("fund_ids",)),
                            ret("j"))), REGISTRY)
    # the joined table keeps each column's kind: a text column cannot be summed
    with pytest.raises(PlanError, match="sum needs a number column, 'trust_name' is text"):
        validate_plan(Plan((*trusts, Join(step_id="j", left_step="x", right_step="y",
                                          on_fields=("trust_id",)),
                            Aggregate(step_id="a", input_step="j", function="sum",
                                      value_field="trust_name"),
                            ret("a"))), REGISTRY)


def test_dangling_and_cyclic_references():
    with pytest.raises(PlanError, match="unknown step"):
        validate_plan(Plan((retrieve_13f(), ret("ghost"))), REGISTRY)
    with pytest.raises(PlanError, match="cycle"):
        validate_plan(Plan((
            Aggregate(step_id="a", input_step="b", function="count"),
            Aggregate(step_id="b", input_step="a", function="count"),
            ret("a"))), REGISTRY)
    with pytest.raises(PlanError, match="duplicate step ids"):
        validate_plan(Plan((retrieve_13f(), retrieve_13f(), ret())), REGISTRY)


def test_unconsumed_steps_rejected():
    with pytest.raises(PlanError, match="unconsumed"):
        validate_plan(Plan((retrieve_13f("r1"), retrieve_13f("orphan"), ret())), REGISTRY)


def test_return_feeding_another_step_rejected():
    # any arrangement where the return is consumed trips one of the guards
    with pytest.raises(PlanError):
        validate_plan(Plan((retrieve_13f(),
                            Return(step_id="ret", input_step="r1"),
                            Aggregate(step_id="after", input_step="ret", function="count"),
                            Return(step_id="ret2", input_step="after"))), REGISTRY)


# A step that reads the Return step: the typing pass gives the return step a
# type but no columns, so these must be refused before it runs.
_READS_THE_RETURN = {
    "aggregate": (Aggregate(step_id="a1", input_step="ret", function="sum",
                            value_field="value_usd"),),
    "join": (retrieve_13f("r2"),
             Join(step_id="j", left_step="ret", right_step="r2", on_fields=("cusip",))),
}


@pytest.mark.parametrize("shape", sorted(_READS_THE_RETURN))
def test_a_step_that_reads_the_return_step_is_a_plan_error(shape):
    plan = Plan((retrieve_13f(), ret(), *_READS_THE_RETURN[shape]))
    with pytest.raises(PlanError, match="return step cannot feed another step"):
        validate_plan(plan, REGISTRY)


def test_step_constructor_guards():
    with pytest.raises(PlanError):
        Filter("f", "startswith", "x")
    with pytest.raises(PlanError):
        Filter("f", "range", [1])
    with pytest.raises(PlanError):
        Aggregate(step_id="a", input_step="r", function="median")
    with pytest.raises(PlanError):
        Arithmetic(step_id="a", left_step="l", right_step="r", op="pow")
    with pytest.raises(PlanError):
        Join(step_id="j", left_step="l", right_step="r", on_fields=())


# --- serialization -----------------------------------------------------------

def full_plan():
    return Plan((
        retrieve_13f("opt", filters=[MGR1, Filter("security_class", "contains", "OPT")],
                     columns=("cusip", "value_usd")),
        Aggregate(step_id="num", input_step="opt", function="sum",
                  value_field="value_usd"),
        retrieve_13f("all", filters=[Filter("value_usd", "range", [0.0, None])]),
        Aggregate(step_id="den", input_step="all", function="sum",
                  value_field="value_usd"),
        Arithmetic(step_id="share", left_step="num", right_step="den", op="div"),
        Return(step_id="ret", input_step="share"),
    ))


def test_plan_json_round_trip():
    plan = full_plan()
    assert plan_from_json(plan_to_json(plan)) == plan


def test_plan_json_round_trip_groupby_and_join():
    plan = Plan((
        Retrieve(step_id="a", agent=FilingType.NCEN, table="ncen_fund_registry",
                 columns=("fund_id", "fund_name")),
        Retrieve(step_id="b", agent=FilingType.NMFP, table="nmfp_fund_info",
                 columns=("fund_id", "net_assets")),
        Join(step_id="j", left_step="a", right_step="b", on_fields=("fund_id",)),
        Aggregate(step_id="g", input_step="j", function="groupby-sum",
                  group_fields=("fund_name",), value_field="net_assets"),
        Return(step_id="ret", input_step="g")))
    assert plan_from_json(plan_to_json(plan)) == plan


def test_plan_from_json_rejects_garbage():
    with pytest.raises(PlanError):
        plan_from_json("not json at all")
    with pytest.raises(PlanError):
        plan_from_json('{"kind": "mystery"}')


@pytest.mark.parametrize("step", [
    {"id": "r1", "kind": "retrieve", "agent": "ADV", "filters": [["period", "eq"]]},
    {"id": "r1", "kind": "retrieve", "agent": "ADV", "filters": [5]},
    {"id": "r1", "kind": "retrieve", "agent": 7},
    {"id": "r1", "kind": "retrieve", "agent": "ADV", "columns": 3},
    {"id": "a1", "kind": "aggregate", "group_fields": 4},
    {"id": "j1", "kind": "join", "on": 1},
])
def test_plan_from_json_names_a_malformed_step(step):
    with pytest.raises(PlanError, match=f"^step {step['id']}: malformed"):
        plan_from_json(json.dumps({"steps": [step]}))


@pytest.mark.parametrize("step, error", [
    (5, "each step must be an object"),
    (["r1", "retrieve"], "each step must be an object"),
    ({"kind": "retrieve", "agent": "ADV", "table": "adv_entity"}, "step missing 'id'"),
    ({"id": "r1", "agent": "ADV", "table": "adv_entity"}, "step missing 'kind'"),
])
def test_plan_from_json_refuses_a_step_it_cannot_read(step, error):
    with pytest.raises(PlanError, match=f"^{re.escape(error)}$"):
        plan_from_json(json.dumps({"steps": [step]}))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
_KINDS = ("retrieve", "aggregate", "arithmetic", "join", "return")
_OWNED_TABLES = [(schema.filing_type.value, schema.table_id)
                 for schema in REGISTRY.all_tables()]


@st.composite
def _raw_step(draw):
    step = draw(st.fixed_dictionaries(
        {"id": st.sampled_from(["r1", "r2", "ret"]) | _JSON,
         "kind": st.sampled_from(_KINDS) | _JSON},
        optional={
            "agent": _JSON, "table": _JSON,
            "filters": st.lists(st.lists(_JSON, max_size=4), max_size=3) | _JSON,
            "columns": st.lists(_JSON, max_size=3) | _JSON,
            "input": st.sampled_from(["r1", "r2"]) | _JSON,
            "left": _JSON, "right": _JSON,
            "function": st.sampled_from(("sum", "mean", "count", "groupby-sum")) | _JSON,
            "op": _JSON, "group_fields": _JSON, "value_field": _JSON, "on": _JSON,
        }))
    if draw(st.booleans()):  # an agent and a table it owns, so validation goes deeper
        step["agent"], step["table"] = draw(st.sampled_from(_OWNED_TABLES))
    return step


_RETURN_R1 = {"id": "ret", "kind": "return", "input": "r1"}
_ENTITY = {"id": "r1", "kind": "retrieve", "agent": "ADV", "table": "adv_entity"}
_TRUSTS = {"kind": "retrieve", "agent": "NCEN", "table": "ncen_trust_registry"}


def _aggregate(function, value_field, *group_fields):
    step = {"id": "a1", "kind": "aggregate", "input": "r1", "function": function,
            "value_field": value_field}
    if group_fields:
        step["group_fields"] = list(group_fields)
    return [step, {"id": "ret", "kind": "return", "input": "a1"}]


@settings(max_examples=400, deadline=None)
@given(steps=st.lists(_raw_step(), min_size=1, max_size=3),
       returns=st.booleans())
# too deep for random search: validation looks an unhashable column name up
@example(steps=[{"id": "r1", "kind": "retrieve", "agent": "ADV", "table": "adv_entity",
                 "columns": [[1]]}], returns=True)
# plans whose column kinds the executor cannot run
@example(steps=[_ENTITY, *_aggregate("sum", "advisor_name")], returns=False)
@example(steps=[_ENTITY, *_aggregate("mean", "period")], returns=False)
@example(steps=[_ENTITY, *_aggregate("groupby-sum", "advisor_name", "advisor_id")],
         returns=False)
@example(steps=[dict(_TRUSTS, id="r1"), *_aggregate("groupby-sum", "fund_count", "fund_ids")],
         returns=False)
@example(steps=[dict(_TRUSTS, id="x"), dict(_TRUSTS, id="y"),
                {"id": "r1", "kind": "join", "left": "x", "right": "y", "on": ["fund_ids"]}],
         returns=True)
def test_a_planner_reply_parses_and_validates_or_raises_plan_error(small_view, steps,
                                                                   returns):
    """Steps with the real keys and arbitrary JSON values either give a valid
    plan or raise PlanError, and a valid plan runs on a schema-valid view or
    raises ExecutionError: no other exception escapes to the pipeline."""
    try:
        reply = json.dumps({"steps": steps + [_RETURN_R1] * returns})
        plan = plan_from_json(reply)
        validate_plan(plan, REGISTRY)
    except PlanError:
        return
    try:
        execute_plan(plan, small_view, REGISTRY)
    except ExecutionError:
        pass


# --- property: plan intake raises only its own errors --------------------------
# Plan documents over a small alphabet: step ids r1, r2, a and ret, every kind
# and a bogus one, inputs among those ids, two real tables and a bogus one,
# real and bogus field names. Repeats in a list weight a draw toward what a
# plan that passes would hold, so that some documents validate and run.

_DOC_IDS = ("r1", "r2", "a", "ret")
_DOC_KINDS = ("retrieve", "aggregate", "arithmetic", "join", "return", "bogus")
_DOC_MIDDLE_KINDS = _DOC_KINDS + ("retrieve", "aggregate", "aggregate", "join")
# each table with the fields a retrieve of it draws from
_DOC_TABLES = (
    ("13F", "thirteenf_holdings", ("period", "manager_id", "value_usd", "shares")),
    ("13F", "thirteenf_holdings", ("period", "manager_id", "value_usd", "shares")),
    ("NCEN", "ncen_fund_registry", ("period", "fund_id", "fund_name", "advisor_name")),
    ("ADV", "no_such_table", ("period",)))
_DOC_FIELDS = ("period", "manager_id", "value_usd", "shares", "fund_id", "fund_name",
               "advisor_name", "bogus")
_doc_fields = st.lists(st.sampled_from(_DOC_FIELDS), max_size=2)
_doc_values = st.sampled_from(("value_usd", "value_usd", "shares") + _DOC_FIELDS)
_doc_scalars = st.sampled_from([None, 0, 1.5, "MGR0001", "Growth Fund", "2023-03-31"])


def _doc_filter(fields):
    names = st.sampled_from(fields + ("bogus",))
    scalar_filter = st.tuples(names, st.sampled_from(["eq", "eq", "contains"]), _doc_scalars)
    return st.one_of(
        scalar_filter, scalar_filter,
        st.tuples(names, st.just("range"),
                  st.lists(st.sampled_from([None, 0, 1000.0, "A"]), min_size=2,
                           max_size=2)),
        st.tuples(names, st.sampled_from(["range", "bogus"]), _doc_scalars),
    ).map(list)


def _mostly(draw, likely: bool) -> bool:
    """``likely`` three times in four, a coin flip otherwise."""
    return likely if draw(st.integers(0, 3)) else draw(st.booleans())


def _doc_step(draw, step_id, kind, earlier):
    doc = {"id": step_id, "kind": kind}
    inputs = st.sampled_from(earlier if earlier and _mostly(draw, True) else _DOC_IDS)
    if kind == "retrieve":
        doc["agent"], doc["table"], fields = draw(st.sampled_from(_DOC_TABLES))
        doc["filters"] = draw(st.lists(_doc_filter(fields), max_size=2))
        if not _mostly(draw, False):
            doc["columns"] = draw(st.lists(st.sampled_from(fields + ("bogus",)),
                                           min_size=_mostly(draw, True), max_size=3))
    elif kind == "aggregate":
        function = draw(st.sampled_from(["sum", "mean", "count", "groupby-sum", "bogus"]))
        doc.update(input=draw(inputs), function=function)
        if _mostly(draw, function == "groupby-sum"):
            doc["group_fields"] = draw(_doc_fields)
        if _mostly(draw, function != "count"):
            doc["value_field"] = draw(_doc_values)
    elif kind == "arithmetic":
        doc.update(left=draw(inputs), right=draw(inputs),
                   op=draw(st.sampled_from(["add", "div", "bogus"])))
    elif kind == "join":
        doc.update(left=draw(inputs), right=draw(inputs), on=draw(st.lists(
            st.sampled_from(_DOC_FIELDS), min_size=_mostly(draw, True), max_size=2)))
    elif kind == "return":
        doc["input"] = earlier[-1] if earlier and _mostly(draw, True) else draw(inputs)
    return doc


@st.composite
def _plan_docs(draw):
    """Half the time any steps; otherwise distinct ids, a retrieve first and
    a return last."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        ids = [draw(st.sampled_from(_DOC_IDS)) for _ in range(n)]
        kinds = [draw(st.sampled_from(_DOC_KINDS)) for _ in range(n)]
    else:
        ids = list(draw(st.permutations(_DOC_IDS)))[:draw(st.integers(2, 4))]
        kinds = (["retrieve"] + [draw(st.sampled_from(_DOC_MIDDLE_KINDS)) for _ in ids[2:]]
                 + ["return"])
    return {"steps": [_doc_step(draw, step_id, kind, ids[:i])
                      for i, (step_id, kind) in enumerate(zip(ids, kinds))]}


_RETURN_FEEDS_A_SUM = {"steps": [
    {"id": "r1", "kind": "retrieve", "agent": "13F", "table": "thirteenf_holdings"},
    {"id": "ret", "kind": "return", "input": "r1"},
    {"id": "a", "kind": "aggregate", "input": "ret", "function": "sum",
     "value_field": "value_usd"}]}


@settings(max_examples=500, deadline=None)
@given(doc=_plan_docs())
@example(doc=_RETURN_FEEDS_A_SUM)
def test_plan_intake_raises_only_its_own_errors(view, doc):
    try:
        plan = plans.plan_from_dict(doc)
        validate_plan(plan, REGISTRY)
    except PlanError:
        return
    try:
        execute_plan(plan, view, REGISTRY)
    except ExecutionError:
        pass


def test_answer_round_trips(view):
    joined = run(view,
                 Retrieve(step_id="r1", agent=FilingType.NMFP, table="nmfp_fund_info",
                          columns=("fund_id", "net_assets")),
                 Retrieve(step_id="r2", agent=FilingType.NCEN, table="ncen_fund_registry",
                          columns=("fund_id", "fund_name")),
                 Join(step_id="j", left_step="r1", right_step="r2", on_fields=("fund_id",)),
                 Return(step_id="ret", input_step="j"))
    # the ids of r2, which runs second, sort first
    assert joined.supporting_record_ids == \
        ("ANCEN-1:0", "ANCEN-1:1", "ANCEN-1:2", "ANMFP-1:0", "ANMFP-1:1")
    answers = [
        Scalar(3.5, ("R1",)),
        ListValue(("a", "b"), ()),
        TableValue(("c1", "c2"), (("x", 1.0), ("y", None)), ("R1", "R2")),
        joined,
    ]
    for answer in answers:
        doc = answer_to_dict(answer)
        assert answer_from_dict(doc) == answer
        # outside input loads sorted, each id once
        ids = list(answer.supporting_record_ids)
        assert answer_from_dict(dict(doc, supporting_record_ids=ids[::-1] + ids)) == answer


@pytest.mark.parametrize("kind", [None, "matrix", "Scalar"])
def test_an_answer_of_an_unknown_kind_is_refused(kind):
    with pytest.raises(ValueError, match=f"^unknown answer kind {re.escape(repr(kind))}$"):
        answer_from_dict({"kind": kind, "value": 1.0, "supporting_record_ids": []})


# --- property: serialization stability ---------------------------------------

ids = st.sampled_from(["s1", "s2", "s3", "s4"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["sum", "mean", "count"]), min_size=1, max_size=3),
       st.sampled_from(["add", "sub", "mul"]))
def test_random_linear_plans_round_trip(functions, op):
    steps = [retrieve_13f("r1", filters=[MGR1])]
    prev_scalar = None
    for i, fn in enumerate(functions):
        agg = Aggregate(step_id=f"a{i}", input_step="r1", function=fn,
                        value_field=None if fn == "count" else "value_usd")
        steps.append(agg)
        if prev_scalar is not None:
            steps.append(Arithmetic(step_id=f"x{i}", left_step=prev_scalar,
                                    right_step=f"a{i}", op=op))
            prev_scalar = f"x{i}"
        else:
            prev_scalar = f"a{i}"
    steps.append(Return(step_id="ret", input_step=prev_scalar))
    plan = Plan(tuple(steps))
    assert plan_from_json(plan_to_json(plan)) == plan


# --- retrieve pushdown -------------------------------------------------------

def _scan(view, step):
    """Reference: the plain table scan every retrieve used to run."""
    return [r for r in view.table_records(step.table)
            if all(_matches(r.fields.get(f.field), f) for f in step.filters)]


class _RecordingView(ReconciledView):
    """Notes every (table, field) whose equality index is consulted."""

    def __init__(self, *args):
        super().__init__(*args)
        self.looked_up = []

    def eq_index(self, table_id, field):
        self.looked_up.append((table_id, field))
        return super().eq_index(table_id, field)


_MISSING = object()
_NAN = float("nan")
_FIELDS = ("a", "b", "c")
# JSON values whose equality is easy to get wrong through a dict: 1, 1.0 and
# True are equal and hash alike, NaN equals nothing (a shared NaN object is
# still found by identity), lists are unhashable.
_VALUES = st.one_of(
    st.sampled_from([None, 0, 1, 1.0, True, False, 0.0, -1, 2.5, "x", "X", "xy", "",
                     _NAN, [1], [1, 2], [], ["x"]]),
    st.floats(allow_nan=True, allow_infinity=False, width=16),
    st.integers(-2, 2),
    st.text(alphabet="xyX", max_size=2))


def _free_view(rows, cls=ReconciledView):
    """A view over records that skip schema validation: the rows in table
    "t", a field left out where the row holds _MISSING, and one record of
    another table that no step on "t" may return."""
    records = [
        FilingRecord(record_id=f"R{i}", accession_id="ACC", filing_type=FilingType.NCEN,
                     table_id="t", filer_id="F", period=P1, is_amendment=False,
                     amends=None,
                     fields={k: v for k, v in row.items() if v is not _MISSING})
        for i, row in enumerate(rows)]
    records.append(FilingRecord(record_id="OTHER", accession_id="ACC",
                                filing_type=FilingType.NCEN, table_id="u", filer_id="F",
                                period=P1, is_amendment=False, amends=None,
                                fields={"a": 1}))
    return cls(REGISTRY, records)


_filters = st.one_of(  # eq listed twice, so most steps use the index
    st.builds(Filter, st.sampled_from(_FIELDS), st.just("eq"), _VALUES),
    st.builds(Filter, st.sampled_from(_FIELDS), st.just("eq"), _VALUES),
    st.builds(Filter, st.sampled_from(_FIELDS), st.just("contains"),
              st.sampled_from(["x", "X", "1", "", "tru", "nan", 1, 1.0, True, 0.0, -0.0])),
    st.builds(Filter, st.sampled_from(_FIELDS), st.just("range"),
              st.tuples(st.sampled_from([None, 0, 1, "x", -0.5]),
                        st.sampled_from([None, 1, 2.5, "xy", True]))))


# 1, 1.0 and True are equal, as are 0, 0.0, -0.0 and False, yet contains
# reads them as "1", "1.0", "true", "-0.0" and so on.
_EQUAL_TWINS = ((1, 1.0, True), (0, 0.0, -0.0, False))


def _twin(value):
    """A value equal to ``value`` that may match differently."""
    for group in _EQUAL_TWINS:
        for i, member in enumerate(group):
            if type(member) is type(value) and repr(member) == repr(value):
                return group[(i + 1) % len(group)]
    return value


def _twin_filter(f):
    value = tuple(map(_twin, f.value)) if f.op == "range" else _twin(f.value)
    return Filter(f.field, f.op, value)


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries(
           {f: st.one_of(st.just(_MISSING), _VALUES) for f in _FIELDS}), max_size=12),
       steps=st.lists(st.lists(_filters, max_size=4), min_size=1, max_size=4))
def test_matching_records_equals_plain_scan(rows, steps):
    view = _free_view(rows, _RecordingView)
    for filters in steps:
        step = Retrieve("r1", FilingType.NCEN, "t", tuple(filters))
        twin = Retrieve("r1", FilingType.NCEN, "t", tuple(_twin_filter(f) for f in filters))
        assert twin == step  # equal keys, so only the memo key tells them apart
        # Each step is asked twice on one view, the second time from the
        # memo, with its equal twin in between.
        for asked in (step, twin, step, twin):
            got = select_records(view, asked).records
            assert [r.record_id for r in got] == [r.record_id for r in _scan(view, asked)]
        # Only eq values that a dict lookup finds in full may use the index;
        # a step with none of them scans the table.
        usable = {("t", f.field) for f in filters
                  if f.op == "eq" and not isinstance(f.value, list) and f.value == f.value}
        assert set(view.looked_up) <= usable
        view.looked_up.clear()


def test_concurrent_first_lookups_match_the_scan():
    rows = [{"a": i % 7, "b": f"v{i % 5}", "c": None if i % 3 else i} for i in range(3000)]
    step = Retrieve("r1", FilingType.NCEN, "t",
                    (Filter("a", "eq", 3), Filter("b", "eq", "v2"), Filter("c", "eq", None)))
    plan = Plan((step, Retrieve("r2", FilingType.NCEN, "t", (Filter("b", "eq", "v2"),)),
                 Join("j", "r1", "r2", ("a",)), Return("ret", "j")))
    expected = [r.record_id for r in _scan(_free_view(rows), step)]
    assert expected
    reference = _free_view(rows)
    expected_answer = answer_to_dict(_rowwise_execute(plan, reference, _T_REGISTRY))
    expected_findings = gather_swarm_intelligence(plan, reference, _T_REGISTRY)
    n_threads = 8

    def first_calls_on_fresh_view():
        view = _free_view(rows)
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def worker(slot):
            barrier.wait(timeout=10)
            # half the workers investigate before they execute
            if slot % 2:
                findings = gather_swarm_intelligence(plan, view, _T_REGISTRY)
            answer = answer_to_dict(execute_plan(plan, view, _T_REGISTRY))
            if not slot % 2:
                findings = gather_swarm_intelligence(plan, view, _T_REGISTRY)
            results[slot] = ([r.record_id for r in select_records(view, step).records],
                             answer, findings)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert view._memo_used == _memo_slots(view)  # no slot counted twice
        return results

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert first_calls_on_fresh_view() == \
                [(expected, expected_answer, expected_findings)] * n_threads
    finally:
        sys.setswitchinterval(old)


class _CountingView(ReconciledView):
    """Counts table reads: one per match of a step without eq filters."""

    def __init__(self, *args):
        super().__init__(*args)
        self.matched = []

    def table_records(self, table_id):
        self.matched.append(table_id)
        return super().table_records(table_id)


def test_investigate_and_execute_match_each_retrieve_once():
    rows = [{"a": i % 4, "b": "xy"[i % 2], "c": i} for i in range(40)]
    view = _free_view(rows, _CountingView)
    plan = Plan((Retrieve("r1", FilingType.NCEN, "t", (Filter("a", "range", (1, 1)),)),
                 Retrieve("r2", FilingType.NCEN, "t", (Filter("b", "contains", "y"),),
                          ("a", "c")),
                 Join("j", "r1", "r2", ("a",)), Return("ret", "j")))
    findings = gather_swarm_intelligence(plan, view, _T_REGISTRY)
    answer = execute_plan(plan, view, _T_REGISTRY)
    assert view.matched == ["t", "t"]  # two distinct (table, filters) keys
    assert [line.split(": ")[1] for line in findings] == ["10 records match", "20 records match"]
    assert execute_plan(plan, view, _T_REGISTRY) == answer
    assert view.matched == ["t", "t"]
    assert answer_to_dict(answer) == answer_to_dict(_rowwise_execute(plan, view, _T_REGISTRY))


def _memo_slots(view):
    return sum(1 + len(selection) for selection in view._memo.values())


def test_memo_stays_within_its_bound_and_answers_like_the_scan():
    rows = [{"a": i % 5, "b": f"v{i}", "c": i} for i in range(30)]
    view = _free_view(rows)
    bound = len(view)  # 31: the rows and the record of table "u"
    steps = [Retrieve("r1", FilingType.NCEN, "t", (Filter("a", "eq", i % 7),
                                                   Filter("c", "range", (0, i))))
             for i in range(40)]
    for step in steps + steps:  # 40 distinct keys, then each again
        got = select_records(view, step).records
        assert [r.record_id for r in got] == [r.record_id for r in _scan(view, step)]
        assert view._memo_used == _memo_slots(view) <= bound
    assert 0 < len(view._memo) < len(steps)  # it filled, then stopped admitting
    assert bound - view._memo_used < max(1 + len(_scan(view, s)) for s in steps)


# --- column executor against a row-wise reference ----------------------------

_T_REGISTRY = SchemaRegistry("test", tables={
    "t": TableSchema("t", FilingType.NCEN, "free rows",
                     tuple(FieldDef(f, "number") for f in _FIELDS), ())})


def _rowwise_execute(plan, view, registry):
    """Reference: the dict-per-row executor over the plain scan. It runs the
    steps as listed, so a plan must list each step after its inputs."""
    values, support, result = {}, set(), None
    for s in plan.steps:
        if isinstance(s, Retrieve):
            cols = s.columns if s.columns is not None else registry.table(s.table).field_names
            rows = []
            for record in _scan(view, s):
                support.add(record.record_id)
                rows.append({c: record.fields.get(c) for c in cols})
            values[s.step_id] = (tuple(cols), rows)
        elif isinstance(s, Aggregate):
            _, rows = values[s.input_step]
            present = [row[s.value_field] for row in rows
                       if s.value_field is not None and row[s.value_field] is not None]
            if s.function == "count":
                values[s.step_id] = float(len(rows))
            elif s.function == "sum":
                values[s.step_id] = reduce(add, map(float, present), 0.0)
            elif s.function == "mean":
                if not present:
                    raise ExecutionError(f"step {s.step_id}: mean of empty input")
                values[s.step_id] = reduce(add, map(float, present), 0.0) / len(present)
            else:
                groups, originals = {}, {}
                for row in rows:
                    key = tuple((row[g] is not None, row[g]) for g in s.group_fields)
                    if key not in groups:
                        groups[key] = 0.0
                        originals[key] = {g: row[g] for g in s.group_fields}
                    if row[s.value_field] is not None:
                        groups[key] += float(row[s.value_field])
                out = [dict(originals[key], **{s.value_field: groups[key]})
                       for key in sorted(groups)]
                values[s.step_id] = (tuple(s.group_fields) + (s.value_field,), out)
        elif isinstance(s, Join):
            (lcols, lrows), (rcols, rrows) = values[s.left_step], values[s.right_step]
            extra = [c for c in rcols if c not in lcols]
            by_key = {}
            for row in rrows:
                key = tuple(row[k] for k in s.on_fields)
                if not any(v is None for v in key):
                    by_key.setdefault(key, []).append(row)
            out = []
            for lrow in lrows:
                key = tuple(lrow[k] for k in s.on_fields)
                if any(v is None for v in key):
                    continue
                for rrow in by_key.get(key, ()):
                    out.append(dict(lrow, **{c: rrow[c] for c in extra}))
            values[s.step_id] = (tuple(lcols) + tuple(extra), out)
        elif isinstance(s, Return):
            result = values[s.input_step]
    support = tuple(sorted(support))
    if isinstance(result, tuple):
        cols, rows = result
        if len(cols) == 1:
            return ListValue(tuple(str(r[cols[0]]) for r in rows if r[cols[0]] is not None),
                             support)
        return TableValue(cols, tuple(tuple(r[c] for c in cols) for r in rows), support)
    return Scalar(float(result), support)


_KEY_SETS = (("a",), ("b",), ("a", "b"))


@st.composite
def _executor_cases(draw):
    """Rows of table "t" (a: small numbers, some equal but of other types,
    b: short text, c: numbers; any may be null or missing) and a valid plan
    over them. Past ten rows, sorted record ids ("R10" before "R2") differ
    from table order."""
    rows = draw(st.lists(st.fixed_dictionaries({
        "a": st.sampled_from([_MISSING, None, 0, 1, 2, 1.0, True]),
        "b": st.sampled_from([_MISSING, None, "x", "y"]),
        "c": st.one_of(st.just(None), st.integers(-3, 3),
                       st.floats(-8, 8, allow_nan=False, width=16))}), max_size=12))
    shape = draw(st.sampled_from(["return", "sum", "mean", "count", "groupby-sum"]))
    join_on = draw(st.one_of(st.none(), st.sampled_from(_KEY_SETS)))
    group = draw(st.sampled_from(_KEY_SETS)) if shape == "groupby-sum" else ()
    needed = (("c",) if shape in ("sum", "mean", "groupby-sum") else ()) + group

    def retrieve(step_id, needs):
        filters = draw(st.lists(st.one_of(
            st.builds(Filter, st.sampled_from(_FIELDS), st.just("eq"),
                      st.sampled_from([None, 0, 1, "x"])),
            st.builds(Filter, st.just("c"), st.just("range"),
                      st.tuples(st.sampled_from([None, -1]), st.sampled_from([None, 2])))),
            max_size=2))
        cols = draw(st.one_of(st.none(), st.permutations(_FIELDS).flatmap(
            lambda p: st.integers(1, 3).map(lambda n: tuple(p[:n])))))
        if cols is not None:
            cols += tuple(f for f in needs if f not in cols)
        return Retrieve(step_id, FilingType.NCEN, "t", tuple(filters), cols)

    steps = [retrieve("r1", needed + (join_on or ()))]
    source = "r1"
    if join_on is not None:
        steps += [retrieve("r2", join_on), Join("j", "r1", "r2", join_on)]
        source = "j"
    if shape != "return":
        steps.append(Aggregate("agg", source, shape, group,
                               None if shape == "count" else "c"))
        source = "agg"
    steps.append(Return("ret", source))
    return rows, Plan(tuple(steps))


def _outcome(run):
    """The answer or the execution error, as text: ``repr`` keeps apart
    equal values of other types, such as 1, 1.0 and True."""
    try:
        return repr(answer_to_dict(run()))
    except ExecutionError as exc:
        return f"error: {exc}"


@settings(max_examples=300, deadline=None)
@given(_executor_cases())
def test_column_executor_equals_the_rowwise_reference(case):
    rows, plan = case
    view = _free_view(rows)
    validate_plan(plan, _T_REGISTRY)
    expected = _outcome(lambda: _rowwise_execute(plan, view, _T_REGISTRY))
    for _ in range(2):  # the second run reads the memoized selections
        assert _outcome(lambda: execute_plan(plan, view, _T_REGISTRY)) == expected


@settings(max_examples=200, deadline=None)
@given(_executor_cases())
def test_a_validated_plan_executes_like_an_equal_plan_nobody_validated(case):
    rows, plan = case
    validate_plan(plan, _T_REGISTRY)
    fresh = Plan(plan.steps)
    assert fresh == plan
    assert (_outcome(lambda: execute_plan(plan, _free_view(rows), _T_REGISTRY))
            == _outcome(lambda: execute_plan(fresh, _free_view(rows), _T_REGISTRY)))


# --- one validation per plan -------------------------------------------------

def _validations(monkeypatch):
    """The plans that ``plans.validate_plan`` is called on from here on."""
    seen = []
    real = plans.validate_plan

    def counted(plan, registry):
        seen.append(plan)
        return real(plan, registry)
    monkeypatch.setattr(plans, "validate_plan", counted)
    return seen


def _sum_plan():
    return Plan((retrieve_13f(filters=[MGR1]),
                 Aggregate(step_id="a", input_step="r1", function="sum",
                           value_field="value_usd"),
                 ret("a")))


def test_the_executor_trusts_a_plan_validated_against_its_registry(view, monkeypatch):
    plan = _sum_plan()
    validate_plan(plan, REGISTRY)
    seen = _validations(monkeypatch)
    answer = execute_plan(plan, view, REGISTRY)
    assert seen == []
    assert execute_plan(_sum_plan(), view, REGISTRY) == answer
    assert len(seen) == 1


def test_the_validation_record_leaves_equality_hash_repr_and_json_alone():
    plan, fresh = _sum_plan(), _sum_plan()
    validate_plan(plan, REGISTRY)
    assert plan == fresh and hash(plan) == hash(fresh)
    assert repr(plan) == repr(fresh)
    assert plan_to_json(plan) == plan_to_json(fresh)


def test_a_plan_validated_against_another_registry_is_validated_again(view, monkeypatch):
    plan = _sum_plan()
    validate_plan(plan, load_default_registry())  # equal tables, another object
    seen = _validations(monkeypatch)
    execute_plan(plan, view, REGISTRY)
    assert len(seen) == 1
    with pytest.raises(PlanError, match="unknown table"):
        execute_plan(plan, view, SchemaRegistry("empty"))
    assert len(seen) == 2


def test_a_copy_with_new_steps_is_validated_again(view, monkeypatch):
    plan = _sum_plan()
    validate_plan(plan, REGISTRY)
    seen = _validations(monkeypatch)
    execute_plan(replace(plan, steps=plan.steps), view, REGISTRY)
    assert len(seen) == 1
    with pytest.raises(PlanError, match="exactly one return"):
        execute_plan(replace(plan, steps=plan.steps[:-1]), view, REGISTRY)
    assert len(seen) == 2


def test_a_plan_that_failed_validation_is_validated_again(view, monkeypatch):
    plan = Plan((retrieve_13f(columns=("bogus",)), ret()))
    with pytest.raises(PlanError, match="unknown column"):
        validate_plan(plan, REGISTRY)
    seen = _validations(monkeypatch)
    with pytest.raises(PlanError, match="unknown column"):
        execute_plan(plan, view, REGISTRY)
    assert seen == [plan]
