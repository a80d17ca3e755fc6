"""Plan DSL: validation, execution semantics, and serialization.

All expected numbers are computed by hand from the micro corpus below.
"""
from __future__ import annotations

import sys
import threading
from datetime import date
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm.corpus.records import CorpusStore, FilingRecord
from filingswarm.corpus.reconcile import ReconciledView, reconcile
from filingswarm.corpus.schema import FilingType, load_default_registry
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
    matching_records,
    plan_from_json,
    plan_to_json,
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
    assert len(matching_records(view, step)) == 3


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
    # support covers both branches
    assert len(answer.supporting_record_ids) == 3


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
    with pytest.raises(PlanError):
        Plan((), provenance="guessed")


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
    ), provenance="optimized", source_subquery="wallet share of options")


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


def test_answer_round_trips(view):
    answers = [
        Scalar(3.5, frozenset({"R1"})),
        ListValue(("a", "b"), frozenset()),
        TableValue(("c1", "c2"), (("x", 1.0), ("y", None)), frozenset({"R1", "R2"})),
    ]
    for answer in answers:
        assert answer_from_dict(answer_to_dict(answer)) == answer


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
    store = SimpleNamespace(registry=REGISTRY, records=records)
    return cls(store, {"ACC"})


_filters = st.one_of(  # eq listed twice, so most steps use the index
    st.builds(Filter, st.sampled_from(_FIELDS), st.just("eq"), _VALUES),
    st.builds(Filter, st.sampled_from(_FIELDS), st.just("eq"), _VALUES),
    st.builds(Filter, st.sampled_from(_FIELDS), st.just("contains"),
              st.sampled_from(["x", "X", "1", "", "tru", "nan"])),
    st.builds(Filter, st.sampled_from(_FIELDS), st.just("range"),
              st.tuples(st.sampled_from([None, 0, 1, "x", -0.5]),
                        st.sampled_from([None, 1, 2.5, "xy", True]))))


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries(
           {f: st.one_of(st.just(_MISSING), _VALUES) for f in _FIELDS}), max_size=12),
       steps=st.lists(st.lists(_filters, max_size=4), min_size=1, max_size=4))
def test_matching_records_equals_plain_scan(rows, steps):
    view = _free_view(rows, _RecordingView)
    for filters in steps:
        step = Retrieve("r1", FilingType.NCEN, "t", tuple(filters))
        got = matching_records(view, step)
        assert [r.record_id for r in got] == [r.record_id for r in _scan(view, step)]
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
    expected = [r.record_id for r in _scan(_free_view(rows), step)]
    assert expected
    n_threads = 8

    def first_calls_on_fresh_view():
        view = _free_view(rows)
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def worker(slot):
            barrier.wait(timeout=10)
            results[slot] = [r.record_id for r in matching_records(view, step)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        return results

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert first_calls_on_fresh_view() == [expected] * n_threads
    finally:
        sys.setswitchinterval(old)
