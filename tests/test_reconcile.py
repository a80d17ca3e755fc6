"""Amendment reconciliation: terminal-of-chain visibility, branch tie-break,
and rejection of malformed chains."""
from __future__ import annotations

import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm.corpus.reconcile import ReconciliationError, reconcile
from filingswarm.corpus.records import CorpusStore
from filingswarm.corpus.records import FilingRecord
from filingswarm.corpus.schema import FilingType, load_default_registry

PERIOD = date(2023, 3, 31)
REGISTRY = load_default_registry()


def adv_record(record_id, accession, amends=None, aum=100.0):
    return FilingRecord(
        record_id=record_id, accession_id=accession, filing_type=FilingType.ADV,
        table_id="adv_entity", filer_id="ADV0001", period=PERIOD,
        is_amendment=amends is not None, amends=amends,
        fields={"advisor_id": "ADV0001", "advisor_name": "Test Advisors LLC",
                "regulatory_aum": aum, "period": PERIOD.isoformat()})


def build(records):
    store = CorpusStore(REGISTRY)
    for r in records:
        store.add(r)
    return store


def test_unamended_records_pass_through():
    view = reconcile(build([adv_record("R1", "ACC1")]))
    assert len(view) == 1
    assert "R1" in view


def test_chain_resolves_to_terminal():
    view = reconcile(build([
        adv_record("R1", "ACC1", aum=100.0),
        adv_record("R2", "ACC2", amends="ACC1", aum=110.0),
        adv_record("R3", "ACC3", amends="ACC2", aum=120.0),
    ]))
    assert [r.record_id for r in view.records] == ["R3"]
    assert "R1" not in view and "R2" not in view
    assert view.table_records("adv_entity")[0].fields["regulatory_aum"] == 120.0


def test_branch_resolves_to_greatest_accession():
    # two amendments of the same filing: the greater accession_id wins
    view = reconcile(build([
        adv_record("R1", "ACC1"),
        adv_record("R2", "ACC2-A", amends="ACC1"),
        adv_record("R3", "ACC2-B", amends="ACC1"),
    ]))
    assert [r.record_id for r in view.records] == ["R3"]


def test_dangling_amendment_rejected():
    store = build([adv_record("R1", "ACC1", amends="MISSING")])
    with pytest.raises(ReconciliationError, match="missing"):
        reconcile(store)


def test_cyclic_chain_rejected():
    store = build([
        adv_record("R1", "ACC1", amends="ACC2"),
        adv_record("R2", "ACC2", amends="ACC1"),
    ])
    with pytest.raises(ReconciliationError, match="cyclic"):
        reconcile(store)


def test_key_uniqueness_reports_duplicates():
    view = reconcile(build([
        adv_record("R1", "ACC1"),
        adv_record("R2", "ACC2"),   # same advisor, period, and table
    ]))
    assert view.check_key_uniqueness()


def test_empty_store_reconciles_empty():
    assert len(reconcile(build([]))) == 0


# --- property: random chain forests with depth <= 4 --------------------------

chain_strategy = st.lists(
    st.tuples(st.integers(0, 4),          # amendments below this root
              st.booleans()),             # add a losing branch sibling?
    min_size=1, max_size=6)


@settings(max_examples=120, deadline=None)
@given(chain_strategy)
def test_superseded_accessions_never_retrievable(spec):
    records = []
    expected_visible = set()
    counter = 0
    for root_no, (depth, branch) in enumerate(spec):
        def acc(i, suffix=""):
            return f"ACC{root_no:02d}-{i}{suffix}"

        records.append(adv_record(f"R{counter}", acc(0)))
        counter += 1
        prev = acc(0)
        for i in range(1, depth + 1):
            records.append(adv_record(f"R{counter}", acc(i), amends=prev))
            counter += 1
            prev = acc(i)
        if branch and depth >= 1:
            # sibling amendment of the root; "-0x" sorts below "-1" so the
            # linear chain keeps winning the max tie-break
            records.append(adv_record(f"R{counter}", acc(0, "x"), amends=acc(0)))
            counter += 1
        expected_visible.add(prev)

    view = reconcile(build(records))
    visible = {r.accession_id for r in view.records}

    assert visible == expected_visible
    amended = {r.amends for r in records if r.amends}
    assert visible.isdisjoint(amended)
    for r in records:
        assert (r.record_id in view) == (r.accession_id in visible)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4))
def test_linear_chain_any_depth_keeps_only_terminal(depth):
    records = [adv_record("R0", "ACC0")]
    for i in range(1, depth + 1):
        records.append(adv_record(f"R{i}", f"ACC{i}", amends=f"ACC{i-1}"))
    view = reconcile(build(records))
    assert [r.record_id for r in view.records] == [f"R{depth}"]


def test_reconcile_is_deterministic():
    records = [
        adv_record("R1", "ACC1"),
        adv_record("R2", "ACC2", amends="ACC1"),
        adv_record("R3", "ACC3"),
    ]
    a = reconcile(build(records))
    b = reconcile(build(records))
    assert [r.record_id for r in a.records] == [r.record_id for r in b.records]
    assert a.visible_accessions == b.visible_accessions


# --- property: random amends maps with self-links, branches and cycles -------

def reference_visible(amends):
    """A leaf accession is visible when it wins the greatest-accession
    tie-break at every link up to its root."""
    amenders = {}
    for acc, target in amends.items():
        if target is not None:
            amenders.setdefault(target, []).append(acc)
    visible = set()
    for acc in amends:
        if acc in amenders:
            continue  # superseded
        node = acc
        while amends[node] is not None and node == max(amenders[amends[node]]):
            node = amends[node]
        if amends[node] is None:
            visible.add(acc)
    return visible


def cycle_members(amends):
    members = set()
    for acc in amends:
        node = amends[acc]
        for _ in range(len(amends)):
            if node is None:
                break
            if node == acc:
                members.add(acc)
                break
            node = amends[node]
    return members


amends_maps = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.one_of(st.none(), st.integers(0, n - 1)), min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(amends_maps)
def test_random_amends_maps_reconcile_or_name_a_cycle(targets):
    amends = {f"ACC{i}": None if t is None else f"ACC{t}"
              for i, t in enumerate(targets)}
    store = build([adv_record(f"R{i}", acc, amends=target)
                   for i, (acc, target) in enumerate(amends.items())])
    members = cycle_members(amends)
    if members:
        with pytest.raises(ReconciliationError, match="cyclic") as exc:
            reconcile(store)
        assert re.search(r"accession (\S+)$", str(exc.value)).group(1) in members
    else:
        view = reconcile(store)
        assert {r.accession_id for r in view.records} == reference_visible(amends)
