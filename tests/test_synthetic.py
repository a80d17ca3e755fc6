from __future__ import annotations

from collections import Counter

import pytest

from filingswarm.corpus.records import export_jsonl
from filingswarm.corpus.reconcile import reconcile
from filingswarm.corpus.synthetic import (
    ConfigError,
    SyntheticConfig,
    generate_synthetic,
)
from filingswarm.questbench import STATEMENT_LABELS


def test_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(records_per_table=-1)
    with pytest.raises(ConfigError):
        SyntheticConfig(filers=0)
    with pytest.raises(ConfigError):
        SyntheticConfig(amendment_fraction=1.5)


def test_zero_records_config_gives_empty_store():
    store = generate_synthetic(SyntheticConfig(records_per_table=0), seed=1)
    assert len(store) == 0


def test_same_seed_same_bytes(tmp_path):
    config = SyntheticConfig(records_per_table=60)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export_jsonl(generate_synthetic(config, seed=42), a)
    export_jsonl(generate_synthetic(config, seed=42), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_different_corpus(tmp_path):
    config = SyntheticConfig(records_per_table=60)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export_jsonl(generate_synthetic(config, seed=1), a)
    export_jsonl(generate_synthetic(config, seed=2), b)
    assert a.read_bytes() != b.read_bytes()


def test_all_fifteen_tables_populated(small_store, registry):
    counts = Counter(r.table_id for r in small_store.records)
    assert set(counts) == {t.table_id for t in registry.all_tables()}
    assert all(n > 0 for n in counts.values())


def test_records_validate_against_registry(small_store):
    # CorpusStore.add validates on insert, so reaching here means every
    # generated record passed; spot-check the period contract anyway.
    for record in small_store.records[:500]:
        assert record.fields["period"] == record.period.isoformat()


def test_amendments_scale_and_link(small_store):
    amendments = [r for r in small_store.records if r.is_amendment]
    assert amendments
    by_acc = {}
    for r in amendments:
        by_acc.setdefault(r.accession_id, r)
    for acc, r in by_acc.items():
        assert acc == f"{r.amends}-A1"
        assert r.amends in small_store.by_accession
        target_type, target_filer = small_store.accession_meta(r.amends)
        assert target_type is r.filing_type
        assert target_filer == r.filer_id


def test_amended_originals_leave_the_view(small_store):
    view = reconcile(small_store)
    amended = {r.amends for r in small_store.records if r.is_amendment}
    n_superseded = sum(len(small_store.by_accession[a]) for a in amended)
    assert len(view) == len(small_store) - n_superseded
    for acc in amended:
        for r in small_store.by_accession[acc]:
            assert r.record_id not in view


def test_view_keys_are_unique(small_view):
    assert small_view.check_key_uniqueness() == []


def test_13f_rows_are_equity_and_option_classes(small_view):
    rows = small_view.table_records("thirteenf_holdings")
    classes = {r.fields["security_class"] for r in rows}
    assert classes == {"COM", "OPT-CALL", "OPT-PUT"}
    for r in rows:
        cls, put_call = r.fields["security_class"], r.fields["put_call"]
        if cls == "COM":
            assert put_call is None
        else:
            assert cls == f"OPT-{put_call}"
    by_acc = {}
    for r in rows:
        by_acc.setdefault(r.accession_id, []).append(r)
    for acc_rows in by_acc.values():
        # the generator leads each filing with one equity and one option row
        assert acc_rows[0].fields["security_class"] == "COM"
        assert acc_rows[1].fields["security_class"].startswith("OPT-")


def test_statement_items_cover_total_assets(small_view):
    variants = STATEMENT_LABELS["TOTAL_ASSETS"][1]
    rows = small_view.table_records("ncsr_statement_items")
    per_fund = {}
    for r in rows:
        if r.fields["statement"] == "assets_liabilities" and r.fields["label"] in variants:
            per_fund.setdefault((r.fields["fund_id"], r.period), []).append(r)
    funds_with_reports = {(r.fields["fund_id"], r.period) for r in rows}
    assert set(per_fund) == funds_with_reports
    assert all(len(v) == 1 for v in per_fund.values())


def test_money_amounts_rounded_to_cents(small_store):
    for r in small_store.records:
        if r.table_id == "adv_entity":
            aum = r.fields["regulatory_aum"]
            assert aum == round(aum, 2)
