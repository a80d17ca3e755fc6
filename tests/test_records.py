from __future__ import annotations

import json
from datetime import date

import pytest

from filingswarm.corpus.records import (
    CorpusStore,
    FilingRecord,
    build_store,
    export_jsonl,
    ingest_jsonl,
    record_from_dict,
    record_to_dict,
    to_embedding_text,
    validate_record,
)
from filingswarm.corpus.schema import FilingType, SchemaError

PERIOD = date(2023, 3, 31)


def make_record(record_id="R1", accession="ACC1", table_id="adv_entity",
                filing_type=FilingType.ADV, fields=None, **kw):
    base = {"advisor_id": "ADV0001", "advisor_name": "Test Advisors LLC",
            "regulatory_aum": 100.0, "period": PERIOD.isoformat()}
    if fields is not None:
        base = fields
    return FilingRecord(
        record_id=record_id, accession_id=accession, filing_type=filing_type,
        table_id=table_id, filer_id="ADV0001", period=PERIOD,
        is_amendment=kw.pop("is_amendment", False), amends=kw.pop("amends", None),
        fields=base)


def test_amends_present_iff_amendment():
    with pytest.raises(SchemaError):
        make_record(is_amendment=True, amends=None)
    with pytest.raises(SchemaError):
        make_record(is_amendment=False, amends="ACC0")
    record = make_record(is_amendment=True, amends="ACC0")
    assert record.amends == "ACC0"


def test_validate_rejects_unknown_field(registry):
    record = make_record(fields={"advisor_id": "A", "bogus": 1,
                                 "period": PERIOD.isoformat()})
    with pytest.raises(SchemaError, match="unknown field"):
        validate_record(record, registry)


def test_validate_rejects_wrong_filing_type(registry):
    record = make_record(filing_type=FilingType.NPORT)
    with pytest.raises(SchemaError, match="belongs to"):
        validate_record(record, registry)


def test_validate_rejects_null_key_field(registry):
    record = make_record(fields={"advisor_id": None, "advisor_name": "X",
                                 "period": PERIOD.isoformat()})
    with pytest.raises(SchemaError, match="key field"):
        validate_record(record, registry)


def test_validate_rejects_period_mismatch(registry):
    record = make_record(fields={"advisor_id": "A", "advisor_name": "X",
                                 "period": "2022-12-31"})
    with pytest.raises(SchemaError, match="disagrees"):
        validate_record(record, registry)


def test_store_rejects_duplicate_record_id(registry):
    store = CorpusStore(registry)
    store.add(make_record())
    with pytest.raises(SchemaError, match="duplicate"):
        store.add(make_record())
    assert len(store) == 1


def test_record_dict_round_trip():
    record = make_record(is_amendment=True, amends="ACC0")
    assert record_from_dict(record_to_dict(record)) == record


def test_ingest_counts_rejections_by_line(registry, tmp_path):
    # 3 valid lines then 1 with an unknown field: 3 records, 1 rejection at line 4
    lines = [record_to_dict(make_record(record_id=f"R{i}", accession=f"ACC{i}"))
             for i in range(3)]
    bad = record_to_dict(make_record(record_id="R9", accession="ACC9"))
    bad["fields"]["mystery"] = 1
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(doc) for doc in lines + [bad]) + "\n")

    result = ingest_jsonl(path, registry)
    assert len(result.store) == 3
    assert len(result.rejections) == 1
    assert result.rejections[0].line_no == 4
    assert "mystery" in result.rejections[0].reason


def test_ingest_skips_blank_lines_and_flags_bad_json(registry, tmp_path):
    doc = json.dumps(record_to_dict(make_record()))
    path = tmp_path / "corpus.jsonl"
    path.write_text(doc + "\n\n{not json\n")
    result = ingest_jsonl(path, registry)
    assert len(result.store) == 1
    assert [r.line_no for r in result.rejections] == [3]


def test_export_ingest_round_trip(registry, tmp_path):
    store = build_store(
        [make_record(record_id=f"R{i}", accession=f"ACC{i}") for i in range(5)],
        registry)
    path = tmp_path / "corpus.jsonl"
    export_jsonl(store, path)

    first = json.loads(path.read_text().splitlines()[0])
    assert first["kind"] == "corpus_meta"
    assert first["registry_version"] == registry.version
    assert first["records"] == 5

    result = ingest_jsonl(path, registry)
    assert not result.rejections
    assert result.store.records == store.records


def test_export_ingest_round_trip_synthetic(registry, small_store, tmp_path):
    path = tmp_path / "synthetic.jsonl"
    export_jsonl(small_store, path)
    result = ingest_jsonl(path, registry)
    assert not result.rejections
    assert result.store.records == small_store.records


def test_embedding_text_sorted_and_null_free():
    record = make_record(fields={"advisor_name": "Zéta", "advisor_id": "A",
                                 "regulatory_aum": None,
                                 "period": PERIOD.isoformat()})
    text = to_embedding_text(record)
    assert text == ('{"fields": {"advisor_id": "A", "advisor_name": "Z\\u00e9ta", '
                    '"period": "%s"}, "table": "adv_entity"}' % PERIOD.isoformat())
    doc = json.loads(text)
    assert list(doc) == ["fields", "table"]
    assert "regulatory_aum" not in doc["fields"]
    assert list(doc["fields"]) == sorted(doc["fields"])
    assert doc["table"] == "adv_entity"


def test_embedding_text_equal_rows_render_identically():
    a = make_record(record_id="R1", accession="ACC1")
    b = make_record(record_id="R2", accession="ACC2")
    assert to_embedding_text(a) == to_embedding_text(b)


def test_accession_meta(registry):
    store = build_store([make_record()], registry)
    assert store.accession_meta("ACC1") == (FilingType.ADV, "ADV0001")
