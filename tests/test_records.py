from __future__ import annotations

import dataclasses
import json
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm.corpus.records import (
    META_KIND,
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
from filingswarm.corpus.schema import (
    FIELD_KINDS,
    FieldDef,
    FilingType,
    SchemaError,
    SchemaRegistry,
    TableSchema,
)

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


@pytest.mark.parametrize("is_amendment, amends, error", [
    (True, None, "amendment without target"),
    (False, "ACC0", "amends 'ACC0' on a record that is not an amendment"),
])
def test_a_record_words_its_own_amendment_error(is_amendment, amends, error):
    doc = record_to_dict(make_record())
    doc.update(is_amendment=is_amendment, amends=amends)
    with pytest.raises(SchemaError, match=f"^{error}$"):
        record_from_dict(doc)


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


def _with(**changes):
    """A well-formed record line with top-level keys replaced."""
    doc = record_to_dict(make_record(record_id="R9", accession="ACC9"))
    doc.update(changes)
    return json.dumps(doc)


def _disclosure(event_date):
    """A well-formed adv_disclosures line but for its event_date."""
    fields = {"period": PERIOD.isoformat(), "advisor_id": "ADV0001",
              "event_type": "regulatory", "event_date": event_date}
    return _with(table_id="adv_disclosures", fields=fields)


_WRONG_TYPES = {
    "a list": ("[1, 2]", "not a JSON object"),
    "a string": ('"x"', "not a JSON object"),
    "null": ("null", "not a JSON object"),
    "a number": ("7", "not a JSON object"),
    "fields a number": (_with(fields=5), "fields must be an object, got 5"),
    "fields a list of pairs": (_with(fields=[["advisor_id", "X"]]),
                               "fields must be an object, got [['advisor_id', 'X']]"),
    "period a number": (_with(period=20230331), "period must be a string, got 20230331"),
    "filing_type a number": (_with(filing_type=3), "filing_type must be a string, got 3"),
    "record_id a list": (_with(record_id=["R9"]), "record_id must be a string, got ['R9']"),
    "table_id an object": (_with(table_id={"t": 1}), "table_id must be a string, got {'t': 1}"),
    "accession_id null": (_with(accession_id=None), "accession_id must be a string, got None"),
    "filer_id a number": (_with(filer_id=7), "filer_id must be a string, got 7"),
    "amends a list": (_with(amends=["ACC0"], is_amendment=True),
                      "amends must be a string or null, got ['ACC0']"),
    "is_amendment a string": (_with(is_amendment="false", amends="ACC0"),
                              "is_amendment must be a boolean, got 'false'"),
    "is_amendment a number": (_with(is_amendment=1, amends="ACC0"),
                              "is_amendment must be a boolean, got 1"),
    "is_amendment null": (_with(is_amendment=None), "is_amendment must be a boolean, got None"),
    "not UTF-8": (b"\xff", "not valid UTF-8"),
    # Python 3.11's date.fromisoformat reads these; they would sort as text
    # after every YYYY-MM-DD date
    "period basic form": (_with(period="20230331"), "Invalid isoformat string: '20230331'"),
    "period week form": (_with(period="2023-W13-5"), "Invalid isoformat string: '2023-W13-5'"),
    "event_date basic form": (_disclosure("20231231"),
                              "adv_disclosures.event_date: bad date '20231231'"),
    "event_date week form": (_disclosure("2023-W52-7"),
                             "adv_disclosures.event_date: bad date '2023-W52-7'"),
}


@pytest.mark.parametrize("case", list(_WRONG_TYPES))
def test_ingest_rejects_a_line_of_the_wrong_json_type(registry, tmp_path, case):
    line, reason = _WRONG_TYPES[case]
    meta = json.dumps({"kind": META_KIND, "records": 2})
    good = [json.dumps(record_to_dict(make_record(record_id=f"R{i}", accession=f"ACC{i}")))
            for i in range(2)]
    if isinstance(line, str):
        line = line.encode("utf-8")
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join([meta.encode(), good[0].encode(), line, good[1].encode()])
                     + b"\n")
    result = ingest_jsonl(path, registry)
    assert [(r.line_no, r.reason) for r in result.rejections] == [(3, reason)]
    assert [r.record_id for r in result.store.records] == ["R0", "R1"]


_NCEN_FIELDS = {"period": PERIOD.isoformat(), "trust_id": "TR0001", "fund_id": "FND0001"}

# Lines that follow record R0 of the ADV accession ACC0 (filer ADV0001), and
# the rejections they get: a line number, or 0 for an amendment link that
# ingest checks once every line is in.
_LINK_CASES = {
    "amendment without target": (
        [_with(is_amendment=True, amends=None)],
        [(2, "amendment without target")]),
    "target without amendment": (
        [_with(is_amendment=False, amends="ACC0")],
        [(2, "amends 'ACC0' on a record that is not an amendment")]),
    "amends another filer": (
        [_with(filer_id="ADV0002", is_amendment=True, amends="ACC0")],
        [(0, "accession ACC9 amends ACC0 of a different filing_type or filer")]),
    "amends another filing type": (
        [_with(record_id="N1", accession_id="ACCN", filing_type="NCEN",
               table_id="ncen_fund_registry", fields=_NCEN_FIELDS),
         _with(is_amendment=True, amends="ACCN")],
        [(0, "accession ACC9 amends ACCN of a different filing_type or filer")]),
    "target not in the file": (  # reconciliation rejects a dangling target
        [_with(is_amendment=True, amends="ACC404")],
        []),
}


@pytest.mark.parametrize("case", list(_LINK_CASES))
def test_ingest_checks_amendment_links(registry, tmp_path, case):
    lines, rejections = _LINK_CASES[case]
    path = tmp_path / "corpus.jsonl"
    first = json.dumps(record_to_dict(make_record(record_id="R0", accession="ACC0")))
    path.write_text("\n".join([first, *lines]) + "\n")
    result = ingest_jsonl(path, registry)
    assert [(r.line_no, r.reason) for r in result.rejections] == rejections


# Two lines of accession ACCA that follow R1 of ACC0, and disagree with
# each other on what ACCA is.
_SPLIT_ACCESSIONS = {
    "amends": (_with(record_id="R2", accession_id="ACCA"),
               _with(record_id="R3", accession_id="ACCA", is_amendment=True, amends="ACC0")),
    "filing_type": (_with(record_id="R2", accession_id="ACCA"),
                    _with(record_id="R3", accession_id="ACCA", filing_type="NCEN",
                          table_id="ncen_fund_registry", fields=_NCEN_FIELDS)),
}


@pytest.mark.parametrize("swap", [False, True], ids=["in-order", "swapped"])
@pytest.mark.parametrize("case", list(_SPLIT_ACCESSIONS))
def test_an_accession_whose_records_disagree_is_refused_in_either_order(
        registry, tmp_path, case, swap):
    pair = _SPLIT_ACCESSIONS[case]
    second, third = pair[::-1] if swap else pair
    path = tmp_path / "corpus.jsonl"
    first = json.dumps(record_to_dict(make_record(record_id="R1", accession="ACC0")))
    path.write_text("\n".join([first, second, third]) + "\n")
    result = ingest_jsonl(path, registry)
    late = json.loads(third)["record_id"]
    assert [(r.line_no, r.reason) for r in result.rejections] == [
        (3, f"record {late}: filing_type or amends differs from the first record "
            "of accession ACCA")]
    assert [r.record_id for r in result.store.by_accession["ACCA"]] == [
        json.loads(second)["record_id"]]


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)
_KEYS = sorted(record_to_dict(make_record()))


@st.composite
def _corpus_line(draw, line_no):
    """(line, well-formed?): a record, a record with one key set to any JSON
    value (its id cannot collide with a well-formed one), or any JSON value."""
    doc = record_to_dict(make_record(record_id=f"R{line_no}", accession=f"ACC{line_no}"))
    kind = draw(st.sampled_from(["record", "one key", "any"]))
    if kind == "record":
        return json.dumps(doc), True
    if kind == "any":
        return json.dumps(draw(_JSON)), False
    key = draw(st.sampled_from(_KEYS))
    doc[key] = draw(_JSON.filter(lambda v: not (isinstance(v, str) and v.startswith("R"))))
    return json.dumps(doc), False


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_ingest_never_raises_and_loads_every_well_formed_line(registry, tmp_path_factory,
                                                                data, n):
    lines = [data.draw(_corpus_line(line_no)) for line_no in range(1, n + 1)]
    path = tmp_path_factory.mktemp("ingest") / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line, _ in lines))
    result = ingest_jsonl(path, registry)
    well_formed = {f"R{i}" for i, (_, ok) in enumerate(lines, start=1) if ok}
    assert well_formed <= set(result.store.by_record_id)
    assert not any(r.line_no == i for r in result.rejections
                   for i, (_, ok) in enumerate(lines, start=1) if ok)


class _Int(int):
    pass


# one field of each kind, named after it, beside a key
_KINDS_TABLE = TableSchema(
    table_id="t", filing_type=FilingType.ADV, description="d",
    fields=(FieldDef("k", "identifier"),) + tuple(FieldDef(kind, kind) for kind in FIELD_KINDS),
    key_fields=("k",))
_KINDS_REGISTRY = SchemaRegistry(version="t", tables={"t": _KINDS_TABLE})
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4), st.just(""),
    st.integers().map(_Int),
    st.sampled_from([np.int64(3), np.float64(0.5), np.float32(1.5), np.bool_(True),
                     np.str_("x"), np.str_(""), "2023-12-31", "20231231", "2023-W52-7"]),
    st.lists(st.one_of(st.integers(), st.text(max_size=2), st.booleans(), st.none()),
             max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _outcome(check, *args):
    try:
        check(*args)
    except SchemaError as exc:
        return str(exc)
    return "accepted"


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(FIELD_KINDS), value=_ANY_VALUE)
def test_validate_record_accepts_exactly_what_check_value_accepts(kind, value):
    record = make_record(table_id="t", fields={"k": "K", kind: value})
    assert (_outcome(validate_record, record, _KINDS_REGISTRY)
            == _outcome(_KINDS_TABLE.check_value, kind, value))


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


def test_ingested_records_share_one_copy_of_each_repeated_string(registry, tmp_path):
    docs = [record_to_dict(make_record(record_id=f"R{i}", accession="ACC1"))
            for i in range(2)]
    docs.append(record_to_dict(make_record(record_id="R2", accession="ACC2",
                                           is_amendment=True, amends="ACC1")))
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    result = ingest_jsonl(path, registry)
    assert not result.rejections
    a, b, c = result.store.records
    for x, y in zip(a.fields, b.fields):
        assert x is y
    assert a.fields["advisor_name"] is b.fields["advisor_name"] is c.fields["advisor_name"]
    assert a.accession_id is b.accession_id is c.amends
    assert a.table_id is c.table_id and a.filer_id is c.filer_id


def test_each_ingested_record_equals_record_from_dict_of_its_line(registry, small_store,
                                                                  tmp_path):
    path = tmp_path / "synthetic.jsonl"
    export_jsonl(small_store, path)
    result = ingest_jsonl(path, registry)
    assert not result.rejections
    docs = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert len(docs) == len(result.store.records)
    for record, doc in zip(result.store.records, docs):
        alone = record_from_dict(doc)
        assert record == alone
        assert list(record.fields) == list(alone.fields) == list(doc["fields"])


def test_ingested_records_of_one_period_share_one_date(registry, tmp_path):
    docs = [record_to_dict(make_record(record_id=f"R{i}")) for i in range(3)]
    docs[2]["period"] = docs[2]["fields"]["period"] = "2022-12-31"
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    result = ingest_jsonl(path, registry)
    assert not result.rejections
    a, b, c = result.store.records
    assert a.period == b.period == PERIOD and a.period is b.period
    assert c.period == date(2022, 12, 31)


def test_an_ingested_record_holds_no_instance_dict(registry, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record_to_dict(make_record())) + "\n")
    (record,) = ingest_jsonl(path, registry).store.records
    assert not hasattr(record, "__dict__")
    assert record == make_record()


def test_a_record_compares_prints_and_stays_frozen_and_unhashable():
    record = make_record()
    assert record == make_record()
    assert record != make_record(record_id="R2")
    assert record != make_record(fields={"advisor_id": "ADV0001"})
    assert repr(record) == (
        "FilingRecord(record_id='R1', accession_id='ACC1', "
        "filing_type=<FilingType.ADV: 'ADV'>, table_id='adv_entity', filer_id='ADV0001', "
        "period=datetime.date(2023, 3, 31), is_amendment=False, amends=None, "
        "fields={'advisor_id': 'ADV0001', 'advisor_name': 'Test Advisors LLC', "
        "'regulatory_aum': 100.0, 'period': '2023-03-31'})")
    for name in (f.name for f in dataclasses.fields(FilingRecord)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    # a name that is not a field is refused too: Python 3.11 raises
    # TypeError for it on a slotted frozen dataclass
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1
    assert record == make_record()
    with pytest.raises(TypeError):
        hash(record)


def test_record_from_dict_leaves_its_doc_unchanged():
    doc = record_to_dict(make_record(is_amendment=True, amends="ACC0"))
    before = json.loads(json.dumps(doc))
    record = record_from_dict(doc)
    assert doc == before
    assert record.fields == doc["fields"] and record.fields is not doc["fields"]


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


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "Zéta Σς", "\u2028", "\ud800"]))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(fields=st.dictionaries(st.text(max_size=8), _VALUES, max_size=6),
       table_id=st.text(max_size=12))
def test_embedding_text_is_json_dumps_of_the_non_null_fields(fields, table_id):
    record = make_record(table_id=table_id, fields=fields)
    kept = {k: v for k, v in fields.items() if v is not None}
    assert to_embedding_text(record) == json.dumps(
        {"fields": kept, "table": table_id}, sort_keys=True)


def test_accession_meta(registry):
    store = build_store([make_record()], registry)
    assert store.accession_meta("ACC1") == (FilingType.ADV, "ADV0001")
