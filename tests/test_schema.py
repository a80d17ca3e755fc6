from __future__ import annotations

import json
import re
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm.corpus.schema import (
    FieldDef,
    FilingType,
    SchemaError,
    TableSchema,
    load_default_registry,
    registry_from_dict,
)

EXPECTED_TABLES = {
    FilingType.THIRTEEN_F: ["thirteenf_holdings"],
    FilingType.NCSR: ["ncsr_report_meta", "ncsr_statement_items", "ncsr_portfolio"],
    FilingType.NCEN: ["ncen_fund_registry", "ncen_trust_registry", "ncen_service_providers"],
    FilingType.NPORT: ["nport_fund_info", "nport_holdings", "nport_derivatives"],
    FilingType.NMFP: ["nmfp_fund_info", "nmfp_holdings"],
    FilingType.ADV: ["adv_entity", "adv_brokers", "adv_disclosures"],
}


def test_six_filing_types():
    assert [ft.value for ft in FilingType] == ["13F", "NCSR", "NCEN", "NPORT", "NMFP", "ADV"]


@pytest.mark.parametrize("raw,expected", [
    ("13F", FilingType.THIRTEEN_F),
    ("13f", FilingType.THIRTEEN_F),
    ("THIRTEEN_F", FilingType.THIRTEEN_F),
    ("N-PORT", FilingType.NPORT),
    ("nport", FilingType.NPORT),
    (" n-cen ", FilingType.NCEN),
    ("NCSR", FilingType.NCSR),
    ("n-mfp", FilingType.NMFP),
    ("adv", FilingType.ADV),
])
def test_parse_accepts_names_and_values(raw, expected):
    assert FilingType.parse(raw) is expected


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        FilingType.parse("10-K")


def _parse_by_enum_walk(name):
    """The enum walk ``FilingType.parse`` used before its lookup table,
    kept as the lookup's oracle."""
    cleaned = name.strip().upper().replace("-", "")
    for ft in FilingType:
        if cleaned in (ft.name, ft.value.upper().replace("-", "")):
            return ft
    raise ValueError(f"unknown filing type: {name!r}")


def _parsed(parse, name):
    try:
        return parse(name)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _spelled_filing_types(draw):
    """A member's name or value in random case, with dashes inserted and
    whitespace around it."""
    ft = draw(st.sampled_from(list(FilingType)))
    word = draw(st.sampled_from((ft.name, ft.value)))
    chars = [c.upper() if draw(st.booleans()) else c.lower() for c in word]
    for _ in range(draw(st.integers(0, 3))):
        chars.insert(draw(st.integers(0, len(chars))), "-")
    pad = st.text(" \t\n\r\x0b\x0c\u00a0\u2003", max_size=3)
    return ft, draw(pad) + "".join(chars) + draw(pad)


@settings(max_examples=300, deadline=None)
@given(_spelled_filing_types())
def test_parse_reads_every_spelling_as_the_enum_walk_does(spelled):
    ft, name = spelled
    assert FilingType.parse(name) is ft
    assert _parse_by_enum_walk(name) is ft


@settings(max_examples=400, deadline=None)
@given(st.text())
def test_parse_agrees_with_the_enum_walk(name):
    assert _parsed(FilingType.parse, name) == _parsed(_parse_by_enum_walk, name)


@pytest.mark.parametrize("bad", [7, None])
def test_parse_of_a_non_string_raises_attribute_error(bad):
    with pytest.raises(AttributeError):
        FilingType.parse(bad)


def test_registry_table_map(registry):
    assert len(registry.all_tables()) == 15
    for ft, table_ids in EXPECTED_TABLES.items():
        assert list(registry.table_ids_for(ft)) == table_ids


def test_every_table_has_period_and_valid_keys(registry):
    for schema in registry.all_tables():
        assert "period" in schema.field_names
        assert schema.description.strip()
        for key in schema.key_fields:
            assert key in schema.field_names


def test_every_agent_has_persona(registry):
    for ft in FilingType:
        profile = registry.profile(ft)
        assert profile.filing_type is ft
        assert len(profile.persona.split()) >= 3
        assert profile.table_ids == tuple(registry.table_ids_for(ft))


def test_table_lookup_owns_filing_type(registry):
    schema = registry.table("nport_holdings")
    assert schema.filing_type is FilingType.NPORT
    with pytest.raises(SchemaError):
        registry.table("no_such_table")


def test_field_kind_checks():
    schema = TableSchema(
        table_id="t", filing_type=FilingType.ADV, description="d",
        fields=(FieldDef("n", "number"), FieldDef("s", "text"),
                FieldDef("d", "date"), FieldDef("i", "identifier"),
                FieldDef("l", "list")),
        key_fields=("i",))
    schema.check_value("n", 1.5)
    schema.check_value("n", None)  # null always allowed
    schema.check_value("d", "2023-03-31")
    schema.check_value("l", ["a", 1])
    for name, bad in [("n", "x"), ("n", True), ("s", 3), ("i", ""),
                      ("d", "not-a-date"), ("d", "20230331"), ("d", "2023-W13-5"),
                      ("l", "a"), ("l", [[1]])]:
        with pytest.raises(SchemaError):
            schema.check_value(name, bad)


def _schema(**changes):
    base = dict(table_id="t", filing_type=FilingType.ADV, description="d",
                fields=(FieldDef("a", "text"), FieldDef("b", "number")),
                key_fields=("a",))
    return TableSchema(**{**base, **changes})


def test_schema_lookups_are_built_once_and_leave_eq_hash_repr_alone():
    schema = _schema()
    assert schema.field_names == ("a", "b")
    assert schema.field_name_set == frozenset({"a", "b"})
    assert schema.field_kind("a") == "text" and schema.field_kind("b") == "number"
    assert schema._plain_types == {"a": (str,), "b": (int, float)}
    assert schema.field_names is schema.field_names
    # equality, hash and repr see only the five declared fields
    assert schema == _schema() and hash(schema) == hash(_schema())
    assert hash(schema) == hash((schema.table_id, schema.filing_type, schema.description,
                                 schema.fields, schema.key_fields))
    assert repr(schema) == (
        "TableSchema(table_id='t', filing_type=<FilingType.ADV: 'ADV'>, description='d', "
        "fields=(FieldDef(name='a', kind='text'), FieldDef(name='b', kind='number')), "
        "key_fields=('a',))")
    # a copy with other fields gets its own lookups
    wider = replace(schema, fields=schema.fields + (FieldDef("c", "date"),))
    assert wider.field_names == ("a", "b", "c") and wider.field_kind("c") == "date"
    assert schema.field_names == ("a", "b")
    for name in ("field_names", "field_name_set", "_kinds", "_plain_types"):
        with pytest.raises(TypeError):
            _schema(**{name: None})


def test_field_kind_of_an_unknown_name_raises_schema_error():
    with pytest.raises(SchemaError, match=r"^t: no field named 'zz'$"):
        _schema().field_kind("zz")


def test_schema_rejects_duplicate_fields_and_missing_keys():
    with pytest.raises(SchemaError):
        TableSchema(table_id="t", filing_type=FilingType.ADV, description="d",
                    fields=(FieldDef("a", "text"), FieldDef("a", "text")),
                    key_fields=())
    with pytest.raises(SchemaError):
        TableSchema(table_id="t", filing_type=FilingType.ADV, description="d",
                    fields=(FieldDef("a", "text"),), key_fields=("missing",))


def test_unknown_field_kind_rejected():
    with pytest.raises(SchemaError):
        FieldDef("x", "blob")


def _default_doc():
    path = resources.files("filingswarm.corpus").joinpath("assets/schema_registry.json")
    return json.loads(path.read_text("utf-8"))


def _duplicate_table(doc):
    doc["tables"].append(dict(doc["tables"][-1]))


def _drop_nmfp_tables(doc):
    doc["tables"] = [t for t in doc["tables"] if t["filing_type"] != "NMFP"]


def _second_13f_table(doc):
    holdings = next(t for t in doc["tables"] if t["filing_type"] == "THIRTEEN_F")
    doc["tables"].append(dict(holdings, table_id="thirteenf_more_holdings"))


def _drop_adv_persona(doc):
    del doc["personas"]["ADV"]


@pytest.mark.parametrize("damage, message", [
    (_duplicate_table, "duplicate table_id: ncsr_portfolio"),
    (_drop_nmfp_tables, "NMFP: filing type owns no tables"),
    (_second_13f_table, "THIRTEEN_F must own exactly one table"),
    (_drop_adv_persona, "ADV: missing agent profile"),
], ids=["duplicate-table-id", "type-without-tables", "two-13f-tables", "missing-persona"])
def test_a_damaged_registry_document_is_a_schema_error(damage, message):
    doc = _default_doc()
    registry_from_dict(doc)  # the document as shipped loads
    damage(doc)
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        registry_from_dict(doc)


def test_a_profile_whose_tables_disagree_with_the_registry_is_a_schema_error():
    registry = registry_from_dict(_default_doc())
    adv = registry.profiles[FilingType.ADV]
    registry.profiles[FilingType.ADV] = replace(adv, table_ids=adv.table_ids[:1])
    with pytest.raises(SchemaError, match="^ADV: profile tables disagree with registry$"):
        registry.validate()


def test_default_registry_is_cached_per_call():
    a = load_default_registry()
    b = load_default_registry()
    assert a.version == b.version == "1"
    assert {t.table_id for t in a.all_tables()} == {t.table_id for t in b.all_tables()}
