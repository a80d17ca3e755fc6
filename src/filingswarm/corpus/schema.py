"""Filing type enumeration, table schemas, and the schema registry.

The registry is loaded from a versioned JSON asset shipped with the package
(``corpus/assets/schema_registry.json``). It is the single source of truth
for which tables exist, which fields they carry, and the persona text of the
expert agent that owns each filing type.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Any


class FilingType(Enum):
    """The six regulatory filing types covered by the corpus."""

    THIRTEEN_F = "13F"
    NCSR = "NCSR"
    NCEN = "NCEN"
    NPORT = "NPORT"
    NMFP = "NMFP"
    ADV = "ADV"

    @classmethod
    def parse(cls, name: str) -> "FilingType":
        """Accept either the enum name or the display value, case-insensitively."""
        try:
            return _FILING_TYPE_NAMES[name.strip().upper().replace("-", "")]
        except KeyError:
            raise ValueError(f"unknown filing type: {name!r}") from None


# Each member's name and cleaned display value, as ``FilingType.parse``
# cleans its input.
_FILING_TYPE_NAMES: dict[str, FilingType] = {
    key: ft for ft in FilingType
    for key in (ft.name, ft.value.upper().replace("-", ""))}


FIELD_KINDS = ("number", "text", "date", "identifier", "list")

# The exact JSON types a field of each kind accepts without a closer look
# (see ``TableSchema.check_fields``); ``check_value`` judges every other value.
_PLAIN_TYPES = {"number": (int, float), "text": (str,), "identifier": (str,),
                "date": (), "list": ()}


def parse_iso_date(value: str) -> date:
    """The date ``value`` spells as exactly ``YYYY-MM-DD``. Any other string
    raises ValueError, as ``date.fromisoformat`` does on Python 3.10; later
    versions also read forms such as ``20231231`` and ``2023-W52-7``, which
    would not sort with the rest as text."""
    parsed = date.fromisoformat(value)
    if parsed.isoformat() != value:
        raise ValueError(f"Invalid isoformat string: {value!r}")
    return parsed


class SchemaError(ValueError):
    """Raised when a schema definition or a record violates the registry."""


@dataclass(frozen=True)
class FieldDef:
    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FIELD_KINDS:
            raise SchemaError(f"field {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class TableSchema:
    """Schema for one sub-table of one filing type. The field names, their
    set, each name's kind and each name's plain JSON types (see
    ``check_fields``) are computed once, when the schema is built; they take
    no part in ``==``, ``hash`` or ``repr``."""

    table_id: str
    filing_type: FilingType
    description: str
    fields: tuple[FieldDef, ...]
    key_fields: tuple[str, ...]
    field_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    field_name_set: frozenset[str] = field(init=False, repr=False, compare=False)
    _kinds: dict[str, str] = field(init=False, repr=False, compare=False)
    _plain_types: dict[str, tuple[type, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(f.name for f in self.fields)
        if len(set(names)) != len(names):
            raise SchemaError(f"{self.table_id}: duplicate field names")
        missing = [k for k in self.key_fields if k not in names]
        if missing:
            raise SchemaError(f"{self.table_id}: key fields not in schema: {missing}")
        object.__setattr__(self, "field_names", names)
        object.__setattr__(self, "field_name_set", frozenset(names))
        object.__setattr__(self, "_kinds", {f.name: f.kind for f in self.fields})
        object.__setattr__(self, "_plain_types",
                           {f.name: _PLAIN_TYPES[f.kind] for f in self.fields})

    def field_kind(self, name: str) -> str:
        try:
            return self._kinds[name]
        except KeyError:
            raise SchemaError(f"{self.table_id}: no field named {name!r}") from None

    def check_fields(self, record_id: str, fields: dict[str, Any]) -> None:
        """Check one record's field values in order, as ``check_value`` does.
        A name this table lacks raises a SchemaError that names the record. A
        value whose exact type is its kind's plain JSON type passes at once,
        bar ``""``, which an identifier refuses."""
        plain_types = self._plain_types
        for name, value in fields.items():
            types = plain_types.get(name)
            if types is None:
                raise SchemaError(f"record {record_id}: unknown field {name!r} for {self.table_id}")
            if type(value) not in types or value == "":
                self.check_value(name, value)

    def check_value(self, name: str, value: Any) -> None:
        """Validate one field value against its declared kind. None is allowed."""
        if value is None:
            return
        kind = self.field_kind(name)
        if kind == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{self.table_id}.{name}: expected number, got {value!r}")
        elif kind in ("text", "identifier"):
            if not isinstance(value, str) or (kind == "identifier" and not value):
                raise SchemaError(f"{self.table_id}.{name}: expected {kind}, got {value!r}")
        elif kind == "date":
            if not isinstance(value, str):
                raise SchemaError(f"{self.table_id}.{name}: expected ISO date string, got {value!r}")
            try:
                parse_iso_date(value)
            except ValueError as exc:
                raise SchemaError(f"{self.table_id}.{name}: bad date {value!r}") from exc
        elif kind == "list":
            if not isinstance(value, list) or any(
                isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in value
            ):
                raise SchemaError(f"{self.table_id}.{name}: expected list of scalars, got {value!r}")


@dataclass(frozen=True)
class AgentProfile:
    """One expert agent per filing type: persona text plus the tables it owns."""

    filing_type: FilingType
    persona: str
    table_ids: tuple[str, ...]


@dataclass
class SchemaRegistry:
    """All table schemas plus the six agent profiles."""

    version: str
    tables: dict[str, TableSchema] = field(default_factory=dict)
    profiles: dict[FilingType, AgentProfile] = field(default_factory=dict)

    def table(self, table_id: str) -> TableSchema:
        try:
            return self.tables[table_id]
        except KeyError:
            raise SchemaError(f"unknown table: {table_id!r}") from None

    def all_tables(self) -> list[TableSchema]:
        return list(self.tables.values())

    def tables_for(self, filing_type: FilingType) -> list[TableSchema]:
        return [t for t in self.tables.values() if t.filing_type == filing_type]

    def table_ids_for(self, filing_type: FilingType) -> list[str]:
        return [t.table_id for t in self.tables_for(filing_type)]

    def profile(self, filing_type: FilingType) -> AgentProfile:
        return self.profiles[filing_type]

    def validate(self) -> None:
        """Check the registry-level invariants."""
        for ft in FilingType:
            owned = self.tables_for(ft)
            if not owned:
                raise SchemaError(f"{ft.name}: filing type owns no tables")
            if ft is FilingType.THIRTEEN_F and len(owned) != 1:
                raise SchemaError("THIRTEEN_F must own exactly one table")
            profile = self.profiles.get(ft)
            if profile is None:
                raise SchemaError(f"{ft.name}: missing agent profile")
            if sorted(profile.table_ids) != sorted(t.table_id for t in owned):
                raise SchemaError(f"{ft.name}: profile tables disagree with registry")


def registry_from_dict(doc: dict) -> SchemaRegistry:
    registry = SchemaRegistry(version=str(doc["version"]))
    for raw in doc["tables"]:
        schema = TableSchema(
            table_id=raw["table_id"],
            filing_type=FilingType.parse(raw["filing_type"]),
            description=raw["description"],
            fields=tuple(FieldDef(f["name"], f["kind"]) for f in raw["fields"]),
            key_fields=tuple(raw["key_fields"]),
        )
        if schema.table_id in registry.tables:
            raise SchemaError(f"duplicate table_id: {schema.table_id}")
        registry.tables[schema.table_id] = schema
    for ft_name, persona in doc["personas"].items():
        ft = FilingType.parse(ft_name)
        registry.profiles[ft] = AgentProfile(
            filing_type=ft,
            persona=persona,
            table_ids=tuple(registry.table_ids_for(ft)),
        )
    registry.validate()
    return registry


def load_default_registry() -> SchemaRegistry:
    """Load the registry JSON shipped with the package."""
    # imported on first use, not at module level: it costs a cold start
    # that does not already import it tens of milliseconds
    from importlib import resources

    text = resources.files("filingswarm.corpus").joinpath("assets/schema_registry.json").read_text("utf-8")
    return registry_from_dict(json.loads(text))
