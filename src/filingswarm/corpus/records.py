"""Filing records, the corpus store, JSONL ingest/export, and canonical text.

A corpus file is JSONL, one record object per line, UTF-8. An optional first
line may be a meta object ``{"kind": "corpus_meta", ...}`` carrying the schema
registry version; ``ingest_jsonl`` recognizes and skips it, and
``export_jsonl`` always writes one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any, Iterable

from .schema import FilingType, SchemaError, SchemaRegistry

META_KIND = "corpus_meta"


@dataclass(frozen=True)
class FilingRecord:
    """One row of one filing table.

    ``record_id`` is globally unique; ``accession_id`` identifies the filing
    document the row came from. Amendment rows carry ``is_amendment=True`` and
    ``amends`` pointing at the superseded accession.
    """

    record_id: str
    accession_id: str
    filing_type: FilingType
    table_id: str
    filer_id: str
    period: date
    is_amendment: bool
    amends: str | None
    fields: dict[str, Any]

    def __post_init__(self) -> None:
        if self.is_amendment != (self.amends is not None):
            raise SchemaError(
                f"record {self.record_id}: amends must be present iff is_amendment is true"
            )

    def field_value(self, name: str) -> Any:
        return self.fields.get(name)


def validate_record(record: FilingRecord, registry: SchemaRegistry) -> None:
    """Check a record's fields against its table schema."""
    schema = registry.table(record.table_id)
    if schema.filing_type is not record.filing_type:
        raise SchemaError(
            f"record {record.record_id}: table {record.table_id} belongs to "
            f"{schema.filing_type.name}, not {record.filing_type.name}"
        )
    known = set(schema.field_names)
    for name, value in record.fields.items():
        if name not in known:
            raise SchemaError(f"record {record.record_id}: unknown field {name!r} for {record.table_id}")
        schema.check_value(name, value)
    for key in schema.key_fields:
        if record.fields.get(key) is None:
            raise SchemaError(f"record {record.record_id}: key field {key!r} is null")
    # When the schema carries an explicit period column it must agree with the
    # record-level reporting period.
    if "period" in known:
        value = record.fields.get("period")
        if value != record.period.isoformat():
            raise SchemaError(
                f"record {record.record_id}: period field {value!r} disagrees with {record.period}"
            )


def record_to_dict(record: FilingRecord) -> dict:
    return {
        "record_id": record.record_id,
        "accession_id": record.accession_id,
        "filing_type": record.filing_type.name,
        "table_id": record.table_id,
        "filer_id": record.filer_id,
        "period": record.period.isoformat(),
        "is_amendment": record.is_amendment,
        "amends": record.amends,
        "fields": record.fields,
    }


def record_from_dict(doc: dict) -> FilingRecord:
    return FilingRecord(
        record_id=doc["record_id"],
        accession_id=doc["accession_id"],
        filing_type=FilingType.parse(doc["filing_type"]),
        table_id=doc["table_id"],
        filer_id=doc["filer_id"],
        period=date.fromisoformat(doc["period"]),
        is_amendment=bool(doc.get("is_amendment", False)),
        amends=doc.get("amends"),
        fields=dict(doc.get("fields", {})),
    )


class CorpusStore:
    """Immutable-after-load collection of filing records plus the registry.

    Lookups are deterministic: records keep insertion order and every index
    is derived from that order. Safe for concurrent readers once built.
    """

    def __init__(self, registry: SchemaRegistry):
        self.registry = registry
        self.records: list[FilingRecord] = []
        self.by_record_id: dict[str, FilingRecord] = {}
        self.by_accession: dict[str, list[FilingRecord]] = {}

    def add(self, record: FilingRecord) -> None:
        validate_record(record, self.registry)
        if record.record_id in self.by_record_id:
            raise SchemaError(f"duplicate record_id: {record.record_id}")
        self.records.append(record)
        self.by_record_id[record.record_id] = record
        self.by_accession.setdefault(record.accession_id, []).append(record)

    def __len__(self) -> int:
        return len(self.records)

    def accession_meta(self, accession_id: str) -> tuple[FilingType, str]:
        """(filing_type, filer_id) of an accession, from its first record."""
        first = self.by_accession[accession_id][0]
        return first.filing_type, first.filer_id

    def check_amendment_links(self) -> list[str]:
        """Return problems with amends targets that are present in the store.

        Dangling targets are not reported here; reconciliation treats those
        as hard errors.
        """
        problems = []
        for acc, records in self.by_accession.items():
            first = records[0]
            if first.amends is None or first.amends not in self.by_accession:
                continue
            target_type, target_filer = self.accession_meta(first.amends)
            if target_type is not first.filing_type or target_filer != first.filer_id:
                problems.append(
                    f"accession {acc} amends {first.amends} of a different filing_type or filer"
                )
        return problems


@dataclass
class Rejection:
    line_no: int
    reason: str


@dataclass
class IngestResult:
    store: CorpusStore
    rejections: list[Rejection] = field(default_factory=list)


def ingest_jsonl(path: str | Path, registry: SchemaRegistry) -> IngestResult:
    """Load a JSONL corpus file, reporting invalid lines by line number."""
    path = Path(path)
    store = CorpusStore(registry)
    rejections: list[Rejection] = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                rejections.append(Rejection(line_no, f"invalid JSON: {exc.msg}"))
                continue
            if line_no == 1 and isinstance(doc, dict) and doc.get("kind") == META_KIND:
                continue
            try:
                record = record_from_dict(doc)
            except (KeyError, ValueError, SchemaError) as exc:
                msg = str(exc) or exc.__class__.__name__
                if isinstance(exc, KeyError):
                    msg = f"missing field {exc}"
                if isinstance(exc, SchemaError) and "amends must be present" in msg:
                    msg = "amendment without target"
                rejections.append(Rejection(line_no, msg))
                continue
            try:
                store.add(record)
            except SchemaError as exc:
                rejections.append(Rejection(line_no, str(exc)))
    for problem in store.check_amendment_links():
        rejections.append(Rejection(0, problem))
    return IngestResult(store=store, rejections=rejections)


def export_jsonl(store: CorpusStore, path: str | Path) -> None:
    """Write the store as JSONL with a leading registry-version meta line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        meta = {"kind": META_KIND, "registry_version": store.registry.version, "records": len(store)}
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for record in store.records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")


def build_store(records: Iterable[FilingRecord], registry: SchemaRegistry) -> CorpusStore:
    store = CorpusStore(registry)
    for record in records:
        store.add(record)
    return store


def to_embedding_text(record: FilingRecord) -> str:
    """Canonical embedding text for one record.

    JSON-style rendering with keys sorted ascending and null-valued fields
    omitted. The text is a pure function of (table_id, non-null fields), so
    equal rows of the same table always render identically.
    """
    kept = {k: v for k, v in record.fields.items() if v is not None}
    return json.dumps({"fields": kept, "table": record.table_id}, sort_keys=True)
