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
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable

from .schema import FilingType, SchemaError, SchemaRegistry, parse_iso_date

META_KIND = "corpus_meta"


@dataclass(frozen=True, slots=True)
class FilingRecord:
    """One row of one filing table.

    ``record_id`` is globally unique; ``accession_id`` identifies the filing
    document the row came from. Amendment rows carry ``is_amendment=True`` and
    ``amends`` pointing at the superseded accession.

    The attributes live in slots, with no instance ``__dict__``: a corpus
    holds one record per row, and the dict cost each record about 48 bytes.
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
        if self.is_amendment and self.amends is None:
            raise SchemaError("amendment without target")
        if not self.is_amendment and self.amends is not None:
            raise SchemaError(f"amends {self.amends!r} on a record that is not an amendment")


def validate_record(record: FilingRecord, registry: SchemaRegistry) -> None:
    """Check a record's fields against its table schema."""
    schema = registry.table(record.table_id)
    if schema.filing_type is not record.filing_type:
        raise SchemaError(
            f"record {record.record_id}: table {record.table_id} belongs to "
            f"{schema.filing_type.name}, not {record.filing_type.name}"
        )
    schema.check_fields(record.record_id, record.fields)
    for key in schema.key_fields:
        if record.fields.get(key) is None:
            raise SchemaError(f"record {record.record_id}: key field {key!r} is null")
    # When the schema carries an explicit period column it must agree with the
    # record-level reporting period.
    if "period" in schema.field_name_set:
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
    """The record a JSON object describes. A missing key raises KeyError and
    a value of the wrong JSON type raises SchemaError, checked in argument
    order. ``doc`` is left as it is: the record holds a copy of its
    ``fields``."""
    return _record(doc, {}.setdefault, parse_iso_date)


def _record(doc: dict, share: Callable[[Any, Any], Any],
            period: Callable[[str], date]) -> FilingRecord:
    """``record_from_dict``, taking each field key and string field value,
    the accession, table and filer ids and ``amends`` from ``share`` (a
    memo's ``setdefault``), so the records built with one memo hold one copy
    of each repeated string. ``record_id`` is unique, so it is not shared.
    ``period`` parses the period string as ``parse_iso_date`` does; a
    memoized one gives the records of one period string one ``date``."""
    return FilingRecord(
        record_id=_string(doc, "record_id"),
        accession_id=_shared(share, _string(doc, "accession_id")),
        filing_type=FilingType.parse(_string(doc, "filing_type")),
        table_id=_shared(share, _string(doc, "table_id")),
        filer_id=_shared(share, _string(doc, "filer_id")),
        period=period(_string(doc, "period")),
        is_amendment=_typed("is_amendment", doc.get("is_amendment", False), bool,
                            "a boolean"),
        amends=_shared(share, _typed("amends", doc.get("amends"), (str, type(None)),
                                     "a string or null")),
        fields={share(k, k): share(v, v) if type(v) is str else v
                for k, v in _typed("fields", doc.get("fields", {}), dict,
                                   "an object").items()},
    )


def _shared(share: Callable[[Any, Any], Any], value: Any) -> Any:
    return share(value, value)


def _string(doc: dict, name: str) -> str:
    value = doc[name]
    if not isinstance(value, str):
        raise SchemaError(f"{name} must be a string, got {value!r}")
    return value


def _typed(name: str, value: Any, kind, expected: str) -> Any:
    if not isinstance(value, kind):
        raise SchemaError(f"{name} must be {expected}, got {value!r}")
    return value


class CorpusStore:
    """Immutable-after-load collection of filing records plus the registry.

    Lookups are deterministic: records keep insertion order and every index
    is derived from that order. The records of one accession share its
    filing type and amendment target. Safe for concurrent readers once
    built.
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
        peers = self.by_accession.setdefault(record.accession_id, [])
        if peers and (peers[0].filing_type is not record.filing_type
                      or peers[0].amends != record.amends):
            raise SchemaError(f"record {record.record_id}: filing_type or amends differs "
                              f"from the first record of accession {record.accession_id}")
        self.records.append(record)
        self.by_record_id[record.record_id] = record
        peers.append(record)

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
    """Load a JSONL corpus file, reporting invalid lines by line number.

    The records this call builds share one copy of each repeated string
    (field names, string field values, accession, table and filer ids and
    amendment targets) through one memo, and one ``date`` per distinct
    period string, which is parsed once, through another. Both memos are
    dropped when the call returns. Each record equals ``record_from_dict``
    of its line's object.
    """
    path = Path(path)
    store = CorpusStore(registry)
    rejections: list[Rejection] = []
    share = {}.setdefault
    # a string that does not parse raises, so it is never cached
    period = cache(parse_iso_date)
    # surrogateescape decodes each byte that is not UTF-8 to a lone surrogate,
    # which valid UTF-8 never yields; only a non-ASCII line can hold one.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    rejections.append(Rejection(line_no, "not valid UTF-8"))
                    continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                rejections.append(Rejection(line_no, f"invalid JSON: {exc.msg}"))
                continue
            if not isinstance(doc, dict):
                rejections.append(Rejection(line_no, "not a JSON object"))
                continue
            if line_no == 1 and doc.get("kind") == META_KIND:
                continue
            try:
                record = _record(doc, share, period)
            except (KeyError, ValueError, SchemaError) as exc:
                msg = str(exc) or exc.__class__.__name__
                if isinstance(exc, KeyError):
                    msg = f"missing field {exc}"
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


# json.dumps(..., sort_keys=True) builds an encoder on every call; this one
# has the same settings and is shared, with vindex too (encode keeps no
# state between calls).
TEXT_ENCODER = json.JSONEncoder(sort_keys=True)


def to_embedding_text(record: FilingRecord) -> str:
    """Canonical embedding text for one record: every record vector's.

    JSON-style rendering with keys sorted ascending and null-valued fields
    omitted, exactly as ``json.dumps(..., sort_keys=True)`` renders it. The
    text is a pure function of (table_id, non-null fields), so equal rows of
    the same table always render identically.
    """
    kept = {k: v for k, v in record.fields.items() if v is not None}
    return TEXT_ENCODER.encode({"fields": kept, "table": record.table_id})
