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
from typing import Any, Iterable, Sequence

from .schema import FilingType, SchemaError, SchemaRegistry, parse_iso_date

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
    order."""
    return FilingRecord(
        record_id=_string(doc, "record_id"),
        accession_id=_string(doc, "accession_id"),
        filing_type=FilingType.parse(_string(doc, "filing_type")),
        table_id=_string(doc, "table_id"),
        filer_id=_string(doc, "filer_id"),
        period=parse_iso_date(_string(doc, "period")),
        is_amendment=_typed("is_amendment", doc.get("is_amendment", False), bool,
                            "a boolean"),
        amends=_typed("amends", doc.get("amends"), (str, type(None)), "a string or null"),
        fields=dict(_typed("fields", doc.get("fields", {}), dict, "an object")),
    )


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
                record = record_from_dict(doc)
            except (KeyError, ValueError, SchemaError) as exc:
                msg = str(exc) or exc.__class__.__name__
                if isinstance(exc, KeyError):
                    msg = f"missing field {exc}"
                if isinstance(exc, SchemaError) and "amends must be present" in msg:
                    msg = ("amendment without target" if doc.get("is_amendment")
                           else f"amends {doc['amends']!r} on a record that is not an amendment")
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
# has the same settings and is shared (encode keeps no state between calls).
_TEXT_ENCODER = json.JSONEncoder(sort_keys=True)


def to_embedding_text(record: FilingRecord) -> str:
    """Canonical embedding text for one record.

    JSON-style rendering with keys sorted ascending and null-valued fields
    omitted, exactly as ``json.dumps(..., sort_keys=True)`` renders it. The
    text is a pure function of (table_id, non-null fields), so equal rows of
    the same table always render identically.
    """
    kept = {k: v for k, v in record.fields.items() if v is not None}
    return _TEXT_ENCODER.encode({"fields": kept, "table": record.table_id})


def embedding_text_rows(records: Sequence[FilingRecord],
                        joiner: str) -> tuple[str, int, list[int]]:
    """Rows whose tokens add up to each record's ``to_embedding_text``:
    each record's values, and each distinct key layout once. Returns the
    rows joined by ``joiner``, their count, and ``owners``.

    Row i < len(records) is record i's non-null field values as a JSON
    array. The rows after them are one frame per distinct pair of table and
    non-null keys, in order of first use: ``{"fields": [keys...], "table":
    table_id}``, which holds the keys and the ``fields``, ``table`` and
    table-id tokens. ``owners[i]`` is the row of record i's frame. A token
    is a run of letters and digits, so none spans a quote, a bracket, a
    brace or ", ", and each key or value renders alike in an array and in
    an object. So each record's text has exactly the tokens of its value
    row and its frame row, in another order.

    The value rows come from one encode of all the records' arrays, whose
    ``], [`` between two records becomes ``]`` + joiner + ``[``. The
    pattern cannot overlap itself, so when the encoding holds it exactly
    len(records) - 1 times, those are the record boundaries. Otherwise a
    value holds it (a string, or two adjacent lists), and the arrays are
    encoded one by one. ``joiner`` should hold a control character, which
    JSON escapes, so that no row holds the joiner.

    A value row is built as a tuple, which JSON renders as it renders a
    list. The cyclic GC stops tracking a tuple of atomic values at its
    first collection, so a chunk's rows are not promoted to an older
    generation while they live, and embedding a large corpus triggers no
    full collection.
    """
    first_frame = len(records)
    values: list[tuple] = []
    frames: dict[tuple[str, tuple[str, ...]], int] = {}
    owners: list[int] = []
    for record in records:
        fields = record.fields
        if None in fields.values():
            fields = {k: v for k, v in fields.items() if v is not None}
        values.append(tuple(fields.values()))
        owners.append(frames.setdefault((record.table_id, tuple(fields)),
                                        first_frame + len(frames)))
    encoded = _TEXT_ENCODER.encode(values)
    if encoded.count("], [") == len(values) - 1:
        body = encoded[1:-1].replace("], [", f"]{joiner}[")
    else:
        body = joiner.join(map(_TEXT_ENCODER.encode, values))
    rows = [body] + [_TEXT_ENCODER.encode({"fields": list(keys), "table": table_id})
                     for table_id, keys in frames]
    return joiner.join(rows), first_frame + len(frames), owners
