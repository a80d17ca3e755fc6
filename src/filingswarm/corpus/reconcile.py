"""Amendment reconciliation: resolve every amendment chain to its terminal filing.

Chains are keyed by explicit ``amends`` links. For each chain only the
terminal amendment's records are visible; originals with no amendment pass
through unchanged. Dangling links and cyclic chains are hard errors. If two
amendments target the same accession the chain branches; the branch with the
greatest accession_id wins, which keeps the view deterministic.
"""
from __future__ import annotations

from typing import Any

from .records import CorpusStore, FilingRecord


class ReconciliationError(ValueError):
    pass


class ReconciledView:
    """Effective records after amendment reconciliation.

    Immutable; safe for concurrent readers. ``records`` preserves the store's
    insertion order restricted to visible accessions. The equality posting
    lists of ``eq_index`` are built on first use and cached.
    """

    def __init__(self, store: CorpusStore, visible_accessions: set[str]):
        self.store = store
        self.registry = store.registry
        self.visible_accessions = frozenset(visible_accessions)
        self.records: list[FilingRecord] = [
            r for r in store.records if r.accession_id in self.visible_accessions
        ]
        self.by_record_id = {r.record_id: r for r in self.records}
        self.by_table: dict[str, list[FilingRecord]] = {}
        for r in self.records:
            self.by_table.setdefault(r.table_id, []).append(r)
        self._eq_index: dict[tuple[str, str], dict[Any, list[FilingRecord]]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def table_records(self, table_id: str) -> list[FilingRecord]:
        return self.by_table.get(table_id, [])

    def eq_index(self, table_id: str, field: str) -> dict[Any, list[FilingRecord]]:
        """Map from each value of ``field`` to the table's records holding it,
        in table order. A missing field is keyed as None; records whose value
        is unhashable are left out, so look up only hashable values."""
        key = (table_id, field)
        index = self._eq_index.get(key)
        if index is None:
            index = {}
            for r in self.table_records(table_id):
                try:
                    index.setdefault(r.fields.get(field), []).append(r)
                except TypeError:
                    continue
            # Published whole by one assignment: a concurrent first caller
            # either sees nothing and builds an equal map, or sees this one.
            self._eq_index[key] = index
        return index

    def __contains__(self, record_id: str) -> bool:
        return record_id in self.by_record_id

    def check_key_uniqueness(self) -> list[str]:
        """Return violations of the visible-record key-uniqueness invariant."""
        seen: dict[tuple, str] = {}
        problems = []
        for r in self.records:
            schema = self.registry.table(r.table_id)
            key = (
                r.filing_type,
                r.filer_id,
                r.period,
                r.table_id,
                tuple(_hashable(r.fields.get(k)) for k in schema.key_fields),
            )
            if key in seen:
                problems.append(f"records {seen[key]} and {r.record_id} share key {key[4]}")
            else:
                seen[key] = r.record_id
        return problems


def _hashable(value):
    return tuple(value) if isinstance(value, list) else value


def reconcile(store: CorpusStore) -> ReconciledView:
    """Build the effective record view with terminal-of-chain semantics."""
    amends_of: dict[str, str] = {}
    amended_by: dict[str, list[str]] = {}
    for acc, records in store.by_accession.items():
        target = records[0].amends
        if target is None:
            continue
        if target not in store.by_accession:
            raise ReconciliationError(f"accession {acc} amends missing accession {target}")
        amends_of[acc] = target
        amended_by.setdefault(target, []).append(acc)

    # Cycle check: follow amends pointers from every amendment.
    for start in amends_of:
        seen = {start}
        node = start
        while node in amends_of:
            node = amends_of[node]
            if node in seen:
                raise ReconciliationError(f"cyclic amendment chain through accession {node}")
            seen.add(node)

    visible: set[str] = set()
    for acc in store.by_accession:
        if acc in amends_of:
            continue  # chain members are resolved from their root
        node = acc
        while node in amended_by:
            node = max(amended_by[node])
        visible.add(node)
    return ReconciledView(store, visible)
