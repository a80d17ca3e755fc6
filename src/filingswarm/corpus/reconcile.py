"""Amendment reconciliation: resolve every amendment chain to its terminal filing.

Chains are keyed by explicit ``amends`` links. For each chain only the
terminal amendment's records are visible; originals with no amendment pass
through unchanged. Dangling links and cyclic chains are hard errors. If two
amendments target the same accession the chain branches; the branch with the
greatest accession_id wins, which keeps the view deterministic.
"""
from __future__ import annotations

import threading
from typing import Any, Callable, Hashable, Sized, TypeVar

from .records import CorpusStore, FilingRecord
from .schema import SchemaRegistry


class ReconciliationError(ValueError):
    pass


_Held = TypeVar("_Held", bound=Sized)


class ReconciledView:
    """Effective records after amendment reconciliation.

    Immutable; safe for concurrent readers. ``records`` are the visible
    records in store order; no store is kept. Two caches fill on first
    use and never need invalidating, because the records never
    change: the equality posting lists of ``eq_index``, and ``memo``, which
    keeps derived results such as the plan executor's retrieve selections.
    """

    def __init__(self, registry: SchemaRegistry, records: list[FilingRecord]):
        self.registry = registry
        self.records = records
        self.by_record_id = {r.record_id: r for r in self.records}
        self.by_table: dict[str, list[FilingRecord]] = {}
        for r in self.records:
            self.by_table.setdefault(r.table_id, []).append(r)
        self._eq_index: dict[tuple[str, str], dict[Any, list[FilingRecord]]] = {}
        self._memo: dict[Hashable, Sized] = {}
        self._memo_used = 0
        self._memo_admit = threading.Lock()

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

    def memo(self, key: Hashable, build: Callable[[], _Held]) -> _Held:
        """``build()``, kept under ``key`` so later calls return the same value.

        A value costs one slot plus one per item it holds (``len``), and the
        memo admits values while the slots in use stay within the view's
        record count; past that, ``build()`` runs on every miss. A hit takes
        no lock: each value is published whole by one dict assignment. Only
        admission locks, to keep the slot count exact, so a concurrent first
        caller may build a value that is then dropped for the admitted one."""
        value = self._memo.get(key)
        if value is not None:
            return value
        value = build()
        cost = 1 + len(value)
        with self._memo_admit:
            held = self._memo.get(key)
            if held is not None:
                return held
            if self._memo_used + cost <= len(self.records):
                self._memo_used += cost
                self._memo[key] = value
        return value

    def __contains__(self, record_id: str) -> bool:
        return record_id in self.by_record_id

    def check_key_uniqueness(self) -> list[str]:
        """Return violations of the visible-record key-uniqueness invariant:
        the check that a generated or ingested corpus keeps one visible row
        per table key, which the corpus tests run on generated corpora."""
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
    return ReconciledView(store.registry,
                          [r for r in store.records if r.accession_id in visible])
