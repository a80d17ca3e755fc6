"""Query pipeline: screen, decompose, draft, investigate, revise, execute.

A query is first screened (with a bounded rewrite loop for queries that look
unanswerable as phrased), then split into sub-queries, drafted into a plan,
enriched by per-filing expert findings, revised, and finally executed against
a reconciled corpus view. Long-term memory short-circuits planning for
queries seen before. Stages hand each other plain text, and a result field
that other fields determine (a rewrite count, a memory hit) is a property.
"""
from __future__ import annotations

import json
import logging
import os
import re
import threading
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .corpus.reconcile import ReconciledView
from .corpus.schema import SchemaRegistry
from .gateway.prompts import (
    build_classify_request,
    build_decompose_request,
    build_plan_request,
    build_plan_retry,
    build_replan_request,
    build_rewrite_request,
    read_plan_reply,
    read_subqueries,
    read_verdict,
)
from .gateway.types import GatewayError
from .plans import (
    Answer,
    ExecutionError,
    Filter,
    Plan,
    PlanError,
    Retrieve,
    Return,
    execute_plan,
    plan_from_dict,
    plan_from_json,
    plan_to_json,
    select_records,
    validate_plan,
)
from .routing import route_generative
from .vindex import FlatIndex, knn

log = logging.getLogger(__name__)

_RE_PERIOD = re.compile(r"period\s+(\d{4}-\d{2}-\d{2})")


@dataclass(frozen=True)
class ScreenResult:
    lineage: tuple[str, ...]  # the user's text first, the screened text last
    verdict: str  # non_hallucinatory | hallucinatory
    confidence: float

    @property
    def text(self) -> str:
        return self.lineage[-1]

    @property
    def rewrites(self) -> int:
        return len(self.lineage) - 1


def screen_query(text: str, gateway, max_rewrites: int = 2) -> ScreenResult:
    """Classify the query; rewrite and reclassify while it looks
    hallucination-prone, at most max_rewrites times."""
    if max_rewrites < 0:
        raise ValueError("max_rewrites must be >= 0")
    if not text.strip():
        raise ValueError("query must be non-empty")
    lineage = [text]
    while True:
        current = lineage[-1]
        label, confidence = read_verdict(gateway.complete(build_classify_request(current)))
        if label == "non_hallucinatory" or len(lineage) > max_rewrites:
            break
        rewritten = gateway.complete(build_rewrite_request(current)).strip()
        if not rewritten or rewritten == current:
            break  # a no-op rewrite would loop forever; accept the verdict as is
        lineage.append(rewritten)
    return ScreenResult(tuple(lineage), label, confidence)


def decompose(text: str, gateway) -> tuple[str, ...]:
    """Split a query into retrieval-sized sub-queries, first line first."""
    subqueries = read_subqueries(gateway.complete(build_decompose_request(text)))
    if not subqueries:
        log.warning("decomposition came back empty; using the query itself")
        return (text,)
    return tuple(subqueries)


def _journal_line(key: str, plan: Plan) -> str:
    """``json.dumps({"key": key, "plan": plan_to_dict(plan)}, sort_keys=True)``
    and a newline, from the plan's own JSON."""
    return '{"key": ' + json.dumps(key) + ', "plan": ' + plan_to_json(plan) + '}\n'


class LongTermMemory:
    """Query-text-keyed plan store. Keys are case- and whitespace-insensitive.
    With a path, every store appends a JSON line; loading keeps the last
    entry per key, and compact() rewrites the file to one line per key.
    The first store opens one append handle, flushed after each line. It
    closes when the memory is dropped, in a reference cycle too, and before
    compact() renames the new journal over it; the next store opens it again.

    A final line without its newline that does not parse is what a crash
    mid-append leaves: loading cuts it from the journal and counts it in
    ``torn_lines``. A bad line anywhere else raises ValueError."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._plans: dict[str, Plan] = {}
        self._lock = threading.Lock()
        self._journal = None  # the append handle, opened by the first store
        self._close_journal = None  # its finalizer
        self.torn_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            data = fh.read()
        lines = data.split(b"\n")
        tail = lines.pop()  # empty when the journal ends with a newline
        for lineno, line in enumerate(lines, 1):
            if line.strip():
                self._load_line(line, lineno)
        if not tail.strip():
            return
        try:
            json.loads(tail)
        except ValueError:  # JSONDecodeError, or UTF-8 cut mid-character
            self.torn_lines += 1
            os.truncate(self.path, len(data) - len(tail))
            return
        self._load_line(tail, len(lines) + 1)
        with open(self.path, "ab") as fh:  # so the next append starts a line
            fh.write(b"\n")

    def _load_line(self, line: bytes, lineno: int) -> None:
        try:
            doc = json.loads(line)
            self._plans[doc["key"]] = plan_from_dict(doc["plan"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"memory journal {self.path} line {lineno} is corrupt: {exc!r}") from exc

    @staticmethod
    def normalize(text: str) -> str:
        return " ".join(text.lower().split())

    def lookup(self, text: str) -> Plan | None:
        with self._lock:
            return self._plans.get(self.normalize(text))

    def store(self, text: str, plan: Plan) -> None:
        key = self.normalize(text)
        with self._lock:
            self._plans[key] = plan
            if self.path is not None:
                if self._journal is None:
                    self._journal = open(self.path, "a", encoding="utf-8")
                    self._close_journal = weakref.finalize(self, self._journal.close)
                self._journal.write(_journal_line(key, plan))
                self._journal.flush()

    def compact(self) -> None:
        with self._lock:
            if self.path is None:
                return
            # The next store appends to the file renamed over the journal.
            if self._journal is not None:
                self._close_journal()
                self._journal = None
            # Written beside the journal and renamed over it, so a crash
            # leaves either the old journal or the new one.
            tmp = self.path.with_name(self.path.name + ".compact")
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    for key in sorted(self._plans):
                        fh.write(_journal_line(key, self._plans[key]))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


@dataclass(frozen=True)
class DraftResult:
    plan: Plan
    attempts: int  # planning completions consumed; only a memory hit spends none
    fallback: bool

    @property
    def from_memory(self) -> bool:
        return self.attempts == 0


def _validate(plan: Plan, registry: SchemaRegistry) -> Plan:
    """The plan, once it passes validate_plan; a plan that already passed
    against this registry object is not validated again, the rule
    execute_plan applies."""
    if not plan.passed_against(registry):
        validate_plan(plan, registry)
    return plan


def _fallback_plan(text: str, gateway, registry: SchemaRegistry) -> Plan:
    """A validated draft: a single retrieve at the generatively routed table.
    Wrong answers beat no answers here; the judge will score it."""
    outcome = route_generative(text, gateway, registry)
    if outcome.unroutable or not outcome.predicted:
        raise PlanError("planning failed and the query is unroutable")
    route = outcome.predicted[0]
    filters = ()
    m = _RE_PERIOD.search(text)
    if m:
        filters = (Filter("period", "eq", m.group(1)),)
    return _validate(Plan((Retrieve("r1", route.agent, route.table, filters),
                           Return("ret", "r1"))), registry)


def draft_plan(text: str, subqueries: tuple[str, ...], gateway,
               registry: SchemaRegistry,
               memory: LongTermMemory | None = None) -> DraftResult:
    """Produce a validated draft plan for the query ``text``: memory hit,
    then up to two planner completions over its sub-queries, then the
    single-retrieve fallback."""
    if memory is not None:
        hit = memory.lookup(text)
        if hit is not None:
            try:
                _validate(hit, registry)
            except PlanError:
                log.warning("memory plan no longer validates; replanning")
            else:
                return DraftResult(hit, 0, False)

    request = build_plan_request(subqueries)
    for attempts in (1, 2):
        try:
            content = gateway.complete(request)
        except GatewayError as exc:
            last_error = str(exc)
            break
        try:
            plan = _validate(plan_from_json(read_plan_reply(content)), registry)
        except (PlanError, ValueError) as exc:
            last_error = str(exc)
            request = build_plan_retry(request, content, exc)
            continue
        return DraftResult(plan, attempts, False)

    log.warning("planner failed after %d attempt(s) (%s); using fallback retrieve",
                attempts, last_error)
    return DraftResult(_fallback_plan(text, gateway, registry), attempts, True)


def _emptying_filter(view: ReconciledView, step: Retrieve) -> Filter | None:
    """The first filter of a step that matches nothing after which no rows
    remain, found by matching ever longer prefixes of its filters."""
    if not view.table_records(step.table):
        return None
    for n in range(1, len(step.filters)):
        if not select_records(view, replace(step, filters=step.filters[:n])):
            return step.filters[n - 1]
    return step.filters[-1]


def _neighbor_values(view: ReconciledView, record_ids, field: str) -> tuple[Any, ...]:
    values: list[Any] = []
    for record_id in record_ids:
        record = view.by_record_id.get(record_id)
        value = None if record is None else record.fields.get(field)
        if value is not None and value not in values:
            values.append(value)
            if len(values) == 3:
                break
    return tuple(values)


def gather_swarm_intelligence(plan: Plan, view: ReconciledView,
                              registry: SchemaRegistry,
                              query_text: str | None = None,
                              table_indexes: dict[str, FlatIndex] | None = None,
                              embedder=None, k: int = 10) -> tuple[str, ...]:
    """Each filing expert named by the plan probes its own tables and
    writes one finding line per retrieve step: the text the reviser reads.

    A step that matches records says how many, then names the first three
    fields that some of them leave null (a non-null share below 1 at three
    decimals). A step that matches none names the filter that empties its
    selection and, given a table index, which values of that filter's field
    the query's k semantic neighbors hold: what the filter missed. Only such
    a step searches the index, and the query is embedded at most once per
    call."""
    lines = []
    query_vector = None
    for step in plan.steps:
        if not isinstance(step, Retrieve):
            continue
        matched = select_records(view, step)
        line = (f"{step.agent.value}/{step.table} step {step.step_id}: "
                f"{len(matched)} records match")
        if matched:
            sparse = [name for name in registry.table(step.table).field_names
                      if round(matched.filled(name) / len(matched), 3) < 1.0]
            if sparse:
                line += f"; sparse fields: {', '.join(sparse[:3])}"
        elif (emptying := _emptying_filter(view, step)) is not None:
            line += f"; no rows remain after {emptying.field} {emptying.op} {emptying.value!r}"
            index = (table_indexes or {}).get(step.table)
            if index is not None and len(index) and embedder is not None and query_text:
                if query_vector is None:
                    query_vector = embedder.embed(query_text)
                hits = knn(index, query_vector, min(k, len(index)))
                values = _neighbor_values(view, (record_id for record_id, _ in hits),
                                          emptying.field)
                if values:
                    line += (f"; nearest records have {emptying.field} "
                             f"{', '.join(map(repr, values))}")
        lines.append(line)
    return tuple(lines)


def revise_plan(text: str, draft: Plan, findings: Sequence[str],
                gateway, registry: SchemaRegistry,
                memory: LongTermMemory | None = None) -> Plan:
    """One revision round over the draft given the experts' finding lines,
    which the replan request carries as they are. An invalid revision keeps
    the draft. A reply that is the draft's own JSON keeps the draft's steps
    without decoding them. The surviving plan is committed to memory."""
    draft_json = plan_to_json(draft)
    request = build_replan_request(text, draft_json, findings)
    final = draft
    try:
        content = gateway.complete(request)
    except GatewayError as exc:
        log.warning("revision failed (%s); keeping draft", exc)
    else:
        try:
            reply = read_plan_reply(content)
            proposed = draft if reply == draft_json else plan_from_json(reply)
            final = _validate(proposed, registry)
        except (PlanError, ValueError) as exc:
            log.warning("revised plan rejected (%s); keeping draft", exc)
    if memory is not None:
        memory.store(text, final)
    return final


@dataclass(frozen=True)
class PipelineResult:
    status: str  # answered | rejected | failed
    screen: ScreenResult | None = None
    subqueries: tuple[str, ...] | None = None
    draft: Plan | None = None
    findings: tuple[str, ...] = ()  # the finding lines the reviser read
    final_plan: Plan | None = None
    answer: Answer | None = None
    error: str | None = None
    attempts: int = 0  # planning completions the draft consumed
    fallback: bool = False  # the draft is the single-retrieve fallback

    @property
    def from_memory(self) -> bool:
        """The draft came from long-term memory."""
        return self.draft is not None and self.attempts == 0

    @property
    def revised(self) -> bool:
        """The final plan's steps differ from the draft's."""
        return self.final_plan is not None and self.final_plan.steps != self.draft.steps


def run_pipeline(text: str, gateway, view: ReconciledView,
                 registry: SchemaRegistry,
                 memory: LongTermMemory | None = None,
                 table_indexes: dict[str, FlatIndex] | None = None,
                 embedder=None) -> PipelineResult:
    """Full pass from raw query text to an executed answer."""
    try:
        screen = screen_query(text, gateway)
    except (GatewayError, ValueError) as exc:  # ValueError: a blank query
        return PipelineResult(status="failed", error=f"{type(exc).__name__}: {exc}")
    if screen.verdict != "non_hallucinatory":
        return PipelineResult(status="rejected", screen=screen,
                              error="screened out as hallucination-prone")
    query = screen.text
    # What the stages have produced so far; a failed result keeps it too.
    reached: dict = {"screen": screen}
    try:
        subqueries = reached["subqueries"] = decompose(query, gateway)
        drafted = draft_plan(query, subqueries, gateway, registry, memory)
        reached.update(draft=drafted.plan, attempts=drafted.attempts,
                       fallback=drafted.fallback)
        final = drafted.plan
        if not drafted.from_memory:
            reached["findings"] = gather_swarm_intelligence(
                drafted.plan, view, registry, query_text=query,
                table_indexes=table_indexes, embedder=embedder)
            final = revise_plan(query, drafted.plan, reached["findings"],
                                gateway, registry, memory)
        reached["final_plan"] = final
        answer = execute_plan(final, view, registry)
    except (GatewayError, PlanError, ExecutionError) as exc:
        return PipelineResult(status="failed", error=f"{type(exc).__name__}: {exc}",
                              **reached)
    return PipelineResult(status="answered", answer=answer, **reached)
