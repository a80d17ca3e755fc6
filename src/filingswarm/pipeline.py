"""Query pipeline: screen, decompose, draft, investigate, revise, execute.

A query is first screened (with a bounded rewrite loop for queries that look
unanswerable as phrased), then split into sub-queries, drafted into a plan,
enriched by per-filing expert findings, revised, and finally executed against
a reconciled corpus view. Long-term memory short-circuits planning for
queries seen before.
"""
from __future__ import annotations

import json
import logging
import os
import re
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus.reconcile import ReconciledView
from .corpus.schema import FilingType, SchemaRegistry
from .gateway.prompts import (
    build_decompose_request,
    build_plan_request,
    build_replan_request,
    build_rewrite_request,
)
from .gateway.providers import classify_quality
from .gateway.types import ChatRequest, FixtureMissError, GatewayError
from .plans import (
    Answer,
    ExecutionError,
    Filter,
    Plan,
    PlanError,
    Retrieve,
    Return,
    execute_plan,
    matching_records,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    validate_plan,
)
from .routing import route_generative
from .vindex import FlatIndex, knn

log = logging.getLogger(__name__)

_RE_PERIOD = re.compile(r"period\s+(\d{4}-\d{2}-\d{2})")


@dataclass(frozen=True)
class Query:
    text: str
    origin: str  # user | rewritten
    lineage: tuple[str, ...]  # oldest first, current text last

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("query text must be non-empty")
        if self.origin not in ("user", "rewritten"):
            raise ValueError(f"bad origin {self.origin!r}")
        if not self.lineage or self.lineage[-1] != self.text:
            raise ValueError("lineage must end with the current text")


@dataclass(frozen=True)
class ScreenResult:
    query: Query
    verdict: str  # non_hallucinatory | hallucinatory
    confidence: float
    rewrites: int


@dataclass(frozen=True)
class SubQuery:
    index: int
    text: str


@dataclass(frozen=True)
class SubQuerySet:
    parent: Query
    subqueries: tuple[SubQuery, ...]

    def texts(self) -> list[str]:
        return [sq.text for sq in self.subqueries]


def screen_query(text: str, gateway, max_rewrites: int = 2) -> ScreenResult:
    """Classify the query; rewrite and reclassify while it looks
    hallucination-prone, at most max_rewrites times."""
    if max_rewrites < 0:
        raise ValueError("max_rewrites must be >= 0")
    lineage = [text]
    current = text
    rewrites = 0
    while True:
        verdict = classify_quality(gateway, current)
        if verdict["label"] == "non_hallucinatory" or rewrites >= max_rewrites:
            origin = "user" if rewrites == 0 else "rewritten"
            query = Query(current, origin, tuple(lineage))
            return ScreenResult(query, verdict["label"], verdict["confidence"], rewrites)
        rewritten = gateway.complete(build_rewrite_request(current)).content.strip()
        if not rewritten or rewritten == current:
            # a no-op rewrite would loop forever; accept the verdict as is
            query = Query(current, "user" if rewrites == 0 else "rewritten",
                          tuple(lineage))
            return ScreenResult(query, verdict["label"], verdict["confidence"], rewrites)
        current = rewritten
        lineage.append(current)
        rewrites += 1


def decompose(query: Query, gateway) -> SubQuerySet:
    """Split a query into retrieval-sized sub-queries, first line first."""
    content = gateway.complete(build_decompose_request(query.text)).content
    texts = []
    for line in content.splitlines():
        line = line.strip()
        if line.startswith("- "):
            line = line[2:].strip()
        if line:
            texts.append(line)
    if not texts:
        log.warning("decomposition came back empty; using the query itself")
        texts = [query.text]
    subqueries = tuple(SubQuery(i, t) for i, t in enumerate(texts))
    return SubQuerySet(query, subqueries)


class LongTermMemory:
    """Query-text-keyed plan store. Keys are case- and whitespace-insensitive.
    With a path, every store appends a JSON line; loading keeps the last
    entry per key, and compact() rewrites the file to one line per key.

    A final line without its newline that does not parse is what a crash
    mid-append leaves: loading cuts it from the journal and counts it in
    ``torn_lines``. A bad line anywhere else raises ValueError."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._plans: dict[str, Plan] = {}
        self._lock = threading.Lock()
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
            plan = self._plans.get(self.normalize(text))
        if plan is None:
            return None
        return replace(plan, provenance="memory")

    def store(self, text: str, plan: Plan) -> None:
        key = self.normalize(text)
        stored = replace(plan, provenance="memory")
        with self._lock:
            self._plans[key] = stored
            if self.path is not None:
                doc = {"key": key, "plan": plan_to_dict(stored)}
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(doc, sort_keys=True) + "\n")

    def compact(self) -> None:
        with self._lock:
            if self.path is None:
                return
            # Written beside the journal and renamed over it, so a crash
            # leaves either the old journal or the new one.
            tmp = self.path.with_name(self.path.name + ".compact")
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    for key in sorted(self._plans):
                        doc = {"key": key, "plan": plan_to_dict(self._plans[key])}
                        fh.write(json.dumps(doc, sort_keys=True) + "\n")
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
    from_memory: bool
    attempts: int  # planning completions consumed
    fallback: bool


def _parse_plan_reply(content: str, registry: SchemaRegistry) -> Plan:
    content = content.strip()
    if not content or content.upper().startswith("CANNOT PLAN"):
        raise PlanError("planner declined")
    plan = plan_from_json(content)
    validate_plan(plan, registry)
    return plan


def _fallback_plan(query: Query, gateway, registry: SchemaRegistry) -> Plan:
    """Single retrieve at the generatively routed table. Wrong answers beat
    no answers here; the judge will score it."""
    outcome = route_generative(query.text, gateway, registry)
    if outcome.unroutable or not outcome.predicted:
        raise PlanError("planning failed and the query is unroutable")
    route = outcome.predicted[0]
    filters = ()
    m = _RE_PERIOD.search(query.text)
    if m:
        filters = (Filter("period", "eq", m.group(1)),)
    plan = Plan((
        Retrieve("r1", route.agent, route.table, filters),
        Return("ret", "r1")))
    validate_plan(plan, registry)
    return plan


def draft_plan(subqueries: SubQuerySet, gateway, registry: SchemaRegistry,
               memory: LongTermMemory | None = None) -> DraftResult:
    """Produce a validated draft plan: memory hit, then up to two planner
    completions, then the single-retrieve fallback."""
    parent = subqueries.parent
    if memory is not None:
        hit = memory.lookup(parent.text)
        if hit is not None:
            try:
                validate_plan(hit, registry)
            except PlanError:
                log.warning("memory plan no longer validates; replanning")
            else:
                return DraftResult(hit, True, 0, False)

    request = build_plan_request(subqueries.texts())
    attempts = 0
    last_error = ""
    for _ in range(2):
        try:
            content = gateway.complete(request).content
        except FixtureMissError:
            raise
        except GatewayError as exc:
            attempts += 1
            last_error = str(exc)
            break
        attempts += 1
        try:
            plan = _parse_plan_reply(content, registry)
        except (PlanError, ValueError) as exc:
            last_error = str(exc)
            request = ChatRequest(
                system_prompt=request.system_prompt,
                messages=request.messages + (
                    ("assistant", content),
                    ("user", f"That plan was rejected ({exc}). Reply with only "
                             "a valid JSON step array.")),
                max_tokens=request.max_tokens,
                tag=request.tag)
            continue
        plan = replace(plan, provenance="draft", source_subquery=parent.text)
        return DraftResult(plan, False, attempts, False)

    log.warning("planner failed twice (%s); using fallback retrieve", last_error)
    plan = replace(_fallback_plan(parent, gateway, registry),
                   provenance="draft", source_subquery=parent.text)
    return DraftResult(plan, False, attempts, True)


@dataclass(frozen=True)
class Finding:
    agent: FilingType
    table_id: str
    step_id: str
    matched_record_count: int
    sample_record_ids: tuple[str, ...]  # at most 10
    field_coverage: tuple[tuple[str, float], ...]  # (field, non-null fraction)
    semantic_neighbor_ids: tuple[str, ...] = ()


def gather_swarm_intelligence(plan: Plan, view: ReconciledView,
                              registry: SchemaRegistry,
                              query_text: str | None = None,
                              table_indexes: dict[str, FlatIndex] | None = None,
                              embedder=None, k: int = 10) -> tuple[Finding, ...]:
    """Each filing expert named by the plan probes its own tables: how many
    records the draft filters actually match, which fields are populated,
    and (given a table index) what a semantic neighborhood search turns up."""
    findings = []
    query_vector = None  # embedded on the first indexed step, then reused
    for step in plan.steps:
        if not isinstance(step, Retrieve):
            continue
        matched = matching_records(view, step)
        schema = registry.table(step.table)
        coverage = []
        for field_name in schema.field_names:
            if matched:
                filled = sum(1 for r in matched if r.fields.get(field_name) is not None)
                coverage.append((field_name, round(filled / len(matched), 3)))
            else:
                coverage.append((field_name, 0.0))
        neighbors: tuple[str, ...] = ()
        if (table_indexes is not None and embedder is not None
                and query_text and step.table in table_indexes):
            if query_vector is None:
                query_vector = embedder.embed(query_text)
            index = table_indexes[step.table]
            hits = knn(index, query_vector, min(k, len(index.record_ids)))
            neighbors = tuple(record_id for record_id, _ in hits)
        findings.append(Finding(
            agent=step.agent,
            table_id=step.table,
            step_id=step.step_id,
            matched_record_count=len(matched),
            sample_record_ids=tuple(r.record_id for r in matched[:10]),
            field_coverage=tuple(coverage),
            semantic_neighbor_ids=neighbors))
    return tuple(findings)


def findings_to_lines(findings: tuple[Finding, ...]) -> list[str]:
    lines = []
    for f in findings:
        sparse = [name for name, frac in f.field_coverage if frac < 1.0]
        line = (f"{f.agent.value}/{f.table_id} step {f.step_id}: "
                f"{f.matched_record_count} records match")
        if sparse:
            line += f"; sparse fields: {', '.join(sparse[:3])}"
        if f.semantic_neighbor_ids:
            line += f"; {len(f.semantic_neighbor_ids)} semantic neighbors"
        lines.append(line)
    return lines


def revise_plan(query: Query, draft: Plan, findings: tuple[Finding, ...],
                gateway, registry: SchemaRegistry,
                memory: LongTermMemory | None = None) -> Plan:
    """One revision round over the draft given expert findings. An invalid
    revision keeps the draft. The surviving plan is committed to memory."""
    request = build_replan_request(query.text, plan_to_json(draft),
                                  findings_to_lines(findings))
    final = draft
    try:
        content = gateway.complete(request).content
    except FixtureMissError:
        raise
    except GatewayError as exc:
        log.warning("revision failed (%s); keeping draft", exc)
    else:
        try:
            revised = _parse_plan_reply(content, registry)
        except (PlanError, ValueError) as exc:
            log.warning("revised plan rejected (%s); keeping draft", exc)
        else:
            final = replace(revised, provenance="optimized",
                            source_subquery=draft.source_subquery)
    if memory is not None:
        memory.store(query.text, final)
    return final


@dataclass(frozen=True)
class PipelineConfig:
    max_rewrites: int = 2
    semantic_k: int = 10

    def __post_init__(self) -> None:
        if self.max_rewrites < 0:
            raise ValueError("max_rewrites must be >= 0")
        if self.semantic_k < 1:
            raise ValueError("semantic_k must be >= 1")


@dataclass(frozen=True)
class PipelineResult:
    status: str  # answered | rejected | failed
    screen: ScreenResult | None = None
    subqueries: SubQuerySet | None = None
    draft: Plan | None = None
    findings: tuple[Finding, ...] = ()
    final_plan: Plan | None = None
    answer: Answer | None = None
    error: str | None = None
    from_memory: bool = False


def run_pipeline(text: str, gateway, view: ReconciledView,
                 registry: SchemaRegistry,
                 memory: LongTermMemory | None = None,
                 config: PipelineConfig | None = None,
                 table_indexes: dict[str, FlatIndex] | None = None,
                 embedder=None) -> PipelineResult:
    """Full pass from raw query text to an executed answer."""
    config = config or PipelineConfig()
    try:
        screen = screen_query(text, gateway, config.max_rewrites)
        if screen.verdict != "non_hallucinatory":
            return PipelineResult(status="rejected", screen=screen,
                                  error="screened out as hallucination-prone")
        subqueries = decompose(screen.query, gateway)
        drafted = draft_plan(subqueries, gateway, registry, memory)
        if drafted.from_memory:
            findings: tuple[Finding, ...] = ()
            final = drafted.plan
        else:
            findings = gather_swarm_intelligence(
                drafted.plan, view, registry, query_text=screen.query.text,
                table_indexes=table_indexes, embedder=embedder,
                k=config.semantic_k)
            final = revise_plan(screen.query, drafted.plan, findings,
                                gateway, registry, memory)
        answer = execute_plan(final, view, registry)
    except FixtureMissError:
        raise
    except (GatewayError, PlanError, ExecutionError) as exc:
        return PipelineResult(status="failed", error=f"{type(exc).__name__}: {exc}")
    return PipelineResult(status="answered", screen=screen, subqueries=subqueries,
                          draft=drafted.plan, findings=findings, final_plan=final,
                          answer=answer, from_memory=drafted.from_memory)
