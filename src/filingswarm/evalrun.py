"""Evaluation harness: answer judging, ablations, ceilings, and reports.

Three studies mirror the system's three claims. The retrieval ablation
measures R-Precision of a flat index at global, per-filing, and per-table
scope. The routing ablation scores each strategy's (agent, table)
assignments. The agentic study runs the full pipeline per question and
judges the final answer. Reports come out as machine JSON and as markdown
tables; both are pure functions of their inputs, so reruns are
byte-identical.

GoldProvider answers every prompt perfectly from benchmark gold, which
makes ceiling fixtures recordable: any run that scores below 100% with
fixtures recorded here is losing accuracy in its own machinery.
"""
from __future__ import annotations

import json
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corpus.reconcile import ReconciledView
from .corpus.schema import FilingType, SchemaRegistry
from .gateway.deterministic import REFUSAL
from .gateway.providers import RecordingProvider
from .gateway.types import ChatRequest, ChatResponse, FixtureMissError, GatewayError
from .pipeline import LongTermMemory, PipelineConfig, run_pipeline
from .plans import Answer, ListValue, Scalar, TableValue, plan_to_json
from .questbench import TEMPLATES, QuestionInstance, canonical_plan
from .routing import (
    Route,
    RoutingOutcome,
    RoutingScore,
    SwarmConfig,
    route_embedding,
    route_generative,
    route_swarm,
    score_routing,
)
from .vindex import (
    FlatIndex,
    IndexScope,
    MappingEmbedder,
    build_index,
    build_persona_index,
    build_table_description_index,
    knn,
    r_precision,
    scope_positions,
    to_embedding_text,
)

SCOPE_KINDS = ("global", "agent", "table")
DIFFICULTIES = ("easy", "hard", "overall")
VARIANTS = ("templated", "variegated", "both")


# ---------------------------------------------------------------------------
# Judging

@dataclass(frozen=True)
class Tolerances:
    rel: float = 1e-6
    abs: float = 1e-9


def _scalar_close(produced: float, gold: float, tol: Tolerances) -> bool:
    return abs(produced - gold) <= max(tol.abs, tol.rel * abs(gold))


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _cell_key(value) -> tuple:
    if value is None:
        return (0, "")
    if _is_number(value):
        return (1, f"{float(value):.9g}")
    return (2, str(value))


def _cell_close(produced, gold, tol: Tolerances) -> bool:
    if _is_number(produced) and _is_number(gold):
        return _scalar_close(float(produced), float(gold), tol)
    return produced == gold


def judge_success(produced: Answer | None, gold: Answer,
                  tol: Tolerances = Tolerances()) -> bool:
    """Answer-level success: tolerant on floats, order-free on lists and
    tables, strict on answer type."""
    if produced is None or type(produced) is not type(gold):
        return False
    if isinstance(gold, Scalar):
        return _scalar_close(produced.value, gold.value, tol)
    if isinstance(gold, ListValue):
        return set(produced.values) == set(gold.values)
    assert isinstance(gold, TableValue)
    if set(produced.columns) != set(gold.columns):
        return False
    if len(produced.rows) != len(gold.rows):
        return False
    order = sorted(gold.columns)

    def canonical(table: TableValue) -> list[tuple]:
        pos = {c: i for i, c in enumerate(table.columns)}
        rows = [tuple(row[pos[c]] for c in order) for row in table.rows]
        return sorted(rows, key=lambda row: tuple(_cell_key(v) for v in row))

    for prow, grow in zip(canonical(produced), canonical(gold)):
        for pcell, gcell in zip(prow, grow):
            if not _cell_close(pcell, gcell, tol):
                return False
    return True


# ---------------------------------------------------------------------------
# Retrieval ablation

@dataclass(frozen=True)
class RetrievalUnit:
    """One retrieval measurement: a question aimed at one of its gold
    tables, scored against the relevant records that live in that table."""
    instance_index: int
    template_id: str
    difficulty: str
    route: Route
    query_text: str
    relevant: frozenset[str]


def _unit_query_text(instance: QuestionInstance, route: Route) -> str:
    return f"{instance.text} Focus on table {route.table}."


def retrieval_units(instances: list[QuestionInstance],
                    view: ReconciledView) -> list[RetrievalUnit]:
    table_of = {}
    for table_id in view.by_table:
        for record in view.table_records(table_id):
            table_of[record.record_id] = table_id
    units = []
    for idx, instance in enumerate(instances):
        for route in instance.gold_routes:
            relevant = frozenset(
                rid for rid in instance.relevant_record_ids
                if table_of.get(rid) == route.table)
            if not relevant:
                continue
            units.append(RetrievalUnit(
                instance_index=idx,
                template_id=instance.template_id,
                difficulty=TEMPLATES[instance.template_id].difficulty,
                route=route,
                query_text=_unit_query_text(instance, route),
                relevant=relevant))
    return units


def build_scope_indexes(view: ReconciledView, embedder, registry: SchemaRegistry,
                        kinds: tuple[str, ...] = SCOPE_KINDS) -> dict[str, FlatIndex]:
    """One flat index per scope label: 'global', 'agent:<filing>',
    'table:<table_id>'. Every record is embedded once, for the global
    index; the narrower scopes select their rows from it."""
    unknown = [kind for kind in kinds if kind not in SCOPE_KINDS]
    if unknown:
        raise ValueError(f"unknown scope kind {unknown[0]!r}")
    whole = build_index(view, IndexScope.global_(), embedder)
    positions = scope_positions(view)
    out: dict[str, FlatIndex] = {}
    for kind in kinds:
        if kind == "global":
            out[whole.scope.label()] = whole
        elif kind == "agent":
            for ft in FilingType:
                scope = IndexScope.agent(ft)
                out[scope.label()] = whole.select(scope, positions.get(scope, []))
        else:
            for schema in registry.all_tables():
                scope = IndexScope.table(schema.table_id)
                out[scope.label()] = whole.select(scope, positions.get(scope, []))
    return out


def _scope_label_for(unit: RetrievalUnit, kind: str) -> str:
    if kind == "global":
        return "global"
    if kind == "agent":
        return f"agent:{unit.route.agent.value}"
    return f"table:{unit.route.table}"


def run_retrieval_ablation(instances: list[QuestionInstance], view: ReconciledView,
                           embedder, registry: SchemaRegistry,
                           kinds: tuple[str, ...] = SCOPE_KINDS) -> dict:
    """R-Precision per scope level, split by filing and aggregated."""
    units = retrieval_units(instances, view)
    indexes = build_scope_indexes(view, embedder, registry, kinds)
    texts = list(dict.fromkeys(unit.query_text for unit in units))
    query_vecs = dict(zip(texts, embedder.embed_batch(texts))) if texts else {}

    scopes_out: dict[str, dict] = {}
    per_unit: dict[str, list[float]] = {}
    for kind in kinds:
        by_filing: dict[str, list[float]] = {}
        scores = []
        for unit in units:
            index = indexes[_scope_label_for(unit, kind)]
            r = len(unit.relevant)
            hits = knn(index, query_vecs[unit.query_text], min(r, len(index.record_ids)))
            score = r_precision([rid for rid, _ in hits], unit.relevant)
            scores.append(score)
            by_filing.setdefault(unit.route.agent.value, []).append(score)
        per_unit[kind] = scores
        scopes_out[kind] = {
            "per_filing": {
                filing: {"r_precision": float(np.mean(vals)), "units": len(vals)}
                for filing, vals in sorted(by_filing.items())},
            "overall": {"r_precision": float(np.mean(scores)) if scores else 0.0,
                        "units": len(scores)},
        }
    return {
        "kind": "retrieval",
        "embedder": getattr(embedder, "fingerprint", "unknown"),
        "n_instances": len(instances),
        "n_units": len(units),
        "scopes": scopes_out,
    }


def build_oracle_retrieval_embedder(units: list[RetrievalUnit],
                                    view: ReconciledView) -> MappingEmbedder:
    """Constructed embedder that puts every relevant record strictly nearer
    its unit's query than anything else, at every scope. Query texts get
    basis vectors; records get the normalized sum of the bases of the units
    they are relevant to; everything else is banished to a distant sink."""
    axis_of: dict[str, int] = {}
    for unit in units:
        if unit.query_text not in axis_of:
            axis_of[unit.query_text] = len(axis_of) + 1  # axis 0 is the sink
    dim = len(axis_of) + 1

    membership: dict[str, set[int]] = {}
    for unit in units:
        axis = axis_of[unit.query_text]
        for rid in unit.relevant:
            membership.setdefault(rid, set()).add(axis)

    mapping: dict[str, np.ndarray] = {}
    for text, axis in axis_of.items():
        vec = np.zeros(dim, dtype=np.float32)
        vec[axis] = 1.0
        mapping[text] = vec
    for table_id in view.by_table:
        for record in view.table_records(table_id):
            axes = membership.get(record.record_id)
            text = to_embedding_text(record)
            if not axes:
                continue
            vec = np.zeros(dim, dtype=np.float64)
            for axis in axes:
                vec[axis] = 1.0
            mapping[text] = (vec / np.linalg.norm(vec)).astype(np.float32)

    sink = np.zeros(dim, dtype=np.float32)
    sink[0] = 1e3
    return MappingEmbedder(dim, mapping, default=sink)


# ---------------------------------------------------------------------------
# Routing ablation

def _instance_difficulty(instance: QuestionInstance) -> str:
    return TEMPLATES[instance.template_id].difficulty


def routing_score_to_dict(score: RoutingScore, confusion: bool = False) -> dict:
    doc = {
        "acc_agent": score.acc_agent,
        "acc_table_given_agent": score.acc_table_given_agent,
        "acc_overall": score.acc_overall,
        "n_samples": score.n_samples,
        "n_units": score.n_units,
    }
    if confusion:
        doc["confusion"] = {g: dict(sorted(row.items()))
                            for g, row in sorted(score.confusion.items())}
    return doc


def run_routing_ablation(instances: list[QuestionInstance], strategy: str,
                         registry: SchemaRegistry, provider=None,
                         embedder=None, persona_index: FlatIndex | None = None,
                         table_desc_indexes: dict[str, FlatIndex] | None = None,
                         swarm_config: SwarmConfig | None = None,
                         partial_credit: str = "fractional") -> dict:
    """Route every instance with one strategy; score split by difficulty
    and by templated/variegated."""
    outcomes: list[tuple[RoutingOutcome, list[Route]]] = []
    for instance in instances:
        n = len(instance.gold_routes)
        try:
            if strategy == "embedding":
                if persona_index is None or table_desc_indexes is None or embedder is None:
                    raise ValueError("embedding strategy needs embedder and indexes")
                outcome = route_embedding(instance.text, persona_index,
                                          table_desc_indexes, embedder, n_routes=n)
            elif strategy == "generative":
                outcome = route_generative(instance.text, provider, registry, n_routes=n)
            elif strategy == "swarm":
                outcome = route_swarm(instance.text, provider, registry,
                                      swarm_config or SwarmConfig(), n_routes=n)
            else:
                raise ValueError(f"unknown strategy {strategy!r}")
        except FixtureMissError:
            raise
        except GatewayError:
            outcome = RoutingOutcome((), strategy, (), unroutable=True)
        outcomes.append((outcome, list(instance.gold_routes)))

    splits: dict[str, dict] = {}
    for difficulty in DIFFICULTIES:
        for variant in VARIANTS:
            subset = [
                pair for pair, instance in zip(outcomes, instances)
                if (difficulty == "overall"
                    or _instance_difficulty(instance) == difficulty)
                and (variant == "both" or instance.variant == variant)]
            if not subset:
                continue
            score = score_routing(subset, partial_credit)
            with_confusion = difficulty == "overall" and variant == "both"
            splits.setdefault(difficulty, {})[variant] = routing_score_to_dict(
                score, confusion=with_confusion)
    return {
        "kind": "routing",
        "strategy": strategy,
        "partial_credit": partial_credit,
        "n_instances": len(instances),
        "splits": splits,
    }


def build_routing_indexes(registry: SchemaRegistry, embedder) -> tuple[FlatIndex, dict[str, FlatIndex]]:
    persona = build_persona_index(registry, embedder)
    tables = {ft.value: build_table_description_index(registry, ft, embedder)
              for ft in FilingType}
    return persona, tables


def build_oracle_route_embedder(instances: list[QuestionInstance],
                                registry: SchemaRegistry) -> MappingEmbedder:
    """Embedder under which embedding routing is exact: personas and table
    descriptions get basis vectors, and each question lands nearest its gold
    agents and tables in gold order."""
    agents = list(FilingType)
    tables = [schema.table_id for schema in registry.all_tables()]
    dim = len(agents) + len(tables)
    agent_axis = {ft: i for i, ft in enumerate(agents)}
    table_axis = {t: len(agents) + j for j, t in enumerate(tables)}

    mapping: dict[str, np.ndarray] = {}
    for ft in agents:
        vec = np.zeros(dim, dtype=np.float32)
        vec[agent_axis[ft]] = 1.0
        mapping[registry.profile(ft).persona] = vec
    for schema in registry.all_tables():
        vec = np.zeros(dim, dtype=np.float32)
        vec[table_axis[schema.table_id]] = 1.0
        mapping[schema.description] = vec
    for instance in instances:
        vec = np.zeros(dim, dtype=np.float64)
        weight = 1.0
        for route in instance.gold_routes:
            vec[agent_axis[route.agent]] += weight
            vec[table_axis[route.table]] += weight
            weight *= 0.6
        arr = vec.astype(np.float32)
        mapping[instance.text] = arr
        mapping.setdefault(instance.base_text, arr)
    return MappingEmbedder(dim, mapping, default=np.zeros(dim, dtype=np.float32))


# ---------------------------------------------------------------------------
# Perfect provider and fixtures

class GoldProvider:
    """Answers every prompt perfectly from benchmark gold. Questions are
    recognized by text (normalized), including variegated rewrites."""

    provider_id = "gold"

    def __init__(self, instances: list[QuestionInstance], view: ReconciledView,
                 registry: SchemaRegistry):
        self.view = view
        self.registry = registry
        self._by_text: dict[str, QuestionInstance] = {}
        for instance in instances:
            self._by_text.setdefault(LongTermMemory.normalize(instance.text), instance)
            self._by_text.setdefault(LongTermMemory.normalize(instance.base_text), instance)

    def _lookup(self, query: str) -> QuestionInstance | None:
        return self._by_text.get(LongTermMemory.normalize(query))

    def complete(self, request: ChatRequest) -> ChatResponse:
        lines = request.last_user_content().splitlines()
        query = ""
        covered = 0
        draft = ""
        for line in lines:
            if line.startswith("QUERY: ") and not query:
                query = line[len("QUERY: "):]
            elif line.startswith("ALREADY: "):
                covered += 1
            elif line.startswith("DRAFT_PLAN: "):
                draft = line[len("DRAFT_PLAN: "):]
        content = self._dispatch(request.tag, query, covered, draft)
        return ChatResponse(content=content, provider_id=self.provider_id)

    def _dispatch(self, tag: str, query: str, covered: int, draft: str) -> str:
        if tag == "classify":
            return "non_hallucinatory 0.99"
        if tag in ("rewrite", "decompose", "variegate"):
            return query
        if tag in ("route_agent", "route_table"):
            instance = self._lookup(query)
            if instance is None or covered >= len(instance.gold_routes):
                return REFUSAL
            route = instance.gold_routes[covered]
            return route.agent.value if tag == "route_agent" else route.table
        if tag == "plan":
            instance = self._lookup(query)
            if instance is None:
                return "CANNOT PLAN"
            return plan_to_json(canonical_plan(instance, self.view))
        if tag == "replan":
            return draft if draft else "CANNOT PLAN"
        raise GatewayError(f"unknown tag {tag!r}")


def build_perfect_fixtures(instances: list[QuestionInstance], view: ReconciledView,
                           registry: SchemaRegistry,
                           swarm_config: SwarmConfig | None = None,
                           include: tuple[str, ...] = ("generative", "swarm", "agentic"),
                           ) -> RecordingProvider:
    """Record gold transcripts for every flow so a ScriptedProvider can
    replay them. Returns the recorder; save_fixtures() serializes it."""
    recorder = RecordingProvider(GoldProvider(instances, view, registry))
    config = swarm_config or SwarmConfig()
    for instance in instances:
        n = len(instance.gold_routes)
        if "generative" in include:
            route_generative(instance.text, recorder, registry, n_routes=n)
        if "swarm" in include:
            route_swarm(instance.text, recorder, registry, config, n_routes=n)
        if "agentic" in include:
            run_pipeline(instance.text, recorder, view, registry)
    return recorder


# ---------------------------------------------------------------------------
# Agentic study

def _success_cell(records: list[dict]) -> dict:
    n = len(records)
    wins = sum(1 for r in records if r["success"])
    return {"success_rate": (wins / n) if n else 0.0, "n": n, "wins": wins}


def run_agentic(instances: list[QuestionInstance], gateway, view: ReconciledView,
                registry: SchemaRegistry, memory: LongTermMemory | None = None,
                pipeline_config: PipelineConfig | None = None,
                tol: Tolerances = Tolerances(), workers: int = 1,
                table_indexes: dict[str, FlatIndex] | None = None,
                embedder=None) -> dict:
    """Full pipeline per question; errors are failures, never aborts."""
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def evaluate(item: tuple[int, QuestionInstance]) -> dict:
        idx, instance = item
        status = "failed"
        success = False
        error = None
        from_memory = False
        try:
            result = run_pipeline(instance.text, gateway, view, registry,
                                  memory=memory, config=pipeline_config,
                                  table_indexes=table_indexes, embedder=embedder)
            status = result.status
            from_memory = result.from_memory
            error = result.error
            if result.status == "answered":
                success = judge_success(result.answer, instance.gold_answer, tol)
        except FixtureMissError:
            raise
        except Exception as exc:  # noqa: BLE001 - per-instance errors are data
            error = f"{type(exc).__name__}: {exc}"
        return {
            "instance_index": idx,
            "template_id": instance.template_id,
            "difficulty": _instance_difficulty(instance),
            "variant": instance.variant,
            "agents": sorted({r.agent.value for r in instance.gold_routes}),
            "n_routes": len(instance.gold_routes),
            "status": status,
            "success": success,
            "from_memory": from_memory,
            "error": error,
        }

    items = list(enumerate(instances))
    if workers == 1:
        records = [evaluate(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(evaluate, items))

    splits: dict[str, dict] = {}
    for difficulty in DIFFICULTIES:
        for variant in VARIANTS:
            subset = [r for r in records
                      if (difficulty == "overall" or r["difficulty"] == difficulty)
                      and (variant == "both" or r["variant"] == variant)]
            if subset:
                splits.setdefault(difficulty, {})[variant] = _success_cell(subset)

    per_filing: dict[str, dict] = {}
    expanded_records: dict[str, list[dict]] = {}
    for record, instance in zip(records, instances):
        # one entry per gold route, so multi-filing questions count under
        # each filing they touch and the filing totals exceed the raw count
        for route in instance.gold_routes:
            expanded_records.setdefault(route.agent.value, []).append(record)
    for filing in sorted(expanded_records):
        per_filing[filing] = _success_cell(expanded_records[filing])

    return {
        "kind": "agentic",
        "n_instances": len(records),
        "n_expanded": sum(len(v) for v in expanded_records.values()),
        "splits": splits,
        "per_filing": per_filing,
        "records": records,
    }


# ---------------------------------------------------------------------------
# Reports

def _fmt_pct(value: float) -> str:
    return f"{100.0 * value:.1f}"


def render_retrieval_markdown(section: dict) -> str:
    filings = sorted({f for scope in section["scopes"].values()
                      for f in scope["per_filing"]})
    lines = ["| Scope | " + " | ".join(filings) + " | Overall |",
             "|" + "---|" * (len(filings) + 2)]
    for kind in SCOPE_KINDS:
        if kind not in section["scopes"]:
            continue
        scope = section["scopes"][kind]
        cells = []
        for filing in filings:
            entry = scope["per_filing"].get(filing)
            cells.append(_fmt_pct(entry["r_precision"]) if entry else "-")
        cells.append(_fmt_pct(scope["overall"]["r_precision"]))
        lines.append(f"| {kind} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render_routing_markdown(section: dict) -> str:
    lines = [f"Strategy: {section['strategy']}",
             "| Split | Variant | Agent | Table|Agent | Overall | N |",
             "|---|---|---|---|---|---|"]
    for difficulty in DIFFICULTIES:
        for variant in VARIANTS:
            cell = section["splits"].get(difficulty, {}).get(variant)
            if cell is None:
                continue
            lines.append(
                f"| {difficulty} | {variant} | {_fmt_pct(cell['acc_agent'])} | "
                f"{_fmt_pct(cell['acc_table_given_agent'])} | "
                f"{_fmt_pct(cell['acc_overall'])} | {cell['n_samples']} |")
    return "\n".join(lines)


def render_agentic_markdown(section: dict) -> str:
    lines = ["| Filing | Success | N |", "|---|---|---|"]
    for filing, cell in sorted(section["per_filing"].items()):
        lines.append(f"| {filing} | {_fmt_pct(cell['success_rate'])} | {cell['n']} |")
    lines.append("")
    lines.append("| Split | Templated | Variegated | Both |")
    lines.append("|---|---|---|---|")
    for difficulty in DIFFICULTIES:
        row = [difficulty.capitalize()]
        for variant in VARIANTS:
            cell = section["splits"].get(difficulty, {}).get(variant)
            row.append(_fmt_pct(cell["success_rate"]) if cell else "-")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(f"Questions: {section['n_instances']} "
                 f"(filing-expanded count {section['n_expanded']})")
    return "\n".join(lines)


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_markdown(report: dict) -> str:
    parts = []
    if "retrieval" in report:
        parts.append("## Retrieval scope ablation\n\n"
                     + render_retrieval_markdown(report["retrieval"]))
    if "routing" in report:
        routing = report["routing"]
        sections = routing if isinstance(routing, list) else [routing]
        rendered = "\n\n".join(render_routing_markdown(s) for s in sections)
        parts.append("## Routing strategies\n\n" + rendered)
    if "agentic" in report:
        parts.append("## Agentic question answering\n\n"
                     + render_agentic_markdown(report["agentic"]))
    return "\n\n".join(parts) + "\n"
