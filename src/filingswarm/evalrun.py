"""Evaluation harness: answer judging, ablations, ceilings, and reports.

Three studies mirror the system's three claims. The retrieval ablation
measures R-Precision of a flat index at global, per-filing, and per-table
scope. The routing ablation scores each strategy's (agent, table)
assignments. The agentic study runs the full pipeline per question and
judges the final answer. Reports come out as machine JSON and as markdown
tables; both are pure functions of their inputs, so reruns are
byte-identical. With a memory and more than one worker, the journal's
lines follow completion order, and two different texts that screen to one
text may race for its plan.

GoldProvider answers every prompt perfectly from benchmark gold, which
makes ceiling fixtures recordable: any run that scores below 100% with
fixtures recorded here is losing accuracy in its own machinery.
"""
from __future__ import annotations

import json
import numbers
import threading
from collections.abc import Iterator, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corpus.reconcile import ReconciledView
from .corpus.schema import FilingType, SchemaRegistry
from .gateway.prompts import CANNOT_PLAN, REFUSAL, parse_prompt
from .gateway.providers import RecordingProvider
from .gateway.types import ChatRequest, FixtureMissError, GatewayError
from .pipeline import LongTermMemory, run_pipeline
from .plans import Answer, ListValue, Scalar, TableValue, plan_to_json
from .questbench import TEMPLATES, QuestionInstance, canonical_plan
from .routing import (
    STRATEGIES,
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
    HashFeatureEmbedder,
    IndexScope,
    MappingEmbedder,
    SCOPE_KINDS,
    build_index,
    build_text_index,
    knn,
    r_precision,
    scope_positions,
    to_embedding_text,
)

DIFFICULTIES = ("easy", "hard", "overall")
VARIANTS = ("templated", "variegated", "both")


# ---------------------------------------------------------------------------
# Judging

# A number matches gold within REL_TOL of the gold value, or within ABS_TOL
# when the gold value is near zero.
REL_TOL = 1e-6
ABS_TOL = 1e-9


def _scalar_close(produced: float, gold: float) -> bool:
    return abs(produced - gold) <= max(ABS_TOL, REL_TOL * abs(gold))


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _cell_key(value) -> tuple:
    if value is None:
        return (0, "")
    if _is_number(value):
        return (1, f"{float(value):.9g}")
    return (2, str(value))


def _cell_close(produced, gold) -> bool:
    if _is_number(produced) and _is_number(gold):
        return _scalar_close(float(produced), float(gold))
    return produced == gold


def judge_success(produced: Answer | None, gold: Answer) -> bool:
    """Answer-level success: tolerant on floats, order-free on lists and
    tables, strict on answer type."""
    if produced is None or type(produced) is not type(gold):
        return False
    if isinstance(gold, Scalar):
        return _scalar_close(produced.value, gold.value)
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
            if not _cell_close(pcell, gcell):
                return False
    return True


# ---------------------------------------------------------------------------
# Retrieval ablation

@dataclass(frozen=True)
class RetrievalUnit:
    """One retrieval measurement: a question aimed at one of its gold
    tables, scored against the relevant records that live in that table."""
    instance_index: int
    route: Route
    query_text: str
    relevant: frozenset[str]


def _unit_query_text(instance: QuestionInstance, route: Route) -> str:
    return f"{instance.text} Focus on table {route.table}."


def retrieval_units(instances: list[QuestionInstance],
                    view: ReconciledView) -> list[RetrievalUnit]:
    units = []
    for idx, instance in enumerate(instances):
        for route in instance.gold_routes:
            relevant = frozenset(
                rid for rid in instance.relevant_record_ids
                if rid in view.by_record_id
                and view.by_record_id[rid].table_id == route.table)
            if not relevant:
                continue
            units.append(RetrievalUnit(
                instance_index=idx,
                route=route,
                query_text=_unit_query_text(instance, route),
                relevant=relevant))
    return units


def _scope_for(unit: RetrievalUnit, kind: str) -> IndexScope:
    if kind == "global":
        return IndexScope.global_()
    if kind == "agent":
        return IndexScope.agent(unit.route.agent)
    return IndexScope.table(unit.route.table)


def run_retrieval_ablation(instances: list[QuestionInstance], view: ReconciledView,
                           embedder, registry: SchemaRegistry) -> dict:
    """R-Precision per scope level, split by filing and aggregated.

    Every record is embedded once, for the global index. A narrower scope's
    index selects its rows from it and lives only while its units are
    ranked, all in one ``knn`` call at the largest R among them: a top-R
    list is a prefix of any longer one under the (distance, id) order."""
    units = retrieval_units(instances, view)
    whole = build_index(view, IndexScope.global_(), embedder)
    positions = scope_positions(view)
    texts = list(dict.fromkeys(unit.query_text for unit in units))
    row_of = {text: row for row, text in enumerate(texts)}
    query_vecs = embedder.embed_batch(texts) if texts else None

    scopes_out: dict[str, dict] = {}
    for kind in SCOPE_KINDS:
        groups: dict[IndexScope, list[int]] = {}
        for i, unit in enumerate(units):
            groups.setdefault(_scope_for(unit, kind), []).append(i)
        scores = [0.0] * len(units)
        for scope, members in groups.items():
            # a selected index is dropped as soon as its group is ranked
            ranked = knn(whole if kind == "global" else whole.select(scope, positions[scope]),
                         query_vecs[[row_of[units[i].query_text] for i in members]],
                         max(len(units[i].relevant) for i in members))
            for i, hits in zip(members, ranked):
                scores[i] = r_precision([rid for rid, _ in hits], units[i].relevant)
        by_filing: dict[str, list[float]] = {}
        for unit, score in zip(units, scores):
            by_filing.setdefault(unit.route.agent.value, []).append(score)
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
    they are relevant to; everything else is banished to a distant sink.
    It sets the retrieval ceiling that the ablation's scores are read
    against, the twin of ``build_oracle_route_embedder``."""
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
            if not axes:
                continue
            vec = np.zeros(dim, dtype=np.float64)
            for axis in axes:
                vec[axis] = 1.0
            mapping[to_embedding_text(record)] = (vec / np.linalg.norm(vec)).astype(np.float32)

    sink = np.zeros(dim, dtype=np.float32)
    sink[0] = 1e3
    return MappingEmbedder(dim, mapping, default=sink)


# ---------------------------------------------------------------------------
# Routing ablation

def _instance_difficulty(instance: QuestionInstance) -> str:
    return TEMPLATES[instance.template_id].difficulty


def _splits(instances: list[QuestionInstance], items: list, cell) -> dict[str, dict]:
    """``cell`` of the items, one per instance, that fall in each difficulty
    and variant split; a split with no instance is left out."""
    splits: dict[str, dict] = {}
    for difficulty in DIFFICULTIES:
        for variant in VARIANTS:
            subset = [item for item, instance in zip(items, instances)
                      if difficulty in ("overall", _instance_difficulty(instance))
                      and variant in ("both", instance.variant)]
            if subset:
                splits.setdefault(difficulty, {})[variant] = cell(subset)
    return splits


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
                         registry: SchemaRegistry, provider=None, embedder=None,
                         swarm_config: SwarmConfig | None = None,
                         partial_credit: str = "fractional") -> dict:
    """Route every instance with one strategy; score split by difficulty
    and by templated/variegated. The embedding strategy builds its persona
    and table-description indexes from ``embedder``. An unknown strategy, or
    one without its embedder or provider, raises ``ValueError`` up front."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "embedding":
        if embedder is None:
            raise ValueError("embedding strategy needs an embedder")
        persona_index, table_indexes = build_routing_indexes(registry, embedder)
    elif provider is None:
        raise ValueError(f"{strategy} strategy needs a provider")
    outcomes: list[tuple[RoutingOutcome, list[Route]]] = []
    for instance in instances:
        n = len(instance.gold_routes)
        try:
            if strategy == "embedding":
                outcome = route_embedding(instance.text, persona_index,
                                          table_indexes, embedder, n_routes=n)
            elif strategy == "generative":
                outcome = route_generative(instance.text, provider, registry, n_routes=n)
            else:
                outcome = route_swarm(instance.text, provider, registry,
                                      swarm_config or SwarmConfig(), n_routes=n)
        except GatewayError:
            outcome = RoutingOutcome((), strategy, (), unroutable=True)
        outcomes.append((outcome, list(instance.gold_routes)))

    scores = _splits(instances, outcomes, lambda pairs: score_routing(pairs, partial_credit))
    splits = {
        difficulty: {variant: routing_score_to_dict(
            score, confusion=difficulty == "overall" and variant == "both")
            for variant, score in row.items()}
        for difficulty, row in scores.items()}
    return {
        "kind": "routing",
        "strategy": strategy,
        "partial_credit": partial_credit,
        "n_instances": len(instances),
        "splits": splits,
    }


def build_routing_indexes(registry: SchemaRegistry, embedder) -> tuple[FlatIndex, dict[str, FlatIndex]]:
    """The persona index, at global scope, and each agent's
    table-description index, at that agent's scope."""
    persona = build_text_index(
        ((ft.value, registry.profile(ft).persona) for ft in FilingType), embedder)
    tables = {ft.value: build_text_index(
        ((schema.table_id, schema.description) for schema in registry.tables_for(ft)),
        embedder, scope=IndexScope.agent(ft)) for ft in FilingType}
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

    def __init__(self, instances: list[QuestionInstance], view: ReconciledView):
        self.view = view
        self._by_text: dict[str, QuestionInstance] = {}
        for instance in instances:
            self._by_text.setdefault(LongTermMemory.normalize(instance.text), instance)
            self._by_text.setdefault(LongTermMemory.normalize(instance.base_text), instance)

    def _lookup(self, query: str) -> QuestionInstance | None:
        return self._by_text.get(LongTermMemory.normalize(query))

    def complete(self, request: ChatRequest) -> str:
        prompt = parse_prompt(request.last_user_content())
        query = prompt.queries[0] if prompt.queries else ""
        return self._dispatch(request.tag, query, prompt.covered, prompt.draft_plan)

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
                return CANNOT_PLAN
            return plan_to_json(canonical_plan(instance, self.view))
        return draft if draft else CANNOT_PLAN  # replan


def build_perfect_fixtures(instances: list[QuestionInstance], view: ReconciledView,
                           registry: SchemaRegistry,
                           swarm_config: SwarmConfig | None = None) -> RecordingProvider:
    """Record gold transcripts for every flow so a ScriptedProvider can
    replay them. Returns the recorder; save_fixtures() serializes it."""
    recorder = RecordingProvider(GoldProvider(instances, view))
    config = swarm_config or SwarmConfig()
    search = _expert_search(view, registry)
    for instance in instances:
        n = len(instance.gold_routes)
        route_generative(instance.text, recorder, registry, n_routes=n)
        route_swarm(instance.text, recorder, registry, config, n_routes=n)
        run_pipeline(instance.text, recorder, view, registry, **search)
    return recorder


# ---------------------------------------------------------------------------
# Agentic study

class _ExpertIndexes(Mapping):
    """Table id -> the table-scope index of the view's records of that
    table, for every registered table. A table's index is built on its
    first lookup, under a lock, so each is built once however many threads
    ask, and a table that no expert searches is never embedded."""

    def __init__(self, view: ReconciledView, table_ids: list[str], embedder):
        self._view = view
        self._embedder = embedder
        self._table_ids = dict.fromkeys(table_ids)
        self._built: dict[str, FlatIndex] = {}
        self._lock = threading.Lock()

    def __getitem__(self, table_id: str) -> FlatIndex:
        index = self._built.get(table_id)
        if index is None:
            if table_id not in self._table_ids:
                raise KeyError(table_id)
            with self._lock:
                index = self._built.get(table_id)
                if index is None:
                    index = build_index(self._view, IndexScope.table(table_id),
                                        self._embedder)
                    self._built[table_id] = index
        return index

    def __iter__(self) -> Iterator[str]:
        return iter(self._table_ids)

    def __len__(self) -> int:
        return len(self._table_ids)


def build_expert_indexes(view: ReconciledView, registry: SchemaRegistry,
                         embedder) -> Mapping[str, FlatIndex]:
    """One table-scope index per registered table, keyed by table id: a
    read-only mapping that builds each index on its first lookup."""
    return _ExpertIndexes(view, [schema.table_id for schema in registry.all_tables()],
                          embedder)


def _expert_search(view: ReconciledView, registry: SchemaRegistry) -> dict:
    """What the experts of every agentic run search: 64-dim hash table indexes."""
    embedder = HashFeatureEmbedder()
    return {"table_indexes": build_expert_indexes(view, registry, embedder),
            "embedder": embedder}


def _success_cell(records: list[dict]) -> dict:
    n = len(records)
    wins = sum(1 for r in records if r["success"])
    return {"success_rate": (wins / n) if n else 0.0, "n": n, "wins": wins}


def run_agentic(instances: list[QuestionInstance], gateway, view: ReconciledView,
                registry: SchemaRegistry, memory: LongTermMemory | None = None,
                workers: int = 1) -> dict:
    """Full pipeline per question; errors are failures, never aborts.
    The experts search the table indexes of ``build_expert_indexes``, so
    only the tables they search are embedded.
    With more than one worker, every ask of one memory key runs in one task,
    in benchmark order, so a repeat finds the plan its earlier ask stored."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    search = _expert_search(view, registry)

    def evaluate(item: tuple[int, QuestionInstance]) -> dict:
        idx, instance = item
        status = "failed"
        success = False
        error = None
        from_memory = False
        try:
            result = run_pipeline(instance.text, gateway, view, registry, memory=memory, **search)
            status = result.status
            from_memory = result.from_memory
            error = result.error
            if result.status == "answered":
                success = judge_success(result.answer, instance.gold_answer)
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
        asks: dict[str, list[tuple[int, QuestionInstance]]] = {}
        for item in items:
            asks.setdefault(LongTermMemory.normalize(item[1].text), []).append(item)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = pool.map(lambda group: [evaluate(item) for item in group],
                              asks.values())
            records = sorted((record for group in groups for record in group),
                             key=lambda record: record["instance_index"])

    splits = _splits(instances, records, _success_cell)

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
        rendered = "\n\n".join(render_routing_markdown(s) for s in report["routing"])
        parts.append("## Routing strategies\n\n" + rendered)
    if "agentic" in report:
        parts.append("## Agentic question answering\n\n"
                     + render_agentic_markdown(report["agentic"]))
    return "\n\n".join(parts) + "\n"
