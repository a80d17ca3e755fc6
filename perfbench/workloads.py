"""The three benchmark workloads, one per study of the paper.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one has returned. Inputs are generated by
``generate_inputs`` in a process of their own and read back from files by
``Workload.setup``, the way the command line tool reads them.

- agentic-qa: one op is one ``run_pipeline`` call. Plan execution and the
  investigate stage's retrieve scans dominate; a fifth of the questions are
  asked again, so the memory journal sees appends beside lookups.
- retrieval-study: one pass is one ``run_retrieval_ablation`` call, one op is
  one (unit, scope) query. vindex does nearly all the work; there is no
  gateway and no plan, so this is the control for plan and pipeline changes.
- routing-study: one op routes one question generatively, by the persona
  swarm and by embedding. The gateway dominates; knn only sees six-entry
  indexes, so this is the control for vindex and plans changes.
"""
from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from filingswarm import evalrun, pipeline, routing, vindex
from filingswarm.corpus import (
    export_jsonl,
    ingest_jsonl,
    load_default_registry,
    reconcile,
)
from filingswarm.corpus.synthetic import SyntheticConfig, generate_synthetic
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.pipeline import LongTermMemory, PipelineResult
from filingswarm.questbench import export_benchmark, generate_benchmark, load_benchmark
from filingswarm.routing import SwarmConfig
from filingswarm.vindex import HashFeatureEmbedder, IndexScope

from . import gates, layers
from .spans import Tracer

EMBED_DIM = 64
ROUTING_STRATEGIES = ("generative", "swarm", "embedding")


@dataclass(frozen=True)
class Sizes:
    records_per_table: int
    filers: int
    per_template: int
    variegate_n: int = 0


@dataclass
class PassResult:
    ops: int
    seconds: float  # timed work only; gates and judging are outside it
    latencies: list[float]  # one sample per op, or one per pass for a batch job
    outputs: Any
    traced: bool = False


@dataclass
class Verdict:
    """Gate results, accumulated pass by pass outside the timed regions."""
    failed: int = 0
    quality: float = 0.0
    routing_acc: dict[str, float] = field(default_factory=dict)
    reference: Any = None  # first pass's outputs, which later passes must repeat
    judged: int = 0
    wins: int = 0


def _seeded(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def _traced(tracer, obj, wrapper):
    return wrapper(tracer, obj) if isinstance(tracer, Tracer) else obj


def _read_order(in_dir: Path) -> dict:
    """The op order, and the number of ops per pass that it makes."""
    with open(in_dir / "order.json", encoding="utf-8") as fh:
        return json.load(fh)


def _load_view(in_dir: Path, registry, tracer):
    with tracer.span("corpus.ingest_jsonl"):
        ingested = ingest_jsonl(in_dir / "corpus.jsonl", registry)
    if ingested.rejections:
        raise RuntimeError(f"{len(ingested.rejections)} corpus lines rejected")
    with tracer.span("corpus.reconcile"):
        return reconcile(ingested.store)


def _load_questions(in_dir: Path, tracer):
    with tracer.span("questbench.load_benchmark"):
        return load_benchmark(in_dir / "bench.jsonl")


class Workload:
    name = ""
    why = ""
    sizes: Sizes
    needs_corpus = True
    # When set, the corpus and questions come from this seed and the run
    # seed only orders the ops, so quality is the same in every run.
    content_seed: int | None = None

    def order(self, n_questions: int, rng: random.Random) -> list[int]:
        order = list(range(n_questions))
        rng.shuffle(order)
        return order

    def ops_per_pass(self, instances: list, view, order: list[int]) -> int:
        return len(order)

    def setup(self, in_dir: Path, tracer):
        raise NotImplementedError

    def run_pass(self, state, tracer, number: int, now: Callable[[], float]) -> PassResult:
        """One pass over the op stream, timed with ``now``."""
        raise NotImplementedError

    def check_pass(self, state, pr: PassResult, verdict: Verdict, tracer) -> None:
        """Gate one pass's outputs into ``verdict``."""
        raise NotImplementedError

    def finish(self, state, verdict: Verdict, seed: int) -> None:
        """Gates that run once per run, after the last pass."""


def generate_inputs(workload: Workload, seed: int, sizes: Sizes, out_dir: Path) -> dict:
    """Write the workload's corpus, benchmark and op order for one seed and
    return its sizes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    content_seed = seed if workload.content_seed is None else workload.content_seed
    registry = load_default_registry()
    store = generate_synthetic(
        SyntheticConfig(records_per_table=sizes.records_per_table, filers=sizes.filers),
        seed=content_seed, registry=registry)
    view = reconcile(store)
    instances = generate_benchmark(
        view, per_template=sizes.per_template, seed=content_seed,
        gateway=DeterministicProvider() if sizes.variegate_n else None,
        variegate_n=sizes.variegate_n)
    if workload.needs_corpus:
        export_jsonl(store, out_dir / "corpus.jsonl")
    export_benchmark(instances, out_dir / "bench.jsonl")
    order = workload.order(len(instances), _seeded(seed, f"{workload.name}:order"))
    ops_per_pass = workload.ops_per_pass(instances, view, order)
    with open(out_dir / "order.json", "w", encoding="utf-8") as fh:
        json.dump({"order": order, "ops_per_pass": ops_per_pass}, fh)
    texts = [instances[i].text for i in order]
    return {"records": len(view.records), "questions": len(instances),
            "distinct_text_share": len(set(texts)) / len(texts),
            "ops_per_pass": ops_per_pass}


@dataclass
class AgenticState:
    registry: Any
    view: Any
    instances: list
    order: list[int]
    embedder: Any
    indexes: dict
    provider: Any
    journal: Path


class AgenticQA(Workload):
    name = "agentic-qa"
    why = ("Agentic study as a user sees it: 26,320 records, 550 questions then a "
           "fifth again, 660 ops/pass, about 77% distinct texts; plans dominate. "
           "Closed loop, 1 client.")
    sizes = Sizes(records_per_table=4000, filers=80, per_template=25, variegate_n=1)

    def order(self, n_questions: int, rng: random.Random) -> list[int]:
        first = super().order(n_questions, rng)
        return first + rng.sample(first, n_questions // 5)

    def setup(self, in_dir: Path, tracer) -> AgenticState:
        registry = load_default_registry()
        view = _load_view(in_dir, registry, tracer)
        instances = _load_questions(in_dir, tracer)
        embedder = HashFeatureEmbedder(EMBED_DIM)
        build_with = _traced(tracer, embedder, layers.TracedEmbedder)
        indexes = {schema.table_id: vindex.build_index(
                       view, IndexScope.table(schema.table_id), build_with)
                   for schema in registry.all_tables()}
        return AgenticState(registry, view, instances, _read_order(in_dir)["order"], embedder,
                            indexes, DeterministicProvider(), in_dir / "memory.jsonl")

    def run_pass(self, st: AgenticState, tracer, number: int,
                 now: Callable[[], float]) -> PassResult:
        st.journal.unlink(missing_ok=True)
        memory = _traced(tracer, LongTermMemory(st.journal), layers.trace_memory)
        provider = _traced(tracer, st.provider, layers.TracedProvider)
        embedder = _traced(tracer, st.embedder, layers.TracedEmbedder)
        results, latencies = [], []
        with tracer.span("pass"):
            for i, qi in enumerate(st.order):
                text = st.instances[qi].text
                with tracer.span("op", op=f"{number}:{i}"):
                    start = now()
                    try:
                        result = pipeline.run_pipeline(
                            text, provider, st.view, st.registry, memory=memory,
                            table_indexes=st.indexes, embedder=embedder)
                    except Exception as exc:  # noqa: BLE001 - a failed op is data
                        result = exc
                    latencies.append(now() - start)
                results.append(result)
        return PassResult(len(results), sum(latencies), latencies, results,
                          isinstance(tracer, Tracer))

    def check_pass(self, st: AgenticState, pr: PassResult, verdict: Verdict,
                   tracer) -> None:
        instances = [st.instances[qi] for qi in st.order]
        answered = [isinstance(r, PipelineResult) and r.status == "answered"
                    for r in pr.outputs]
        keys = [LongTermMemory.normalize(inst.text) for inst in instances]
        answers = [r.answer if ok else None for r, ok in zip(pr.outputs, answered)]
        mismatched = set(gates.repeat_mismatches(keys, answers))
        with tracer.span("evalrun.judge_success") if pr.traced else nullcontext():
            for pos, (inst, ok) in enumerate(zip(instances, answered)):
                verdict.judged += 1
                if not ok or pos in mismatched:
                    verdict.failed += 1
                    continue
                try:
                    won = evalrun.judge_success(answers[pos], inst.gold_answer)
                except Exception:  # noqa: BLE001 - a failed check is a failed op
                    verdict.failed += 1
                    continue
                verdict.wins += bool(won)
        verdict.quality = verdict.wins / verdict.judged


@dataclass
class RetrievalState:
    registry: Any
    view: Any
    instances: list
    ops_per_pass: int


class RetrievalStudy(Workload):
    name = "retrieval-study"
    why = ("Scope ablation as a user runs it: fixed 56,000-record corpus, 110 questions, "
           "480 ops/pass; vindex bound, no gateway or plans. Batch job, closed loop, "
           "1 client.")
    # Half the acceptance-test-10 corpus, from its seed: the global index
    # (14.3 MB as float32) is still far beyond L2. Its table-scope
    # R-Precision moves by a third between seeded corpora, too much for a
    # quality gate, so only the op order follows the run seed.
    sizes = Sizes(records_per_table=10000, filers=80, per_template=10)
    content_seed = 13
    gate_units = 4

    def ops_per_pass(self, instances: list, view, order: list[int]) -> int:
        return len(evalrun.retrieval_units(instances, view)) * len(evalrun.SCOPE_KINDS)

    def setup(self, in_dir: Path, tracer) -> RetrievalState:
        registry = load_default_registry()
        view = _load_view(in_dir, registry, tracer)
        instances = _load_questions(in_dir, tracer)
        order = _read_order(in_dir)
        return RetrievalState(registry, view, [instances[qi] for qi in order["order"]],
                              order["ops_per_pass"])

    def run_pass(self, st: RetrievalState, tracer, number: int,
                 now: Callable[[], float]) -> PassResult:
        # a fresh embedder per pass: each ablation run starts with a cold
        # token cache, as a command line run would
        embedder = _traced(tracer, HashFeatureEmbedder(EMBED_DIM), layers.TracedEmbedder)
        with tracer.span("pass", op=str(number)):
            start = now()
            try:
                report = evalrun.run_retrieval_ablation(
                    st.instances, st.view, embedder, st.registry)
            except Exception as exc:  # noqa: BLE001 - a failed pass is data
                report = exc
            seconds = now() - start
        # a pass that raised still attempted every op
        return PassResult(st.ops_per_pass, seconds, [seconds], report,
                          isinstance(tracer, Tracer))

    def check_pass(self, st: RetrievalState, pr: PassResult, verdict: Verdict,
                   tracer) -> None:
        if verdict.reference is None and isinstance(pr.outputs, dict):
            verdict.reference = pr.outputs
            verdict.quality = pr.outputs["scopes"]["table"]["overall"]["r_precision"]
        if pr.outputs != verdict.reference:
            verdict.failed += pr.ops

    def finish(self, st: RetrievalState, verdict: Verdict, seed: int) -> None:
        """knn against a naive scan for a seeded sample of unit queries at
        global scope and at one sampled agent and table scope."""
        try:
            units = evalrun.retrieval_units(st.instances, st.view)
        except Exception:  # noqa: BLE001 - a failed check is a failed op
            verdict.failed += self.gate_units
            return
        sample = _seeded(seed, "knn-gate").sample(units, min(self.gate_units, len(units)))
        if not sample:
            return
        embedder = HashFeatureEmbedder(EMBED_DIM)
        scopes = (IndexScope.global_(), IndexScope.agent(sample[0].route.agent),
                  IndexScope.table(sample[0].route.table))
        for scope in scopes:
            try:
                index = vindex.build_index(st.view, scope, embedder)
            except Exception:  # noqa: BLE001 - a failed check is a failed op
                verdict.failed += len(sample)
                continue
            for unit in sample:
                for k in sorted({min(len(unit.relevant), len(index)), min(10, len(index))}):
                    try:
                        query = embedder.embed(unit.query_text)
                        ok = gates.knn_matches_naive(index, query, k,
                                                     vindex.knn(index, query, k))
                    except Exception:  # noqa: BLE001 - a failed check is a failed op
                        ok = False
                    verdict.failed += not ok


@dataclass
class RoutingState:
    registry: Any
    instances: list
    order: list[int]
    embedder: Any
    persona_index: Any
    table_indexes: dict
    provider: Any
    swarm: SwarmConfig


class RoutingStudy(Workload):
    name = "routing-study"
    why = ("Routing strategies: 3,300 questions (74% distinct texts), 3,300 ops/pass, "
           "each routed generatively, by the swarm and by embedding; gateway bound. "
           "Closed loop, 1 client.")
    sizes = Sizes(records_per_table=4000, filers=80, per_template=100, variegate_n=2)
    needs_corpus = False

    def setup(self, in_dir: Path, tracer) -> RoutingState:
        registry = load_default_registry()
        instances = _load_questions(in_dir, tracer)
        embedder = HashFeatureEmbedder(EMBED_DIM)
        persona, tables = evalrun.build_routing_indexes(
            registry, _traced(tracer, embedder, layers.TracedEmbedder))
        return RoutingState(registry, instances, _read_order(in_dir)["order"], embedder,
                            persona, tables, DeterministicProvider(), SwarmConfig())

    def run_pass(self, st: RoutingState, tracer, number: int,
                 now: Callable[[], float]) -> PassResult:
        provider = _traced(tracer, st.provider, layers.TracedProvider)
        embedder = _traced(tracer, st.embedder, layers.TracedEmbedder)
        outcomes, latencies = [], []
        with tracer.span("pass"):
            for i, qi in enumerate(st.order):
                inst = st.instances[qi]
                n = len(inst.gold_routes)
                with tracer.span("op", op=f"{number}:{i}"):
                    start = now()
                    try:
                        outcome = (
                            routing.route_generative(inst.text, provider, st.registry,
                                                     n_routes=n),
                            routing.route_swarm(inst.text, provider, st.registry,
                                                st.swarm, n_routes=n),
                            routing.route_embedding(inst.text, st.persona_index,
                                                    st.table_indexes, embedder,
                                                    n_routes=n))
                    except Exception as exc:  # noqa: BLE001 - a failed op is data
                        outcome = exc
                    latencies.append(now() - start)
                outcomes.append(outcome)
        return PassResult(len(outcomes), sum(latencies), latencies, outcomes,
                          isinstance(tracer, Tracer))

    def check_pass(self, st: RoutingState, pr: PassResult, verdict: Verdict,
                   tracer) -> None:
        golds = [list(st.instances[qi].gold_routes) for qi in st.order]
        swarm = [None if isinstance(o, Exception) else o[1] for o in pr.outputs]
        first = verdict.reference is None
        if first:
            verdict.reference = swarm
        bad = set()
        scored = {strategy: [] for strategy in ROUTING_STRATEGIES}
        for pos, (outcome, gold) in enumerate(zip(pr.outputs, golds)):
            # swarm outcomes must repeat exactly across passes
            if swarm[pos] is None or swarm[pos] != verdict.reference[pos]:
                bad.add(pos)
                continue
            for strategy, routed in zip(ROUTING_STRATEGIES, outcome):
                scored[strategy].append((routed, gold))
        with tracer.span("evalrun.score_routing") if pr.traced else nullcontext():
            try:
                scores = {s: routing.score_routing(pairs) for s, pairs in scored.items()}
                identity = all(gates.routing_identity_holds(sc) for sc in scores.values())
            except Exception:  # noqa: BLE001 - a failed check is a failed op
                scores, identity = None, False
        if not identity:
            bad = set(range(pr.ops))
        verdict.failed += len(bad)
        if first and scores is not None:
            verdict.quality = scores["swarm"].acc_overall
            verdict.routing_acc = {s: sc.acc_overall for s, sc in scores.items()}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (AgenticQA(), RetrievalStudy(), RoutingStudy())}
