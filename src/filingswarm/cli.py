"""Command line front end. Every stage reads and writes plain files so runs
can be repeated, diffed, and resumed piecemeal.

    filingswarm corpus gen --records-per-table 500 --seed 7 --out corpus.jsonl
    filingswarm index build --corpus corpus.jsonl --scope table:nport_holdings --out idx.bin
    filingswarm bench gen --corpus corpus.jsonl --per-template 25 --variegate 2 --out bench.jsonl
    filingswarm retrieval run --corpus corpus.jsonl --bench bench.jsonl --out retrieval.json
    filingswarm route run --bench bench.jsonl --strategy gen --out routing.json
    filingswarm agentic run --corpus corpus.jsonl --bench bench.jsonl --out agentic.json
    filingswarm report --retrieval retrieval.json --routing routing.json \
        --agentic agentic.json --out report.md
"""
from __future__ import annotations

import argparse
import json
import sys

from .corpus.records import export_jsonl, ingest_jsonl
from .corpus.reconcile import reconcile
from .corpus.schema import load_default_registry
from .corpus.synthetic import SyntheticConfig, generate_synthetic
from .evalrun import (
    report_to_json,
    report_to_markdown,
    run_agentic,
    run_retrieval_ablation,
    run_routing_ablation,
)
from .gateway.deterministic import DeterministicProvider
from .gateway.providers import RemoteProvider, ScriptedProvider, load_fixtures
from .pipeline import LongTermMemory
from .questbench import export_benchmark, generate_benchmark, load_benchmark
from .routing import SwarmConfig
from .vindex import HashFeatureEmbedder, IndexScope, build_index, save_index

STRATEGY_NAMES = {"embed": "embedding", "gen": "generative", "swarm": "swarm"}


def _build_provider(args: argparse.Namespace):
    if args.provider == "det":
        return DeterministicProvider()
    if args.provider == "scripted":
        if not getattr(args, "fixtures", None):
            raise SystemExit("--fixtures is required with --provider scripted")
        return ScriptedProvider(load_fixtures(args.fixtures))
    if not getattr(args, "endpoint", None):
        raise SystemExit("--endpoint is required with --provider remote")
    return RemoteProvider(endpoint=args.endpoint, model=args.model)


def _load_view(path: str):
    registry = load_default_registry()
    result = ingest_jsonl(path, registry)
    if result.rejections:
        print(f"warning: {len(result.rejections)} rejected records",
              file=sys.stderr)
    return registry, reconcile(result.store)


def _cmd_corpus_gen(args: argparse.Namespace) -> int:
    config = SyntheticConfig(
        records_per_table=args.records_per_table,
        filers=args.filers,
        amendment_fraction=args.amendment_fraction)
    store = generate_synthetic(config, seed=args.seed)
    export_jsonl(store, args.out)
    print(f"wrote {len(store.records)} records to {args.out}")
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    _, view = _load_view(args.corpus)
    scope = IndexScope.parse(args.scope)
    embedder = HashFeatureEmbedder(args.dim)
    index = build_index(view, scope, embedder)
    save_index(index, args.out, embedder.fingerprint)
    print(f"wrote {len(index)} vectors (scope {scope.label()}, d={index.dim}) "
          f"to {args.out}")
    return 0


def _cmd_bench_gen(args: argparse.Namespace) -> int:
    _, view = _load_view(args.corpus)
    gateway = _build_provider(args) if args.variegate > 0 else None
    instances = generate_benchmark(view, per_template=args.per_template,
                                   seed=args.seed, gateway=gateway,
                                   variegate_n=args.variegate)
    export_benchmark(instances, args.out)
    n_base = sum(1 for i in instances if i.variant == "templated")
    print(f"wrote {len(instances)} questions ({n_base} templated) to {args.out}")
    return 0


def _cmd_retrieval_run(args: argparse.Namespace) -> int:
    registry, view = _load_view(args.corpus)
    instances = load_benchmark(args.bench)
    embedder = HashFeatureEmbedder(args.dim)
    section = run_retrieval_ablation(instances, view, embedder, registry)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(section))
    overall = {k: round(v["overall"]["r_precision"], 4)
               for k, v in section["scopes"].items()}
    print(f"wrote {args.out}  r-precision: {overall}")
    return 0


def _cmd_route_run(args: argparse.Namespace) -> int:
    registry = load_default_registry()
    instances = load_benchmark(args.bench)
    strategy = STRATEGY_NAMES[args.strategy]
    if strategy == "embedding":
        section = run_routing_ablation(
            instances, strategy, registry, embedder=HashFeatureEmbedder(args.dim),
            partial_credit=args.partial_credit)
    else:
        provider = _build_provider(args)
        section = run_routing_ablation(
            instances, strategy, registry, provider=provider,
            swarm_config=SwarmConfig(seed=args.seed),
            partial_credit=args.partial_credit)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(section))
    cell = section["splits"]["overall"]["both"]
    print(f"wrote {args.out}  overall acc={cell['acc_overall']:.4f} "
          f"(agent {cell['acc_agent']:.4f})")
    return 0


def _cmd_agentic_run(args: argparse.Namespace) -> int:
    registry, view = _load_view(args.corpus)
    instances = load_benchmark(args.bench)
    provider = _build_provider(args)
    memory = LongTermMemory(args.memory) if args.memory else None
    try:
        section = run_agentic(instances, provider, view, registry, memory=memory,
                              workers=args.workers)
    finally:
        if memory is not None:
            memory.close()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(section))
    cell = section["splits"]["overall"]["both"]
    print(f"wrote {args.out}  success={cell['success_rate']:.4f} "
          f"on {cell['n']} questions")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report: dict = {}
    if args.retrieval:
        with open(args.retrieval, encoding="utf-8") as fh:
            report["retrieval"] = json.load(fh)
    if args.routing:
        sections = []
        for path in args.routing:
            with open(path, encoding="utf-8") as fh:
                sections.append(json.load(fh))
        report["routing"] = sections
    if args.agentic:
        with open(args.agentic, encoding="utf-8") as fh:
            report["agentic"] = json.load(fh)
    if not report:
        raise SystemExit("nothing to report: pass --retrieval/--routing/--agentic")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report_to_markdown(report))
    print(f"wrote {args.out}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        print(f"wrote {args.json_out}")
    return 0


def _add_provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", choices=("det", "scripted", "remote"),
                        default="det")
    parser.add_argument("--fixtures", help="fixture JSONL for --provider scripted")
    parser.add_argument("--endpoint", help="chat endpoint URL for --provider remote")
    parser.add_argument("--model", default="gpt-3.5-turbo",
                        help="model name for --provider remote")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filingswarm",
        description="Synthetic regulatory-filing corpus, routing, and "
                    "question-answering evaluation")
    top = parser.add_subparsers(dest="command", required=True)

    corpus = top.add_parser("corpus", help="corpus stages").add_subparsers(
        dest="action", required=True)
    gen = corpus.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--records-per-table", type=int, default=500)
    gen.add_argument("--filers", type=int, default=8)
    gen.add_argument("--amendment-fraction", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_corpus_gen)

    index = top.add_parser("index", help="vector index stages").add_subparsers(
        dest="action", required=True)
    build = index.add_parser("build", help="embed a corpus into a flat index")
    build.add_argument("--corpus", required=True)
    build.add_argument("--scope", default="global",
                       help="global, agent:<filing>, or table:<table_id>")
    build.add_argument("--dim", type=int, default=64)
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_index_build)

    bench = top.add_parser("bench", help="benchmark stages").add_subparsers(
        dest="action", required=True)
    bgen = bench.add_parser("gen", help="instantiate benchmark questions")
    bgen.add_argument("--corpus", required=True)
    bgen.add_argument("--per-template", type=int, default=25)
    bgen.add_argument("--seed", type=int, default=0)
    bgen.add_argument("--variegate", type=int, default=0,
                      help="paraphrases per question (0 disables)")
    bgen.add_argument("--out", required=True)
    _add_provider_flags(bgen)
    bgen.set_defaults(func=_cmd_bench_gen)

    retrieval = top.add_parser("retrieval", help="retrieval ablation").add_subparsers(
        dest="action", required=True)
    rrun = retrieval.add_parser("run", help="R-Precision per index scope")
    rrun.add_argument("--corpus", required=True)
    rrun.add_argument("--bench", required=True)
    rrun.add_argument("--dim", type=int, default=64)
    rrun.add_argument("--out", required=True)
    rrun.set_defaults(func=_cmd_retrieval_run)

    route = top.add_parser("route", help="routing ablation").add_subparsers(
        dest="action", required=True)
    rou = route.add_parser("run", help="score a routing strategy")
    rou.add_argument("--bench", required=True)
    rou.add_argument("--strategy", choices=tuple(STRATEGY_NAMES), default="gen")
    rou.add_argument("--dim", type=int, default=64,
                     help="embedder width for --strategy embed")
    rou.add_argument("--seed", type=int, default=0, help="swarm seed")
    rou.add_argument("--partial-credit", choices=("fractional", "binary"),
                     default="fractional",
                     help="credit a multi-route question by the share of slots "
                          "matched, or fully when any slot matches")
    rou.add_argument("--out", required=True)
    _add_provider_flags(rou)
    rou.set_defaults(func=_cmd_route_run)

    agentic = top.add_parser("agentic", help="full-pipeline study").add_subparsers(
        dest="action", required=True)
    arun = agentic.add_parser("run", help="answer every benchmark question")
    arun.add_argument("--corpus", required=True)
    arun.add_argument("--bench", required=True)
    arun.add_argument("--workers", type=int, default=1)
    arun.add_argument("--memory", help="long-term memory JSONL path")
    arun.add_argument("--out", required=True)
    _add_provider_flags(arun)
    arun.set_defaults(func=_cmd_agentic_run)

    report = top.add_parser("report", help="render sections into one report")
    report.add_argument("--retrieval")
    report.add_argument("--routing", nargs="*", default=[])
    report.add_argument("--agentic")
    report.add_argument("--out", required=True)
    report.add_argument("--json-out")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
