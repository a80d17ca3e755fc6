"""Route questions to filing-type agents three different ways.

Generative routing asks a provider directly, embedding routing picks the
nearest persona then the nearest table description, and swarm routing
polls a panel of personas over multiple timesteps until they agree. The
deterministic provider keeps every run reproducible offline.

    python3 demos/03_routing_strategies.py
"""
from __future__ import annotations

from filingswarm.corpus.reconcile import reconcile
from filingswarm.corpus.schema import load_default_registry
from filingswarm.corpus.synthetic import SyntheticConfig, generate_synthetic
from filingswarm.evalrun import (
    build_oracle_route_embedder,
    run_routing_ablation,
)
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.questbench import generate_benchmark
from filingswarm.routing import SwarmConfig, route_generative, route_swarm


def main() -> None:
    registry = load_default_registry()
    store = generate_synthetic(SyntheticConfig(records_per_table=150),
                               seed=3, registry=registry)
    view = reconcile(store)
    bench = generate_benchmark(view, per_template=3, seed=19)
    provider = DeterministicProvider()

    question = bench[0]
    print(f"question: {question.text}")
    print(f"gold:     {[r.label() for r in question.gold_routes]}")

    outcome = route_generative(question.text, provider, registry)
    print("\n=== generative ===")
    print(f"predicted:  {[r.label() for r in outcome.predicted]}")
    print(f"unroutable: {outcome.unroutable}")

    config = SwarmConfig(n_agents=4, max_timesteps=3, seed=12)
    swarm = route_swarm(question.text, provider, registry, config)
    print("\n=== swarm ===")
    for entry in swarm.transcript:
        if "timestep" in entry:
            votes = ["abstain" if p["routes"] is None else ",".join(p["routes"])
                     for p in entry["proposals"]]
            print(f"  t={entry['timestep']}  " + "  ".join(votes))
        else:
            print(f"  final={entry['final']}  unanimous={entry['unanimous']}")

    # full-benchmark comparison, one line per strategy
    oracle = build_oracle_route_embedder(bench, registry)
    runs = [
        run_routing_ablation(bench, "generative", registry, provider=provider),
        run_routing_ablation(bench, "swarm", registry, provider=provider,
                             swarm_config=config),
        run_routing_ablation(bench, "embedding", registry, embedder=oracle),
    ]
    print("\n=== benchmark accuracy ===")
    print(f"{'strategy':12s} {'agent':>7s} {'table|agent':>12s} {'overall':>8s}")
    for run in runs:
        overall = run["splits"]["overall"]["both"]
        print(f"{run['strategy']:12s} {overall['acc_agent']:7.3f} "
              f"{overall['acc_table_given_agent']:12.3f} "
              f"{overall['acc_overall']:8.3f}")


if __name__ == "__main__":
    main()
