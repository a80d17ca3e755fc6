"""Query-to-route assignment strategies and their conditional-accuracy score.

A route is an (agent, table) pair. Multi-table questions are routed
sequentially: the harness asks for as many route slots as the question's
gold routing has, and each later slot sees the routes already assigned.

Strategies:
- embedding: nearest persona embedding picks the agent, nearest table
  description within that agent picks the table;
- generative: two closed-list selection prompts (agent, then table), with
  one reprompt on an unparseable reply before the slot is abandoned;
- swarm: several generatively routing members propose in rounds, each round
  seeing the full proposal history; unanimity stops early, and the final
  answer is a per-slot plurality vote with lexicographic tie-breaks.

Scoring counts per-slot matches. acc_overall = joint / total and equals
acc_agent * acc_table_given_agent by construction. Partial credit for
multi-route questions is fractional by default (slots matched / slots);
the stricter any-slot binary reading is available as a config switch.
"""
from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .corpus.schema import FilingType, SchemaRegistry
from .gateway.prompts import (
    build_route_agent_request,
    build_route_retry,
    build_route_table_request,
    read_candidate,
)
from .gateway.types import ChatRequest, GatewayError
# knn is no longer called here; perfbench's tracer still wraps routing.knn,
# so the name stays.
from .vindex import FlatIndex, IndexError_, knn  # noqa: F401

STRATEGIES = ("embedding", "generative", "swarm")

NO_PREDICTION = "(none)"

# The closed list every agent prompt offers, in enum order.
_AGENT_CANDIDATES = tuple(ft.value for ft in FilingType)

_SWARM_PERSONAS = (
    "literal reader taking the question wording at face value",
    "schema sleuth mapping question nouns onto table fields",
    "recall hunter scanning for entity and quantity mentions",
    "contrarian checker arguing for the runner-up candidate",
    "cautious auditor demanding exact phrase evidence",
)


@dataclass(frozen=True)
class Route:
    agent: FilingType
    table: str

    def label(self) -> str:
        return f"{self.agent.value}/{self.table}"


def validate_route(route: Route, registry: SchemaRegistry) -> None:
    if route.table not in registry.table_ids_for(route.agent):
        raise ValueError(f"table {route.table!r} does not belong to {route.agent.value}")


@dataclass(frozen=True)
class SwarmConfig:
    n_agents: int = 5
    max_timesteps: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.max_timesteps < 2:
            raise ValueError("max_timesteps must be >= 2")


@dataclass(frozen=True)
class RoutingOutcome:
    predicted: tuple[Route, ...]
    strategy: str
    transcript: tuple[dict, ...] = ()
    unroutable: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        # a routable outcome must carry at least one route; only an
        # explicitly unroutable one may be empty
        if not self.predicted and not self.unroutable:
            raise ValueError("predicted routes empty on a routable outcome")


@dataclass(frozen=True)
class RoutingScore:
    acc_agent: float
    acc_table_given_agent: float
    acc_overall: float
    confusion: dict[str, dict[str, int]]
    n_samples: int
    n_units: int


# ---------------------------------------------------------------------------
# Embedding strategy

def route_embedding(query: str, persona_index: FlatIndex,
                    table_indexes: dict[str, FlatIndex], embedder,
                    n_routes: int = 1) -> RoutingOutcome:
    """First slot is two-stage: nearest persona, then nearest table
    description within that filing. Further slots walk the remaining
    (agent, table) pairs ranked by persona distance plus table distance,
    which lets a query land twice in the same filing.

    Every distance is ``knn``'s canonical one, taken for the persona rows
    and each persona's table rows in one pass, and each ranking is by
    (distance, id), as ``knn`` ranks a whole index."""
    if n_routes < 1:
        raise ValueError("n_routes must be >= 1")
    q32 = np.asarray(embedder.embed(query), dtype=np.float32)
    if len(persona_index) == 0:
        raise ValueError("persona index is empty: no agent to route to")
    if q32.shape != (persona_index.dim,):
        raise IndexError_(f"query dim {q32.shape} does not match index dim {persona_index.dim}")
    blocks: list[tuple[str | None, FlatIndex]] = [(None, persona_index)]
    for agent_value in persona_index.record_ids:
        table_index = table_indexes.get(agent_value)
        if table_index is not None and len(table_index):
            blocks.append((agent_value, table_index))
    x64 = np.concatenate([index.vectors for _, index in blocks]).astype(np.float64)
    dists = np.sum((x64 - q32.astype(np.float64)) ** 2, axis=1).tolist()
    rankings: dict[str | None, list[tuple[float, str]]] = {}
    start = 0
    for agent_value, index in blocks:
        rankings[agent_value] = sorted(zip(dists[start:start + len(index)], index.record_ids))
        start += len(index)

    def table_ranking(agent_value: str) -> list[tuple[float, str]]:
        ranking = rankings.get(agent_value)
        if ranking is None:
            raise ValueError(f"no table description index for agent {agent_value}")
        return ranking

    persona_ranking = rankings[None]
    first_agent = persona_ranking[0][1]
    first_table = table_ranking(first_agent)[0][1]
    routes = [Route(FilingType.parse(first_agent), first_table)]

    if n_routes > 1:
        pairs = []
        for persona_dist, agent_value in persona_ranking:
            for table_dist, table_id in table_ranking(agent_value):
                pairs.append((persona_dist + table_dist, agent_value, table_id))
        pairs.sort()
        taken = {(first_agent, first_table)}
        for _, agent_value, table_id in pairs:
            if len(routes) >= n_routes:
                break
            if (agent_value, table_id) in taken:
                continue
            taken.add((agent_value, table_id))
            routes.append(Route(FilingType.parse(agent_value), table_id))
    return RoutingOutcome(tuple(routes), strategy="embedding")


# ---------------------------------------------------------------------------
# Generative strategy

def _closed_choice(provider, request: ChatRequest,
                   candidates: Sequence[str]) -> str | None:
    """Match the provider's reply against a closed candidate list,
    reprompting once before giving up on the slot."""
    reply = provider.complete(request).content
    hit = read_candidate(reply, candidates)
    if hit is not None:
        return hit
    reply = provider.complete(build_route_retry(request, reply)).content
    return read_candidate(reply, candidates)


def _generative_routes(query: str, provider, registry: SchemaRegistry,
                       n_routes: int, persona: str | None = None,
                       history: list[str] | None = None) -> tuple[list[Route], bool]:
    """Shared slot-by-slot routing; returns (routes, completed)."""
    covered: list[tuple[str, str]] = []
    routes: list[Route] = []
    for _ in range(n_routes):
        agent_reply = _closed_choice(
            provider,
            build_route_agent_request(query, _AGENT_CANDIDATES, covered,
                                      persona=persona, history=history),
            _AGENT_CANDIDATES)
        if agent_reply is None:
            return routes, False
        agent = FilingType.parse(agent_reply)
        table_candidates = registry.profile(agent).table_ids
        table_reply = _closed_choice(
            provider,
            build_route_table_request(query, agent.value, table_candidates,
                                      covered, persona=persona, history=history),
            table_candidates)
        if table_reply is None:
            return routes, False
        routes.append(Route(agent, table_reply))
        covered.append((agent.value, table_reply))
    return routes, True


def route_generative(query: str, provider, registry: SchemaRegistry,
                     n_routes: int = 1) -> RoutingOutcome:
    if n_routes < 1:
        raise ValueError("n_routes must be >= 1")
    routes, completed = _generative_routes(query, provider, registry, n_routes)
    return RoutingOutcome(tuple(routes), strategy="generative",
                          unroutable=not completed)


# ---------------------------------------------------------------------------
# Swarm strategy

def route_swarm(query: str, provider, registry: SchemaRegistry,
                config: SwarmConfig, n_routes: int = 1) -> RoutingOutcome:
    if n_routes < 1:
        raise ValueError("n_routes must be >= 1")
    rng = random.Random(config.seed)
    offset = rng.randrange(len(_SWARM_PERSONAS))
    personas = [
        _SWARM_PERSONAS[(offset + m) % len(_SWARM_PERSONAS)]
        + (f" (panel seat {m})" if m >= len(_SWARM_PERSONAS) else "")
        for m in range(config.n_agents)
    ]

    transcript: list[dict] = []
    history: list[str] = []
    proposals: list[tuple[Route, ...] | None] = [None] * config.n_agents
    unanimous = False

    for t in range(config.max_timesteps):
        round_entries = []
        for m in range(config.n_agents):
            try:
                routes, completed = _generative_routes(
                    query, provider, registry, n_routes,
                    persona=personas[m], history=list(history))
            except GatewayError:
                return RoutingOutcome((), strategy="swarm",
                                      transcript=tuple(transcript), unroutable=True)
            proposals[m] = tuple(routes) if completed else None
            round_entries.append({
                "member": m,
                "persona": personas[m],
                "routes": [r.label() for r in routes] if completed else None,
            })
        transcript.append({"timestep": t, "proposals": round_entries})
        for entry in round_entries:
            routes_text = ",".join(entry["routes"]) if entry["routes"] else "abstain"
            history.append(f"member {entry['member']} timestep {t}: {routes_text}")
        answered = [p for p in proposals if p is not None]
        if len(answered) == config.n_agents and len(set(answered)) == 1:
            unanimous = True
            break

    answered = [p for p in proposals if p is not None]
    if not answered:
        return RoutingOutcome((), strategy="swarm",
                              transcript=tuple(transcript), unroutable=True)

    final: list[Route] = []
    for slot in range(n_routes):
        votes: dict[tuple[str, str], int] = {}
        for proposal in answered:
            if slot < len(proposal):
                key = (proposal[slot].agent.value, proposal[slot].table)
                votes[key] = votes.get(key, 0) + 1
        if not votes:
            return RoutingOutcome(tuple(final), strategy="swarm",
                                  transcript=tuple(transcript), unroutable=True)
        best = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        final.append(Route(FilingType.parse(best[0]), best[1]))

    transcript.append({"final": [r.label() for r in final], "unanimous": unanimous})
    return RoutingOutcome(tuple(final), strategy="swarm",
                          transcript=tuple(transcript))


# ---------------------------------------------------------------------------
# Scoring

def score_routing(outcomes: list[tuple[RoutingOutcome, list[Route]]],
                  partial_credit: str = "fractional") -> RoutingScore:
    if partial_credit not in ("fractional", "binary"):
        raise ValueError("partial_credit must be fractional or binary")
    agent_sum = 0.0
    joint_sum = 0.0
    n_units = 0
    confusion: dict[str, dict[str, int]] = {}
    for outcome, gold in outcomes:
        if not gold:
            raise ValueError("gold routes must be non-empty")
        n_units += len(gold)
        agent_hits = 0
        joint_hits = 0
        for slot, gold_route in enumerate(gold):
            predicted = outcome.predicted[slot] if slot < len(outcome.predicted) else None
            pred_label = predicted.agent.value if predicted else NO_PREDICTION
            row = confusion.setdefault(gold_route.agent.value, {})
            row[pred_label] = row.get(pred_label, 0) + 1
            if predicted is None:
                continue
            if predicted.agent == gold_route.agent:
                agent_hits += 1
                if predicted.table == gold_route.table:
                    joint_hits += 1
        if partial_credit == "fractional":
            agent_sum += agent_hits / len(gold)
            joint_sum += joint_hits / len(gold)
        else:
            agent_sum += 1.0 if agent_hits else 0.0
            joint_sum += 1.0 if joint_hits else 0.0

    n = len(outcomes)
    acc_agent = agent_sum / n if n else 0.0
    acc_overall = joint_sum / n if n else 0.0
    acc_table_given_agent = joint_sum / agent_sum if agent_sum > 0 else 0.0
    return RoutingScore(acc_agent=acc_agent,
                        acc_table_given_agent=acc_table_given_agent,
                        acc_overall=acc_overall,
                        confusion=confusion,
                        n_samples=n,
                        n_units=n_units)
