"""Query-to-route assignment strategies and their conditional-accuracy score.

A route is an (agent, table) pair. Multi-table questions are routed
sequentially: the harness asks for as many route slots as the question's
gold routing has, and each later slot sees the routes already assigned.

Strategies:
- embedding: nearest persona embedding picks the agent, nearest table
  description within that agent picks the table, both by knn's distances;
- generative: two closed-list selection prompts (agent, then table), with
  one reprompt on an unparseable reply before the slot is abandoned;
- swarm: several generatively routing members propose in rounds, each round
  seeing the full proposal history; unanimity stops early, and the final
  answer is a per-slot plurality vote with lexicographic tie-breaks.

Scoring counts per-slot matches. acc_overall = joint / total and equals
acc_agent * acc_table_given_agent by construction. Partial credit for
multi-route questions is fractional by default (slots matched / slots);
the binary reading, which credits a question fully when any slot matches
and so is the more lenient one, is available as a config switch.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corpus.schema import FilingType, SchemaRegistry
from .gateway.prompts import build_route_request, build_route_retry, read_candidate
from .gateway.types import ChatRequest, GatewayError
# knn is no longer called here; perfbench's tracer still wraps routing.knn,
# so the name stays.
from .vindex import FlatIndex, IndexError_, knn, row_distances  # noqa: F401

STRATEGIES = ("embedding", "generative", "swarm")

NO_PREDICTION = "(none)"

# The closed list every agent prompt offers, in enum order, and the agent
# each candidate names.
_AGENT_CANDIDATES = tuple(ft.value for ft in FilingType)
_AGENT_BY_VALUE = {ft.value: ft for ft in FilingType}

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

    Every distance comes from ``vindex.row_distances``, over the persona
    rows and each persona's table rows in one pass, and each ranking is by
    (distance, id), as ``knn`` ranks a whole index. A query that is not
    finite, or a table index whose dim is not the persona index's, raises
    ``IndexError_``."""
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
            if table_index.dim != persona_index.dim:
                raise IndexError_(f"table index of agent {agent_value} has dim "
                                  f"{table_index.dim}, not the persona index's "
                                  f"{persona_index.dim}")
            blocks.append((agent_value, table_index))
    dists = row_distances(np.concatenate([index.vectors for _, index in blocks]), q32)
    # an index holds only finite vectors, so some distance is inf or nan
    # exactly when the query is not finite
    if not math.isfinite(sum(dists)):
        raise IndexError_("query is not finite")
    # each block's (distance, id) pairs, unsorted: the first slot takes two
    # minimums and the later slots sort all pairs at once
    scored: dict[str | None, list[tuple[float, str]]] = {}
    start = 0
    for agent_value, index in blocks:
        scored[agent_value] = list(zip(dists[start:start + len(index)], index.record_ids))
        start += len(index)

    def table_scores(agent_value: str) -> list[tuple[float, str]]:
        pairs = scored.get(agent_value)
        if pairs is None:
            raise ValueError(f"no table description index for agent {agent_value}")
        return pairs

    first_agent = min(scored[None])[1]
    first_table = min(table_scores(first_agent))[1]
    routes = [Route(FilingType.parse(first_agent), first_table)]

    if n_routes > 1:
        pairs = [(persona_dist + table_dist, agent_value, table_id)
                 for persona_dist, agent_value in scored[None]
                 for table_dist, table_id in table_scores(agent_value)]
        pairs.sort()
        # each (agent, table) pair occurs once, so only the first route repeats
        for _, agent_value, table_id in pairs:
            if len(routes) >= n_routes:
                break
            if (agent_value, table_id) != (first_agent, first_table):
                routes.append(Route(FilingType.parse(agent_value), table_id))
    return RoutingOutcome(tuple(routes), strategy="embedding")


# ---------------------------------------------------------------------------
# Generative strategy

def _closed_choice(provider, request: ChatRequest,
                   candidates: Sequence[str]) -> str | None:
    """Match the provider's reply against a closed candidate list,
    reprompting once before giving up on the slot."""
    reply = provider.complete(request)
    hit = read_candidate(reply, candidates)
    if hit is not None:
        return hit
    reply = provider.complete(build_route_retry(request, reply))
    return read_candidate(reply, candidates)


def _generative_routes(query: str, provider, registry: SchemaRegistry,
                       n_routes: int, persona: str | None = None,
                       history: Sequence[str] = ()) -> tuple[list[Route], bool]:
    """Shared slot-by-slot routing; returns (routes, completed)."""
    covered: list[tuple[str, str]] = []
    routes: list[Route] = []
    for _ in range(n_routes):
        agent_value = _closed_choice(
            provider,
            build_route_request(query, _AGENT_CANDIDATES, covered,
                                persona=persona, history=history),
            _AGENT_CANDIDATES)
        if agent_value is None:
            return routes, False
        agent = _AGENT_BY_VALUE[agent_value]
        table_candidates = registry.profile(agent).table_ids
        table_reply = _closed_choice(
            provider,
            build_route_request(query, table_candidates, covered, agent=agent_value,
                                persona=persona, history=history),
            table_candidates)
        if table_reply is None:
            return routes, False
        routes.append(Route(agent, table_reply))
        covered.append((agent_value, table_reply))
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

@lru_cache
def _swarm_personas(n_agents: int, seed: int) -> tuple[str, ...]:
    """The members' personas: the rotation starts at an offset drawn from
    ``seed`` alone, so a config's personas are drawn once, not per query."""
    offset = random.Random(seed).randrange(len(_SWARM_PERSONAS))
    return tuple(
        _SWARM_PERSONAS[(offset + m) % len(_SWARM_PERSONAS)]
        + (f" (panel seat {m})" if m >= len(_SWARM_PERSONAS) else "")
        for m in range(n_agents))


def route_swarm(query: str, provider, registry: SchemaRegistry,
                config: SwarmConfig, n_routes: int = 1) -> RoutingOutcome:
    if n_routes < 1:
        raise ValueError("n_routes must be >= 1")
    personas = _swarm_personas(config.n_agents, config.seed)

    # A round is one proposal per member: its routes, or None when it
    # abstained. The transcript entry, the history lines every later member
    # reads and the final vote all come from the last such list.
    transcript: list[dict] = []
    history: tuple[str, ...] = ()
    for t in range(config.max_timesteps):
        proposals: list[tuple[Route, ...] | None] = []
        for persona in personas:
            try:
                routes, completed = _generative_routes(
                    query, provider, registry, n_routes, persona=persona, history=history)
            except GatewayError:
                return RoutingOutcome((), strategy="swarm",
                                      transcript=tuple(transcript), unroutable=True)
            proposals.append(tuple(routes) if completed else None)
        labels = [None if p is None else [r.label() for r in p] for p in proposals]
        transcript.append({"timestep": t, "proposals": [
            {"member": m, "persona": personas[m], "routes": routes}
            for m, routes in enumerate(labels)]})
        history += tuple(f"member {m} timestep {t}: {','.join(routes) if routes else 'abstain'}"
                         for m, routes in enumerate(labels))
        if proposals[0] is not None and proposals.count(proposals[0]) == len(proposals):
            break

    answered = [p for p in proposals if p is not None]
    if not answered:
        return RoutingOutcome((), strategy="swarm",
                              transcript=tuple(transcript), unroutable=True)

    # an answered proposal is complete: it holds a route for every slot.
    # Each slot goes to its most voted route, ties to the least
    # (agent value, table).
    tallies = [Counter(slot) for slot in zip(*answered)]
    final = [min(votes, key=lambda r: (-votes[r], r.agent.value, r.table)) for votes in tallies]
    # unanimous: every member voted for every slot's winner
    transcript.append({"final": [r.label() for r in final], "unanimous": all(
        votes[r] == len(proposals) for r, votes in zip(final, tallies))})
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
