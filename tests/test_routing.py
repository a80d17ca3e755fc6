"""Routing strategy tests: embedding, generative, swarm, and the scorer.

Strategy outputs are frozen by hand against the rule provider's published
keyword tables; the scorer identities are checked both on hand fixtures and
property-style.
"""
from __future__ import annotations

import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm.corpus.schema import FilingType
from filingswarm.evalrun import build_routing_indexes
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.gateway.providers import ScriptedProvider
from filingswarm.gateway.types import FixtureMissError, GatewayError, request_digest
from filingswarm.routing import (
    NO_PREDICTION,
    Route,
    RoutingOutcome,
    SwarmConfig,
    route_embedding,
    route_generative,
    route_swarm,
    score_routing,
)
from filingswarm.vindex import (
    FlatIndex,
    HashFeatureEmbedder,
    IndexError_,
    IndexScope,
    MappingEmbedder,
    knn,
)

R_13F = Route(FilingType.parse("13F"), "thirteenf_holdings")
R_ADV = Route(FilingType.parse("ADV"), "adv_entity")
R_NP_INFO = Route(FilingType.parse("NPORT"), "nport_fund_info")
R_NP_HOLD = Route(FilingType.parse("NPORT"), "nport_holdings")

EQUITY_QUERY = ('Calculate the aggregate cash equity position value for '
                'manager "Blue Harbor Capital" for period 2024-03-31.')
FUND_HOLDINGS_QUERY = ('Get all holdings of instrument type "corporate bond" '
                       'held by fund "Growth Fund" for period 2024-03-31.')
JUNK_QUERY = "Paint me a picture of the weather tomorrow."
# scores NMFP and NPORT equally on agent keywords; the contrarian seat
# breaks from the pack, so a swarm never reaches unanimity on it
SPLIT_QUERY = ("Break down the derivative notional by counterparty and the "
               "money market maturity profile.")


def test_route_label():
    assert R_13F.label() == "13F/thirteenf_holdings"


def test_outcome_requires_routes_unless_unroutable():
    with pytest.raises(ValueError, match="empty"):
        RoutingOutcome((), strategy="generative")
    ok = RoutingOutcome((), strategy="generative", unroutable=True)
    assert ok.predicted == ()
    with pytest.raises(ValueError, match="strategy"):
        RoutingOutcome((R_13F,), strategy="psychic")


def test_swarm_config_bounds():
    with pytest.raises(ValueError):
        SwarmConfig(n_agents=0)
    with pytest.raises(ValueError):
        SwarmConfig(max_timesteps=1)
    assert SwarmConfig().n_agents == 5


# ---------------------------------------------------------------------------
# Generative strategy


def test_generative_single_route(registry):
    outcome = route_generative(EQUITY_QUERY, DeterministicProvider(), registry)
    assert outcome.predicted == (R_13F,)
    assert outcome.strategy == "generative"
    assert not outcome.unroutable


def test_generative_two_slots_same_agent(registry):
    outcome = route_generative(FUND_HOLDINGS_QUERY, DeterministicProvider(),
                               registry, n_routes=2)
    assert outcome.predicted == (R_NP_INFO, R_NP_HOLD)
    assert not outcome.unroutable


def test_generative_junk_is_unroutable(registry):
    outcome = route_generative(JUNK_QUERY, DeterministicProvider(), registry)
    assert outcome.unroutable
    assert outcome.predicted == ()


def test_generative_rejects_zero_slots(registry):
    with pytest.raises(ValueError):
        route_generative(EQUITY_QUERY, DeterministicProvider(), registry,
                         n_routes=0)


class _RetryThenAnswer:
    """Garbles the first agent reply, then answers in sloppy formatting."""

    def __init__(self):
        self.agent_calls = 0

    def complete(self, request):
        if request.tag == "route_agent":
            self.agent_calls += 1
            content = "hmm, tricky one" if self.agent_calls == 1 else ' "13f" '
        else:
            content = "Thirteenf_Holdings"
        return content


def test_generative_reprompts_once_and_normalizes(registry):
    provider = _RetryThenAnswer()
    outcome = route_generative(EQUITY_QUERY, provider, registry)
    assert outcome.predicted == (R_13F,)
    assert provider.agent_calls == 2


class _FirstSlotOnly:
    """Answers the first slot, then refuses every later agent prompt."""

    def complete(self, request):
        all_user = "\n".join(c for role, c in request.messages if role == "user")
        covered = all_user.count("ALREADY: ")
        if request.tag == "route_agent":
            content = "13F" if covered == 0 else "no idea"
        else:
            content = "thirteenf_holdings"
        return content


def test_generative_keeps_partial_routes_but_flags_unroutable(registry):
    outcome = route_generative(EQUITY_QUERY, _FirstSlotOnly(), registry,
                               n_routes=2)
    assert outcome.predicted == (R_13F,)
    assert outcome.unroutable


# ---------------------------------------------------------------------------
# Embedding strategy


def _unit(dim, i):
    vec = np.zeros(dim, dtype=np.float32)
    vec[i] = 1.0
    return vec


def _embedding_fixture():
    dim = 4
    personas = FlatIndex(scope=IndexScope.global_(), dim=dim,
                         record_ids=["13F", "ADV"],
                         vectors=np.stack([_unit(dim, 0), _unit(dim, 1)]))
    tables = {
        "13F": FlatIndex(scope=IndexScope.agent(FilingType.parse("13F")),
                         dim=dim, record_ids=["thirteenf_holdings"],
                         vectors=np.stack([_unit(dim, 0)])),
        "ADV": FlatIndex(scope=IndexScope.agent(FilingType.parse("ADV")),
                         dim=dim, record_ids=["adv_entity", "adv_brokers"],
                         vectors=np.stack([_unit(dim, 1), _unit(dim, 2)])),
    }
    embedder = MappingEmbedder(dim, {
        "equity question": _unit(dim, 0),
        "advisor question": _unit(dim, 1),
    })
    return personas, tables, embedder


def test_embedding_picks_nearest_persona_then_table():
    personas, tables, embedder = _embedding_fixture()
    outcome = route_embedding("equity question", personas, tables, embedder)
    assert outcome.predicted == (R_13F,)
    assert outcome.strategy == "embedding"


def _knn_routes(query, personas, tables, embedder, n_routes):
    """The embedding rule, ranked by knn over each whole index: the nearest
    persona's nearest table, then untaken pairs by summed distance."""
    qvec = embedder.embed(query)
    persona = knn(personas, qvec, k=len(personas))
    ranked = {agent: knn(tables[agent], qvec, k=len(tables[agent])) for agent, _ in persona}
    routes = [(persona[0][0], ranked[persona[0][0]][0][0])]
    pairs = sorted((persona_dist + table_dist, agent, table)
                   for agent, persona_dist in persona for table, table_dist in ranked[agent])
    for _, agent, table in pairs:
        if len(routes) < n_routes and (agent, table) not in routes:
            routes.append((agent, table))
    return tuple(Route(FilingType.parse(agent), table) for agent, table in routes)


def test_embedding_second_slot_can_stay_in_the_same_agent():
    # pair distances from the advisor query: adv_entity 0, adv_brokers 2,
    # thirteenf 4; the second slot is the cheapest untaken pair
    personas, tables, embedder = _embedding_fixture()
    outcome = route_embedding("advisor question", personas, tables, embedder,
                              n_routes=2)
    assert outcome.predicted == (R_ADV, Route(FilingType.parse("ADV"),
                                              "adv_brokers"))
    for query in ("advisor question", "equity question"):
        for n_routes in (1, 2, 3):
            assert (route_embedding(query, personas, tables, embedder, n_routes).predicted
                    == _knn_routes(query, personas, tables, embedder, n_routes))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 6),
       n_routes=st.integers(1, 5))
def test_embedding_routes_rank_as_knn_does(seed, n_agents, n_routes):
    # small integer coordinates make exact distance ties, which break by id
    rng = np.random.default_rng(seed)
    dim = 3
    agents = [ft.value for ft in rng.permutation(list(FilingType))[:n_agents]]
    personas = FlatIndex(scope=IndexScope.global_(), dim=dim, record_ids=agents,
                         vectors=rng.integers(-2, 3, (n_agents, dim)).astype(np.float32))
    tables = {}
    for agent in agents:
        n_tables = int(rng.integers(1, 4))
        ids = [f"{agent.lower()}_t{i}" for i in rng.permutation(n_tables)]
        tables[agent] = FlatIndex(
            scope=IndexScope.agent(FilingType.parse(agent)), dim=dim, record_ids=ids,
            vectors=(rng.integers(-2, 3, (n_tables, dim)) / 3).astype(np.float32))
    embedder = MappingEmbedder(dim, {"q": rng.integers(-2, 3, dim) / 2})
    assert (route_embedding("q", personas, tables, embedder, n_routes).predicted
            == _knn_routes("q", personas, tables, embedder, n_routes))


def test_embedding_caps_routes_at_available_pairs():
    personas, tables, embedder = _embedding_fixture()
    outcome = route_embedding("advisor question", personas, tables, embedder,
                              n_routes=5)
    assert len(outcome.predicted) == 3
    assert len(set(outcome.predicted)) == 3


def test_embedding_missing_table_index_is_an_error():
    dim = 4
    personas = FlatIndex(scope=IndexScope.global_(), dim=dim,
                         record_ids=["NMFP"], vectors=np.stack([_unit(dim, 3)]))
    embedder = MappingEmbedder(dim, {"money market": _unit(dim, 3)})
    with pytest.raises(ValueError, match="no table description index"):
        route_embedding("money market", personas, {}, embedder)


def test_embedding_empty_persona_index_is_an_error():
    _, tables, embedder = _embedding_fixture()
    empty = FlatIndex(scope=IndexScope.global_(), dim=embedder.dim)
    with pytest.raises(ValueError, match="persona index is empty"):
        route_embedding("advisor question", empty, tables, embedder)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embedding_refuses_a_query_that_is_not_finite(bad):
    personas, tables, _ = _embedding_fixture()
    embedder = MappingEmbedder(4, {}, default=np.array([bad, 0, 0, 0]))
    with pytest.raises(IndexError_, match="query is not finite"):
        route_embedding("unknown question", personas, tables, embedder)


@pytest.mark.parametrize("strategy", ["embedding", "swarm"])
def test_embedding_and_swarm_refuse_fewer_than_one_route(registry, strategy):
    personas, tables, embedder = _embedding_fixture()
    with pytest.raises(ValueError, match="^n_routes must be >= 1$"):
        if strategy == "embedding":
            route_embedding("equity question", personas, tables, embedder, n_routes=0)
        else:
            route_swarm(EQUITY_QUERY, DeterministicProvider(), registry, SwarmConfig(),
                        n_routes=0)


def test_embedding_refuses_a_query_of_another_dim():
    personas, tables, _ = _embedding_fixture()
    embedder = MappingEmbedder(3, {}, default=np.ones(3))
    with pytest.raises(IndexError_, match=re.escape("query dim (3,) does not match index dim 4")):
        route_embedding("unknown question", personas, tables, embedder)


def test_embedding_refuses_a_table_index_of_another_dim():
    personas, tables, embedder = _embedding_fixture()
    tables["ADV"] = FlatIndex(scope=IndexScope.agent(FilingType.parse("ADV")), dim=3,
                              record_ids=["adv_entity"],
                              vectors=np.ones((1, 3), dtype=np.float32))
    # the equity query routes to 13F, but every table index is checked
    with pytest.raises(IndexError_, match="table index of agent ADV has dim 3"):
        route_embedding("equity question", personas, tables, embedder)


# ---------------------------------------------------------------------------
# Swarm strategy


def test_swarm_unanimity_stops_after_one_round(registry):
    config = SwarmConfig(n_agents=3, max_timesteps=4, seed=5)
    outcome = route_swarm(EQUITY_QUERY, DeterministicProvider(), registry, config)
    assert outcome.predicted == (R_13F,)
    rounds = [e for e in outcome.transcript if "timestep" in e]
    assert len(rounds) == 1
    assert outcome.transcript[-1] == {"final": ["13F/thirteenf_holdings"],
                                      "unanimous": True}


def test_swarm_transcript_is_deterministic_per_seed(registry):
    config = SwarmConfig(n_agents=4, max_timesteps=3, seed=9)
    first = route_swarm(EQUITY_QUERY, DeterministicProvider(), registry, config)
    second = route_swarm(EQUITY_QUERY, DeterministicProvider(), registry, config)
    assert first == second


def test_swarm_draws_a_configs_personas_once(registry, monkeypatch):
    config = SwarmConfig(n_agents=7, max_timesteps=2, seed=13)
    first = route_swarm(EQUITY_QUERY, DeterministicProvider(), registry, config)
    seeded = []

    class _CountingRandom(random.Random):
        def __init__(self, *args):
            seeded.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", _CountingRandom)
    second = route_swarm(SPLIT_QUERY, DeterministicProvider(), registry, config)
    assert seeded == []
    assert first.transcript[0]["proposals"][6]["persona"].endswith("(panel seat 6)")
    assert ([p["persona"] for p in first.transcript[0]["proposals"]]
            == [p["persona"] for p in second.transcript[0]["proposals"]])


def test_swarm_disagreement_runs_to_the_cap_and_votes(registry):
    config = SwarmConfig(n_agents=5, max_timesteps=3, seed=2)
    outcome = route_swarm(SPLIT_QUERY, DeterministicProvider(), registry, config)
    rounds = [e for e in outcome.transcript if "timestep" in e]
    assert len(rounds) == config.max_timesteps
    assert outcome.transcript[-1]["unanimous"] is False
    # four keyword seats against one contrarian seat
    proposals = [tuple(p["routes"]) for p in rounds[0]["proposals"]]
    assert proposals.count(("NMFP/nmfp_holdings",)) == 4
    assert proposals.count(("NPORT/nport_derivatives",)) == 1
    assert outcome.predicted == (Route(FilingType.parse("NMFP"),
                                       "nmfp_holdings"),)


def test_swarm_all_abstain_is_unroutable(registry):
    config = SwarmConfig(n_agents=3, max_timesteps=2, seed=0)
    outcome = route_swarm(JUNK_QUERY, DeterministicProvider(), registry, config)
    assert outcome.unroutable
    assert outcome.predicted == ()
    assert len(outcome.transcript) == config.max_timesteps


class _SplitVote:
    """Keyed off the persona line so two seats never agree."""

    _OPTIONS = (("ADV", "adv_entity"), ("13F", "thirteenf_holdings"))

    def __init__(self):
        self.assigned = {}

    def complete(self, request):
        persona = ""
        for line in request.last_user_content().splitlines():
            if line.startswith("PERSONA: "):
                persona = line[len("PERSONA: "):]
        if persona not in self.assigned:
            self.assigned[persona] = self._OPTIONS[len(self.assigned) % 2]
        agent, table = self.assigned[persona]
        content = agent if request.tag == "route_agent" else table
        return content


def test_swarm_vote_tie_breaks_lexicographically(registry):
    config = SwarmConfig(n_agents=2, max_timesteps=2, seed=3)
    outcome = route_swarm(EQUITY_QUERY, _SplitVote(), registry, config)
    assert outcome.transcript[-1]["unanimous"] is False
    assert outcome.predicted == (R_13F,)


class _AuditorAbstains:
    """Every seat answers 13F except the cautious auditor, which refuses the
    prompt and its retry."""

    def __init__(self):
        self.histories = []

    def complete(self, request):
        lines = request.messages[0][1].splitlines()
        if "PERSONA: cautious auditor demanding exact phrase evidence" in lines:
            return "no idea"
        if request.tag == "route_agent":
            self.histories.append([line for line in lines if line.startswith("- ")])
            return "13F"
        return "thirteenf_holdings"


def test_swarm_abstention_blocks_unanimity_but_not_the_vote(registry):
    config = SwarmConfig(n_agents=3, max_timesteps=2, seed=7)  # the auditor is member 2
    provider = _AuditorAbstains()
    outcome = route_swarm(EQUITY_QUERY, provider, registry, config)
    assert outcome.predicted == (R_13F,)
    rounds = [e for e in outcome.transcript if "timestep" in e]
    assert len(rounds) == config.max_timesteps
    assert [[p["routes"] for p in e["proposals"]] for e in rounds] == [
        [["13F/thirteenf_holdings"], ["13F/thirteenf_holdings"], None]] * 2
    assert outcome.transcript[-1] == {"final": ["13F/thirteenf_holdings"],
                                      "unanimous": False}
    # the second round's members see the whole first round, abstention included
    assert provider.histories[-1] == [
        "- member 0 timestep 0: 13F/thirteenf_holdings",
        "- member 1 timestep 0: 13F/thirteenf_holdings",
        "- member 2 timestep 0: abstain"]


class _AlwaysFails:
    def complete(self, request):
        raise GatewayError("provider offline")


def test_swarm_gateway_error_means_unroutable(registry):
    config = SwarmConfig(n_agents=2, max_timesteps=2, seed=0)
    outcome = route_swarm(EQUITY_QUERY, _AlwaysFails(), registry, config)
    assert outcome.unroutable
    assert outcome.strategy == "swarm"


def test_swarm_fixture_miss_propagates(registry):
    config = SwarmConfig(n_agents=2, max_timesteps=2, seed=0)
    with pytest.raises(FixtureMissError):
        route_swarm(EQUITY_QUERY, ScriptedProvider({}), registry, config)


# ---------------------------------------------------------------------------
# Every strategy's outputs, pinned


class _HashingProvider:
    """The rule provider, hashing every request digest with its reply."""

    def __init__(self, digest):
        self.inner = DeterministicProvider()
        self.digest = digest
        self.calls = 0

    def complete(self, request):
        reply = self.inner.complete(request)
        self.digest.update(f"{request_digest(request)} {reply!r}\n".encode("utf-8"))
        self.calls += 1
        return reply


# sha256 over every route request digest and reply, then each outcome's
# predicted labels, unroutable flag and transcript, for every bench_mixed
# question (as many slots as its gold routes) and this module's four queries
# (one to three slots; the split query makes the swarm vote) routed
# generatively, by two swarms (the default panel, and seven seats so two are
# "panel seat" personas) and by embedding. Computed on the code whose swarm
# kept a member-indexed proposal list beside the round's transcript entries
# and voted over string keys.
GOLDEN_ROUTING_SHA256 = "a50b885e0471c9d968b2405c8c68c915a3078adde0a2e897d8676a0b78201af6"


def test_routing_outputs_are_pinned(registry, bench_mixed):
    digest = hashlib.sha256()
    provider = _HashingProvider(digest)
    embedder = HashFeatureEmbedder(32)
    persona_index, table_indexes = build_routing_indexes(registry, embedder)
    queries = [(instance.text, len(instance.gold_routes)) for instance in bench_mixed]
    queries += [(query, n) for query in (EQUITY_QUERY, FUND_HOLDINGS_QUERY, JUNK_QUERY,
                                         SPLIT_QUERY) for n in (1, 2, 3)]
    unroutable = 0
    for query, n in queries:
        outcomes = [
            route_generative(query, provider, registry, n_routes=n),
            route_swarm(query, provider, registry, SwarmConfig(), n_routes=n),
            route_swarm(query, provider, registry, SwarmConfig(n_agents=7), n_routes=n),
            route_embedding(query, persona_index, table_indexes, embedder, n_routes=n),
        ]
        for outcome in outcomes:
            row = {"strategy": outcome.strategy,
                   "predicted": [r.label() for r in outcome.predicted],
                   "unroutable": outcome.unroutable,
                   "transcript": list(outcome.transcript)}
            digest.update(json.dumps(row, sort_keys=True).encode("utf-8") + b"\n")
            unroutable += outcome.unroutable
    assert provider.calls > 0 and 0 < unroutable < len(queries)
    assert digest.hexdigest() == GOLDEN_ROUTING_SHA256


# ---------------------------------------------------------------------------
# Scoring


def _outcome(*routes, unroutable=False):
    return RoutingOutcome(tuple(routes), strategy="generative",
                          unroutable=unroutable)


def test_score_perfect_single_route():
    score = score_routing([(_outcome(R_13F), [R_13F])])
    assert (score.acc_agent, score.acc_table_given_agent,
            score.acc_overall) == (1.0, 1.0, 1.0)
    assert score.confusion == {"13F": {"13F": 1}}
    assert score.n_samples == 1
    assert score.n_units == 1


def test_score_right_agent_wrong_table():
    wrong = Route(FilingType.parse("NPORT"), "nport_holdings")
    score = score_routing([(_outcome(wrong), [R_NP_INFO])])
    assert score.acc_agent == 1.0
    assert score.acc_table_given_agent == 0.0
    assert score.acc_overall == 0.0


def test_score_is_positional_within_an_agent():
    swapped = _outcome(R_NP_HOLD, R_NP_INFO)
    score = score_routing([(swapped, [R_NP_INFO, R_NP_HOLD])])
    assert score.acc_agent == 1.0
    assert score.acc_overall == 0.0


def test_score_is_positional_across_agents():
    swapped = _outcome(R_ADV, R_13F)
    score = score_routing([(swapped, [R_13F, R_ADV])])
    assert score.acc_agent == 0.0
    assert score.acc_overall == 0.0
    assert score.confusion == {"13F": {"ADV": 1}, "ADV": {"13F": 1}}


def test_score_fractional_and_missing_slots():
    pairs = [
        (_outcome(R_13F), [R_13F]),
        (_outcome(R_13F), [R_13F, R_ADV]),
        (_outcome(unroutable=True), [R_ADV]),
    ]
    score = score_routing(pairs)
    assert score.acc_agent == 0.5
    assert score.acc_overall == 0.5
    assert score.acc_table_given_agent == 1.0
    assert score.n_units == 4
    assert score.confusion == {"13F": {"13F": 2},
                               "ADV": {NO_PREDICTION: 2}}


def test_score_binary_mode_credits_any_hit():
    pairs = [
        (_outcome(R_13F), [R_13F]),
        (_outcome(R_13F), [R_13F, R_ADV]),
        (_outcome(unroutable=True), [R_ADV]),
    ]
    score = score_routing(pairs, partial_credit="binary")
    assert score.acc_agent == pytest.approx(2 / 3)
    assert score.acc_overall == pytest.approx(2 / 3)
    assert score.acc_table_given_agent == 1.0


def test_score_rejects_bad_inputs():
    with pytest.raises(ValueError, match="partial_credit"):
        score_routing([], partial_credit="generous")
    with pytest.raises(ValueError, match="non-empty"):
        score_routing([(_outcome(R_13F), [])])


def test_score_empty_batch_is_all_zero():
    score = score_routing([])
    assert score.acc_overall == 0.0
    assert score.acc_table_given_agent == 0.0
    assert score.n_samples == 0


WRONG_TABLE = Route(FilingType.parse("13F"), "not_the_table")


@st.composite
def single_route_flags(draw):
    flags = draw(st.lists(st.sampled_from(["joint", "agent", "miss"]),
                          min_size=1, max_size=50))
    return flags


@given(single_route_flags())
@settings(max_examples=200, deadline=None)
def test_score_identity_holds_on_single_route_batches(flags):
    pred = {"joint": R_13F, "agent": WRONG_TABLE, "miss": R_ADV}
    pairs = [(_outcome(pred[f]), [R_13F]) for f in flags]
    score = score_routing(pairs)
    n = len(flags)
    joint = flags.count("joint")
    agent = joint + flags.count("agent")
    assert score.acc_agent == agent / n
    assert score.acc_overall == joint / n
    product = score.acc_agent * score.acc_table_given_agent
    assert abs(score.acc_overall - product) <= 1e-12
    assert abs(score.acc_overall * n - joint) < 1e-9
