"""Top-level acceptance checks, one per release criterion.

Each test prints a single [PASS]/[FAIL] line so the whole contract can be
read off a plain pytest run. These checks are deliberately oversized
compared to the unit suites: exactness against naive oracles, identity
arithmetic, reference-figure replication, ceiling replays, safety
properties over adversarial inputs, and wall-clock budgets.
"""
from __future__ import annotations

import random
import time
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filingswarm.corpus.records import CorpusStore, FilingRecord
from filingswarm.corpus.reconcile import ReconciliationError, reconcile
from filingswarm.corpus.schema import FilingType
from filingswarm.corpus.synthetic import SyntheticConfig, generate_synthetic
from filingswarm.evalrun import (
    build_oracle_route_embedder,
    build_perfect_fixtures,
    judge_success,
    report_to_markdown,
    run_agentic,
    run_retrieval_ablation,
    run_routing_ablation,
)
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.gateway.providers import ScriptedProvider
from filingswarm.gateway.types import GatewayError
from filingswarm.pipeline import screen_query
from filingswarm.plans import Aggregate, Filter, Plan, Retrieve, Return, execute_plan
from filingswarm.questbench import (
    TEMPLATES,
    canonical_plan,
    generate_benchmark,
    instantiate,
    oracle_solve,
)
from filingswarm.routing import Route, RoutingOutcome, SwarmConfig, route_swarm, score_routing
from filingswarm.vindex import (
    FlatIndex,
    HashFeatureEmbedder,
    IndexScope,
    build_index,
    knn,
    load_index,
    r_precision,
    save_index,
)


@contextmanager
def checkpoint(capsys, label: str):
    """Print exactly one [PASS]/[FAIL] line for the enclosed criterion."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def big_corpus(registry):
    store = generate_synthetic(SyntheticConfig(records_per_table=6667),
                               seed=17, registry=registry)
    return store, reconcile(store)


@pytest.fixture(scope="module")
def big_bench(big_corpus):
    _, view = big_corpus
    return generate_benchmark(view, per_template=20, seed=23)


def test_01_knn_matches_naive_oracle(capsys):
    """Exact top-k: ids, order, and distances identical to an all-pairs
    scan, tie order included, within the time budget."""
    with checkpoint(capsys, "01 exact knn matches a naive all-pairs oracle, "
                            "ties included"):
        rng = np.random.default_rng(101)
        # half-integer grid values make exact distance ties common, so the
        # tie-order part of the contract is actually exercised
        vectors = rng.integers(-2, 3, size=(1000, 64)).astype(np.float32) * 0.5
        queries = rng.integers(-2, 3, size=(200, 64)).astype(np.float32) * 0.5
        ids = [f"v{i:04d}" for i in range(1000)]
        index = FlatIndex(scope=IndexScope.global_(), dim=64,
                          record_ids=ids, vectors=vectors)

        start = time.monotonic()
        x64 = vectors.astype(np.float64)
        ties_seen = 0
        for q in queries:
            q64 = q.astype(np.float64)
            dists = np.sum((x64 - q64) ** 2, axis=1)
            ranked = sorted(zip(dists.tolist(), ids))
            for k in (1, 5, 10):
                expected = [(rid, d) for d, rid in ranked[:k]]
                got = knn(index, q, k)
                assert got == expected
                ties_seen += sum(1 for a, b in zip(got, got[1:])
                                 if a[1] == b[1])
        elapsed = time.monotonic() - start
        assert ties_seen > 0, "tie regime was never exercised"
        assert elapsed < 5.0, f"knn comparison took {elapsed:.2f}s"


def test_02_metric_identities(capsys):
    """R-Precision equals precision@R and recall@R; routing accuracy
    factorizes exactly and scales back to an integer hit count."""
    with checkpoint(capsys, "02 retrieval and routing metric identities "
                            "hold to 1e-12"):
        rng = random.Random(202)
        for _ in range(1000):
            universe = [f"r{i}" for i in range(rng.randint(5, 60))]
            r = rng.randint(1, min(20, len(universe)))
            relevant = rng.sample(universe, r)
            retrieved = rng.sample(universe, len(universe))
            rp = r_precision(retrieved, relevant)
            hits = len(set(retrieved[:r]) & set(relevant))
            assert abs(rp - hits / r) <= 1e-12

        gold = Route(FilingType.THIRTEEN_F, "thirteenf_holdings")
        table_miss = Route(FilingType.THIRTEEN_F, "adv_entity")
        agent_miss = Route(FilingType.ADV, "adv_entity")
        for _ in range(1000):
            pairs = []
            agent_tally = 0
            joint_tally = 0
            for _ in range(rng.randint(1, 40)):
                roll = rng.random()
                if roll < 0.5:
                    pred, agent_hit, joint_hit = gold, 1, 1
                elif roll < 0.75:
                    pred, agent_hit, joint_hit = table_miss, 1, 0
                elif roll < 0.9:
                    pred, agent_hit, joint_hit = agent_miss, 0, 0
                else:
                    pred, agent_hit, joint_hit = None, 0, 0
                agent_tally += agent_hit
                joint_tally += joint_hit
                outcome = RoutingOutcome((pred,) if pred else (), "generative",
                                         (), unroutable=pred is None)
                pairs.append((outcome, [gold]))
            score = score_routing(pairs, "fractional")
            assert abs(score.acc_overall
                       - score.acc_agent * score.acc_table_given_agent) <= 1e-12
            joint = score.acc_overall * score.n_samples
            agent = score.acc_agent * score.n_samples
            assert abs(joint - round(joint)) <= 1e-9
            assert abs(agent - round(agent)) <= 1e-9
            assert round(joint) == joint_tally
            assert round(agent) == agent_tally


def test_03_reference_accuracy_fixture(capsys):
    """A 1209-question fixture with 1000 correct agents and 991 correct
    joints lands on the reference figures: 0.827 agent accuracy, 0.991
    conditional table accuracy, 0.820 overall."""
    with checkpoint(capsys, "03 reference routing fixture reproduces "
                            "0.827 x 0.991 ~= 0.820"):
        gold = Route(FilingType.THIRTEEN_F, "thirteenf_holdings")
        table_miss = Route(FilingType.THIRTEEN_F, "adv_entity")
        agent_miss = Route(FilingType.ADV, "adv_entity")
        pairs = []
        for i in range(1209):
            if i < 991:
                pred = gold
            elif i < 1000:
                pred = table_miss
            else:
                pred = agent_miss
            pairs.append((RoutingOutcome((pred,), "generative", ()), [gold]))
        score = score_routing(pairs, "fractional")
        assert score.n_samples == 1209
        assert score.acc_agent == 1000 / 1209
        assert round(score.acc_agent, 3) == 0.827
        assert score.acc_table_given_agent == 0.991
        assert score.acc_overall == 991 / 1209
        assert abs(score.acc_overall - 0.820) <= 0.001
        assert abs(score.acc_agent * score.acc_table_given_agent - 0.820) <= 0.001


def test_04_scope_hierarchy(capsys, big_corpus, big_bench, registry):
    """On a 10k+ record corpus and 200+ questions, narrowing the index
    scope never lowers aggregate R-Precision, and the single-table filing
    scores identically at filing and table scope."""
    with checkpoint(capsys, "04 narrower index scopes never hurt aggregate "
                            "r-precision"):
        store, view = big_corpus
        assert len(store.records) >= 10_000
        assert len(big_bench) >= 200
        report = run_retrieval_ablation(big_bench, view,
                                        HashFeatureEmbedder(64), registry)
        overall = {kind: report["scopes"][kind]["overall"]["r_precision"]
                   for kind in ("global", "agent", "table")}
        assert overall["table"] + 1e-12 >= overall["agent"]
        assert overall["agent"] + 1e-12 >= overall["global"]
        assert (report["scopes"]["agent"]["per_filing"]["13F"]
                == report["scopes"]["table"]["per_filing"]["13F"])


def test_05_plans_match_oracles(capsys, small_view, registry):
    """Canonical executable plans agree with the plan-free oracle solvers
    on 500 random instances per template, within the time budget."""
    with checkpoint(capsys, "05 canonical plans match plan-free oracles on "
                            "5500 instances"):
        start = time.monotonic()
        total = 0
        for template_id in sorted(TEMPLATES):
            rng = random.Random(f"acceptance:{template_id}")
            template = TEMPLATES[template_id]
            for _ in range(500):
                instance = instantiate(template, small_view, rng)
                gold_answer, _ = oracle_solve(instance, small_view)
                produced = execute_plan(canonical_plan(instance, small_view),
                                        small_view, registry)
                assert judge_success(produced, gold_answer), \
                    (template_id, instance.slot_values)
                total += 1
        elapsed = time.monotonic() - start
        assert total == 500 * len(TEMPLATES)
        assert elapsed < 60.0, f"oracle comparison took {elapsed:.2f}s"


def test_06_perfect_provider_ceiling(capsys, bench, small_view, registry):
    """Replayed gold fixtures score 100% through the generative and swarm
    routers and the full pipeline; an oracle embedder does the same for
    embedding routing."""
    with checkpoint(capsys, "06 perfect-provider replays hit 100% on every "
                            "strategy"):
        recorder = build_perfect_fixtures(bench, small_view, registry)
        scripted = ScriptedProvider(recorder.captured)

        gen = run_routing_ablation(bench, "generative", registry,
                                   provider=scripted)
        assert gen["splits"]["overall"]["both"]["acc_overall"] == 1.0
        swarm = run_routing_ablation(bench, "swarm", registry,
                                     provider=scripted)
        assert swarm["splits"]["overall"]["both"]["acc_overall"] == 1.0

        agentic = run_agentic(bench, scripted, small_view, registry)
        assert agentic["splits"]["easy"]["both"]["success_rate"] == 1.0
        assert agentic["splits"]["overall"]["both"]["success_rate"] == 1.0

        oracle = build_oracle_route_embedder(bench, registry)
        emb = run_routing_ablation(bench, "embedding", registry,
                                   embedder=oracle)
        assert emb["splits"]["overall"]["both"]["acc_overall"] == 1.0


def test_07_superseded_filings_stay_hidden(capsys, registry):
    """Amendment chains up to depth 4: superseded records never appear in
    the view, in an index, in benchmark relevance sets, or among a plan's
    supporting records; dangling and cyclic chains are rejected."""
    period = date(2023, 3, 31)

    def adv_row(filer: str, accession: str, amends: str | None,
                aum: float) -> FilingRecord:
        return FilingRecord(
            record_id=f"{accession}:0", accession_id=accession,
            filing_type=FilingType.ADV, table_id="adv_entity",
            filer_id=filer, period=period,
            is_amendment=amends is not None, amends=amends,
            fields={"advisor_id": filer, "advisor_name": f"Advisor {filer}",
                    "regulatory_aum": aum, "period": period.isoformat()})

    aum_plan = Plan((
        Retrieve("r1", FilingType.ADV, "adv_entity",
                 (Filter("period", "eq", period.isoformat()),)),
        Aggregate("a1", "r1", "sum", value_field="regulatory_aum"),
        Return("ret", "a1")))

    @settings(max_examples=100, deadline=None)
    @given(depth=st.integers(1, 4), depth2=st.integers(0, 4),
           shuffle=st.integers(0, 2**32 - 1))
    def chains_hide_superseded(depth: int, depth2: int, shuffle: int) -> None:
        records = []
        visible: set[str] = set()
        superseded: set[str] = set()
        for filer, d in (("ADV0001", depth), ("ADV0002", depth2)):
            prev = None
            for i in range(d):
                accession = f"{filer}-A{i}"
                records.append(adv_row(filer, accession, prev,
                                       100.0 + 10.0 * i))
                prev = accession
            if d:
                visible.add(f"{filer}-A{d - 1}:0")
                superseded |= {f"{filer}-A{i}:0" for i in range(d - 1)}
        random.Random(shuffle).shuffle(records)
        store = CorpusStore(registry)
        for record in records:
            store.add(record)
        view = reconcile(store)

        assert {r.record_id for r in view.records} == visible
        for rid in superseded:
            assert rid not in view
        index = build_index(view, IndexScope.global_(), HashFeatureEmbedder(8))
        assert set(index.record_ids) == visible

        answer = execute_plan(aum_plan, view, registry)
        assert answer.supporting_record_ids <= frozenset(visible)

        instance = instantiate(TEMPLATES["E2"], view,
                               random.Random(shuffle ^ 0xA5A5))
        assert instance.relevant_record_ids <= frozenset(visible)
        assert not instance.relevant_record_ids & superseded

    with checkpoint(capsys, "07 superseded filings are never visible, "
                            "retrievable, relevant, or cited"):
        chains_hide_superseded()

        dangling = CorpusStore(registry)
        dangling.add(adv_row("ADV0001", "B1", "GHOST", 1.0))
        with pytest.raises(ReconciliationError):
            reconcile(dangling)

        cyclic = CorpusStore(registry)
        cyclic.add(adv_row("ADV0001", "C1", "C2", 1.0))
        cyclic.add(adv_row("ADV0001", "C2", "C1", 2.0))
        with pytest.raises(ReconciliationError):
            reconcile(cyclic)


def test_08_swarm_termination_and_determinism(capsys, registry):
    """1000 seeded swarm runs: bounded rounds, identical replays, early
    stops only on unanimity, and a full-length transcript otherwise."""
    unanimous_query = ('Calculate the aggregate cash equity position value '
                      'for manager "Blue Harbor Capital" for period 2024-03-31.')
    split_query = ("Break down the derivative notional by counterparty and "
                   "the money market maturity profile.")

    class Cycler:
        """Deterministic chaos: cycles valid and invalid candidate names,
        so members disagree, reprompt, and sometimes abstain."""

        _AGENTS = ("13F", "ADV", "NCEN", "NPORT", "NMFP", "NOPE")
        _TABLES = ("thirteenf_holdings", "adv_entity", "ncen_fund_registry",
                   "nport_holdings", "bogus_table")

        def __init__(self, salt: int):
            self.salt = salt
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            pool = self._AGENTS if request.tag == "route_agent" else self._TABLES
            content = pool[(self.calls * 7 + self.salt) % len(pool)]
            return content

    with checkpoint(capsys, "08 swarm runs terminate, replay identically, "
                            "and stop early only on unanimity"):
        seen = {"early": 0, "capped": 0, "abstained": 0}
        for seed in range(500):
            config = SwarmConfig(n_agents=2 + seed % 4,
                                 max_timesteps=2 + seed % 3, seed=seed)

            def run():
                kind = seed % 3
                if kind == 0:
                    return route_swarm(unanimous_query, DeterministicProvider(),
                                       registry, config)
                if kind == 1:
                    return route_swarm(split_query, DeterministicProvider(),
                                       registry, config)
                return route_swarm(split_query, Cycler(seed), registry, config)

            first, second = run(), run()
            assert first == second

            rounds = [e for e in first.transcript if "timestep" in e]
            assert 1 <= len(rounds) <= config.max_timesteps
            has_final = bool(first.transcript) and "final" in first.transcript[-1]
            if not has_final:
                # every member abstained every round: no vote possible
                assert first.unroutable
                assert len(rounds) == config.max_timesteps
                seen["abstained"] += 1
                continue
            unanimous = first.transcript[-1]["unanimous"]
            if len(rounds) < config.max_timesteps:
                assert unanimous, "stopped early without unanimity"
            if unanimous:
                proposals = rounds[-1]["proposals"]
                assert all(e["routes"] is not None for e in proposals)
                assert len({tuple(e["routes"]) for e in proposals}) == 1
                seen["early"] += 1
            else:
                assert len(rounds) == config.max_timesteps
                seen["capped"] += 1
        assert seen["early"] > 0
        assert seen["capped"] > 0


def test_09_screening_respects_rewrite_budget(capsys):
    """Adversarial classifiers and rewriters can never drive the screening
    loop past its rewrite cap, across 1000 cases."""

    class AdversarialScreen:
        def __init__(self, mode: str, flip_at: int):
            self.mode = mode
            self.flip_at = flip_at
            self.classify_calls = 0
            self.rewrite_calls = 0

        def complete(self, request):
            content = request.last_user_content()
            query = content[len("QUERY: "):] if content.startswith("QUERY: ") else content
            if request.tag == "classify":
                self.classify_calls += 1
                if self.mode == "flip" and self.classify_calls > self.flip_at:
                    return "non_hallucinatory 0.9"
                return "hallucinatory 0.99"
            if request.tag == "rewrite":
                self.rewrite_calls += 1
                if self.mode == "noop":
                    return query
                if self.mode == "empty":
                    return "   "
                return query + " again"
            raise GatewayError(f"unexpected tag {request.tag!r}")

    with checkpoint(capsys, "09 screening never exceeds its rewrite budget"):
        rng = random.Random(909)
        for case in range(1000):
            mode = ("always", "noop", "empty", "flip")[case % 4]
            max_rewrites = case % 5
            provider = AdversarialScreen(mode, rng.randint(1, max_rewrites + 1))
            result = screen_query(f"case {case} question with no cue",
                                  provider, max_rewrites=max_rewrites)
            assert provider.rewrite_calls <= max_rewrites
            assert result.rewrites <= provider.rewrite_calls
            assert result.lineage[0] == f"case {case} question with no cue"
            assert all(a != b for a, b in zip(result.lineage, result.lineage[1:]))
            assert result.verdict in ("hallucinatory", "non_hallucinatory")
            if mode == "always":
                # the hostile classifier burns the whole budget, never more
                assert provider.rewrite_calls == max_rewrites
                assert provider.classify_calls == max_rewrites + 1
                assert result.verdict == "hallucinatory"
            elif mode in ("noop", "empty"):
                # a rewrite that changes nothing must end the loop at once
                assert provider.rewrite_calls == min(1, max_rewrites)
                assert result.rewrites == 0
                assert result.verdict == "hallucinatory"
            else:
                flipped = provider.flip_at <= max_rewrites
                assert result.verdict == ("non_hallucinatory" if flipped
                                          else "hallucinatory")


def test_10_indexing_performance_budget(capsys, registry, tmp_path):
    """Build every table-scope index over a 100k-record corpus and answer
    1000 queries inside 10 seconds; snapshots round trip byte-for-byte."""
    with checkpoint(capsys, "10 100k-record indexing plus 1000 queries fits "
                            "the 10s budget"):
        store = generate_synthetic(
            SyntheticConfig(records_per_table=20000, filers=80),
            seed=13, registry=registry)
        assert len(store.records) >= 100_000
        view = reconcile(store)
        embedder = HashFeatureEmbedder(64)

        start = time.monotonic()
        indexes = {schema.table_id: build_index(
                       view, IndexScope.table(schema.table_id), embedder)
                   for schema in registry.all_tables()}
        table_ids = sorted(tid for tid, ix in indexes.items() if len(ix))
        queries = np.random.default_rng(77).standard_normal((1000, 64)) \
            .astype(np.float32)
        for i, query in enumerate(queries):
            index = indexes[table_ids[i % len(table_ids)]]
            assert knn(index, query, min(10, len(index)))
        elapsed = time.monotonic() - start
        assert sum(len(ix) for ix in indexes.values()) == len(view.records)
        assert elapsed < 10.0, f"index build plus queries took {elapsed:.2f}s"

        largest = max(indexes.values(), key=len)
        first, second = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(largest, first, embedder.fingerprint)
        loaded, fingerprint = load_index(first)
        assert fingerprint == embedder.fingerprint
        assert loaded.record_ids == largest.record_ids
        assert np.array_equal(loaded.vectors, largest.vectors)
        save_index(loaded, second, fingerprint)
        assert first.read_bytes() == second.read_bytes()


def test_11_difficulty_split_and_report_shapes(capsys, bench, small_view, registry):
    """An honest deterministic run answers easy questions strictly better
    than hard ones, and the combined report renders every table shape."""
    with checkpoint(capsys, "11 easy questions beat hard ones and all report "
                            "tables render"):
        det = DeterministicProvider()
        agentic = run_agentic(bench, det, small_view, registry)
        easy = agentic["splits"]["easy"]["both"]["success_rate"]
        hard = agentic["splits"]["hard"]["both"]["success_rate"]
        assert easy > hard, f"easy {easy:.3f} vs hard {hard:.3f}"

        retrieval = run_retrieval_ablation(bench, small_view,
                                           HashFeatureEmbedder(64), registry)
        routing = run_routing_ablation(bench, "generative", registry,
                                       provider=det)
        text = report_to_markdown({"retrieval": retrieval,
                                   "routing": [routing],
                                   "agentic": agentic})
        assert "## Retrieval scope ablation" in text
        assert "| Scope |" in text
        assert "## Routing strategies" in text
        assert "| Split | Variant |" in text
        assert "## Agentic question answering" in text
        assert "| Filing | Success | N |" in text
        assert "| Split | Templated | Variegated | Both |" in text
