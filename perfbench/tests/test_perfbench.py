"""Tests of the benchmark itself: span arithmetic, wrapper restoration, the
correctness gates against injected faults, a tiny pass of every workload,
and the agreement between BENCHMARK.json and the code.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from filingswarm import evalrun, pipeline, routing, vindex
from filingswarm.corpus.schema import FilingType
from filingswarm.plans import ListValue, Scalar
from filingswarm.routing import Route, RoutingOutcome
from filingswarm.vindex import FlatIndex, IndexScope
from perfbench import gates, layers, run
from perfbench.clock import SpeedClock
from perfbench.spans import NullTracer, Span, Tracer, self_times
from perfbench.workloads import WORKLOADS, Sizes, Verdict, generate_inputs

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "agentic-qa": Sizes(records_per_table=120, filers=8, per_template=2, variegate_n=1),
    "retrieval-study": Sizes(records_per_table=120, filers=8, per_template=2),
    "routing-study": Sizes(records_per_table=120, filers=8, per_template=2, variegate_n=1),
}


def test_self_times_of_a_hand_built_tree():
    spans = [
        Span(1, None, "op", "root", 0.0, 10.0, None),
        Span(2, 1, "op", "a", 1.0, 4.0, None),
        Span(3, 1, "op", "b", 3.0, 6.0, None),   # overlaps a
        Span(4, 1, "op", "c", 8.0, 12.0, None),  # runs past its parent
        Span(5, 2, "op", "d", 2.0, 3.0, None),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}


def test_tracer_nests_spans_under_the_op():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, k, r: {"out": r})
    with tracer.span("op", op="0:0"):
        assert inner(1) == 2
    child, parent = tracer.spans
    assert (child.name, child.parent, child.op, child.attrs) == ("inner", parent.span_id,
                                                                 "0:0", {"out": 2})
    assert parent.parent is None and parent.start <= child.start <= child.end <= parent.end


def test_wrapped_exception_is_recorded_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0].attrs == {"error": "ValueError"}


def test_installed_patches_are_always_restored():
    originals = [getattr(module, attr) for module, attr, _, _ in layers.PATCHES]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.PATCHES):
            assert pipeline.execute_plan is not originals[5]
            raise RuntimeError("interrupted pass")
    assert [getattr(module, attr) for module, attr, _, _ in layers.PATCHES] == originals


def test_speed_clock_is_monotonic_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    readings = []
    with SpeedClock() as clock:
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            readings.append(clock.read())
    assert len(clock.samples) > 2
    assert readings == sorted(readings) and readings[-1] > readings[0]
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _index(n: int = 5000, seed: int = 3) -> FlatIndex:
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, 8)).astype(np.float32)
    vectors[7] = vectors[3]  # an exact tie, broken by record id
    return FlatIndex(IndexScope.global_(), 8, [f"r{i:04d}" for i in range(n)], vectors)


def test_naive_scan_matches_the_one_row_canonical_distance():
    index = _index()
    query = index.vectors[3] + np.float32(0.01)
    expected = sorted((vindex.canonical_distance(x, query), rid)
                      for x, rid in zip(index.vectors, index.record_ids))
    assert gates.naive_knn(index.vectors, index.record_ids, query, 10) == \
        [(rid, d) for d, rid in expected[:10]]


def test_knn_gate_rejects_two_swapped_ids():
    index = _index()
    query = index.vectors[3] + np.float32(0.01)
    result = vindex.knn(index, query, 10)
    assert gates.knn_matches_naive(index, query, 10, result)
    swapped = list(result)
    (a, da), (b, db) = swapped[1], swapped[4]
    swapped[1], swapped[4] = (b, da), (a, db)
    assert not gates.knn_matches_naive(index, query, 10, swapped)


def test_repeat_gate_rejects_an_altered_answer():
    keys = ["q1", "q2", "q1", "q2"]
    answers = [Scalar(1.0), ListValue(("x",)), Scalar(1.0), ListValue(("x",))]
    assert gates.repeat_mismatches(keys, answers) == []
    altered = answers[:3] + [ListValue(("y",))]
    assert gates.repeat_mismatches(keys, altered) == [3]


def test_routing_gate_rejects_a_perturbed_score():
    gold = [Route(FilingType.NPORT, "nport_holdings")]
    wrong = RoutingOutcome((Route(FilingType.NPORT, "nport_derivatives"),), "generative")
    right = RoutingOutcome(tuple(gold), "generative")
    score = routing.score_routing([(right, gold), (wrong, gold), (right, gold)])
    assert gates.routing_identity_holds(score)
    assert not gates.routing_identity_holds(replace(score, acc_overall=score.acc_overall + 1e-9))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_of_each_workload_has_no_failed_op(name, tmp_path):
    workload = WORKLOADS[name]
    sizes = generate_inputs(workload, 5, TINY[name], tmp_path)
    assert sizes["ops_per_pass"] > 0
    state = workload.setup(tmp_path, NullTracer())
    verdict = Verdict()
    passes = run.run_passes(workload, state, verdict, time.perf_counter, 0.0, 2)
    workload.finish(state, verdict, 5)
    assert verdict.failed == 0
    assert [p.ops for p in passes] == [sizes["ops_per_pass"]] * 2
    assert 0.0 < verdict.quality <= 1.0


@pytest.mark.parametrize("name, module, attr", [
    ("agentic-qa", evalrun, "judge_success"),
    ("retrieval-study", vindex, "knn"),
    ("routing-study", routing, "score_routing"),
])
def test_a_check_that_raises_counts_failed_ops(name, module, attr, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    generate_inputs(workload, 7, TINY[name], tmp_path)
    state = workload.setup(tmp_path, NullTracer())
    pr = workload.run_pass(state, NullTracer(), 0, time.perf_counter)

    def boom(*args, **kwargs):
        raise RuntimeError(f"{attr} regression")

    monkeypatch.setattr(module, attr, boom)
    verdict = Verdict()
    run.gate(workload, state, pr, verdict, NullTracer())
    workload.finish(state, verdict, 7)
    assert verdict.failed > 0


def test_setup_probe_times_a_cold_setup_in_a_fresh_interpreter(tmp_path):
    generate_inputs(WORKLOADS["routing-study"], 8, TINY["routing-study"], tmp_path)
    (seconds,) = run.probe_setups("routing-study", tmp_path, 1)
    assert seconds > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_pass_reports_every_layer_metric(name, tmp_path):
    workload = WORKLOADS[name]
    generate_inputs(workload, 6, TINY[name], tmp_path)
    tracer = Tracer()
    with tracer.installed(layers.PATCHES):
        state = workload.setup(tmp_path, tracer)
        traced = workload.run_pass(state, tracer, 0, tracer.now)
    verdict = Verdict()
    run.gate(workload, state, traced, verdict, tracer)
    workload.finish(state, verdict, 6)
    assert verdict.failed == 0
    metrics = layers.layer_metrics(tracer.spans, verdict.routing_acc, 0.0)
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["questbench.load_s"] > 0
    out = tmp_path / "spans.jsonl"
    tracer.write_jsonl(out)
    assert len(out.read_text(encoding="utf-8").splitlines()) == len(tracer.spans)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "agentic-qa", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
