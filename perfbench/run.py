"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload agentic-qa --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Inputs for the seed are generated first by ``perfbench/inputs.py``
in a separate process, so the measured process only reads files and its
peak RSS is its own. Every time is read from ``clock.SpeedClock`` and is in
reference seconds (see clock.py); the raw wall times go into the record.
A set-up sample runs from before the package is imported to the first op;
``setup_s`` is the median of the measured process's own sample and those of
a few fresh interpreters that only import and set up.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of one traced
set-up and one traced pass, and the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``. The line before it is the
run record: environment, workload sizes, load model and raw timings.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("agentic-qa", "retrieval-study", "routing-study")
MIN_PASSES = 3
# setup_s is the median of SETUP_SAMPLES cold set-ups: the measured
# process's own and those of fresh interpreters that do nothing else.
SETUP_SAMPLES = 3
SETUP_PROBE = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[3:]
from perfbench.clock import SpeedClock
from perfbench.run import cold_setup
with SpeedClock() as clock:
    print(cold_setup(sys.argv[1], Path(sys.argv[2]), clock)[2])
"""

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("quality", "ratio"),
    ("peak_rss_mb", "MB"),
)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np
    from importlib import metadata

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        metadata.distribution("filingswarm")
        installed = True
    except metadata.PackageNotFoundError:
        installed = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(root),
        "pip_installed": installed,
    }


def gate(workload, state, pr, verdict, tracer) -> None:
    """Check one pass outside its timed region, then drop its outputs so
    memory does not grow with the number of passes."""
    workload.check_pass(state, pr, verdict, tracer)
    pr.outputs = None


def run_passes(workload, state, verdict, now, seconds: float, min_passes: int,
               walls: list[float] | None = None) -> list:
    """Untraced passes until ``seconds`` of wall time have gone by, and at
    least ``min_passes``; each pass's wall time is appended to ``walls``."""
    from perfbench.spans import NullTracer

    null = NullTracer()
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        wall = perf_counter()
        pr = workload.run_pass(state, null, len(passes), now)
        if walls is not None:
            walls.append(perf_counter() - wall)
        gate(workload, state, pr, verdict, null)
        passes.append(pr)
    return passes


def cold_setup(name: str, workdir: Path, clock):
    """Import the package and set the workload up, as a fresh process does
    before its first op. Returns the workload, its state and the reference
    seconds both took."""
    start = clock.read()
    from perfbench.spans import NullTracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup(workdir, NullTracer())
    return workload, state, clock.read() - start


def probe_setups(name: str, workdir: Path, count: int) -> list[float]:
    """Cold set-up times of ``count`` fresh interpreters, one after another."""
    paths = [str(ROOT / "src"), str(ROOT)]
    samples = []
    for _ in range(count):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, name, str(workdir), *paths],
                               stdout=subprocess.PIPE, text=True, check=True)
        samples.append(float(probe.stdout))
    return samples


def typical_op_seconds(passes) -> list[float]:
    """Each op's median time over the run's passes. Every pass runs the same
    ops in the same order, so this drops one-off stalls and an op caught by
    a speed switch between two clock samples, which can err either way,
    while keeping each op's own cost."""
    return [statistics.median(times) for times in zip(*(p.latencies for p in passes))]


def measure(name: str, workdir: Path, seed: int, seconds: float, clock):
    # first, so that the package's import is part of the set-up sample
    workload, state, first_setup = cold_setup(name, workdir, clock)
    from perfbench.layers import percentile
    from perfbench.workloads import Verdict

    verdict = Verdict()
    walls: list[float] = []
    passes = run_passes(workload, state, verdict, clock.read, seconds, MIN_PASSES, walls)
    # peak memory of set-up and passes, before the once-per-run gates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish(state, verdict, seed)
    state = None  # freed before the probes load their own copies
    setups = [first_setup, *probe_setups(name, workdir, SETUP_SAMPLES - 1)]
    per_op = typical_op_seconds(passes)
    attempted = sum(p.ops for p in passes)
    completed_share = max(attempted - verdict.failed, 0) / attempted
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed_share * passes[0].ops / sum(per_op),
        "latency_p50_ms": 1e3 * percentile(per_op, 0.50),
        "latency_p95_ms": 1e3 * percentile(per_op, 0.95),
        "latency_p99_ms": 1e3 * percentile(per_op, 0.99),
        "quality": verdict.quality,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"setup_samples_s": setups,
              "pass_s": [p.seconds for p in passes], "pass_wall_s": walls}
    return passes, verdict, {name: (values[name], unit) for name, unit in END_TO_END}, detail


def measure_traced(workload, workdir: Path, seed: int, seconds: float, clock,
                   spans_path: Path):
    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import Verdict

    tracer = Tracer(now=clock.read)
    with tracer.installed(layers.PATCHES):
        state = workload.setup(workdir, tracer)
    verdict = Verdict()
    passes = run_passes(workload, state, verdict, clock.read, seconds, 1)
    with tracer.installed(layers.PATCHES):
        traced = workload.run_pass(state, tracer, len(passes), clock.read)
    gate(workload, state, traced, verdict, tracer)
    passes.append(traced)
    workload.finish(state, verdict, seed)
    untraced = statistics.median(p.ops / p.seconds for p in passes[:-1])
    overhead = 1.0 - (traced.ops / traced.seconds) / untraced
    values = layers.layer_metrics(tracer.spans, verdict.routing_acc, overhead)
    tracer.write_jsonl(spans_path)
    units = dict(layers.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in layers.PER_LAYER}
    return passes, verdict, metrics, {"spans": len(tracer.spans),
                                      "pass_s": [p.seconds for p in passes]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "filingswarm" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    # One client, one compute thread: BLAS must not add threads of its own.
    # Set before numpy is first imported; child processes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.clock import SpeedClock

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gen = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "inputs.py"),
             "--workload", args.workload, "--seed", str(args.seed), "--out", str(workdir)],
            stdout=subprocess.PIPE, text=True, check=False)
        if gen.returncode != 0:
            print(f"error: input generation exited with {gen.returncode}", file=sys.stderr)
            return 2
        sizes = json.loads(gen.stdout.strip().splitlines()[-1])

        with SpeedClock() as clock:
            if args.trace:
                from perfbench.workloads import WORKLOADS

                spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
                passes, verdict, metrics, detail = measure_traced(
                    WORKLOADS[args.workload], workdir, args.seed, args.seconds, clock,
                    spans_path)
            else:
                passes, verdict, metrics, detail = measure(
                    args.workload, workdir, args.seed, args.seconds, clock)
        samples = sorted(clock.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"env": environment(ROOT), "workload": args.workload, "seed": args.seed,
              "sizes": sizes, "load": "closed loop, 1 client",
              "calibration_ms": {"min": 1e3 * samples[0],
                                 "median": 1e3 * statistics.median(samples),
                                 "max": 1e3 * samples[-1], "samples": len(samples)},
              **detail}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": sum(p.ops for p in passes),
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
