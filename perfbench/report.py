"""Run every workload over a range of seeds and print each metric by name,
with its unit, median, quartiles and run-to-run spread, plus ops attempted
and failed. Every run lasts BENCHMARK.json's ``run_seconds``.

    python3 perfbench/report.py                     # seed 1, end-to-end metrics
    python3 perfbench/report.py --seeds 1-10        # spread check over ten seeds
    python3 perfbench/report.py --trace 1           # per-layer metrics and overhead
    python3 perfbench/report.py --seeds 1-10 --out results.json

Runs go one at a time through ``perfbench/run.py``, so each is measured on
its own. The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; it is compared with the metric's
bound from BENCHMARK.json and marked ``!`` when above a third of it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            record, result = run_once(workload, seed, seconds, args.trace)
            doc.setdefault("env", record["env"])
            runs.append({"seed": seed, "record": record, **result})
            print(f"# {workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
        summary = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in metrics}
        doc["workloads"][workload] = {"runs": runs, "summary": summary}

        print(f"\n{workload}  sizes {json.dumps(runs[0]['record']['sizes'], sort_keys=True)}  "
              f"runs {len(runs)}  attempted {sum(r['attempted'] for r in runs)}  "
              f"failed {sum(r['failed'] for r in runs)}  "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':38s} {'unit':7s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in metrics:
            s = summary[m["name"]]
            bound = m.get("bound")
            flag = "!" if bound is not None and s["spread"] > bound / 3 else ""
            print(f"  {m['name']:38s} {m['unit']:7s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    print("\nenvironment " + json.dumps(doc.get("env", {}), sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
