"""Generate one workload's inputs for one seed, in a process of its own.

    python3 perfbench/inputs.py --workload agentic-qa --seed 1 --out DIR

Writes ``corpus.jsonl`` (agentic-qa and retrieval-study only),
``bench.jsonl`` and ``order.json`` into DIR, and prints the workload's
sizes as one JSON line. The measured process only reads these files.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, generate_inputs

    workload = WORKLOADS[args.workload]
    sizes = generate_inputs(workload, args.seed, workload.sizes, Path(args.out))
    print(json.dumps(sizes, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
