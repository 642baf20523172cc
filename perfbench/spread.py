"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

Runs one workload once per seed (one after another, never in
parallel) and prints, per end-to-end metric, the median of the runs and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
benchmark is steady when each spread stays below a third of the
metric's bound.  Run from the repository root::

    python3 perfbench/spread.py --workload tpch-q1 --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        started = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(done.stdout, file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(
            f"seed {seed}: wall={elapsed:.1f}s attempted={result['attempted']} "
            + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
            flush=True,
        )
    steady = True
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread < metric["bound"] / 3
        steady &= ok
        print(
            f"{args.workload:<14} {metric['name']:<12} median={med:.6g} "
            f"spread={spread:.4f} bound/3={metric['bound'] / 3:.4f} "
            f"{'ok' if ok else 'TOO WIDE'}"
        )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
