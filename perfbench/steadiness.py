"""Run workloads repeatedly and print each metric's median and quartile spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--seed0 1]
                                    [--seconds S] [--trace 0|1]

Each run is a fresh `python3 perfbench/run.py` process with its own
seed (seed0, seed0+1, ...), exactly as the benchmark is driven. The
spread is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4); the end-to-end bounds in
BENCHMARK.json are set from it. --seconds defaults to run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for k in range(args.runs):
            seed = args.seed0 + k
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"\n{workload}: {args.runs} runs, failed shares {sorted(shares, key=str)}")
        print(f"  {'metric':44s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above a third of its bound"
                worst = 1
            print(f"  {name:44s} {med:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")
        print(flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
