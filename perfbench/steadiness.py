"""Steadiness report: run the benchmark on several seeds and summarise.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]
                                    [--first-seed 1] [--trace 0]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json, and prints one JSON object: nproc, the
Python version, and per workload and metric the median, first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        digests = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            *_, summary, result = proc.stdout.splitlines()
            result = json.loads(result)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect output")
            digests.append(json.loads(summary)["output_digest"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        rows = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else None,
                            "bound": bounds.get(metric), "values": vals}
        report["workloads"][name] = {"metrics": rows,
                                     "output_digests": digests}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
