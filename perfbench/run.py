"""bruhatkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh interpreter (worker.py), which
drives ``bruhatkit.cli.main(argv)`` in-process for every op.  A run makes a
fixed number of passes: ``Workload.passes`` untraced ones with ``--trace 0``,
and TRACE_PASSES untraced and TRACE_PASSES traced ones, alternating, with
``--trace 1``.  The counts are sized so that a run lasts about ``--seconds``;
the time is only a safety stop, and no pass starts after SAFETY_FACTOR times
``--seconds`` (the summary line gives the passes made).

Times are reported in reference seconds (see to_reference): each timed
phase's wall time is scaled by REFERENCE_YARDSTICK_US over the mean time of
the yardstick that the worker ran around and during it.  Each op's latency
is its median over the passes, and run_s is the sum of those latencies.
setup_s is the median over passes and a few set-up-only starts, and
peak_rss_mb the median over passes.  The summary line gives the same times
in wall seconds.  On a workload of at least LATENCY_MIN_OPS ops it also
gives the p50 and p95 of the op latencies.  With ``--trace 1`` the
per-layer metrics (medians over traced passes, in wall time) are reported
with the ratio of traced to untraced run time.

Every op's exit code and stdout are checked against the committed golden
digests or the oracles in check.py, and one op per run is repeated as a
``python -m bruhatkit.cli`` subprocess whose stdout must be byte-identical.
The last stdout line is the JSON result; the line before it is a summary
with pass counts, sample counts, fail_ratio and the run's output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import ORACLES, load_golden
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Spans of the last traced pass are written here.
OUT_DIR = ROOT / ".perfbench"
PASS_TIMEOUT_S = 150

#: Set-up-only worker starts per untraced run, on top of one per pass.
SETUP_PROBES = 5
#: Passes of each kind in a traced run.
TRACE_PASSES = 2
#: No pass starts once this many times --seconds have gone by.
SAFETY_FACTOR = 1.6
#: The least op count at which p95 has ten samples beyond it.
LATENCY_MIN_OPS = 200
#: Yardstick time at which a reference second is a wall second: about what
#: worker.yardstick() takes on an uncontended core of the 2-core VM the
#: benchmark was sized on.
REFERENCE_YARDSTICK_US = 50.0

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _f:
    _bench = json.load(_f)
UNITS = {m["name"]: m["unit"]
         for m in _bench["end_to_end"] + _bench["per_layer"]}


def worker_env(t0: float) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # Element hashes do not depend on it, but fix it so that every pass
    # iterates string-keyed sets and dicts in the same order.
    env["PYTHONHASHSEED"] = "0"
    env["PERFBENCH_T0"] = repr(t0)
    return env


def run_pass(ops: list[Op], systems, trace: bool,
             spans: Path | None = None) -> dict:
    """Run every op once in a fresh worker process and return its result."""
    spec = {"root": str(ROOT), "systems": systems,
            "ops": [op.argv for op in ops], "trace": trace,
            "keep": [k for k, op in enumerate(ops) if op.check],
            "spans": str(spans) if spans else None}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
        capture_output=True, text=True, env=worker_env(t0),
        timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Checker:
    """Decides whether each op's output is correct, caching by digest."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.golden = load_golden()
        self._verdicts: dict[tuple[int, str], bool] = {}

    def ok(self, k: int, result: dict) -> bool:
        op = self.ops[k]
        if result["exit"] != 0:
            return False
        key = (k, result["sha256"])
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(op, result)
        return self._verdicts[key]

    def _judge(self, op: Op, result: dict) -> bool:
        gold = self.golden.get(op.key)
        if gold is not None and gold["sha256"] != result["sha256"]:
            return False
        if op.check is None:
            return gold is not None
        try:
            ORACLES[op.check](op.argv, result["text"])
        except (AssertionError, ValueError, KeyError, IndexError,
                TypeError) as exc:
            print(f"op {op.key!r} fails its oracle: {exc!r}",
                  file=sys.stderr)
            return False
        return True


def probe(op: Op) -> dict:
    """Run one op as `python -m bruhatkit.cli` and digest its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "bruhatkit.cli", *op.argv],
        capture_output=True, env=worker_env(time.perf_counter()),
        timeout=PASS_TIMEOUT_S)
    return {"exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()}


def to_reference(wall: float, yardstick_us: float) -> float:
    """A wall time, in any unit, corrected to the speed at which the
    yardstick takes REFERENCE_YARDSTICK_US.

    Other tenants of a shared VM's host slow the whole process down by up
    to twice, for seconds to minutes at a time, and a pass's wall time
    mostly measures that.  The yardstick is a fixed piece of pure-Python
    work timed right before, every few milliseconds during, and right after
    the phase, so it is slowed down with the phase and the ratio cancels the
    slowdown.  README.md gives the measured spreads with and without it.
    """
    return wall * REFERENCE_YARDSTICK_US / yardstick_us


def op_ms(results: list[dict], corrected: bool = True) -> list[float]:
    """Each op's median latency over the given passes, in reference
    milliseconds, or in wall milliseconds if not ``corrected``."""
    return [statistics.median(ms) for ms in zip(*(
        [to_reference(o["ms"], o["yardstick_us"]) if corrected else o["ms"]
         for o in r["ops"]] for r in results))]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the data."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    ops = workload.make_ops(seed)
    systems = [list(s) for s in workload.systems]
    checker = Checker(ops)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload_name}.jsonl"

    plan = ([False, True] * TRACE_PASSES if trace
            else [False] * workload.passes)
    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    for traced in plan:
        kinds = {k for k, _ in passes}
        if (kinds == set(plan) and
                time.perf_counter() - start > SAFETY_FACTOR * seconds):
            break
        passes.append((traced, run_pass(ops, systems, traced,
                                        spans_path if traced else None)))

    attempted = failed = 0
    for _, result in passes:
        for k, op_result in enumerate(result["ops"]):
            attempted += 1
            failed += not checker.ok(k, op_result)
    first = passes[0][1]["ops"]
    probe_op = workload.probe
    attempted += 1
    failed += probe(ops[probe_op]) != {"exit": first[probe_op]["exit"],
                                       "sha256": first[probe_op]["sha256"]}
    output_digest = hashlib.sha256(
        "".join(r["sha256"] for r in first).encode()).hexdigest()

    plain = [r for traced, r in passes if not traced]
    traced_runs = [r for traced, r in passes if traced]
    median = statistics.median
    summary = {"workload": workload_name, "seed": seed, "trace": int(trace),
               "passes": len(plain), "traced_passes": len(traced_runs),
               "planned_passes": len(plan),
               "ops_per_pass": len(ops), "fail_ratio": failed / attempted,
               "output_digest": output_digest}
    if trace:
        metrics = {}
        layer_runs = [r["layers"] for r in traced_runs]
        for name in layer_runs[0]:
            values = [lr[name] for lr in layer_runs]
            if name in ("untraced_functions", "spans", "dropped_spans"):
                summary[name] = values[-1]
            elif None in values:
                summary.setdefault("absent_counters", []).append(name)
            else:
                metrics[name] = median(values)
        metrics["cli.bytes_out"] = median(
            sum(o["bytes"] for o in r["ops"]) for r in traced_runs)
        metrics["cli.ops_failed"] = sum(
            not checker.ok(k, o) for r in traced_runs
            for k, o in enumerate(r["ops"]))
        metrics["trace.overhead_ratio"] = (sum(op_ms(traced_runs))
                                           / sum(op_ms(plain)))
    else:
        setups = plain + [run_pass([], systems, False)
                          for _ in range(SETUP_PROBES)]
        latencies = op_ms(plain)
        summary["setup_samples"] = len(setups)
        summary["setup_wall_s"] = median(r["setup_s"] for r in setups)
        summary["run_wall_s"] = sum(op_ms(plain, corrected=False)) / 1000
        summary["yardstick_us"] = median(o["yardstick_us"] for r in plain
                                         for o in r["ops"])
        if len(latencies) >= LATENCY_MIN_OPS:
            # Not gated: a gated metric is reported on every workload, and
            # a percentile needs this many samples.
            summary["latency_samples"] = len(latencies)
            summary["op_p50_ms"] = percentile(latencies, 50)
            summary["op_p95_ms"] = percentile(latencies, 95)
        metrics = {
            "setup_s": median(
                to_reference(r["setup_s"], r["setup_yardstick_us"])
                for r in setups),
            "run_s": sum(latencies) / 1000,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bruhatkit" / "cli.py").is_file():
        print(f"no bruhatkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
