"""Paired A/B runs of the benchmark on two commits.

    python3 bench/ab.py PARENT CHANGE [--workloads a,b] [--pairs 10]
                        [--seed 0] [--slow] [--calls] [--out BENCH_<n>.json]

Exports each commit with ``git archive`` into its own temporary directory
and runs that copy's ``perfbench/run.py`` as it is, with ``--trace 0`` and
the ``run_seconds`` of the copy's BENCHMARK.json.  Each pair runs both
commits on the same seed, the parent first in even pairs and the change
first in odd ones.  Every run has PYTHONDONTWRITEBYTECODE=1 and starts with
no ``__pycache__`` in its copy, so no run reads bytecode an earlier run
wrote.  A run whose result is not ``correct`` stops the script.  Beside
the two commits it records the line counts of each copy's ``src/**/*.py``
(``src_lines``) and ``tests/**/*.py`` (``tests_lines``), which tell lines
deleted from lines moved into the tests.

For each workload and end-to-end metric it prints, and writes to ``--out``
when given, the median and quartiles of each side, and in how many pairs
the change was better (the metric's ``better`` direction; ties count for
neither side).  ``claimable`` is true when there are at least MIN_PAIRS
pairs, the change won at least nine in ten of them, and its median beats
the parent's by more than the distance between the parent's quartiles.
``regressed`` is its mirror: the change lost at least nine in ten, and its
median is worse by more than that distance.  The last line on stderr names
every regressed workload/metric.
Under ``summary_line`` it keeps, the same way but without a verdict, the
SUMMARY_FIELDS of each run's summary line: the uncorrected wall times and
the yardstick, which tell a drift of the yardstick from a change of work.

With ``--slow`` it also times each of the SLOW commands whole process
(``python -m bruhatkit.cli``, output discarded) in SLOW_PAIRS alternated
pairs, after the workloads, and keeps under ``slow`` their quartiles in
seconds, with no verdict: three pairs settle nothing, and nothing is gated
on them.  ``--workloads ""`` runs no workload.

With ``--calls`` it also runs, per workload and side, one untimed pass of
the seed's ops through that copy's ``bruhatkit.cli.main`` under
``sys.setprofile`` (CALLS_SCRIPT), and keeps under the workload's ``calls``
how many times each bruhatkit function was entered on each side: a
function's code counts once per call, and a generator's once per resume.
The counts show where a change of time comes from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10
#: Fields of a run's summary line kept beside its metrics.
SUMMARY_FIELDS = ("run_wall_s", "setup_wall_s", "yardstick_us")
#: The slow-path commands of ``--slow``, as CLI argv by name; the words are
#: the least reduced words of w0.
SLOW = {
    "A7_richardson_w0": [
        "complexity", "--type", "A", "--rank", "7", "--kind", "richardson",
        "--u", "id",
        "--v", "1.2.1.3.2.1.4.3.2.1.5.4.3.2.1.6.5.4.3.2.1.7.6.5.4.3.2.1"],
    "B4_scan_toric_richardson": [
        "scan", "--type", "B", "--rank", "4", "--target", "toric_richardson"],
    "D6_deodhar_w0": [
        "deodhar", "--type", "D", "--rank", "6", "--format", "json",
        "--u", "id", "--v-word",
        "1.2.1.3.2.1.4.3.2.1.5.4.3.2.1.6.4.3.2.1.5.4.3.2.6.4.3.5.4.6"],
    "E6_scan_levi_table": [
        "scan", "--type", "E", "--rank", "6", "--target", "levi_table"],
}
SLOW_PAIRS = 3
#: Run in a copy by ``count_calls``, with the workload's name and seed as
#: arguments: prints the exit codes of its ops and the calls of each
#: bruhatkit function, by module and qualified name.
CALLS_SCRIPT = """
import contextlib, json, os, sys
import workloads
from bruhatkit import cli
calls = {}


def profile(frame, event, arg):
    if event == "call":
        module = frame.f_globals.get("__name__", "")
        if module == "bruhatkit" or module.startswith("bruhatkit."):
            code = frame.f_code
            name = module + "." + getattr(code, "co_qualname", code.co_name)
            calls[name] = calls.get(name, 0) + 1


ops = workloads.WORKLOADS[sys.argv[1]].make_ops(int(sys.argv[2]))
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \\
        contextlib.redirect_stderr(sink):
    sys.setprofile(profile)
    try:
        codes = [cli.main(list(op.argv)) for op in ops]
    finally:
        sys.setprofile(None)
print(json.dumps({"codes": codes, "calls": calls}))
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(pairs: list[dict], name: str) -> dict:
    """One field's quartiles and values (in pair order) on each side, and
    the change's median relative to the parent's."""
    row = {}
    for side in ("parent", "change"):
        values = [p[side][name] for p in pairs]
        q1, med, q3 = quartiles(values)
        row[side] = {"median": med, "q1": q1, "q3": q3, "values": values}
    row["change_vs_parent"] = (row["change"]["median"]
                               / row["parent"]["median"] - 1
                               if row["parent"]["median"] else None)
    return row


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the two sides' quartiles and the change's wins.

    ``pairs`` holds one {"parent": metrics, "change": metrics} per pair,
    metrics mapping a name to its value; ``better`` maps each metric to
    "lower" or "higher".
    """
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p["parent"][name] - p["change"][name]) > 0
                   for p in pairs)
        losses = sum(sign * (p["change"][name] - p["parent"][name]) > 0
                     for p in pairs)
        row = {"better": direction, "pairs": len(pairs), "change_wins": wins,
               "change_losses": losses, **spread(pairs, name)}
        gap = sign * (row["parent"]["median"] - row["change"]["median"])
        iqr = row["parent"]["q3"] - row["parent"]["q1"]
        enough = len(pairs) >= MIN_PAIRS
        row["claimable"] = (enough and 10 * wins >= 9 * len(pairs)
                            and gap > iqr)
        row["regressed"] = (enough and 10 * losses >= 9 * len(pairs)
                            and -gap > iqr)
        out[name] = row
    return out


def summarize_slow(pairs: list[dict]) -> dict:
    """Per SLOW command, the two sides' quartiles in seconds (``spread``),
    with no verdict; ``pairs`` is as for ``summarize``."""
    return {name: spread(pairs, name) for name in pairs[0]["parent"]}


def regressions(workloads: dict) -> list[str]:
    """Every "workload/metric" whose row is ``regressed``, in report order."""
    return [f"{name}/{metric}" for name, rows in workloads.items()
            for metric, row in rows.items() if row.get("regressed")]


def export(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into dest; return the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "-o", str(archive), commit], cwd=ROOT,
                   check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()
    return commit


def python_lines(copy: Path, top: str) -> int:
    """The lines of every ``<top>/**/*.py`` in a copy, as ``wc -l``
    counts."""
    return sum(path.read_bytes().count(b"\n")
               for path in (copy / top).rglob("*.py"))


def run_once(copy: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in a copy: its metrics by name."""
    for cache in copy.rglob("__pycache__"):
        shutil.rmtree(cache)
    seconds = json.loads((copy / "BENCHMARK.json").read_text())[
        "run_seconds"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True, check=True)
    result, values = parse_run(proc.stdout)
    if not result["correct"]:
        raise SystemExit(f"{copy.name} {workload} seed {seed}: "
                         f"{result['failed']} of {result['attempted']} "
                         f"ops failed")
    return values


def count_calls(copy: Path, workload: str, seed: int) -> dict[str, int]:
    """The calls of each bruhatkit function in one untimed pass of a
    workload's ops in a copy (CALLS_SCRIPT), by name.  An op that fails
    stops the script."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=(
        f"{copy / 'src'}{os.pathsep}{copy / 'perfbench'}"))
    proc = subprocess.run(
        [sys.executable, "-c", CALLS_SCRIPT, workload, str(seed)], cwd=copy,
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if any(result["codes"]):
        raise SystemExit(f"{copy.name} {workload} seed {seed}: exit codes "
                         f"{result['codes']} under --calls")
    return result["calls"]


def merge_calls(sides: dict[str, dict[str, int]]) -> dict[str, dict]:
    """{name: {side: calls}} over the names of either side, sorted by
    name; a function a side never called counts 0 there."""
    names = sorted(set().union(*sides.values()))
    return {name: {side: calls.get(name, 0) for side, calls in sides.items()}
            for name in names}


def time_command(copy: Path, argv: list[str]) -> float:
    """Whole-process wall seconds of one CLI command run from a copy's
    ``src/``, its output discarded."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "bruhatkit.cli", *argv], cwd=copy,
                   env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def alternated(copies: dict, pairs: int, run):
    """Yield {side: run(copy)} for each of ``pairs`` pairs, the parent run
    first in even pairs and the change first in odd ones."""
    for k in range(pairs):
        order = ("parent", "change")[::-1 if k % 2 else 1]
        yield {side: run(copies[side]) for side in order}


def parse_run(stdout: str) -> tuple[dict, dict]:
    """A run's result line (the last line of its stdout) and its values:
    the result's metrics, then the SUMMARY_FIELDS of the summary line
    before it."""
    summary, result = map(json.loads, stdout.splitlines()[-2:])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update((name, summary[name]) for name in SUMMARY_FIELDS)
    return result, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slow", action="store_true",
                        help="also time the SLOW commands")
    parser.add_argument("--calls", action="store_true",
                        help="also count each function's calls per side")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bruhatkit-ab-") as tmp:
        copies = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(rev, copies[side]) for side, rev in
                   (("parent", args.parent), ("change", args.change))}
        bench = json.loads((copies["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        names = ([n for n in args.workloads.split(",") if n]
                 if args.workloads is not None
                 else [w["name"] for w in bench["workloads"]])
        report = {"commits": commits,
                  "src_lines": {side: python_lines(copy, "src")
                                for side, copy in copies.items()},
                  "tests_lines": {side: python_lines(copy, "tests")
                                  for side, copy in copies.items()},
                  "host": {
                      "nproc": os.cpu_count(),
                      "python": platform.python_version(),
                      "platform": platform.platform()},
                  "seed": args.seed,
                  "run_seconds": bench["run_seconds"], "workloads": {}}
        for name in names:
            pairs = []
            for k, pair in enumerate(alternated(
                    copies, args.pairs,
                    lambda copy: run_once(copy, name, args.seed)), start=1):
                pairs.append(pair)
                print(f"{name} pair {k}: " + ", ".join(
                    f"{m}={pair['parent'][m]:.4g}->{pair['change'][m]:.4g}"
                    for m in better), file=sys.stderr)
            report["workloads"][name] = summarize(pairs, better)
            report["workloads"][name]["summary_line"] = {
                field: spread(pairs, field) for field in SUMMARY_FIELDS}
            if args.calls:
                report["workloads"][name]["calls"] = merge_calls({
                    side: count_calls(copy, name, args.seed)
                    for side, copy in copies.items()})
        if args.slow:
            pairs = list(alternated(copies, SLOW_PAIRS, lambda copy: {
                name: time_command(copy, argv)
                for name, argv in SLOW.items()}))
            report["slow"] = summarize_slow(pairs)
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    regressed = regressions(report["workloads"])
    if regressed:
        print("regressed: " + ", ".join(regressed), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
