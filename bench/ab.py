"""Paired A/B runs of the benchmark on two commits.

    python3 bench/ab.py PARENT CHANGE [--workloads a,b] [--pairs 10]
                        [--seed 0] [--slow] [--calls] [--out BENCH_<n>.json]

Exports each commit with ``git archive`` into its own temporary directory
and runs that copy's ``perfbench/run.py`` as it is, with ``--trace 0`` and
the ``run_seconds`` of the copy's BENCHMARK.json.  Each pair runs both
commits on the same seed, the parent first in even pairs and the change
first in odd ones.  Every benchmark run has PYTHONDONTWRITEBYTECODE=1 and
starts with no ``__pycache__`` in its copy, so no run reads bytecode an
earlier run wrote, and ``setup_s`` counts the compile of ``src/``.  A run
whose result is not ``correct`` stops the script.  Beside
the two commits it records the line counts of each copy's ``src/**/*.py``
(``src_lines``) and ``tests/**/*.py`` (``tests_lines``), which tell lines
deleted from lines moved into the tests, and the same counts of only the
lines that hold code, not blank, comment or docstring (``src_code_lines``,
``tests_code_lines``), which tell code removed from comments removed.

For each workload and end-to-end metric it prints, and writes to ``--out``
when given, the median and quartiles of each side, and in how many pairs
the change was better (the metric's ``better`` direction; ties count for
neither side).  ``claimable`` is true when there are at least MIN_PAIRS
pairs, the change won at least nine in ten of them, and its median beats
the parent's by more than the distance between the parent's quartiles.
``regressed`` is its mirror: the change lost at least nine in ten, and its
median is worse by more than that distance.  The last line on stderr names
every regressed workload/metric, and every regressed ``slow/<name>``.
Under ``summary_line`` it keeps, the same way but without a verdict, the
SUMMARY_FIELDS of each run's summary line: the uncorrected wall times and
the yardstick, which tell a drift of the yardstick from a change of work.
Beside the verdict of ``run_s``, under its ``uncorrected`` key, it keeps
the same wins, losses and flags computed on the uncorrected ``run_wall_s``;
they inform and gate nothing, and never reach the ``regressed:`` line.

With ``--slow`` it also runs each of the SLOW commands whole process in
``--pairs`` alternated pairs, after the workloads, and keeps under ``slow``
each command's wall seconds by name and its peak RSS in MB as
``<name>.peak_rss_mb``, with the same quartiles, wins and verdict as a
workload's metric.  Before the slow pairs it compiles each copy's ``src/``
once with ``compileall`` in this interpreter, so the slow runs read
bytecode: their time and peak RSS leave out the compile, whose memory
moves with the source bytes and not with what the program holds.
``--workloads ""`` runs no workload.  A name that is not a workload of the
change's BENCHMARK.json stops the script before any run, with exit code 2,
and so does an ``--out`` whose directory does not exist, before any
export.

Every run of the program that is not a benchmark run is one process of
CHILD_SCRIPT in a copy (``run_child``): it runs each argv through that
copy's ``bruhatkit.cli.main``, with its stdout on ``/dev/null``, and
reports its exit codes, its calls when counting and its own peak RSS
(``VmHWM``, which starts afresh at the exec, so it is not the spawner's).

With ``--calls`` it also runs, per workload and side, one untimed pass of
the seed's ops under ``sys.setprofile``, and keeps under the workload's
``calls`` how many times each bruhatkit function was entered on each side:
a function's code counts once per call, and a generator's once per resume.
Its ``calls_delta`` keeps each function whose calls differ, change minus
parent, and their total, and stderr gets one line per workload whose calls
differ.
With ``--slow`` too, it does the same for each SLOW command, run once per
side, under ``slow[name]["calls"]``.  The counts show where a change of
time comes from.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
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
#: Run in a copy by ``run_child``, with "calls" or "time", then a workload's
#: name and seed, or "--" and one CLI argv, as arguments: runs each argv
#: through ``cli.main`` (under ``sys.setprofile`` for "calls"), and last
#: writes to stderr one JSON line of the exit codes, the calls of each
#: bruhatkit function by module and qualified name, and its own peak RSS.
#: Its stdout stays the file the parent gives it: a ``redirect_stdout`` in
#: the child would time a different program.
CHILD_SCRIPT = """
import json, sys
from bruhatkit import cli
calls = {}


def profile(frame, event, arg):
    if event == "call":
        module = frame.f_globals.get("__name__", "")
        if module == "bruhatkit" or module.startswith("bruhatkit."):
            code = frame.f_code
            name = module + "." + getattr(code, "co_qualname", code.co_name)
            calls[name] = calls.get(name, 0) + 1


if sys.argv[2] == "--":
    argvs = [sys.argv[3:]]
else:
    import workloads
    argvs = [list(op.argv) for op in
             workloads.WORKLOADS[sys.argv[2]].make_ops(int(sys.argv[3]))]
if sys.argv[1] == "calls":
    sys.setprofile(profile)
codes = [cli.main(argv) for argv in argvs]
with open("/proc/self/status") as status:
    peak_kb = next(int(s.split()[1]) for s in status if s[:6] == "VmHWM:")
print(json.dumps({"codes": codes, "calls": calls, "peak_kb": peak_kb}),
      file=sys.stderr)
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


def uncorrected(pairs: list[dict]) -> dict:
    """The wins, losses and flags of ``summarize`` on the uncorrected
    ``run_wall_s``, to stand beside the ``run_s`` verdict; its spread is
    under ``summary_line``."""
    row = summarize(pairs, {"run_wall_s": "lower"})["run_wall_s"]
    return {key: row[key] for key in ("change_wins", "change_losses",
                                      "claimable", "regressed")}


def calls_delta(calls: dict[str, dict]) -> dict:
    """Each function of ``merge_calls`` whose calls differ, change minus
    parent, and their total."""
    by_name = {name: sides["change"] - sides["parent"]
               for name, sides in calls.items()
               if sides["change"] != sides["parent"]}
    return {"functions": by_name, "total": sum(by_name.values())}


def calls_line(workload: str, delta: dict) -> str | None:
    """The stderr line for a workload whose calls differ, else None."""
    if not delta["functions"]:
        return None
    return (f"calls differ on {workload}: {len(delta['functions'])} "
            f"functions, {delta['total']:+d} calls in all")


def regressions(workloads: dict) -> list[str]:
    """Every "workload/metric" whose row is ``regressed``, in report order;
    the report's ``slow`` rows come in as a workload named "slow"."""
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


#: Tokens that are not code: comments, line ends, indentation.
NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: bytes) -> int:
    """The lines of a Python source that hold a token of code: not blank,
    comment or docstring (the leading string statement of a module, class
    or function)."""
    docstrings = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.append(((doc.lineno, doc.col_offset),
                               (doc.end_lineno, doc.end_col_offset)))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in NOT_CODE or (
                token.type == tokenize.STRING
                and any(start <= token.start and token.end <= end
                        for start, end in docstrings)):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_code_lines(copy: Path, top: str) -> int:
    """The ``code_lines`` of every ``<top>/**/*.py`` in a copy."""
    return sum(code_lines(path.read_bytes())
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


def run_child(copy: Path, *args: str | int) -> dict:
    """One process of CHILD_SCRIPT in a copy with the given arguments, its
    stdout on ``/dev/null``: its report, and its wall seconds under
    ``seconds``.  An op that fails, or a child that reports nothing, stops
    the script with one line."""
    words = [str(arg) for arg in args]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=(
        f"{copy / 'src'}{os.pathsep}{copy / 'perfbench'}"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, *words], cwd=copy, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    last = (proc.stderr.splitlines() or [""])[-1]
    report = json.loads(last) if last.startswith('{"codes": ') else None
    if proc.returncode or report is None or any(report["codes"]):
        raise SystemExit(f"{copy.name} {' '.join(words)}: " + (
            f"exit codes {report['codes']}" if report else
            f"exit {proc.returncode} with no report: {last}"))
    return dict(report, seconds=seconds)


def count_calls(copy: Path, *args: str | int) -> dict[str, int]:
    """The calls of each bruhatkit function in one untimed pass in a copy,
    by name: of a workload's ops for args (workload, seed), of one command
    for ("--", *argv)."""
    return run_child(copy, "calls", *args)["calls"]


def slow_calls(copies: dict[str, Path]) -> dict[str, dict]:
    """Per SLOW command, ``merge_calls`` of its calls on each side."""
    return {name: merge_calls({side: count_calls(copy, "--", *argv)
                               for side, copy in copies.items()})
            for name, argv in SLOW.items()}


def merge_calls(sides: dict[str, dict[str, int]]) -> dict[str, dict]:
    """{name: {side: calls}} over the names of either side, sorted by
    name; a function a side never called counts 0 there."""
    names = sorted(set().union(*sides.values()))
    return {name: {side: calls.get(name, 0) for side, calls in sides.items()}
            for name in names}


def time_command(copy: Path, argv: list[str]) -> tuple[float, float]:
    """Whole-process wall seconds and peak RSS in MB (the child's own
    ``VmHWM``) of one CLI command run in a copy, its output discarded."""
    report = run_child(copy, "time", "--", *argv)
    return report["seconds"], report["peak_kb"] / 1024


def slow_run(copy: Path) -> dict[str, float]:
    """One run of each SLOW command in a copy: its seconds by name, and its
    peak RSS in MB as ``<name>.peak_rss_mb``."""
    values = {}
    for name, argv in SLOW.items():
        values[name], values[f"{name}.peak_rss_mb"] = time_command(copy, argv)
    return values


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
    if args.out and not args.out.parent.is_dir():
        parser.exit(2, f"--out: no directory {args.out.parent}\n")

    with tempfile.TemporaryDirectory(prefix="bruhatkit-ab-") as tmp:
        copies = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(rev, copies[side]) for side, rev in
                   (("parent", args.parent), ("change", args.change))}
        bench = json.loads((copies["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        known = [w["name"] for w in bench["workloads"]]
        names = ([n for n in args.workloads.split(",") if n]
                 if args.workloads is not None else known)
        if set(names) - set(known):
            parser.exit(2, f"unknown workload; known: {', '.join(known)}\n")
        lines = {f"{top}_{kind}": {side: count(copy, top)
                                   for side, copy in copies.items()}
                 for kind, count in (("lines", python_lines),
                                     ("code_lines", python_code_lines))
                 for top in ("src", "tests")}
        report = {"commits": commits, **lines,
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
            rows = report["workloads"][name] = summarize(pairs, better)
            if "run_s" in rows:
                rows["run_s"]["uncorrected"] = uncorrected(pairs)
            rows["summary_line"] = {
                field: spread(pairs, field) for field in SUMMARY_FIELDS}
            if args.calls:
                rows["calls"] = merge_calls({
                    side: count_calls(copy, name, args.seed)
                    for side, copy in copies.items()})
                rows["calls_delta"] = calls_delta(rows["calls"])
                line = calls_line(name, rows["calls_delta"])
                if line:
                    print(line, file=sys.stderr)
        if args.slow:
            for copy in copies.values():
                compileall.compile_dir(copy / "src", quiet=2)
            pairs = list(alternated(copies, args.pairs, slow_run))
            report["slow"] = summarize(
                pairs, dict.fromkeys(pairs[0]["parent"], "lower"))
            if args.calls:
                for name, calls in slow_calls(copies).items():
                    report["slow"][name]["calls"] = calls
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    regressed = regressions({**report["workloads"],
                             "slow": report.get("slow", {})})
    if regressed:
        print("regressed: " + ", ".join(regressed), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
