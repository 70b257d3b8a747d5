import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "bench" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BETTER = {"run_s": "lower", "ratio": "higher"}


def _pairs(parent, change):
    # run_s from the two lists; ratio ties in every pair.
    return [{"parent": {"run_s": p, "ratio": 1.0},
             "change": {"run_s": c, "ratio": 1.0}}
            for p, c in zip(parent, change)]


def test_a_gain_in_nine_of_ten_beyond_the_parent_spread_is_claimable():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.00, 1.01, 1.02, 1.03, 1.04]
    change = [0.90, 0.91, 0.92, 0.93, 0.94, 0.90, 0.91, 0.92, 0.93, 1.10]
    row = ab.summarize(_pairs(parent, change), BETTER)["run_s"]
    assert (row["pairs"], row["change_wins"], row["change_losses"]) == (
        10, 9, 1)
    assert row["parent"]["median"] == pytest.approx(1.02)
    assert row["change"]["median"] == pytest.approx(0.92)
    assert row["parent"]["q1"] < row["parent"]["median"] < row["parent"][
        "q3"]
    assert row["change"]["values"] == change
    assert row["change_vs_parent"] == pytest.approx(0.92 / 1.02 - 1)
    assert row["claimable"]


def test_eight_wins_or_a_gap_inside_the_spread_is_not_claimable():
    parent = [1.0, 1.2] * 5
    eight = ab.summarize(_pairs(parent, [0.5] * 8 + [1.3] * 2), BETTER)
    assert eight["run_s"]["change_wins"] == 8
    assert not eight["run_s"]["claimable"]
    # every pair won, but the medians are closer than the parent's IQR
    close = ab.summarize(_pairs(parent, [p - 0.01 for p in parent]), BETTER)
    assert close["run_s"]["change_wins"] == 10
    assert not close["run_s"]["claimable"]


def test_a_loss_in_nine_of_ten_beyond_the_parent_spread_is_regressed():
    # The mirror of a claimable gain, named in the closing stderr line.
    parent = [1.00, 1.01, 1.02, 1.03, 1.04] * 2
    change = [p + 0.1 for p in parent[:9]] + [0.9]
    rows = ab.summarize(_pairs(parent, change), BETTER)
    assert rows["run_s"]["change_losses"] == 9
    assert rows["run_s"]["regressed"] and not rows["run_s"]["claimable"]
    assert not rows["ratio"]["regressed"]
    # Eight losses, or a loss inside the parent's spread, is not flagged.
    eight = ab.summarize(_pairs(parent, change[:8] + [0.9, 0.9]), BETTER)
    assert not eight["run_s"]["regressed"]
    close = ab.summarize(_pairs(parent, [p + 0.001 for p in parent]), BETTER)
    assert close["run_s"]["change_losses"] == 10
    assert not close["run_s"]["regressed"]
    gain = ab.summarize(_pairs(change, parent), BETTER)
    assert gain["run_s"]["claimable"] and not gain["run_s"]["regressed"]
    workloads = {"w1": dict(rows, summary_line={}), "w2": gain,
                 "w3": {"ratio": rows["run_s"]}}
    assert ab.regressions(workloads) == ["w1/run_s", "w3/ratio"]


def test_ties_count_for_neither_side_and_direction_is_respected():
    rows = ab.summarize(_pairs([1.0, 2.0, 3.0], [1.0, 1.0, 4.0]), BETTER)
    assert (rows["run_s"]["change_wins"],
            rows["run_s"]["change_losses"]) == (1, 1)
    assert (rows["ratio"]["change_wins"], rows["ratio"]["change_losses"]) == (
        0, 0)
    assert not rows["ratio"]["claimable"]
    higher = ab.summarize(
        [{"parent": {"ratio": 0.5}, "change": {"ratio": 0.9}}] * 10,
        {"ratio": "higher"})["ratio"]
    assert higher["change_wins"] == 10 and higher["claimable"]


def test_fewer_than_ten_pairs_claim_nothing():
    row = ab.summarize(_pairs([2.0], [1.0]), BETTER)["run_s"]
    assert row["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                             "values": [2.0]}
    assert row["change_wins"] == 1 and not row["claimable"]
    nine = ab.summarize(_pairs([2.0] * 9, [1.0] * 9), BETTER)["run_s"]
    assert nine["change_wins"] == 9 and not nine["claimable"]


def test_a_run_keeps_its_metrics_and_its_summary_line_fields():
    stdout = "\n".join([
        "op 'x' took a while",
        '{"workload": "w", "run_wall_s": 0.5, "setup_wall_s": 0.06,'
        ' "yardstick_us": 41.0, "passes": 3}',
        '{"correct": true, "attempted": 9, "failed": 0, "metrics":'
        ' {"run_s": {"value": 0.4, "unit": "s"},'
        ' "peak_rss_mb": {"value": 22.5, "unit": "MB"}}}']) + "\n"
    result, values = ab.parse_run(stdout)
    assert result["correct"] and result["attempted"] == 9
    assert values == {"run_s": 0.4, "peak_rss_mb": 22.5, "run_wall_s": 0.5,
                      "setup_wall_s": 0.06, "yardstick_us": 41.0}
    pairs = [{"parent": values, "change": dict(values, yardstick_us=45.1)}]
    row = ab.spread(pairs, "yardstick_us")
    assert row["parent"]["values"] == [41.0]
    assert row["change"]["median"] == 45.1
    assert row["change_vs_parent"] == pytest.approx(0.1)


def test_src_lines_counts_every_python_file_under_src(tmp_path):
    # Nested modules count, other files do not, and each top directory
    # counts only its own Python files.
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text('"""doc"""\n')
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("one\ntwo\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("def test():\n    pass\n")
    assert ab.python_lines(tmp_path, "src") == 4
    assert ab.python_lines(tmp_path, "tests") == 2


def test_code_lines_skip_blank_comment_and_docstring_lines(tmp_path):
    # Docstrings of the module, a class and a function do not count; a
    # string statement that is not first in its body, each line of a
    # statement spread over lines and a line of code with a comment do.
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Function\n"
        "        docstring.'''\n"
        "        x = 1  # a comment\n"
        '        """not a docstring"""\n'
        "        return (x,\n"
        "                x)\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text('"""doc"""\n')
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "def test():\n    pass\n\n\n# end\n")
    assert ab.python_lines(tmp_path, "src") == 15
    assert ab.python_code_lines(tmp_path, "src") == 6
    assert ab.python_code_lines(tmp_path, "tests") == 2


def test_slow_commands_keep_quartiles_with_no_verdict():
    # Three pairs, judged as a workload's are: a spread per command, and
    # below MIN_PAIRS no claim or regression.
    pairs = [{"parent": {"a": p, "b": 2.0}, "change": {"a": c, "b": 2.0}}
             for p, c in zip([4.0, 5.0, 6.0], [3.0, 3.5, 9.0])]
    slow = ab.summarize(pairs, {"a": "lower", "b": "lower"})
    assert list(slow) == ["a", "b"]
    assert slow["a"]["parent"]["median"] == 5.0
    assert slow["a"]["change"]["median"] == 3.5
    assert slow["a"]["change"]["values"] == [3.0, 3.5, 9.0]
    assert slow["a"]["change_vs_parent"] == pytest.approx(-0.3)
    assert slow["b"]["change_vs_parent"] == 0
    assert not any(slow[name][flag] for name in slow
                   for flag in ("claimable", "regressed"))


def _fake_export(rev, dest):
    # A copy that holds only a BENCHMARK.json with workloads "w" and "v".
    dest.mkdir(parents=True)
    (dest / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [],
        "workloads": [{"name": "w"}, {"name": "v"}]}))
    return rev


def test_a_regressed_slow_command_is_named_on_the_regressed_line(
        monkeypatch, capsys):
    # The default 10 pairs of each slow command, judged by the workloads'
    # rule: "a" is a second slower in every pair, and its peak RSS ties.
    monkeypatch.setattr(ab, "export", _fake_export)
    monkeypatch.setattr(ab, "SLOW", {"a": ["0"]})
    monkeypatch.setattr(ab, "time_command", lambda copy, argv: (
        4.0 + (copy.name == "change"), 30.0))
    assert ab.main(["P", "C", "--workloads", "", "--slow"]) == 0
    out, err = capsys.readouterr()
    slow = json.loads(out)["slow"]
    assert list(slow) == ["a", "a.peak_rss_mb"]
    assert slow["a"]["pairs"] == slow["a.peak_rss_mb"]["pairs"] == 10
    assert slow["a"]["change_losses"] == 10 and slow["a"]["regressed"]
    assert slow["a"]["change_vs_parent"] == pytest.approx(0.25)
    assert not slow["a.peak_rss_mb"]["regressed"]
    assert err.splitlines()[-1] == "regressed: slow/a"


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(copy):
        calls.append(copy)
        return len(calls)

    pairs = list(ab.alternated({"parent": "P", "change": "C"}, 3, run))
    assert calls == ["P", "C", "C", "P", "P", "C"]
    assert pairs[1] == {"change": 3, "parent": 4}


def test_slow_commands_are_valid_argv_over_w0():
    # Parsed only, never run; the Richardson v and the Deodhar word are
    # reduced words of the longest element.
    from bruhatkit import from_word, longest_element, root_system
    from bruhatkit.cli import build_parser
    parser = build_parser()
    assert list(ab.SLOW) == ["A7_richardson_w0", "B4_scan_toric_richardson",
                             "D6_deodhar_w0", "E6_scan_levi_table"]
    args = {name: parser.parse_args(argv) for name, argv in ab.SLOW.items()}
    for name, word in (("A7_richardson_w0", args["A7_richardson_w0"].v),
                       ("D6_deodhar_w0", args["D6_deodhar_w0"].v_word)):
        rs = root_system(args[name].type, args[name].rank)
        letters = [int(i) for i in word.split(".")]
        assert len(letters) == len(rs.positive_roots)
        assert from_word(rs, letters) is longest_element(
            rs, range(1, rs.rank + 1))


def _fake_copy(root, ops):
    # A copy whose bruhatkit.cli.main calls a helper once per op and reads
    # a generator, and whose workload "w" has the given argv as its ops.
    # Run as a module, its cli holds 50 MB and exits with main's code.
    (root / "src" / "bruhatkit").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "src" / "bruhatkit" / "__init__.py").write_text("")
    (root / "src" / "bruhatkit" / "cli.py").write_text(
        "import sys\n"
        "def helper(n):\n"
        "    yield from range(n)\n"
        "def main(argv):\n"
        "    print('output', argv)\n"
        "    return sum(helper(len(argv))) and int(argv[0])\n"
        "if __name__ == '__main__':\n"
        "    held = bytearray(50 << 20)\n"
        "    sys.exit(main(sys.argv[1:]))\n")
    (root / "perfbench" / "workloads.py").write_text(
        "class Op:\n"
        "    def __init__(self, argv):\n"
        "        self.argv = argv\n"
        "class Workload:\n"
        "    def make_ops(self, seed):\n"
        f"        return [Op(argv) for argv in {ops!r}] * seed\n"
        "WORKLOADS = {'w': Workload()}\n")


def test_calls_count_each_bruhatkit_function_per_pass(tmp_path):
    # Two ops per seed, seed 2: main is called four times; a generator
    # counts once per resume, three per op here (two items, then the end).
    _fake_copy(tmp_path, [("0", "x"), ("0", "y")])
    calls = ab.count_calls(tmp_path, "w", 2)
    assert calls == {"bruhatkit.cli.main": 4, "bruhatkit.cli.helper": 12}
    merged = ab.merge_calls({"parent": calls,
                             "change": {"bruhatkit.cli.main": 4,
                                        "bruhatkit.cli.other": 1}})
    assert merged == {
        "bruhatkit.cli.helper": {"parent": 12, "change": 0},
        "bruhatkit.cli.main": {"parent": 4, "change": 4},
        "bruhatkit.cli.other": {"parent": 0, "change": 1}}


def test_calls_stop_on_a_failed_op(tmp_path):
    _fake_copy(tmp_path, [("0", "x"), ("3", "y")])
    with pytest.raises(SystemExit, match=r"exit codes \[0, 3\]"):
        ab.count_calls(tmp_path, "w", 1)


def test_slow_calls_count_each_command_once_per_side(tmp_path, monkeypatch):
    # One run of each SLOW command's argv per side, merged as for a
    # workload: main once, and a generator resumed len(argv) + 1 times.
    copies = {side: tmp_path / side for side in ("parent", "change")}
    for copy in copies.values():
        _fake_copy(copy, [])
    monkeypatch.setattr(ab, "SLOW", {"one": ["0", "x"], "two": ["0"]})
    assert ab.slow_calls(copies) == {
        "one": {"bruhatkit.cli.helper": {"parent": 3, "change": 3},
                "bruhatkit.cli.main": {"parent": 1, "change": 1}},
        "two": {"bruhatkit.cli.helper": {"parent": 2, "change": 2},
                "bruhatkit.cli.main": {"parent": 1, "change": 1}}}
    with pytest.raises(SystemExit, match=r"-- 3 y: exit codes \[3\]"):
        ab.count_calls(copies["change"], "--", "3", "y")


def test_a_command_is_timed_with_its_own_peak_rss(tmp_path):
    # The child's peak RSS covers the 50 MB it holds; a non-zero exit
    # raises.
    _fake_copy(tmp_path, [])
    seconds, rss_mb = ab.time_command(tmp_path, ["0", "x"])
    assert seconds > 0 and rss_mb > 50
    with pytest.raises(subprocess.CalledProcessError) as failed:
        ab.time_command(tmp_path, ["3", "y"])
    assert failed.value.returncode == 3


def test_an_unknown_workload_stops_before_any_run(monkeypatch, capsys):
    # Each name is checked against the change copy's BENCHMARK.json.
    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(ab, "export", _fake_export)
    monkeypatch.setattr(ab, "run_once", run_once)
    with pytest.raises(SystemExit) as stopped:
        ab.main(["P", "C", "--workloads", "w,nosuch", "--pairs", "1"])
    assert stopped.value.code == 2
    assert capsys.readouterr().err == "unknown workload; known: w, v\n"


def test_uncorrected_wall_times_get_a_verdict_beside_run_s():
    # run_s loses every pair beyond the parent's spread while the
    # uncorrected wall times tie in two pairs and are lower in eight: the
    # run_s verdict and the regressed line stay those of run_s alone.
    parent = [1.00, 1.01, 1.02, 1.03, 1.04] * 2
    pairs = _pairs(parent, [p + 0.1 for p in parent])
    for k, pair in enumerate(pairs):
        pair["parent"]["run_wall_s"] = 2.0
        pair["change"]["run_wall_s"] = 2.0 if k < 2 else 1.5
    rows = ab.summarize(pairs, BETTER)
    assert rows["run_s"]["regressed"]
    wall = ab.uncorrected(pairs)
    assert wall == {"change_wins": 8, "change_losses": 0,
                    "claimable": False, "regressed": False}
    rows["run_s"]["uncorrected"] = wall
    assert ab.regressions({"w": rows}) == ["w/run_s"]
    # Nine wins beyond the spread make the wall verdict claimable.
    pairs[1]["change"]["run_wall_s"] = 1.5
    assert ab.uncorrected(pairs)["claimable"]
    slower = [{"parent": p["change"], "change": p["parent"]} for p in pairs]
    assert ab.uncorrected(slower) == {"change_wins": 0, "change_losses": 9,
                                      "claimable": False, "regressed": True}


def test_calls_delta_keeps_the_functions_whose_calls_differ():
    calls = {"bruhatkit.cli.main": {"parent": 4, "change": 4},
             "bruhatkit.weyl._compose": {"parent": 10, "change": 25},
             "bruhatkit.weyl.multiply": {"parent": 7, "change": 0}}
    delta = ab.calls_delta(calls)
    assert delta == {"functions": {"bruhatkit.weyl._compose": 15,
                                   "bruhatkit.weyl.multiply": -7},
                     "total": 8}
    assert ab.calls_line("w", delta) == (
        "calls differ on w: 2 functions, +8 calls in all")
    same = ab.calls_delta({"bruhatkit.cli.main": {"parent": 4,
                                                  "change": 4}})
    assert same == {"functions": {}, "total": 0}
    assert ab.calls_line("w", same) is None
    workloads = {"w": {"calls": calls, "calls_delta": delta}}
    assert ab.regressions(workloads) == []
