import ast
import csv
import errno
import hashlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest

import bruhatkit
from bruhatkit import (build_root_system, cli, enumerate_distinguished,
                       enumerate_group, errors, from_word, identity,
                       levi_borel_complexity, root_system, rootsys,
                       torus_complexity_richardson, torus_complexity_schubert,
                       word_string)
from bruhatkit.cli import (element_from_oneline, element_to_oneline, main,
                           parse_element, parse_subset, parse_word,
                           root_string)
from bruhatkit.complexity import SCAN_COLUMNS, SCAN_TARGETS, scan
from bruhatkit.errors import (BruhatkitError, FormulaUnavailableError,
                              GroupTooLargeError, InvalidInputError,
                              NotComparableError, PreconditionError)
from bruhatkit.weyl import longest_element, reduced_word, simple_reflection
from digests import _cli_digests, _digest_cases, pinned_digests
from oracles import scan_tables


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- codecs -------------------------------------------------------------------


def test_parse_word():
    assert parse_word("1.2.1") == (1, 2, 1)
    with pytest.raises(InvalidInputError):
        parse_word("1.x.2")


def test_parse_element_forms(a3):
    assert parse_element(a3, "id").is_identity()
    assert parse_element(a3, "1.2.1") == from_word(a3, [1, 2, 1])
    assert parse_element(a3, "2") == from_word(a3, [2])
    w = parse_element(a3, "3412")
    assert w.length == 4
    assert element_to_oneline(w) == "3412"
    assert element_from_oneline(a3, [1, 2, 3, 4]).is_identity()
    with pytest.raises(InvalidInputError):
        parse_element(a3, "4412")
    with pytest.raises(InvalidInputError):
        parse_element(a3, "nonsense")
    # Digits that int() rejects are neither a permutation nor an index.
    for text in ("²³", "1²", "①②", "²"):
        with pytest.raises(InvalidInputError):
            parse_element(a3, text)


@pytest.mark.parametrize("flags", [
    ["--kind", "schubert", "--w", "²³"],
    ["--kind", "schubert", "--w", "1²"],
    ["--kind", "richardson", "--u", "①②", "--v", "id"],
])
def test_non_decimal_digits_are_input_errors(capsys, flags):
    code, out, err = run(capsys, ["complexity", "--type", "A", "--rank", "3"]
                         + flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oneline_only_for_family_a(b2):
    # "21" is not a permutation parse in B2: falls back to error
    with pytest.raises(InvalidInputError):
        parse_element(b2, "21")
    with pytest.raises(InvalidInputError):
        element_to_oneline(identity(b2))


def test_element_codec_type(a3, b2):
    assert parse_element(a3, "3412") == element_from_oneline(a3, [3, 4, 1, 2])
    assert parse_element(a3, "1.2") == from_word(a3, [1, 2])
    assert parse_element(a3, "id") == identity(a3)
    with pytest.raises(InvalidInputError):
        parse_element(b2, "21")
    with pytest.raises(InvalidInputError):
        parse_element(a3, "4412")


@pytest.mark.parametrize("family, rank", [("B", 10), ("D", 11)])
def test_single_index_round_trip(family, rank):
    rs = root_system(family, rank)
    for i in range(1, rank + 1):
        s = simple_reflection(rs, i)
        assert parse_element(rs, word_string(s)) == s


def test_single_index_notation(capsys):
    with pytest.raises(InvalidInputError,
                       match=r"simple index 10 out of range 1\.\.9"):
        parse_element(root_system("A", 9), "10")
    code, out, _ = run(capsys, ["complexity", "--type", "B", "--rank", "10",
                                "--kind", "schubert", "--w", "10"])
    assert code == 0
    assert "w: 10\n" in out


def test_parse_subset():
    assert parse_subset(None) == frozenset()
    assert parse_subset("") == frozenset()
    assert parse_subset("2") == frozenset({2})
    assert parse_subset("1,3") == frozenset({1, 3})
    with pytest.raises(InvalidInputError):
        parse_subset("1;3")


def test_root_string():
    assert root_string((1, 0)) == "a1"
    assert root_string((3, 1)) == "3a1+a2"
    assert root_string((0, 0)) == "0"
    assert root_string((-1, -1)) == "-a1-a2"


# -- info ---------------------------------------------------------------------


def test_info_text(capsys):
    code, out, _ = run(capsys, ["info", "--type", "A", "--rank", "2"])
    assert code == 0
    assert "positive roots: 3" in out
    assert "weyl group order: 6" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, ["info", "--type", "G", "--rank", "2",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["positive_roots"] == 6
    assert payload["weyl_order"] == 12
    assert payload["cartan"] == [[2, -3], [-1, 2]]
    assert payload["meta"]["version"]


def test_info_csv(capsys):
    code, out, _ = run(capsys, ["info", "--type", "G", "--rank", "2",
                                "--format", "csv"])
    assert code == 0
    assert out == ("type,rank,positive_roots,weyl_order,cartan\n"
                   'G,2,6,12,"2,-3;-1,2"\n')


def test_info_a1(capsys):
    code, out, _ = run(capsys, ["info", "--type", "A", "--rank", "1"])
    assert code == 0
    assert "positive roots: 1" in out
    assert "weyl group order: 2" in out


def test_info_bad_rank(capsys):
    code, _, err = run(capsys, ["info", "--type", "F", "--rank", "5"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("family", "ABCD")
def test_rank_above_ceiling_exits_2_before_building(capsys, monkeypatch,
                                                    family):
    built = []

    def refuse(self, family, rank):
        # Fail at once rather than build a system of rank 1000.
        built.append((family, rank))
        raise RuntimeError("a root system was built")

    monkeypatch.setattr(rootsys.RootSystem, "__init__", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, ["complexity", "--type", family, "--rank",
                                  "1000", "--kind", "richardson", "--u", "id",
                                  "--v", "id"])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1000" in err
    assert built == []


# -- complexity ---------------------------------------------------------------


def test_complexity_richardson_golden(capsys, a3):
    code, out, _ = run(capsys, ["complexity", "--type", "A", "--rank", "3",
                                "--kind", "richardson", "--u", "1324",
                                "--v", "3412", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "torus_richardson"
    assert payload["value"] == 0
    assert payload["meta"] == {"type": "A", "rank": 3, "seed": 0,
                               "version": payload["meta"]["version"]}
    # round trip against the library report
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    rep = torus_complexity_richardson(u, v)
    assert payload["witness"] == json.loads(json.dumps(rep.witness))
    assert payload["value"] == rep.value


def test_repeated_queries_share_system_parser_and_elements(capsys,
                                                          monkeypatch):
    # Twenty identical queries in one process build at most one root system
    # and no parser, intern no new element after the first, and print the
    # same bytes as a call with a system of its own.  The same query spelled
    # --u=2, which only argparse reads, builds one parser per process and
    # prints the same bytes.
    built, parsers = [], []
    real_init = rootsys.RootSystem.__init__

    def counting_init(self, family, rank):
        built.append((family, rank))
        real_init(self, family, rank)

    monkeypatch.setattr(rootsys.RootSystem, "__init__", counting_init)
    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: parsers.append(1) or real_build_parser())
    cli._parser.cache_clear()
    argv = ["complexity", "--type", "D", "--rank", "4", "--kind",
            "richardson", "--u", "2", "--v", "2.1.3.4.2.1"]
    outs, interned = [], []
    for _ in range(20):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        outs.append(out)
        interned.append(len(root_system("D", 4).element_cache))
    assert len(built) <= 1 and parsers == []
    assert interned == interned[:1] * 20
    assert outs == outs[:1] * 20
    spelled = argv[:7] + ["--u=2"] + argv[9:]
    for _ in range(3):
        assert run(capsys, spelled) == (0, outs[0], "")
    assert len(parsers) == 1
    count = len(built)
    monkeypatch.setattr(cli, "root_system", lambda family, rank:
                        build_root_system(family, rank))
    assert run(capsys, argv) == (0, outs[0], "")
    assert (len(built), len(parsers)) == (count + 1, 1)


def test_commands_that_read_no_cover_make_no_reflection(capsys,
                                                       monkeypatch):
    # The reflections s_alpha are made on the first cover read (intervals,
    # the Richardson witness, chains, edge labels); every other command,
    # each scan included, leaves a fresh system without them.
    systems = []

    def fresh(family, rank):
        systems.append(build_root_system(family, rank))
        return systems[-1]

    monkeypatch.setattr(cli, "root_system", fresh)
    b3 = ["--type", "B", "--rank", "3"]
    b3_w0 = ".".join(map(str, _w0_word(root_system("B", 3))))
    queries = [["info"] + b3,
               ["complexity"] + b3 + ["--kind", "schubert", "--w", b3_w0],
               ["complexity"] + b3 + ["--kind", "levi", "--w", "1.2.3.2",
                                      "--I", "1"],
               ["complexity"] + b3 + ["--kind", "partial", "--w", "2.1.3",
                                      "--J", "2"],
               ["complexity", "--type", "A", "--rank", "3", "--kind",
                "partial", "--w", "3412", "--J", "1,3", "--I", "2"],
               ["deodhar"] + b3 + ["--v-word", b3_w0, "--u", "2.3"]]
    queries += [["scan"] + b3 + ["--target", target]
                for target in cli.SCAN_TARGETS]
    for argv in queries:
        for fmt in ("text", "json", "csv"):
            code, _, err = run(capsys, argv + ["--format", fmt])
            assert (code, err) == (0, ""), argv
            assert systems[-1].reflection_cache == [], argv
    code, _, _ = run(capsys, ["complexity"] + b3 + [
        "--kind", "richardson", "--u", "1", "--v", b3_w0])
    assert code == 0 and len(systems[-1].reflection_cache) == 9


def test_complexity_schubert_golden(capsys, a4):
    code, out, _ = run(capsys, ["complexity", "--type", "A", "--rank", "4",
                                "--kind", "schubert", "--w", "51234",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0
    rep = torus_complexity_schubert(parse_element(a4, "51234"))
    assert payload["witness"] == json.loads(json.dumps(rep.witness))


def test_complexity_levi_csv(capsys, a3):
    code, out, _ = run(capsys, ["complexity", "--type", "A", "--rank", "3",
                                "--kind", "levi", "--w", "3412", "--I", "2",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    rep = levi_borel_complexity({2}, parse_element(a3, "3412"))
    assert lines[0] == "kind,value," + ",".join(rep.witness)
    assert lines[1].startswith("levi_borel_schubert,0,")


def test_complexity_levi_precondition_exit3(capsys):
    code, _, err = run(capsys, ["complexity", "--type", "A", "--rank", "2",
                                "--kind", "levi", "--w", "1.2", "--I", "2"])
    assert code == 3
    assert "left descent" in err


def test_complexity_partial_formula_unavailable(capsys):
    code, _, err = run(capsys, ["complexity", "--type", "A", "--rank", "2",
                                "--kind", "partial", "--w", "id",
                                "--J", "1", "--I", "1", "--format", "json"])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["hypothesis"] == "FormulaUnavailableError"


@pytest.mark.parametrize("flags, index", [
    (["--J", "5"], "5"),
    (["--J", "0,-2"], "-2"),
    (["--J", "3", "--I", "7"], "7"),
])
def test_complexity_partial_index_out_of_range(capsys, flags, index):
    # With several bad indices the error names the least one.
    code, out, err = run(capsys, ["complexity", "--type", "A", "--rank", "3",
                                  "--kind", "partial", "--w", "1"] + flags)
    assert code == 2
    assert out == ""
    assert err == f"error: simple index {index} out of range 1..3\n"


def test_complexity_missing_flag(capsys):
    code, _, err = run(capsys, ["complexity", "--type", "A", "--rank", "2",
                                "--kind", "richardson", "--u", "id"])
    assert code == 2
    assert "--v" in err


def test_complexity_incomparable_exit3(capsys):
    code, _, err = run(capsys, ["complexity", "--type", "A", "--rank", "2",
                                "--kind", "richardson", "--u", "1.2.1",
                                "--v", "id"])
    assert code == 3


# -- scan ---------------------------------------------------------------------


def test_scan_csv_golden(capsys):
    code, out, _ = run(capsys, ["scan", "--type", "A", "--rank", "2",
                                "--target", "toric_schubert",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w,length,support"
    assert len(lines) == 6  # header + 5 toric elements
    assert "1.2.1" not in out


def test_scan_toric_richardson_rows(capsys):
    code, out, _ = run(capsys, ["scan", "--type", "A", "--rank", "1",
                                "--target", "toric_richardson",
                                "--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 4  # header + 3 intervals


def test_scan_deterministic_across_runs_and_jobs(tmp_path, capsys):
    outputs = []
    for jobs, name in (("1", "a.csv"), ("1", "b.csv"), ("8", "c.csv")):
        path = tmp_path / name
        code, _, _ = run(capsys, ["scan", "--type", "B", "--rank", "2",
                                  "--target", "levi_table",
                                  "--format", "csv", "--jobs", jobs,
                                  "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_json_lines_deterministic(tmp_path, capsys):
    blobs = []
    for jobs in ("1", "4"):
        path = tmp_path / f"scan{jobs}.jsonl"
        code, _, _ = run(capsys, ["scan", "--type", "A", "--rank", "3",
                                  "--target", "toric_schubert",
                                  "--format", "json", "--jobs", jobs,
                                  "--out", str(path)])
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    first = json.loads(blobs[0].decode().splitlines()[0])
    assert first["meta"]["target"] == "toric_schubert"
    assert first["meta"]["seed"] == 0


@pytest.mark.parametrize("family, rank",
                         [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_scan_rows_hold_their_columns_as_str_or_int(family, rank):
    # The row templates write each cell with %s, which writes a bool as
    # True/False, and json.dumps as true/false: so no cell may be one.
    rs = root_system(family, rank)
    for target in SCAN_TARGETS:
        for max_length in (None, 2):
            for row in scan(rs, target, max_length=max_length):
                assert tuple(row) == SCAN_COLUMNS[target]
                assert all(type(c) in (str, int) for c in row.values())


def _per_cell_table(fmt, columns, rows) -> str:
    """A scan table with each cell formatted by ``cli._csv_cell`` first."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n",
                        delimiter="," if fmt == "csv" else "\t")
    writer.writerow(columns)
    writer.writerows([cli._csv_cell(row[k]) for k in columns] for row in rows)
    return out.getvalue()


@pytest.mark.parametrize("family, rank, target",
                         [("F", 4, "levi_table"), ("B", 4, "toric_richardson")])
def test_scan_tables_match_per_cell_formatting(capsys, family, rank, target):
    rows = list(scan(root_system(family, rank), target))
    for fmt in ("csv", "text"):
        code, out, err = run(capsys, ["scan", "--type", family, "--rank",
                                      str(rank), "--target", target,
                                      "--format", fmt])
        assert code == 0 and not err
        assert out == _per_cell_table(fmt, SCAN_COLUMNS[target], rows)


# The systems of the scan byte-identity gate.  toric_richardson walks every
# pair of the group, so it runs unbounded only on the groups of at most 200
# elements, and with --max-length 3 on all.
_TEMPLATE_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
                     ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3),
                     ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("family, rank", _TEMPLATE_SYSTEMS,
                         ids=[f"{f}{r}" for f, r in _TEMPLATE_SYSTEMS])
def test_scan_templates_match_the_writers(capsys, tmp_path, family, rank):
    # Every target and format, with and without a bound and --out: the
    # rows written from templates are the bytes of csv.writer and
    # json.dumps over the library's dict rows.
    rs = root_system(family, rank)
    path = tmp_path / "scan.out"
    for target in SCAN_TARGETS:
        for max_length in (None, 3):
            if (target == "toric_richardson" and max_length is None
                    and rs.order > 200):
                continue
            meta = {"type": family, "rank": rank, "seed": 0,
                    "version": bruhatkit.__version__, "target": target}
            tables = scan_tables(scan(rs, target, max_length=max_length),
                                 SCAN_COLUMNS[target], meta)
            for fmt, table in tables.items():
                argv = ["scan", "--type", family, "--rank", str(rank),
                        "--target", target, "--format", fmt]
                if max_length is not None:
                    argv += ["--max-length", str(max_length)]
                assert run(capsys, argv) == (0, table, "")
                assert run(capsys, argv + ["--out", str(path)]) == (0, "", "")
                assert path.read_bytes() == table.encode()


def test_scan_cap_exit4(capsys):
    # The support targets build no group, but the cap still bounds |W|.
    for extra in (["--target", "toric_schubert"],
                  ["--target", "complexity_histogram"],
                  ["--target", "toric_schubert", "--max-length", "2"]):
        code, out, err = run(capsys, ["scan", "--type", "E", "--rank", "7"]
                             + extra)
        assert code == 4
        assert "2903040" in err
        assert out == ""  # nothing, not even a header, on a refused scan


def test_scan_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BRUHAT_GROUP_CAP", "5")
    code, _, _ = run(capsys, ["scan", "--type", "A", "--rank", "2",
                              "--target", "toric_schubert"])
    assert code == 4
    monkeypatch.setenv("BRUHAT_GROUP_CAP", "6")
    code, _, _ = run(capsys, ["scan", "--type", "A", "--rank", "2",
                              "--target", "toric_schubert"])
    assert code == 0


def test_scan_negative_max_length(tmp_path, capsys):
    # Refused before the cap check, so even an over-cap group exits 2, and
    # no header and no --out file is written.
    for family, rank in [("A", 2), ("E", 8)]:
        code, out, err = run(capsys, ["scan", "--type", family, "--rank",
                                      str(rank), "--target",
                                      "complexity_histogram",
                                      "--max-length", "-1"])
        assert code == 2
        assert out == ""
        assert err == "error: max_length must be non-negative, got -1\n"
    path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, ["scan", "--type", "A", "--rank", "2",
                              "--target", "toric_schubert", "--max-length",
                              "-3", "--out", str(path)])
    assert code == 2
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(capsys, ["scan", "--type", "A", "--rank", "2",
                                "--target", "complexity_histogram",
                                "--format", "csv", "--max-length", "0"])
    assert code == 0
    assert out == "value,count\n0,1\n"


def test_scan_huge_max_length(capsys):
    argv = ["scan", "--type", "A", "--rank", "3", "--target", "levi_table"]
    code, unbounded, _ = run(capsys, argv)
    assert code == 0
    code, out, err = run(capsys, argv + ["--max-length",
                                         "99999999999999999999"])
    assert (code, out, err) == (0, unbounded, "")


def test_scan_cap_env_not_integer(capsys, monkeypatch):
    # A negative cap is refused as input too, not taken as a cap that every
    # group exceeds (exit 4).
    for text, target in [("abc", "toric_schubert"), ("-5", "levi_table")]:
        monkeypatch.setenv("BRUHAT_GROUP_CAP", text)
        code, out, err = run(capsys, ["scan", "--type", "A", "--rank", "2",
                                      "--target", target])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "BRUHAT_GROUP_CAP" in err
        assert len(err.splitlines()) == 1


def test_scan_out_untouched_on_failure(tmp_path, capsys):
    kept = tmp_path / "kept.csv"
    kept.write_text("previous\n")
    fresh = tmp_path / "fresh.csv"
    for path in (kept, fresh):
        code, out, _ = run(capsys, ["scan", "--type", "E", "--rank", "8",
                                    "--target", "toric_schubert",
                                    "--format", "csv", "--out", str(path)])
        assert code == 4
        assert out == ""
    assert kept.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]


@pytest.mark.parametrize("target", ["missing/x.csv", "dir"])
def test_scan_out_write_failure(tmp_path, capsys, target):
    (tmp_path / "dir").mkdir()
    path = tmp_path / target
    code, out, err = run(capsys, ["scan", "--type", "A", "--rank", "2",
                                  "--target", "toric_schubert",
                                  "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err
    assert len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list((tmp_path / "dir").iterdir()) == []


def _cli_env():
    """The environment for a ``python -m bruhatkit.cli`` subprocess that
    imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(bruhatkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _cli_process(argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "bruhatkit.cli"] + argv,
                            stderr=subprocess.PIPE, env=_cli_env(), **kwargs)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every CLI call pays for what importing the CLI loads; dataclasses
    # alone would bring in inspect, ast, dis and tokenize, and argparse
    # gettext and locale, which only help and other spellings need.
    def loaded(code):
        proc = subprocess.run(
            [sys.executable, "-c", code + "; print(*sys.modules)"],
            capture_output=True, text=True, env=_cli_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = loaded("import sys, bruhatkit.cli") - loaded("import sys")
    assert "bruhatkit.cli" in added
    assert not added & {"dataclasses", "inspect", "argparse", "gettext",
                        "locale"}


def test_stdout_write_failure_exits_2(capsys, monkeypatch):
    class Full:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Full())
    code = main(["info", "--type", "A", "--rank", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: cannot write to stdout: "
                   f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_stdout_full_device_exits_2():
    with open("/dev/full", "w") as full:
        proc = _cli_process(["scan", "--type", "D", "--rank", "4",
                             "--target", "levi_table"], stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in err
    assert err.decode().startswith("error: cannot write to stdout:")
    assert len(err.splitlines()) == 1


def test_stdout_closed_pipe_exits_2():
    # The listing is several times a pipe's buffer, so the command is still
    # writing when the reader goes away.
    proc = _cli_process(["scan", "--type", "D", "--rank", "5",
                         "--target", "levi_table"], stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"w\tI\tcoset_factor\tvalue\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in err
    assert err.decode().startswith("error: cannot write to stdout:")
    assert len(err.splitlines()) == 1

# -- deodhar ------------------------------------------------------------------


def test_deodhar_listing_golden(capsys):
    code, out, _ = run(capsys, ["deodhar", "--type", "A", "--rank", "2",
                                "--v-word", "1.2.1", "--u", "id",
                                "--format", "json"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    header, rows = lines[0], lines[1:]
    assert header["count"] == 2
    assert [row["mask"] for row in rows] == ["take,skip,take",
                                             "skip,skip,skip"]
    assert [row["td"] for row in rows] == [2, 2]
    assert [row["shape"] for row in rows] == [[1, 1], [3, 0]]
    assert [row["positive"] for row in rows] == [False, True]


def test_deodhar_text_lists_j_sets_in_order(capsys):
    code, out, _ = run(capsys, ["deodhar", "--type", "A", "--rank", "4",
                                "--v-word", "1.2.1.3.2.1.4.3.2.1",
                                "--u", "id"])
    assert code == 0
    j_lines = [line for line in out.splitlines() if line.startswith("  J+=")]
    assert j_lines[:2] == [
        "  J+={1, 2, 3, 4} Jo={5, 7} J-={6, 8, 9, 10}",
        "  J+={1, 2, 3} Jo={4, 7, 8, 10} J-={5, 6, 9}"]
    assert j_lines[-1].endswith(" J-={}")  # the positive mask
    for line in j_lines:
        for body in re.findall(r"\{([^}]*)\}", line):
            positions = [int(k) for k in body.split(", ")] if body else []
            assert positions == sorted(positions), line


def test_deodhar_all_take_for_top(capsys):
    code, out, _ = run(capsys, ["deodhar", "--type", "A", "--rank", "2",
                                "--v-word", "1.2.1", "--u", "1.2.1",
                                "--format", "json"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["count"] == 1
    assert lines[1]["mask"] == "take,take,take"


def test_deodhar_td_is_one_ad_per_query(monkeypatch, capsys):
    # Every mask of a query has td = ad(u, v), so the 1,613 rows make one
    # ad call and at most the one span_rank call inside it (none when ad
    # already holds the pair); one elimination per row would make 1,613.
    rs = root_system("D", 5)
    word = reduced_word(longest_element(rs, range(1, 6)))
    modules = [m for name, m in sys.modules.items()
               if name == "bruhatkit" or name.startswith("bruhatkit.")]
    counts = {"span_rank": 0, "ad": 0}
    for name in counts:
        real = getattr(bruhatkit.algdim, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    code, out, _ = run(capsys, ["deodhar", "--type", "D", "--rank", "5",
                                "--v-word", ".".join(map(str, word)),
                                "--u", "id", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()[1:]]
    assert len(rows) == 1613
    assert {row["td"] for row in rows} == {5}
    assert counts["ad"] == 1
    assert counts["span_rank"] <= 1


def _w0_word(rs):
    return reduced_word(longest_element(rs, range(1, rs.rank + 1)))


def _oracle_row(se) -> dict:
    # The row rebuilt from the Subexpression's own J sets, betas and
    # evaluation, one mask at a time.
    j_circ, j_minus = se.j_circ, se.j_minus
    return {
        "mask": se.mask_string(),
        "evaluation": word_string(se.evaluation),
        "j_plus": sorted(se.j_plus),
        "j_circ": sorted(j_circ),
        "j_minus": sorted(j_minus),
        "betas": [f"{k}:{root_string(b)}" for k, b in se.betas],
        "shape": [len(j_circ), len(j_minus)],
        "td": se.td,
        "positive": not j_minus,
    }


def _oracle_formatted(se, fmt):
    # The oracle's row in each format: a json line, a text block and the
    # csv cells, rendered field by field.
    row = _oracle_row(se)
    if fmt == "json":
        return json.dumps(row) + "\n"
    if fmt == "csv":
        return [cli._csv_cell(value) for value in row.values()]
    j_plus, j_circ, j_minus = (", ".join(map(str, row[key]))
                               for key in ("j_plus", "j_circ", "j_minus"))
    return (f"mask ({row['mask']}){' (positive)' * row['positive']}\n"
            f"  J+={{{j_plus}}} Jo={{{j_circ}}} J-={{{j_minus}}}\n"
            f"  betas: {'; '.join(row['betas']) or '-'}\n"
            f"  shape: ({row['shape'][0]},{row['shape'][1]})  "
            f"td: {row['td']}\n")


def _stdout_rows(out, fmt):
    # The rows of a deodhar stdout, header dropped: a text row is 4 lines.
    if fmt == "csv":
        return list(csv.reader(io.StringIO(out)))[1:]
    lines = out.splitlines(keepends=True)[1:]
    if fmt == "json":
        return lines
    return ["".join(lines[i:i + 4]) for i in range(0, len(lines), 4)]


@pytest.mark.parametrize("family, rank, every_u, masks", [
    ("B", 3, True, 200), ("G", 2, True, 33), ("D", 5, False, 1613)])
def test_deodhar_rows_match_subexpression_oracle(capsys, family, rank,
                                                 every_u, masks):
    # In every format, each stdout row and each row of the table helper is
    # the oracle's row, in mask order, and the count is the oracle's.
    rs = root_system(family, rank)
    word = _w0_word(rs)
    checked = 0
    for u in enumerate_group(rs) if every_u else [identity(rs)]:
        subexprs = enumerate_distinguished(word, u)
        for fmt in ("text", "json", "csv"):
            oracle = [_oracle_formatted(se, fmt) for se in subexprs]
            code, out, _ = run(capsys, ["deodhar", "--type", family,
                                        "--rank", str(rank), "--format", fmt,
                                        "--v-word", ".".join(map(str, word)),
                                        "--u", word_string(u)])
            assert code == 0
            assert _stdout_rows(out, fmt) == oracle
            count, rows = cli._deodhar_table(word, u, fmt)
            assert count == len(oracle)
            if fmt == "csv":
                rows = csv.reader(rows)
            assert list(rows) == oracle
        checked += len(subexprs)
    assert checked == masks


def test_deodhar_json_rows_at_the_edges(capsys):
    # The empty word has one mask for u = id, with every list empty, and
    # the w0 word one for u = w0, all takes and no beta.
    rs = root_system("B", 3)
    word = _w0_word(rs)
    w0 = ".".join(map(str, word))
    lines = []
    for v_word, u in [("id", "id"), (w0, w0)]:
        code, out, _ = run(capsys, ["deodhar", "--type", "B", "--rank", "3",
                                    "--v-word", v_word, "--u", u,
                                    "--format", "json"])
        assert code == 0
        rows = [json.dumps(_oracle_row(se)) for se in enumerate_distinguished(
            parse_word(v_word), parse_element(rs, u))]
        assert out.splitlines()[1:] == rows
        lines += rows
    assert lines == [
        '{"mask": "", "evaluation": "id", "j_plus": [], "j_circ": [], '
        '"j_minus": [], "betas": [], "shape": [0, 0], "td": 0, '
        '"positive": true}',
        '{"mask": "take,take,take,take,take,take,take,take,take", '
        f'"evaluation": "{w0}", "j_plus": [1, 2, 3, 4, 5, 6, 7, 8, 9], '
        '"j_circ": [], "j_minus": [], "betas": [], "shape": [0, 0], '
        '"td": 0, "positive": true}']


def test_deodhar_text_and_csv_rows_at_the_edges(capsys):
    # The empty word's one mask, a one-letter word's masks and u = w0's one
    # mask over the w0 word, in text and as the bytes csv.writer writes for
    # the oracle's cells: cells of one entry or none go bare, a mask or J+
    # of two or more entries and the shape are quoted.
    rs = root_system("B", 3)
    w0 = ".".join(map(str, _w0_word(rs)))
    cases = [("id", "id"), ("2", "id"), ("2", "2"), (w0, w0)]
    quoted = set()
    for fmt in ("text", "csv"):
        for v_word, u in cases:
            word, u = parse_word(v_word), parse_element(rs, u)
            oracle = [_oracle_formatted(se, fmt)
                      for se in enumerate_distinguished(word, u)]
            code, out, _ = run(capsys, ["deodhar", "--type", "B", "--rank",
                                        "3", "--v-word", v_word, "--u",
                                        word_string(u), "--format", fmt])
            assert code == 0
            assert _stdout_rows(out, fmt) == oracle
            count, rows = cli._deodhar_table(word, u, fmt)
            rows = list(rows)
            assert count == len(rows) == len(oracle)
            if fmt == "csv":
                lines = io.StringIO()
                csv.writer(lines, lineterminator="\n").writerows(oracle)
                assert rows == lines.getvalue().splitlines(keepends=True)
                assert out.splitlines(keepends=True)[1:] == rows
                quoted.update(row.count('"') for row in rows)
            else:
                assert rows == oracle
    # Only the shape is quoted, then also the mask and J+ of u = w0.
    assert quoted == {2, 6}


@pytest.mark.parametrize("fmt, digest", [
    ("text", "265bbcdf1006a8789e2154f037e0d322"
             "bd2aa78e331f17947d41e35007d820da"),
    ("json", "43e2a22fdadab1f6ad2f623fc4ac6c16"
             "62a3e2da98bc10be5b8cf22364282396"),
    ("csv", "0b16612b118efeb320f30d90efe762fb"
            "d17d9c0e3b4fdec391b14e10f23ee3fe"),
])
def test_deodhar_output_digest(capsys, fmt, digest):
    # The 1,613 rows of D5, w0 word, u = id, byte for byte in each format.
    word = _w0_word(root_system("D", 5))
    code, out, _ = run(capsys, ["deodhar", "--type", "D", "--rank", "5",
                                "--v-word", ".".join(map(str, word)),
                                "--u", "id", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deodhar_table_interns_only_u_and_v():
    # On a fresh D5, the rows of the w0 word for u = id, read to the end in
    # every format, intern u and the word's product v and nothing else: the
    # search, the halves and the rows hold raw permutations.  A search on
    # interned elements interned 356 more.
    word = _w0_word(root_system("D", 5))
    rs = build_root_system("D", 5)
    u = identity(rs)
    for fmt in ("json", "text", "csv"):
        count, rows = cli._deodhar_table(word, u, fmt)
        assert count == sum(1 for _ in rows) == 1613
    assert len(rs.element_cache) <= 2


class _Discarding(io.TextIOBase):
    """A text stream that keeps its first line and counts the others."""

    def __init__(self):
        super().__init__()
        self.first, self.lines = "", 0

    def writable(self):
        return True

    def write(self, text):
        if not self.lines:
            self.first += text
        self.lines += text.count("\n")
        return len(text)


def test_deodhar_streams_its_rows(monkeypatch):
    # D6, w0 word, u = id has 122,565 masks.  Rows are written as they are
    # made, so the command never holds them all: a version that built every
    # mask first peaked at about 110 MB under tracemalloc.
    word = ".".join(map(str, _w0_word(root_system("D", 6))))
    stream = _Discarding()
    monkeypatch.setattr(sys, "stdout", stream)
    tracemalloc.start()
    try:
        code = main(["deodhar", "--type", "D", "--rank", "6", "--v-word",
                     word, "--u", "id", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(stream.first)["count"] == stream.lines - 1 == 122565
    assert peak < 20e6


def test_deodhar_rows_format_each_entry_once(monkeypatch, capsys):
    # The 1,613 masks of D5, w0 word, u = id carry 25,300 beta entries but
    # only 132 distinct ones; each command formats each of them once, and
    # renders u once for the rows and once for a text or JSON header.
    rs = root_system("D", 5)
    word = _w0_word(rs)
    assert sum(len(se.betas) for se in enumerate_distinguished(
        word, identity(rs))) == 25300
    calls = Counter()
    for name in ("root_string", "word_string"):
        real = getattr(cli, name)

        def counting(arg, _name=name, _real=real):
            calls[fmt, _name] += 1
            return _real(arg)

        monkeypatch.setattr(cli, name, counting)
    for fmt in ("text", "json", "csv"):
        code, out, _ = run(capsys, ["deodhar", "--type", "D", "--rank", "5",
                                    "--v-word", ".".join(map(str, word)),
                                    "--u", "id", "--format", fmt])
        assert code == 0
        assert len(_stdout_rows(out, fmt)) == 1613
    assert calls == {("text", "root_string"): 132,
                     ("text", "word_string"): 2,
                     ("json", "root_string"): 132,
                     ("json", "word_string"): 2,
                     ("csv", "root_string"): 132,
                     ("csv", "word_string"): 1}


def test_deodhar_rejects_non_reduced(capsys):
    code, _, err = run(capsys, ["deodhar", "--type", "A", "--rank", "2",
                                "--v-word", "1.1", "--u", "id"])
    assert code == 2
    assert "not reduced" in err


def test_deodhar_empty_word_as_id(capsys):
    assert parse_word("id") == ()
    code, out, _ = run(capsys, ["deodhar", "--type", "A", "--rank", "2",
                                "--v-word", "id", "--u", "id"])
    assert code == 0
    assert out.startswith("v-word: id   u: id ")
    assert "distinguished subexpressions: 1\n" in out
    assert "mask () (positive)\n" in out
    code, out, _ = run(capsys, ["deodhar", "--type", "A", "--rank", "2",
                                "--v-word", "id", "--u", "1",
                                "--format", "json"])
    assert code == 0
    header = json.loads(out)
    assert header["v_word"] == [] and header["count"] == 0


def test_deodhar_same_output_under_optimize(capsys):
    # python -O strips assert statements; the invariant checks must not
    # be among them, and the output must not change.
    argv = ["deodhar", "--type", "B", "--rank", "3", "--v-word",
            "1.2.1.3.2.1.3.2.3", "--u", "2.3", "--format", "json"]
    code, expected, _ = run(capsys, argv)
    assert code == 0
    proc = subprocess.run([sys.executable, "-O", "-m", "bruhatkit.cli"]
                          + argv, capture_output=True, text=True,
                          env=_cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_cli_output_digests():
    # Every scan target with and without --max-length, deodhar, info and
    # complexity, byte for byte in each format.  The digests were taken
    # from the code before scan and deodhar shared one table writer; after
    # a deliberate output change, retake them with ``_cli_digests``.
    expected = pinned_digests()
    got = _cli_digests()
    assert len(got) == 276 and set(got) == set(expected)
    assert [k for k in got if got[k] != expected[k]] == []


#: The argv forms of the benchmark's ops, and the optional flags they leave
#: out.
CANONICAL_ARGV = [
    ["scan", "--type", "A", "--rank", "4", "--target", "levi_table", "--jobs",
     "2", "--format", "csv"],
    ["scan", "--type", "F", "--rank", "4", "--target",
     "complexity_histogram", "--jobs", "2", "--format", "csv",
     "--max-length", "3", "--out", "rows.csv", "--seed", "7"],
    ["complexity", "--type", "D", "--rank", "4", "--kind", "richardson",
     "--format", "json", "--u", "1.2", "--v", "2.1.3.4.2.1"],
    ["complexity", "--type", "A", "--rank", "3", "--kind", "partial",
     "--w", "3412", "--J", "", "--I", "1,3", "--seed", "٣"],
    ["deodhar", "--type", "D", "--rank", "5", "--format", "json", "--v-word",
     "1.2.1.3.2.1.4.3.2.1", "--u", "id"],
    ["info", "--rank", " 3 ", "--type", "G"],
]


def test_reader_takes_canonical_argv_as_argparse_does():
    # COMMAND (--flag value)* never reaches argparse, and reads as argparse
    # reads it: the benchmark's forms and every pinned output case.
    for argv in CANONICAL_ARGV + _digest_cases():
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert vars(args) == vars(cli._parser().parse_args(argv))


def _usage_cases():
    """argv that only argparse reads: help, usage errors, and flags spelled
    with "=", abbreviated or given twice."""
    query = ["complexity", "--type", "A", "--rank", "3", "--kind",
             "richardson", "--u", "1", "--v", "2.1.3"]
    cases = [["--help"]] + [[command, "--help"] for command in
                            ("info", "complexity", "scan", "deodhar")]
    cases += [[], ["bogus"], ["--type", "A", "info"],
              ["info", "--type", "A"],
              ["info", "--type", "X", "--rank", "3"],
              ["info", "--type", "A", "--rank", "x"],
              ["info", "--type", "A", "--rank", "3", "--bogus"],
              ["info", "--type", "A", "--rank", "3", "--format", "xml"],
              ["info", "--type", "A", "--rank", "3", "--rank"],
              query[:-2] + ["--w", "-x"],
              query[:7] + ["--u="] + query[9:]]
    cases += [query + ["--u", "2"], query[:7] + ["--u=1"] + query[9:],
              ["info", "--ty", "A", "--ra", "3"],
              ["info", "--type", "A", "--rank", "-1"]]
    cases += [query + ["--fo", fmt] for fmt in ("text", "json", "csv")]
    cases += [["info", "--type=B", "--rank=2", f"--format={fmt}"]
              for fmt in ("text", "json", "csv")]
    return cases


def test_help_and_usage_errors_match_digests(capsys, monkeypatch):
    # Exit code, stdout and stderr of each of ``_usage_cases``, byte for
    # byte as the CLI printed them when argparse read every argv.  The
    # wording is argparse's, which changes between Python versions, so the
    # digests hold on the version they were taken with.
    with open(os.path.join(os.path.dirname(__file__),
                           "cli_usage_digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    if pinned["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"digests taken with Python {pinned['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for argv in _usage_cases():
        assert cli._read_argv(argv) is None, argv
        code = main(argv)
        captured = capsys.readouterr()
        got[" ".join(argv)] = hashlib.sha256(json.dumps(
            [code, captured.out, captured.err]).encode()).hexdigest()
    assert got == pinned["digests"]


@pytest.mark.parametrize("argv", [
    ["scan", "--type", "B", "--rank", "3", "--target", "levi_table",
     "--format", "json"],
    ["scan", "--type", "A", "--rank", "3", "--target", "toric_richardson",
     "--format", "csv"],
    ["deodhar", "--type", "D", "--rank", "4", "--v-word",
     "1.2.1.3.2.1.4.2.1.3.2.4", "--u", "id", "--format", "json"],
    ["complexity", "--type", "E", "--rank", "8", "--kind", "richardson",
     "--u", "id", "--v", "1.2.3.1.4.5.4.2.3.6.7.8.7.6"],
], ids=["levi_table", "toric_richardson", "deodhar", "richardson_e8"])
def test_output_does_not_depend_on_hash_seed(argv):
    # Element hashes are those of tuples of ints, never of bytes or str,
    # so set and dict order, and with it every output byte, is the same
    # under any PYTHONHASHSEED.
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "bruhatkit.cli"] + argv,
            capture_output=True, text=True, timeout=120,
            env={**_cli_env(), "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0]


def test_no_assert_statements_in_package():
    # Invariants are explicit checks, which python -O keeps.
    for info in pkgutil.iter_modules(bruhatkit.__path__):
        path = os.path.join(bruhatkit.__path__[0], info.name + ".py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        assert not any(isinstance(node, ast.Assert)
                       for node in ast.walk(tree)), info.name


#: The exit code of each concrete error class, as README documents them.
EXIT_CODES = {InvalidInputError: 2, PreconditionError: 3,
              NotComparableError: 3, FormulaUnavailableError: 3,
              GroupTooLargeError: 4}


def test_every_error_class_has_a_documented_exit_code():
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, BruhatkitError)}
    assert set(EXIT_CODES) == classes - {BruhatkitError}
    assert {error: error.exit_code for error in EXIT_CODES} == EXIT_CODES


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("error", list(EXIT_CODES) + [None],
                         ids=lambda error: getattr(error, "__name__", "none"))
def test_main_exits_with_the_error_class_exit_code(capsys, monkeypatch,
                                                    error, fmt):
    # A handler that raises the class: main returns its exit_code and
    # writes one stderr line, whose JSON form carries the same code.  A
    # handler returns nothing; main alone returns 0 once it has run.
    def handler(rs, args, out):
        if error is None:
            out.write("done\n")
        elif error is GroupTooLargeError:
            raise error("refused", 10, 5)
        else:
            raise error("refused")

    row = cli._COMMANDS["info"]
    monkeypatch.setitem(cli._COMMANDS, "info", (handler,) + row[1:])
    code, out, err = run(capsys, ["info", "--type", "A", "--rank", "2",
                                  "--format", fmt])
    if error is None:
        assert (code, out, err) == (0, "done\n", "")
        return
    assert code == EXIT_CODES[error] and out == ""
    if fmt == "json":
        assert json.loads(err) == {"error": {
            "exit_code": code, "hypothesis": error.__name__,
            "message": "refused"}}
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == "error: refused\n"


def test_unknown_flag_exits_2(capsys):
    assert main(["info", "--type", "A"]) == 2  # missing --rank
    capsys.readouterr()
    # Usage errors keep the one-line contract: no usage block on stderr.
    for argv in (["complexity", "--type", "A", "--rank", "3", "--kind",
                  "richardson", "--w", "-x"],
                 ["info", "--type", "A"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1, err
