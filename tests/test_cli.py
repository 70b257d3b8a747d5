import ast
import errno
import json
import os
import pkgutil
import subprocess
import sys
import time

import pytest

import bruhatkit
from bruhatkit import (build_root_system, cartan_datum, cli, from_word,
                       identity, levi_borel_complexity, root_system, rootsys,
                       torus_complexity_richardson, torus_complexity_schubert,
                       word_string)
from bruhatkit.cli import (element_from_oneline, element_to_oneline, main,
                           parse_element, parse_subset, parse_word,
                           root_string)
from bruhatkit.errors import InvalidInputError
from bruhatkit.weyl import longest_element, reduced_word, simple_reflection


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

    def refuse(self, datum):
        # Fail at once rather than build a system of rank 1000.
        built.append(datum)
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
    # and one parser, intern no new element after the first, and print the
    # same bytes as a call with a parser and a system of its own.
    built, parsers = [], []
    real_init = rootsys.RootSystem.__init__

    def counting_init(self, datum):
        built.append(datum)
        real_init(self, datum)

    monkeypatch.setattr(rootsys.RootSystem, "__init__", counting_init)
    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: parsers.append(1) or real_build_parser())
    argv = ["complexity", "--type", "D", "--rank", "4", "--kind",
            "richardson", "--u", "2", "--v", "2.1.3.4.2.1"]
    outs, interned = [], []
    for _ in range(20):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        outs.append(out)
        interned.append(len(root_system("D", 4).element_cache))
    assert len(built) <= 1 and len(parsers) <= 1
    assert interned == interned[:1] * 20
    assert outs == outs[:1] * 20
    counts = len(built), len(parsers)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    monkeypatch.setattr(cli, "root_system", lambda family, rank:
                        build_root_system(cartan_datum(family, rank)))
    assert run(capsys, argv) == (0, outs[0], "")
    assert (len(built), len(parsers)) == (counts[0] + 1, counts[1] + 1)


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


def test_unknown_flag_exits_2(capsys):
    assert main(["info", "--type", "A"]) == 2  # missing --rank
