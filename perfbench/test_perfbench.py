"""Smoke tests for the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import dataclasses
import io
import json
import random
import signal
import threading
import time
from pathlib import Path

import pytest

import bruhatkit.cli as cli
from bruhatkit import (ad, bruhat_le, bruhat, from_word, longest_element,
                       root_system, weyl, word_string)

import check
import layertrace
import run
import worker
import workloads
from coxeter import Group

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def cli_output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 4)])
def test_model_agrees_with_bruhatkit(family, rank):
    g, rs = Group(family, rank), root_system(family, rank)
    rng = random.Random(7)
    for _ in range(60):
        w1 = [rng.randint(1, rank) for _ in range(rng.randint(0, 9))]
        w2 = [rng.randint(1, rank) for _ in range(rng.randint(0, 9))]
        a, b = g.from_word(w1), g.from_word(w2)
        x, y = from_word(rs, w1), from_word(rs, w2)
        assert g.word_string(a) == word_string(x)
        assert g.le(a, b) == bruhat_le(x, y)
        if g.le(a, b):
            assert g.ad(a, b) == ad(x, y)
    assert g.word_string(g.longest()) == word_string(
        longest_element(rs, range(1, rank + 1)))


def test_inputs_depend_only_on_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.make_ops(3) == workload.make_ops(3)
    pairs = workloads.richardson_pairs(3)
    assert pairs != workloads.richardson_pairs(4)
    g = Group("D", 4)
    for u, v in pairs:
        x, y = g.from_word(map(int, u.split("."))), g.from_word(
            map(int, v.split(".")))
        assert g.length(y) == workloads.RICHARDSON_LENGTH_V
        assert g.length(y) - g.length(x) == workloads.RICHARDSON_GAP
        assert g.le(x, y)
    word, us = workloads.deodhar_inputs(3)
    assert len(word.split(".")) == 20
    assert [len(u.split(".")) for u in us] == list(
        workloads.DEODHAR_U_LENGTHS)


def test_oracles_accept_outputs_and_reject_changes():
    op = workloads.WORKLOADS["richardson_stream"].make_ops(5)[0]
    text = cli_output(op.argv)
    check.check_richardson(op.argv, text)
    report = json.loads(text)
    report["witness"]["ad"] += 1
    with pytest.raises(AssertionError):
        check.check_richardson(op.argv, json.dumps(report) + "\n")

    op = workloads.WORKLOADS["deodhar_masks"].make_ops(5)[-1]
    text = cli_output(op.argv)
    check.check_deodhar(op.argv, text)
    with pytest.raises(AssertionError):
        check.check_deodhar(op.argv, text.replace('"td": ', '"td": 1', 1))


def test_golden_covers_every_default_seed_op():
    golden = check.load_golden()
    for workload in workloads.WORKLOADS.values():
        for op in workload.make_ops(workloads.DEFAULT_SEED):
            assert op.key in golden


def test_tracer_restores_every_name_and_reads_original_caches():
    before = {(m.__name__, k): v for m in (bruhat, weyl, cli)
              for k, v in vars(m).items()}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert bruhat.multiply is not before[("bruhatkit.bruhat",
                                              "multiply")]
        assert bruhat.bruhat_le is not before[("bruhatkit.bruhat",
                                               "bruhat_le")]
        caches = tracer.cache_counts()
        cli_output(["complexity", "--type", "A", "--rank", "2", "--kind",
                    "richardson", "--u", "1", "--v", "1.2.1"])
        after = tracer.cache_counts()
    finally:
        tracer.restore()
    assert {(m.__name__, k): v for m in (bruhat, weyl, cli)
            for k, v in vars(m).items()} == before
    assert tracer.cache("bruhat.interval") is before[("bruhatkit.bruhat",
                                                      "interval")]
    layers = tracer.metrics(caches, after, 0.0)
    assert layers["bruhat.interval_calls"] > 0
    assert layers["weyl.multiply_calls"] > 0
    assert layers["algdim.witness_candidates"] == 4   # [s1, w0] in A2
    assert layers["weyl.enumerate_s"] == 0
    assert layers["rootsys.op_build_s"] > 0   # the CLI's own build


def test_absent_counter_is_reported_not_raised(monkeypatch):
    tracer = layertrace.Tracer()
    monkeypatch.setitem(layertrace.CACHES, "bruhat.interval",
                        ("bruhat", "no_such_cache"))
    counts = tracer.cache_counts()
    assert counts["bruhat.interval"] is None
    layers = tracer.metrics(counts, counts, 0.0)
    assert layers["bruhat.interval_calls"] is None


@pytest.fixture
def tiny(monkeypatch):
    """A three-query workload, so run() finishes in a few seconds."""
    stream = workloads.WORKLOADS["richardson_stream"]
    tiny = workloads.Workload("tiny", stream.systems,
                              lambda seed: stream.make_ops(seed)[:3], probe=0,
                              passes=1)
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    return tiny


def run_lines(capsys, trace, seconds=0.1):
    assert run.run("tiny", workloads.DEFAULT_SEED, seconds, trace) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_run_prints_every_metric(tiny, capsys, trace, section):
    summary, result = run_lines(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * (1 + trace) + 1
    assert summary["fail_ratio"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_pass_count_is_fixed_and_time_only_stops_it(tiny, capsys,
                                                    monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny",
                        dataclasses.replace(tiny, passes=3))
    summary, _ = run_lines(capsys, False, seconds=600)
    assert summary["passes"] == summary["planned_passes"] == 3
    assert "op_p50_ms" not in summary   # fewer than LATENCY_MIN_OPS ops
    summary, _ = run_lines(capsys, False, seconds=0)
    assert (summary["passes"], summary["planned_passes"]) == (1, 3)


def test_latency_is_corrected_for_host_speed():
    fast = {"ops": [{"ms": 10.0, "yardstick_us": run.REFERENCE_YARDSTICK_US}]}
    slow = {"ops": [{"ms": 30.0,
                     "yardstick_us": 3 * run.REFERENCE_YARDSTICK_US}]}
    assert run.op_ms([fast, slow, slow]) == [10.0]
    assert run.op_ms([fast, slow, slow], corrected=False) == [30.0]


def test_yardsticks_are_not_taken_while_other_threads_run():
    old = signal.getsignal(signal.SIGALRM)
    stop = threading.Event()
    try:
        yardsticks = worker.Yardsticks()
        around = 2 * worker.YARDSTICKS_AROUND
        yardsticks.start()
        time.sleep(0.05)
        mean, spent = yardsticks.stop()
        assert len(yardsticks.samples) > around and 0 < spent < 0.05
        thread = threading.Thread(target=stop.wait)
        thread.start()
        yardsticks.start()
        time.sleep(0.05)
        yardsticks.stop()
        assert len(yardsticks.samples) == around
    finally:
        stop.set()
        signal.signal(signal.SIGALRM, old)


def test_golden_mismatch_is_a_failed_op(tiny, capsys, monkeypatch):
    op = tiny.make_ops(workloads.DEFAULT_SEED)[1]
    golden = dict(check.load_golden())
    golden[op.key] = dict(golden[op.key], sha256="0" * 64)
    monkeypatch.setattr(run, "load_golden", lambda: golden)
    summary, result = run_lines(capsys, False)
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "richardson_stream", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
