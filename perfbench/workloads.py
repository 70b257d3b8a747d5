"""The benchmark's workloads: each is a fixed list of CLI ops for one seed.

Seeded inputs are drawn with ``random.Random`` and the Weyl-group model in
``coxeter.py``, never with bruhatkit, so a change to the program cannot
change the inputs it is measured on.  Every generated op is valid: each u is
a reduced subword of a reduced word of v, so u <= v holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from coxeter import Group

#: Seed whose outputs have committed golden digests.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``check`` names the oracle for seeded ops; ops with
    no oracle are seed-independent and always have a golden digest."""

    argv: tuple[str, ...]
    check: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Root systems the CLI builds for these ops, as (family, rank); set-up
    #: builds each once before the first op.
    systems: tuple[tuple[str, int], ...]
    make_ops: Callable[[int], list[Op]]
    #: Index of the op that is also run as a `python -m bruhatkit.cli`
    #: subprocess, to check that in-process output is byte-identical.
    probe: int
    #: Untraced passes per run, fixed so that every commit's figures come
    #: from the same number of samples.
    passes: int


def _random_reduced_word(g: Group, length: int,
                         rng: random.Random) -> tuple[int, ...]:
    word = []
    w = g.identity
    for _ in range(length):
        i = rng.choice([i for i in range(1, g.rank + 1)
                        if i not in g.right_descents(w)])
        word.append(i)
        w = g.right(w, i)
    return tuple(word)


def _random_reduced_subword(g: Group, word: tuple[int, ...], length: int,
                            rng: random.Random) -> tuple[int, ...]:
    while True:
        keep = sorted(rng.sample(range(len(word)), length))
        sub = tuple(word[k] for k in keep)
        if g.length(g.from_word(sub)) == length:
            return sub


def _dots(word: tuple[int, ...]) -> str:
    return ".".join(map(str, word)) if word else "id"


# The sizes below keep one pass of each workload at 3-8 s on a 2-core VM, so
# a run holds several passes.

#: richardson_stream: queries per pass, l(v), and l(v) - l(u).  Two hundred
#: queries is the least count at which p95 has ten samples beyond it.
RICHARDSON_COUNT = 200
RICHARDSON_LENGTH_V = 8
RICHARDSON_GAP = 2

#: deodhar_masks: lengths of the seeded u's.  The cost of one op depends on
#: l(u) far more than on which u of that length is drawn, so fixing the
#: lengths keeps every seed's pass equally heavy.  The five u's of length 15
#: hold the median op and u = id the slowest, so neither op_p50_ms nor
#: op_p95_ms hinges on a single draw.
DEODHAR_U_LENGTHS = (14, 14, 15, 15, 15, 15, 15, 17, 18, 19)


def richardson_pairs(seed: int) -> list[tuple[str, str]]:
    """Seeded D4 pairs (u, v) with l(v) = RICHARDSON_LENGTH_V and
    l(v) - l(u) = RICHARDSON_GAP."""
    g = Group("D", 4)
    rng = random.Random(f"richardson_stream/{seed}")
    pairs = []
    for _ in range(RICHARDSON_COUNT):
        v = _random_reduced_word(g, RICHARDSON_LENGTH_V, rng)
        u = _random_reduced_subword(g, v, RICHARDSON_LENGTH_V
                                    - RICHARDSON_GAP, rng)
        pairs.append((_dots(u), _dots(v)))
    return pairs


def deodhar_inputs(seed: int) -> tuple[str, list[str]]:
    """The least reduced word of w0 in D5, and seeded reduced subwords u
    of lengths DEODHAR_U_LENGTHS."""
    g = Group("D", 5)
    word = g.reduced_word(g.longest())
    rng = random.Random(f"deodhar_masks/{seed}")
    return _dots(word), [_dots(_random_reduced_subword(g, word, n, rng))
                         for n in DEODHAR_U_LENGTHS]


def _scan(family: str, rank: int, target: str, jobs: int, fmt: str,
          *extra: str) -> Op:
    return Op(("scan", "--type", family, "--rank", str(rank), "--target",
               target, "--jobs", str(jobs), "--format", fmt) + extra)


# Many scans of rank-4 and rank-5 groups rather than one D5 scan: while the
# scan pool's threads run, the worker times no yardstick (see worker.py), so
# shorter ops keep the yardsticks that correct them close in time.
SCAN_ELEMENTS = (("levi_table", "A", 4), ("levi_table", "D", 4),
                 ("levi_table", "C", 4), ("levi_table", "B", 4),
                 ("complexity_histogram", "D", 4),
                 ("complexity_histogram", "B", 4),
                 ("complexity_histogram", "A", 5),
                 ("complexity_histogram", "F", 4))


def _scan_elements(seed: int) -> list[Op]:
    return [_scan(family, rank, target, 2, "csv")
            for target, family, rank in SCAN_ELEMENTS]


def _richardson_stream(seed: int) -> list[Op]:
    return [Op(("complexity", "--type", "D", "--rank", "4", "--kind",
                "richardson", "--format", "json", "--u", u, "--v", v),
               check="richardson")
            for u, v in richardson_pairs(seed)]


def _deodhar_masks(seed: int) -> list[Op]:
    word, us = deodhar_inputs(seed)

    def op(u: str, check: str | None) -> Op:
        return Op(("deodhar", "--type", "D", "--rank", "5", "--format",
                   "json", "--v-word", word, "--u", u), check=check)

    return [op("id", None)] + [op(u, "deodhar") for u in us]


#: Why each workload was chosen is recorded in BENCHMARK.json.  Pass counts
#: keep an untraced run near 20 s on a 2-core VM, where one pass takes about
#: 3 s on scan_elements and 3.5 s on richardson_stream and deodhar_masks
#: while the host is calm, and up to twice that while it is loaded.
WORKLOADS = {w.name: w for w in [
    Workload("scan_elements", (("A", 4), ("B", 4), ("C", 4), ("D", 4),
                               ("A", 5), ("F", 4)), _scan_elements, probe=4,
             passes=6),
    Workload("richardson_stream", (("D", 4),), _richardson_stream, probe=0,
             passes=5),
    Workload("deodhar_masks", (("D", 5),), _deodhar_masks, probe=10,
             passes=5),
]}
