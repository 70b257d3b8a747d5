"""Correctness of op outputs: committed golden digests and oracle checks.

Seed-independent ops must match the digest in ``golden.json``.  Seeded ops
are checked against the Weyl-group model in ``coxeter.py`` on every seed,
and against ``golden.json`` too when the seed is the default one.  The
oracle computes ad(u, v) by the descent recursion, while the CLI takes it
from the labels of every Bruhat-graph edge, so the two do not share a route.
"""

from __future__ import annotations

import json
from pathlib import Path

from coxeter import Group, rank

GOLDEN = Path(__file__).with_name("golden.json")


def load_golden() -> dict[str, dict]:
    """Golden digests keyed by the op's space-joined argv."""
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)["ops"]


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _word(g: Group, text: str) -> tuple[int, ...]:
    return g.identity if text == "id" else g.from_word(
        int(c) for c in text.split("."))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_richardson(argv, text: str) -> None:
    """Raise AssertionError unless text is the right JSON report."""
    g = Group(_flag(argv, "--type"), int(_flag(argv, "--rank")))
    u, v = _word(g, _flag(argv, "--u")), _word(g, _flag(argv, "--v"))
    lu, lv = g.length(u), g.length(v)
    ad = g.ad(u, v)
    report = json.loads(text)
    wit = report["witness"]
    _require(text.count("\n") == 1 and text.endswith("\n"), "one line")
    _require(report["kind"] == "torus_richardson", "kind")
    _require(report["value"] == lv - lu - ad, "value")
    _require((wit["u"], wit["v"]) == (g.word_string(u), g.word_string(v)),
             "reduced words of u and v")
    _require((wit["length_u"], wit["length_v"], wit["ad"]) == (lu, lv, ad),
             "lengths and ad")
    _require(wit["max_toric_value"] == ad, "max toric value")
    w = _word(g, wit["max_toric_witness"])
    _require(g.word_string(w) == wit["max_toric_witness"], "witness word")
    _require(g.le(u, w) and g.le(w, v), "witness lies in [u, v]")
    _require(lv - g.length(w) == ad == g.ad(w, v),
             "[w, v] is toric of rank ad")
    _require(report["meta"]["type"] == _flag(argv, "--type")
             and report["meta"]["rank"] == int(_flag(argv, "--rank")), "meta")


def root_string(root) -> str:
    """A root in the CLI's notation, e.g. ``a1+2a2``."""
    parts = []
    for i, c in enumerate(root, start=1):
        if c:
            body = f"a{i}" if abs(c) == 1 else f"{abs(c)}a{i}"
            parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts)


def distinguished_rows(g: Group, word: tuple[int, ...], u) -> list[dict]:
    """Every distinguished mask over word with product u, as CLI rows, in
    lexicographic order with take before skip."""
    rows = []

    def walk(k: int, x, mask: list[str]) -> None:
        if abs(g.length(x) - g.length(u)) > len(word) - k:
            return
        if k == len(word):
            if x == u:
                rows.append(_row(g, word, mask))
            return
        i = word[k]
        walk(k + 1, g.right(x, i), mask + ["take"])
        if i not in g.right_descents(x):
            walk(k + 1, x, mask + ["skip"])

    walk(0, g.identity, [])
    return rows


def _row(g: Group, word, mask) -> dict:
    x = g.identity
    j_plus, j_circ, j_minus, betas = [], [], [], []
    for k, (i, choice) in enumerate(zip(word, mask), start=1):
        beta = g.apply_simple(x, i)
        down = i in g.right_descents(x)
        if choice == "skip":
            j_circ.append(k)
            betas.append((k, beta))
        else:
            if down:
                j_minus.append(k)
                betas.append((k, tuple(-c for c in beta)))
            else:
                j_plus.append(k)
            x = g.right(x, i)
    return {"mask": ",".join(mask), "evaluation": g.word_string(x),
            "j_plus": j_plus, "j_circ": j_circ, "j_minus": j_minus,
            "betas": [f"{k}:{root_string(b)}" for k, b in betas],
            "shape": [len(j_circ), len(j_minus)],
            "td": rank([b for _, b in betas]), "positive": not j_minus}


def check_deodhar(argv, text: str) -> None:
    """Raise AssertionError unless text is the right mask listing."""
    g = Group(_flag(argv, "--type"), int(_flag(argv, "--rank")))
    word = tuple(int(c) for c in _flag(argv, "--v-word").split("."))
    u = _word(g, _flag(argv, "--u"))
    lines = text.splitlines()
    head = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    _require(text.endswith("\n"), "final newline")
    _require(head["v_word"] == list(word), "v_word")
    _require(head["u"] == g.word_string(u), "u")
    _require(head["count"] == len(rows), "count")
    _require(rows == distinguished_rows(g, word, u), "mask rows")


ORACLES = {"richardson": check_richardson, "deodhar": check_deodhar}
