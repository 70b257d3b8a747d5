"""Algebraic dimension of Bruhat intervals.

ad(u, v) is the dimension of the span of all edge labels of the Bruhat graph
on [u, v].  ``ad`` is the rank of the labels of the right-descent walk that
also decides u <= v (``bruhat.descent_labels``), so it never builds the
interval.  The tests cross-check it, exhaustively on small groups, against
slower reference routes: all graph edges of [u, v], its covers at either
endpoint, every saturated chain, and every choice of right descent.

ad(u, v) is also td of every Deodhar component: every distinguished mask's
betas span L(u, v), the span of the labels of [u, v] (proof in ``deodhar``).

All spans are over the rationals.  Root coordinates are integral, so ranks
agree with real spans, and ``span_rank`` is fraction-free integer
elimination: input rows are kept as given, a row is reduced against a pivot
row by cross-multiplication, and each reduced row is divided by its gcd.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable

from .bruhat import descent_labels, interval
from .errors import NotComparableError
from .rootsys import Root
from .weyl import WeylElement, word_string


def span_rank(roots: Iterable[Root]) -> int:
    """Exact rank of the rational span of the given integer vectors.

    >>> span_rank([(1, 0), (-1, 0)])
    1
    >>> span_rank([])
    0
    """
    # Pivot rows by pivot column, each zero left of its pivot; no sign or
    # basis is kept, since only their number is read.
    pivots: dict[int, list[int]] = {}
    for root in roots:
        if len(pivots) == len(root):
            break
        row = list(root)
        for c in range(len(row)):
            cur = row[c]
            if not cur:
                continue
            pivot_row = pivots.get(c)
            if pivot_row is None:
                pivots[c] = row
                break
            row = [pivot_row[c] * x - cur * y for x, y in zip(row, pivot_row)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
    return len(pivots)


@lru_cache(maxsize=None)
def ad(u: WeylElement, v: WeylElement) -> int:
    """ad(u, v): the rank of the labels of ``descent_labels``, whose walk
    also decides u <= v; it never builds [u, v].

    With i the least right descent of v: if u s_i < u, then
    ad(u, v) = ad(u s_i, v s_i); otherwise u(alpha_i) joins the labels of
    [u, v s_i].

    >>> from bruhatkit.rootsys import root_system
    >>> from bruhatkit.weyl import from_word, identity
    >>> rs = root_system("A", 3)
    >>> ad(identity(rs), from_word(rs, [1, 2, 1]))
    2
    >>> ad(from_word(rs, [2]), from_word(rs, [2, 1, 3, 2]))
    3
    """
    labels = descent_labels(u, v)
    if labels is None:
        raise NotComparableError(
            f"{word_string(u)} is not <= {word_string(v)}")
    return span_rank(labels)


def is_toric(u: WeylElement, v: WeylElement) -> bool:
    """[u, v] is toric iff ad(u, v) = l(v) - l(u)."""
    return ad(u, v) == v.length - u.length


def _least(candidates: list[WeylElement], length: int) -> WeylElement:
    """The least candidate of the given length by ``sort_key``, which is
    computed only when more than one is left."""
    tied = [w for w in candidates if w.length == length]
    return tied[0] if len(tied) == 1 else min(tied, key=WeylElement.sort_key)


def max_toric_above_bottom(
        u: WeylElement, v: WeylElement) -> tuple[WeylElement, int]:
    """Maximize l(w) - l(u) over w in [u, v] with [u, w] toric.

    The maximum equals ad(u, v); the returned witness is the least such w in
    the deterministic element order.
    """
    toric = [w for w in interval(u, v).elements if is_toric(u, w)]
    best = _least(toric, max(w.length for w in toric))
    return best, best.length - u.length


def max_toric_below_top(
        u: WeylElement, v: WeylElement) -> tuple[WeylElement, int]:
    """Maximize l(v) - l(w) over w in [u, v] with [w, v] toric; the witness
    is the least such w by ``sort_key``, which orders by length first."""
    toric = [w for w in interval(u, v).elements if is_toric(w, v)]
    best = _least(toric, min(w.length for w in toric))
    return best, v.length - best.length
