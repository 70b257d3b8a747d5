"""Algebraic dimension of Bruhat intervals.

ad(u, v) is the dimension of the span of all edge labels of the Bruhat graph
on [u, v].  The production route, ``ad``, is the rank of the labels of the
right-descent walk that also decides u <= v (``bruhat.descent_labels``), so
it never builds the interval.  Three slower routes cross-check it: all
graph edges of [u, v] (ad_direct) and its covers incident to either endpoint
(ad_via_covers_at), which build the interval, and one saturated chain
(ad_via_chain), climbed cover by cover without it.  All four agree; the test
suite checks this exhaustively on small groups.

ad(u, v) is also td of every Deodhar component: every distinguished mask's
betas span L(u, v), the span of the labels of [u, v] (proof in ``deodhar``).

All spans are over the rationals.  Root coordinates are integral, so ranks
agree with real spans, and everything here is fraction-free integer
elimination: rows are combined by cross-multiplication and kept primitive by
gcd division.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Literal

from .bruhat import descent_labels, edge_label, interval, saturated_chain
from .errors import InvalidInputError, NotComparableError
from .rootsys import Root
from .weyl import WeylElement, word_string


def _primitive(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    # sign convention: first nonzero entry positive
    for x in row:
        if x > 0:
            return row
        if x < 0:
            return [-y for y in row]
    return row


def _forward_eliminate(vectors: Iterable[Root]) -> tuple[list[list[int]], list[int]]:
    """An echelon form of the span (primitive rows, each zero left of its
    pivot column) and its pivot columns; stops once the echelon is full."""
    echelon: dict[int, list[int]] = {}
    for vector in vectors:
        if len(echelon) == len(vector):
            break
        row = list(vector)
        for c in range(len(row)):
            cur = row[c]
            if not cur:
                continue
            pivot_row = echelon.get(c)
            if pivot_row is None:
                echelon[c] = _primitive(row)
                break
            row = _primitive([pivot_row[c] * x - cur * y
                              for x, y in zip(row, pivot_row)])
    pivot_cols = sorted(echelon)
    return [echelon[c] for c in pivot_cols], pivot_cols


def span_rank(roots: Iterable[Root]) -> int:
    """Exact rank of the rational span of the given integer vectors.

    >>> span_rank([(1, 0), (-1, 0)])
    1
    >>> span_rank([])
    0
    """
    rows, _ = _forward_eliminate(roots)
    return len(rows)


def echelon_basis(vectors: Iterable[Root]) -> tuple[Root, ...]:
    """Canonical basis of the rational span: the reduced row echelon form,
    scaled row-wise to primitive integer vectors with positive pivots.

    Two generator sets span the same space iff their echelon bases are
    equal, so this doubles as a hashable identity for subspaces.
    """
    rows, pivot_cols = _forward_eliminate(vectors)
    for i in range(len(rows) - 1, -1, -1):
        c = pivot_cols[i]
        for j in range(i):
            if rows[j][c]:
                piv, cur = rows[i][c], rows[j][c]
                rows[j] = [piv * x - cur * y
                           for x, y in zip(rows[j], rows[i])]
        rows[i] = _primitive(rows[i])
    for j in range(len(rows)):
        rows[j] = _primitive(rows[j])
    return tuple(tuple(r) for r in rows)


class SpanBasis:
    """A raw list of generating roots plus the (cached) rank of their span.

    The generator list is kept as given, not echelonized, so callers can see
    exactly which labels produced the span.
    """

    __slots__ = ("generators", "_rank")

    def __init__(self, generators: Iterable[Root]):
        self.generators: tuple[Root, ...] = tuple(generators)
        self._rank: int | None = None

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = span_rank(self.generators)
        return self._rank

    def __repr__(self) -> str:
        return f"SpanBasis(rank {self.rank}, {len(self.generators)} generators)"


def ad_direct(u: WeylElement, v: WeylElement) -> SpanBasis:
    """Span of the labels of all Bruhat-graph edges in [u, v]."""
    iv = interval(u, v)
    rs = u.system
    labels = sorted({e.label for e in iv.graph_edges},
                    key=lambda a: rs.index[a])
    return SpanBasis(labels)


def ad_via_covers_at(u: WeylElement, v: WeylElement,
                     end: Literal["bottom", "top"]) -> SpanBasis:
    """Span of the labels of the covers incident to one endpoint of [u, v].

    These already span the whole of the edge-label space of the interval.
    """
    iv = interval(u, v)
    if end == "bottom":
        labels = [e.label for e in iv.cover_edges if e.lower == u]
    elif end == "top":
        labels = [e.label for e in iv.cover_edges if e.upper == v]
    else:
        raise InvalidInputError(f"end must be 'bottom' or 'top', got {end!r}")
    return SpanBasis(labels)


def ad_via_chain(u: WeylElement, v: WeylElement) -> SpanBasis:
    """Span of the edge labels along one saturated chain of [u, v]."""
    chain = saturated_chain(u, v)
    return SpanBasis(edge_label(x, y) for x, y in zip(chain, chain[1:]))


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


def max_toric_above_bottom(
        u: WeylElement, v: WeylElement) -> tuple[WeylElement, int]:
    """Maximize l(w) - l(u) over w in [u, v] with [u, w] toric.

    The maximum equals ad(u, v); the returned witness is the least such w in
    the deterministic element order.
    """
    best = max((w for w in interval(u, v).elements_sorted()
                if is_toric(u, w)), key=lambda w: w.length)
    return best, best.length - u.length


def max_toric_below_top(
        u: WeylElement, v: WeylElement) -> tuple[WeylElement, int]:
    """Maximize l(v) - l(w) over w in [u, v] with [w, v] toric."""
    best = min((w for w in interval(u, v).elements_sorted()
                if is_toric(w, v)), key=lambda w: w.length)
    return best, v.length - best.length
