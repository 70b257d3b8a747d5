"""Bruhat order: comparisons, covers, intervals, and the labeled Bruhat graph.

The Bruhat graph on [u, v] has an edge w ~ s_alpha w for every positive root
alpha with both endpoints in the interval; the edge label (weight) is alpha.
Cover edges are the length-difference-1 edges, i.e. the Hasse diagram.

Comparison and algebraic dimension share one right-descent walk
(``descent_labels``): ``bruhat_le`` asks whether it reaches u = v, and
``algdim.ad`` takes the rank of the labels it records.  ``interval`` finds
only the elements of [u, v], by a downward breadth-first search from v that
keeps only elements >= u; the elements below each w are read off its
inversions (``_below``).  Its Bruhat-graph edges are worked out from those
elements once, when first read.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import NotComparableError
from .rootsys import Root
from .weyl import (WeylElement, multiply, reflection, right_descents,
                   times_simple, word_string)


class CoverEdge(NamedTuple):
    """An edge lower ~ upper = s_label lower of the Bruhat graph.

    For cover edges l(upper) = l(lower) + 1; general graph edges only have
    l(upper) > l(lower).
    """

    lower: WeylElement
    upper: WeylElement
    label: Root


def descent_labels(u: WeylElement, v: WeylElement) -> list[Root] | None:
    """The labels of the right-descent walk from (u, v), or None as soon as
    l(u) > l(v), which happens exactly when u is not <= v (the lifting
    property; Björner–Brenti, GTM 231, ch. 2).

    With i the least right descent of v, each step sets v to v s_i, and u to
    u s_i when i is also a right descent of u; otherwise it records the
    label u(alpha_i).  Once u = v it has recorded l(v) - l(u) labels.
    """
    rs = u.system
    labels = []
    while u.length <= v.length:
        if u == v:
            return labels
        i = min(right_descents(v))
        if i in right_descents(u):
            u = times_simple(u, i)
        else:
            labels.append(rs.signed_roots[u.perm[rs.simple_positions[i - 1]]])
        v = times_simple(v, i)
    return None


@lru_cache(maxsize=None)
def bruhat_le(u: WeylElement, v: WeylElement) -> bool:
    """u <= v in Bruhat order: the walk of ``descent_labels`` reaches u = v."""
    return descent_labels(u, v) is not None


def _sort_edges(rs, edges) -> list[CoverEdge]:
    """The edges sorted by (lower end, label, upper end): the ends by
    ``sort_key``, computed once per element, and the label by root index."""
    keys: dict[WeylElement, tuple] = {}

    def key(w: WeylElement) -> tuple:
        k = keys.get(w)
        if k is None:
            k = keys[w] = w.sort_key()
        return k

    index = rs.index
    return sorted(edges,
                  key=lambda e: (key(e.lower), index[e.label], key(e.upper)))


def _reflections(rs) -> list[WeylElement]:
    """s_alpha for every positive root alpha, by root index."""
    return [reflection(rs, alpha) for alpha in rs.positive_roots]


def _below(w: WeylElement, reflections: list[WeylElement]):
    """Yield (alpha, s_alpha w) for every positive root alpha with
    s_alpha w < w, given ``_reflections`` of w's system.

    s_alpha w < w exactly when w^-1(alpha) < 0, that is when alpha = -w(beta)
    for a right inversion beta of w, so the alphas are read off w's
    permutation and only l(w) products are made.
    """
    n_pos = len(reflections)
    roots = w.system.positive_roots
    for p in w.perm[:n_pos]:
        if p >= n_pos:
            a = p - n_pos
            yield roots[a], multiply(reflections[a], w)


def lower_covers(w: WeylElement) -> list[CoverEdge]:
    """All edges x ~ w with x = s_alpha w and l(x) = l(w) - 1, found among
    the l(w) elements s_alpha w < w (see ``_below``)."""
    rs = w.system
    return _sort_edges(rs, (CoverEdge(x, w, alpha)
                            for alpha, x in _below(w, _reflections(rs))
                            if x.length == w.length - 1))


def upper_covers_le(w: WeylElement, v: WeylElement) -> list[CoverEdge]:
    """All edges w ~ y with l(y) = l(w) + 1 and y <= v."""
    if not bruhat_le(w, v):
        raise NotComparableError(
            f"{word_string(w)} is not <= {word_string(v)}")
    rs = w.system
    out = []
    for alpha in rs.positive_roots:
        y = multiply(reflection(rs, alpha), w)
        if y.length == w.length + 1 and bruhat_le(y, v):
            out.append(CoverEdge(w, y, alpha))
    return _sort_edges(rs, out)


class LabeledInterval:
    """The Bruhat interval [u, v]: its elements, and its cover and
    Bruhat-graph edges worked out from them once, when first read.
    """

    def __init__(self, u: WeylElement, v: WeylElement,
                 elements: frozenset[WeylElement]):
        self.u = u
        self.v = v
        self.elements = elements

    @cached_property
    def graph_edges(self) -> tuple[CoverEdge, ...]:
        """Every edge x ~ w = s_alpha x with both ends in [u, v], sorted by
        (lower end, label, upper end)."""
        rs = self.u.system
        reflections = _reflections(rs)
        return tuple(_sort_edges(rs, (
            CoverEdge(x, w, alpha) for w in self.elements
            for alpha, x in _below(w, reflections) if x in self.elements)))

    @property
    def cover_edges(self) -> tuple[CoverEdge, ...]:
        """The graph edges with length difference one, in the same order."""
        return tuple(e for e in self.graph_edges
                     if e.upper.length == e.lower.length + 1)

    def rank_sizes(self) -> tuple[int, ...]:
        """Number of elements at each length from l(u) up to l(v)."""
        sizes = [0] * (self.v.length - self.u.length + 1)
        for w in self.elements:
            sizes[w.length - self.u.length] += 1
        return tuple(sizes)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return (f"LabeledInterval([{word_string(self.u)}, "
                f"{word_string(self.v)}], {len(self.elements)} elements)")


@lru_cache(maxsize=16384)
def interval(u: WeylElement, v: WeylElement) -> LabeledInterval:
    """The elements of [u, v]; its edges are worked out on first read.

    Every element of [u, v] is reachable from v by a saturated chain inside
    [u, v], so the downward search may prune anything not >= u.  The
    elements x = s_alpha w < w below a visited w come from w's inversions
    (``_below``), l(w) products for each w above the bottom layer l(u).
    """
    if not bruhat_le(u, v):
        raise NotComparableError(
            f"empty interval: {word_string(u)} is not <= {word_string(v)}")
    reflections = _reflections(u.system)
    bottom = u.length
    elements = {v}
    frontier = [v]
    # Every element of a layer has the same length; at l(u) only u is left,
    # and nothing below it lies in [u, v].
    while frontier and frontier[0].length > bottom:
        nxt = []
        for w in frontier:
            for _, x in _below(w, reflections):
                if (x.length == w.length - 1 and x not in elements
                        and bruhat_le(u, x)):
                    elements.add(x)
                    nxt.append(x)
        frontier = nxt
    return LabeledInterval(u, v, frozenset(elements))


def saturated_chain(u: WeylElement, v: WeylElement) -> list[WeylElement]:
    """One maximal chain u = w0 < w1 < ... < v, choosing at each step the
    upper cover with the least label in the root ordering: the first of
    ``upper_covers_le``, which sorts by label index, then by ``sort_key``.
    Builds no interval."""
    chain = [u]
    while chain[-1] != v:
        chain.append(upper_covers_le(chain[-1], v)[0].upper)
    return chain


def edge_label(x: WeylElement, y: WeylElement) -> Root:
    """The weight of the Bruhat-graph edge between x < y, i.e. the positive
    root alpha with y = s_alpha x."""
    rs = x.system
    for alpha in rs.positive_roots:
        if multiply(reflection(rs, alpha), x) == y:
            return alpha
    raise NotComparableError(
        f"{word_string(x)} and {word_string(y)} are not joined by a "
        f"reflection")
