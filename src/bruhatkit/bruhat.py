"""Bruhat order: comparisons, covers, intervals, and the labeled Bruhat graph.

The Bruhat graph on [u, v] has an edge w ~ s_alpha w for every positive root
alpha with both endpoints in the interval; the edge label (weight) is alpha.
Cover edges are the length-difference-1 edges, i.e. the Hasse diagram.

Interval enumeration is a downward breadth-first search from v that keeps
only elements >= u; comparisons are memoized globally, which is safe because
elements are interned and immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import NotComparableError
from .rootsys import Root
from .weyl import (WeylElement, multiply, reflection, right_descents,
                   simple_reflection, word_string)


class CoverEdge(NamedTuple):
    """An edge lower ~ upper = s_label lower of the Bruhat graph.

    For cover edges l(upper) = l(lower) + 1; general graph edges only have
    l(upper) > l(lower).
    """

    lower: WeylElement
    upper: WeylElement
    label: Root


@lru_cache(maxsize=None)
def bruhat_le(u: WeylElement, v: WeylElement) -> bool:
    """u <= v in Bruhat order, by the right-descent recursion."""
    if u.length > v.length:
        return False
    if v.is_identity():
        return u.is_identity()
    if u == v:
        return True
    i = min(right_descents(v))
    s = simple_reflection(v.system, i)
    vs = multiply(v, s)
    if i in right_descents(u):
        return bruhat_le(multiply(u, s), vs)
    return bruhat_le(u, vs)


def _edge_key(rs, edge: CoverEdge) -> tuple:
    return (edge.lower.sort_key(), rs.index[edge.label], edge.upper.sort_key())


def lower_covers(w: WeylElement) -> list[CoverEdge]:
    """All edges x ~ w with x = s_alpha w and l(x) = l(w) - 1."""
    rs = w.system
    out = []
    for alpha in rs.positive_roots:
        x = multiply(reflection(rs, alpha), w)
        if x.length == w.length - 1:
            out.append(CoverEdge(x, w, alpha))
    out.sort(key=lambda e: _edge_key(rs, e))
    return out


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
    out.sort(key=lambda e: _edge_key(rs, e))
    return out


class LabeledInterval:
    """The Bruhat interval [u, v] with its cover and Bruhat-graph edges.

    Immutable after construction; distinct intervals may be built
    concurrently.
    """

    def __init__(self, u: WeylElement, v: WeylElement,
                 elements: frozenset[WeylElement],
                 graph_edges: tuple[CoverEdge, ...]):
        self.u = u
        self.v = v
        self.elements = elements
        self.graph_edges = graph_edges

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

    def elements_sorted(self) -> list[WeylElement]:
        return sorted(self.elements, key=WeylElement.sort_key)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return (f"LabeledInterval([{word_string(self.u)}, "
                f"{word_string(self.v)}], {len(self.elements)} elements)")


@lru_cache(maxsize=16384)
def interval(u: WeylElement, v: WeylElement) -> LabeledInterval:
    """Build [u, v] with all cover edges and all Bruhat-graph edges.

    Every element of [u, v] is reachable from v by a saturated chain inside
    [u, v], so the downward search may prune anything not >= u.  Each
    x = s_alpha w below a visited w gives an edge if x lies in [u, v].
    """
    if not bruhat_le(u, v):
        raise NotComparableError(
            f"empty interval: {word_string(u)} is not <= {word_string(v)}")
    rs = u.system
    elements = {v}
    candidates = []
    frontier = [v]
    while frontier:
        nxt = []
        for w in frontier:
            for alpha in rs.positive_roots:
                x = multiply(reflection(rs, alpha), w)
                if x.length < w.length:
                    candidates.append(CoverEdge(x, w, alpha))
                if (x.length == w.length - 1 and x not in elements
                        and bruhat_le(u, x)):
                    elements.add(x)
                    nxt.append(x)
        frontier = nxt
    graph = sorted((e for e in candidates if e.lower in elements),
                   key=lambda e: _edge_key(rs, e))
    return LabeledInterval(u, v, frozenset(elements), tuple(graph))


def saturated_chain(u: WeylElement, v: WeylElement) -> list[WeylElement]:
    """One maximal chain u = w0 < w1 < ... < v, choosing at each step the
    upper cover with the least label in the root ordering."""
    if not bruhat_le(u, v):
        raise NotComparableError(
            f"{word_string(u)} is not <= {word_string(v)}")
    rs = u.system
    iv = interval(u, v)
    ups: dict[WeylElement, list[CoverEdge]] = {w: [] for w in iv.elements}
    for e in iv.cover_edges:
        ups[e.lower].append(e)
    chain = [u]
    w = u
    while w != v:
        step = min(ups[w], key=lambda e: (rs.index[e.label],
                                          e.upper.sort_key()))
        w = step.upper
        chain.append(w)
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
