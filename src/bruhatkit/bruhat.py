"""Bruhat order: comparisons, covers, intervals, and the labeled Bruhat graph.

The Bruhat graph on [u, v] has an edge w ~ s_alpha w for every positive root
alpha with both endpoints in the interval; the edge label (weight) is alpha.
Cover edges are the length-difference-1 edges, i.e. the Hasse diagram.

Comparison and algebraic dimension share one right-descent walk
(``descent_labels``): ``bruhat_le`` asks whether it reaches u = v, and
``algdim.ad`` takes the rank of the labels it records.  ``interval`` finds
only the elements of [u, v], by a downward breadth-first search from v that
keeps only elements >= u, down to the covers of u, found by a reflection
test (``_covers``).  The reflections s_alpha w on either side of w, and so
its covers, are read off w's permutation (``_reflected``).  An interval's
edges are worked out from its elements once, when first read.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache, partial
from typing import NamedTuple

from .errors import NotComparableError
from .rootsys import Root
from .weyl import (WeylElement, _compose, _reflections, _same_system,
                   inverse, multiply, right_descents, times_simple,
                   word_string)


class CoverEdge(NamedTuple):
    """An edge lower ~ upper = s_label lower of the Bruhat graph.

    For cover edges l(upper) = l(lower) + 1; general graph edges only have
    l(upper) > l(lower).
    """

    lower: WeylElement
    upper: WeylElement
    label: Root


def descent_labels(u: WeylElement, v: WeylElement) -> list[Root] | None:
    """The labels of the right-descent walk from (u, v), or None once
    l(u) >= l(v) with u != v, which happens exactly when u is not <= v (the
    lifting property; Björner–Brenti, GTM 231, ch. 2).

    With i the least right descent of v, each step sets v to v s_i, and u to
    u s_i when i is also a right descent of u; otherwise it records the
    label u(alpha_i).  Once u = v it has recorded l(v) - l(u) labels.
    Refuses elements of two root systems.
    """
    rs = _same_system(u, v)
    labels = []
    while u.length < v.length:
        i = min(right_descents(v))
        if i in right_descents(u):
            u = times_simple(u, i)
        else:
            labels.append(rs.signed_roots[u.perm[rs.simple_positions[i - 1]]])
        v = times_simple(v, i)
    return labels if u is v else None


@lru_cache(maxsize=None)
def bruhat_le(u: WeylElement, v: WeylElement) -> bool:
    """u <= v in Bruhat order: the walk of ``descent_labels`` reaches u = v."""
    return descent_labels(u, v) is not None


def _sort_edges(rs, edges) -> list[CoverEdge]:
    """The edges sorted by (lower end, label): the lower end by
    ``sort_key``, computed once per element, and the label by root index.
    The two fix the upper end, s_label(lower end)."""
    key, index = cache(WeylElement.sort_key), rs.index
    return sorted(edges, key=lambda e: (key(e.lower), index[e.label]))


def _reflected(w: WeylElement, up: bool = False):
    """Yield (alpha, s_alpha w) for each positive root alpha with
    s_alpha w < w, or s_alpha w > w when ``up``.

    Entry p of w.perm[:N] is w(beta) for a positive beta: p >= N means
    alpha = -w(beta) (index p - N) and s_alpha w < w, p < N means alpha =
    w(beta) and s_alpha w > w.  So l(w) products below, N - l(w) above.
    The N reflections s_alpha are made by ``weyl`` on the first call for a
    system.
    """
    roots, reflections = w.system.positive_roots, _reflections(w.system)
    n_pos = len(reflections)
    for p in w.perm[:n_pos]:
        if (p < n_pos) == up:
            a = p % n_pos
            yield roots[a], multiply(reflections[a], w)


def _covers(u: WeylElement):
    """The test of u < x for l(x) = l(u) + 1: is u^-1 x a reflection?  It
    composes raw permutations by ``_compose`` and interns none."""
    rs, inv = u.system, inverse(u).perm
    _reflections(rs)
    return lambda x: _compose(rs, inv, x.perm) in rs.reflection_set


def lower_covers(w: WeylElement) -> list[CoverEdge]:
    """All edges x ~ w with x = s_alpha w and l(x) = l(w) - 1, found among
    the l(w) elements s_alpha w < w (see ``_reflected``)."""
    return _sort_edges(w.system, (CoverEdge(x, w, alpha)
                                  for alpha, x in _reflected(w)
                                  if x.length == w.length - 1))


def upper_covers_le(w: WeylElement, v: WeylElement) -> list[CoverEdge]:
    """All edges w ~ y with l(y) = l(w) + 1 and y <= v, found among the
    N - l(w) elements s_alpha w > w (see ``_reflected``)."""
    if not bruhat_le(w, v):
        raise NotComparableError(
            f"{word_string(w)} is not <= {word_string(v)}")
    return _sort_edges(w.system, (CoverEdge(w, y, alpha) for alpha, y
                                  in _reflected(w, up=True)
                                  if y.length == w.length + 1
                                  and bruhat_le(y, v)))


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
        (lower end, label), which fix the upper end."""
        return tuple(_sort_edges(self.u.system, (
            CoverEdge(x, w, alpha) for w in self.elements
            for alpha, x in _reflected(w) if x in self.elements)))

    @cached_property
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
    [u, v], so the downward search may prune anything not >= u.  It stops
    at layer l(u) + 1, the covers of u, admitted by ``_covers``.  The
    elements x = s_alpha w < w below a visited w come from w's inversions
    (``_reflected``), l(w) products for each w above layer l(u) + 1.  If
    l(v) - l(u) >= 2, u <= v exactly when the search reaches l(u) + 1.

    >>> from bruhatkit import from_word, root_system
    >>> a3 = root_system("A", 3)
    >>> interval(from_word(a3, [2]), from_word(a3, [2, 1, 3, 2])).rank_sizes()
    (1, 4, 4, 1)
    """
    _same_system(u, v)
    bottom = u.length + 1
    elements = {u, v}
    frontier = [v] if v.length > bottom or bruhat_le(u, v) else []
    # Every element of a layer has the same length.  When u is the identity
    # (l(u) = 0), every x is >= u and needs no comparison.
    while frontier and frontier[0].length > bottom:
        admit = (_covers(u) if frontier[0].length == bottom + 1
                 else partial(bruhat_le, u) if u.length else None)
        nxt = []
        for w in frontier:
            for _, x in _reflected(w):
                if (x.length == w.length - 1 and x not in elements
                        and (admit is None or admit(x))):
                    elements.add(x)
                    nxt.append(x)
        frontier = nxt
    if not frontier:
        raise NotComparableError(
            f"empty interval: {word_string(u)} is not <= {word_string(v)}")
    return LabeledInterval(u, v, frozenset(elements))


def saturated_chain(u: WeylElement, v: WeylElement) -> list[WeylElement]:
    """One maximal chain u = w0 < w1 < ... < v, choosing at each step the
    upper cover with the least label in the root ordering: the first of
    ``upper_covers_le``, whose edges share their lower end and so sort by
    label index alone.  Builds no interval."""
    chain = [u]
    while chain[-1] != v:
        chain.append(upper_covers_le(chain[-1], v)[0].upper)
    return chain


def edge_label(x: WeylElement, y: WeylElement) -> Root:
    """The weight of the Bruhat-graph edge between x and y, in either order:
    the positive root alpha with y = s_alpha x, sought on y's side of x."""
    _same_system(x, y)
    for alpha, z in _reflected(x, up=y.length > x.length):
        if z == y:
            return alpha
    raise NotComparableError(
        f"{word_string(x)} and {word_string(y)} are not joined by a "
        f"reflection")
