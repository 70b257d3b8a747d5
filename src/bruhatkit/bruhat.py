"""Bruhat order: comparisons and intervals.

The Bruhat graph on [u, v] has an edge w ~ s_alpha w for every positive root
alpha with both endpoints in the interval; the edge label (weight) is alpha.
Cover edges are the length-difference-1 edges, i.e. the Hasse diagram.

Comparison and algebraic dimension share one right-descent walk
(``descent_labels``): ``bruhat_le`` asks whether it reaches u = v, and
``algdim.ad`` takes the rank of the labels it records.  The walk steps on
raw permutations by ``weyl._compose`` and interns nothing; its raw form
(``_labels``) also serves the ``toric_richardson`` scan, which has no
elements.  ``interval`` finds only the elements of [u, v], by a downward
breadth-first search from v that keeps only elements >= u, down to the
covers of u, found by a reflection test (``_covers``).  The reflections
s_alpha w < w below w are read off w's permutation (``_reflected``).  No
query here builds an edge: the tests read the edges of [u, v] off its
elements and ``_reflected``.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .errors import NotComparableError
from .rootsys import Root, RootSystem
from .weyl import (Perm, WeylElement, _compose, _reflections, _same_system,
                   inverse, multiply, word_string)


def descent_labels(u: WeylElement, v: WeylElement) -> list[Root] | None:
    """The labels of the right-descent walk from (u, v) (``_labels``).
    Refuses elements of two root systems."""
    return _labels(_same_system(u, v), u.perm, v.perm, v.length - u.length)


def _labels(rs: RootSystem, p: Perm, q: Perm, gap: int) -> list[Root] | None:
    """The labels of the right-descent walk from the raw permutations
    (p, q) of (u, v), gap = l(v) - l(u), or None once l(u) >= l(v) with
    u != v, which happens exactly when u is not <= v (the lifting property;
    Björner–Brenti, GTM 231, ch. 2).

    With i the least right descent of v, each step sets v to v s_i, and u to
    u s_i when i is also a right descent of u; otherwise it records the
    label u(alpha_i).  So l(v) - l(u) drops by one per label, and once u = v
    it has recorded l(v) - l(u) labels.  The steps compose raw permutations
    (``_compose``), and i is a right descent of p where p[k] >= N, k the
    position of alpha_i.
    """
    n_pos, gens = len(rs.positive_roots), rs.simple_perms
    labels = []
    while len(labels) < gap:
        for i, k in enumerate(rs.simple_positions):
            if q[k] >= n_pos:
                break
        if p[k] >= n_pos:
            p = _compose(rs, p, gens[i])
        else:
            labels.append(rs.signed_roots[p[k]])
        q = _compose(rs, q, gens[i])
    return labels if p == q else None


@lru_cache(maxsize=None)
def bruhat_le(u: WeylElement, v: WeylElement) -> bool:
    """u <= v in Bruhat order: the walk of ``descent_labels`` reaches u = v."""
    return descent_labels(u, v) is not None


def _reflected(w: WeylElement):
    """Yield (alpha, s_alpha w) for each positive root alpha with
    s_alpha w < w.

    Entry p of w.perm[:N] is w(beta) for a positive beta, and p >= N means
    alpha = -w(beta) (index p - N) and s_alpha w < w.  So l(w) products.
    The N reflections s_alpha are made by ``weyl`` on the first call for a
    system.
    """
    roots, reflections = w.system.positive_roots, _reflections(w.system)
    n_pos = len(reflections)
    for p in w.perm[:n_pos]:
        if p >= n_pos:
            yield roots[p - n_pos], multiply(reflections[p - n_pos], w)


def _covers(u: WeylElement):
    """The test of u < x for l(x) = l(u) + 1: is u^-1 x a reflection?  Each
    product is one ``rs.apply`` through the table of u^-1, made once per
    call, and interns nothing."""
    rs = u.system
    apply, table = rs.apply, inverse(u).perm + rs.pad
    _reflections(rs)
    return lambda x: apply(x.perm, table) in rs.reflection_set


class LabeledInterval:
    """The Bruhat interval [u, v]: its endpoints and its elements."""

    def __init__(self, u: WeylElement, v: WeylElement,
                 elements: frozenset[WeylElement]):
        self.u = u
        self.v = v
        self.elements = elements

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
    """The elements of [u, v].

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
