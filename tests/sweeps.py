"""Exhaustive verification drivers shared by the module and acceptance tests.

The chain sweep checks *every* saturated chain of an interval at once by
propagating the set of achievable chain-label spans (as canonical echelon
bases) up the Hasse diagram; the recursion sweep evaluates the descent
recursion over *every* choice of right descent via memoization.  Both are
exact-set equivalents of enumerating the exponentially many chains/choices.
Both, and the other reference routes for ad (all graph edges, the covers
at either end, one chain), come from ``oracles``, and the reference rank is
the size of the oracle's echelon basis.  ``ad``, and the ``span_rank`` that
ranks the cover and chain routes, come from the library.
"""

from __future__ import annotations

from bruhatkit.algdim import ad, span_rank
from bruhatkit.bruhat import bruhat_le, interval
from bruhatkit.weyl import (apply_to_root, multiply, right_descents,
                            simple_reflection)
from oracles import (ad_direct, ad_via_chain, ad_via_covers_at,
                     echelon_basis, graph_edges)

_recursive_memo: dict = {}


def all_chain_spans(u, v):
    """Canonical spans of the label sequences of every saturated chain."""
    elements = interval(u, v).elements
    spans = {w: set() for w in elements}
    spans[u].add(echelon_basis(()))
    # Every span at a lower end is complete once the covers below it are
    # done, so the covers go up by the length of their lower end.
    for e in sorted(graph_edges(elements), key=lambda e: e.lower.length):
        if e.upper.length == e.lower.length + 1:
            for space in spans[e.lower]:
                spans[e.upper].add(echelon_basis(space + (e.label,)))
    return spans[v]


def all_recursive_spans(u, v):
    """Canonical spans produced by the descent recursion over every choice
    of right descent at every step."""
    key = (u, v)
    cached = _recursive_memo.get(key)
    if cached is not None:
        return cached
    if u == v:
        result = frozenset({echelon_basis(())})
    else:
        rs = u.system
        out = set()
        for i in right_descents(v):
            s = simple_reflection(rs, i)
            us = multiply(u, s)
            vs = multiply(v, s)
            if us.length < u.length:
                out |= all_recursive_spans(us, vs)
            else:
                label = apply_to_root(u, rs.simple_root(i))
                out |= {echelon_basis(space + (label,))
                        for space in all_recursive_spans(u, vs)}
        result = frozenset(out)
    _recursive_memo[key] = result
    return result


def check_four_way_agreement(u, v):
    """All four ad routes agree on [u, v], over every chain and every
    descent choice; returns the common rank."""
    direct = ad_direct(u, v)
    space = echelon_basis(direct)
    rank = len(space)
    assert span_rank(ad_via_covers_at(u, v, "bottom")) == rank
    assert span_rank(ad_via_covers_at(u, v, "top")) == rank
    assert span_rank(ad_via_chain(u, v)) == rank
    assert ad(u, v) == rank
    assert all_chain_spans(u, v) == {space}
    assert all_recursive_spans(u, v) == {space}
    return rank


def comparable_pairs(elements):
    """All (u, v) with u <= v among the given elements."""
    return [(u, v) for u in elements for v in elements
            if u.length <= v.length and bruhat_le(u, v)]
