"""Exhaustive verification drivers shared by the module and acceptance tests.

The chain sweep checks *every* saturated chain of an interval at once by
propagating the set of achievable chain-label spans (as canonical echelon
bases) up the Hasse diagram; the recursion sweep evaluates the descent
recursion over *every* choice of right descent via memoization.  Both are
exact-set equivalents of enumerating the exponentially many chains/choices.
"""

from __future__ import annotations

from bruhatkit.algdim import (ad, ad_direct, ad_via_chain, ad_via_covers_at,
                              echelon_basis)
from bruhatkit.bruhat import bruhat_le, interval
from bruhatkit.weyl import (apply_to_root, multiply, right_descents,
                            simple_reflection)

_recursive_memo: dict = {}


def all_chain_spans(u, v):
    """Canonical spans of the label sequences of every saturated chain."""
    iv = interval(u, v)
    spans = {w: set() for w in iv.elements}
    spans[u].add(echelon_basis(()))
    for w in sorted(iv.elements, key=lambda x: x.length):
        for e in iv.cover_edges:
            if e.lower == w:
                for space in spans[w]:
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
    rank = direct.rank
    space = echelon_basis(direct.generators)
    assert ad_via_covers_at(u, v, "bottom").rank == rank
    assert ad_via_covers_at(u, v, "top").rank == rank
    assert ad_via_chain(u, v).rank == rank
    assert ad(u, v) == rank
    assert all_chain_spans(u, v) == {space}
    assert all_recursive_spans(u, v) == {space}
    return rank


def comparable_pairs(elements):
    """All (u, v) with u <= v among the given elements."""
    return [(u, v) for u in elements for v in elements
            if u.length <= v.length and bruhat_le(u, v)]
