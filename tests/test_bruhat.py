import random
import sys
from collections import Counter

import pytest

import bruhatkit.bruhat
import bruhatkit.weyl
from bruhatkit import (NotComparableError, ad, ad_via_chain, bruhat_le,
                       build_root_system, canonical_order, cartan_datum,
                       enumerate_group, from_word, identity, interval,
                       longest_element, lower_covers, multiply, reduced_word,
                       right_descents, root_system, saturated_chain,
                       span_rank, torus_complexity_richardson,
                       upper_covers_le)
from bruhatkit.bruhat import CoverEdge, edge_label
from bruhatkit.cli import parse_element
from bruhatkit.weyl import WeylElement, reflection, simple_reflection
from oracles import (edge_key, interval_all_roots, perm_bruhat_le,
                     perm_from_word, root_of_pair, subword_reachable)
from sweeps import comparable_pairs


def test_le_of_long_element_needs_no_recursion():
    # w_0 of A30 has 465 letters; a recursive comparison would need a frame
    # per letter and fail under this limit.
    rs = build_root_system(cartan_datum("A", 30))
    w0 = longest_element(rs, range(1, 31))
    s1 = simple_reflection(rs, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert bruhat_le(s1, w0)
        assert not bruhat_le(w0, s1)
        dim = ad(s1, w0)
    finally:
        sys.setrecursionlimit(limit)
    assert dim == 30


def test_reflexivity_and_atoms(a2, s3):
    for w in s3:
        assert bruhat_le(w, w)
    s1 = from_word(a2, [1])
    s2 = from_word(a2, [2])
    assert not bruhat_le(s1, s2)
    assert not bruhat_le(s2, s1)


def test_le_against_dot_criterion(s4):
    for u in s4:
        pu = perm_from_word(4, reduced_word(u))
        for v in s4:
            pv = perm_from_word(4, reduced_word(v))
            assert bruhat_le(u, v) == perm_bruhat_le(pu, pv), (u, v)


def test_le_dihedral_is_thin(g2_group):
    # independent oracle: in a dihedral group, u <= v iff u = v or
    # l(u) < l(v)
    for u in g2_group:
        for v in g2_group:
            assert bruhat_le(u, v) == (u == v or u.length < v.length)


def test_subword_property_cross_check(a3, s4):
    for v in s4:
        word = reduced_word(v)
        reachable = subword_reachable(a3, word)
        for u in s4:
            assert bruhat_le(u, v) == (u in reachable)


def test_lifting_property(s4, b3_group):
    for group in (s4, b3_group):
        rs = group[0].system
        for u in group:
            for w in group:
                if not (bruhat_le(u, w) and u != w):
                    continue
                for i in right_descents(w) - right_descents(u):
                    s = simple_reflection(rs, i)
                    assert bruhat_le(u, multiply(w, s))
                    assert bruhat_le(multiply(u, s), w)


def test_diamond_property(s4, b3_group, g2_group):
    for group in (s4, b3_group, g2_group):
        for u, v in comparable_pairs(group):
            if v.length - u.length == 2:
                assert len(interval(u, v)) == 4, (u, v)


def test_strong_weak_diamond(a3, s4):
    for w in s4:
        for i in range(1, 4):
            ws = multiply(w, simple_reflection(a3, i))
            for alpha in a3.positive_roots:
                sw = multiply(reflection(a3, alpha), w)
                if sw == ws:
                    continue
                both = multiply(reflection(a3, alpha), ws)
                if ws.length == w.length - 1 and sw.length == w.length - 1:
                    assert both.length == w.length - 2
                if ws.length == w.length + 1 and sw.length == w.length + 1:
                    assert both.length == w.length + 2


def test_example_interval_golden(a3):
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    assert bruhat_le(u, v)
    assert interval(u, v).rank_sizes() == (1, 4, 4, 1)
    iv2 = interval(identity(a3), parse_element(a3, "3142"))
    assert iv2.rank_sizes() == (1, 3, 3, 1)

    labels_3412 = {e.label for e in lower_covers(v)}
    assert labels_3412 == {root_of_pair(1, 3, 3), root_of_pair(2, 3, 3),
                           root_of_pair(1, 4, 3), root_of_pair(2, 4, 3)}
    w3142 = parse_element(a3, "3142")
    in_interval = {e.label for e in lower_covers(w3142)
                   if e.lower in iv2.elements}
    assert in_interval == {root_of_pair(1, 3, 3), root_of_pair(2, 3, 3),
                           root_of_pair(2, 4, 3)}
    assert span_rank(labels_3412) == span_rank(in_interval) == 3
    assert span_rank(labels_3412 | in_interval) == 3


def test_trivial_interval(a2):
    w = from_word(a2, [1, 2])
    iv = interval(w, w)
    assert len(iv) == 1 and not iv.cover_edges and not iv.graph_edges


def test_interval_elements_match_global_filter(s4):
    # pruned downward search agrees with filtering the whole group
    for u, v in comparable_pairs(s4):
        expected = {w for w in s4 if bruhat_le(u, w) and bruhat_le(w, v)}
        iv = interval(u, v)
        assert iv.elements == expected
        assert u in iv.elements and v in iv.elements


@pytest.mark.parametrize("group", ["s4", "b3_group", "g2_group"])
def test_interval_edges_exhaustive(group, request):
    # every reflection-related pair of the interval, and nothing else
    elements = request.getfixturevalue(group)
    for u, v in comparable_pairs(elements):
        rs = u.system
        members = {w for w in elements
                   if bruhat_le(u, w) and bruhat_le(w, v)}
        expected = sorted(
            (CoverEdge(x, y, alpha) for x in members
             for alpha in rs.positive_roots
             for y in [multiply(reflection(rs, alpha), x)]
             if y.length > x.length and y in members),
            key=lambda e: edge_key(rs, e))
        iv = interval(u, v)
        assert list(iv.graph_edges) == expected
        assert list(iv.cover_edges) == [
            e for e in expected if e.upper.length == e.lower.length + 1]


def _assert_interval_matches_all_roots(u, v):
    # The uncached build, so every pair runs it and the shared cache stays
    # small.
    iv = interval.__wrapped__(u, v)
    assert (iv.elements, iv.graph_edges) == interval_all_roots(u, v)


@pytest.mark.parametrize("group", ["s4", "b3_group", "g2_group"])
def test_intervals_and_covers_match_all_roots_oracle(group, request):
    elements = request.getfixturevalue(group)
    for u, v in comparable_pairs(elements):
        _assert_interval_matches_all_roots(u, v)
    for w in elements:
        rs = w.system
        expected = sorted(
            (CoverEdge(x, w, alpha) for alpha in rs.positive_roots
             for x in [multiply(reflection(rs, alpha), w)]
             if x.length == w.length - 1),
            key=lambda e: edge_key(rs, e))
        assert lower_covers(w) == expected


@pytest.mark.parametrize("family,rank,max_gap", [("D", 4, 12), ("F", 4, 6)])
def test_interval_matches_all_roots_oracle_sampled(family, rank, max_gap):
    # v uniform over W, u a random subword of its least reduced word, so
    # u <= v by the subword property.  In F4 the pairs with l(v) - l(u) > 6
    # are skipped: such intervals reach hundreds of elements, and 500 of
    # them would take about a minute.
    rs = root_system(family, rank)
    group = enumerate_group(rs)
    rng = random.Random(f"interval/{family}{rank}")
    checked = 0
    while checked < 500:
        v = rng.choice(group)
        u = from_word(rs, [i for i in reduced_word(v) if rng.random() < 0.7])
        if v.length - u.length <= max_gap:
            _assert_interval_matches_all_roots(u, v)
            checked += 1


def test_products_are_made_once(monkeypatch):
    # On a system no other test touches, so no earlier test has made its
    # products: every multiply counts, wherever it is bound.
    rs = build_root_system(cartan_datum("D", 4))
    group = enumerate_group(rs)
    rng = random.Random(4)
    pairs = [(rng.choice(group), rng.choice(group)) for _ in range(300)]
    calls = [0]
    real = bruhatkit.weyl.multiply

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    for module in (bruhatkit.weyl, bruhatkit.bruhat):
        monkeypatch.setattr(module, "multiply", counting)
    first = [bruhat_le(u, v) for u, v in pairs]
    assert calls[0] > 0
    # Comparisons made again from scratch find every w s_i memoized.
    bruhat_le.cache_clear()
    calls[0] = 0
    assert [bruhat_le(u, v) for u, v in pairs] == first
    assert calls[0] == 0
    # With the comparisons known, an interval makes l(w) products for each
    # w above its bottom layer; trying all N reflections would make 12.
    u, v = from_word(rs, [2]), longest_element(rs, range(1, 5))
    above_u = sum(bruhat_le(u, x) for x in group)
    calls[0] = 0
    iv = interval.__wrapped__(u, v)
    assert len(iv) == above_u
    assert calls[0] <= sum(w.length for w in iv.elements
                           if w.length > u.length)


def test_interval_builds_one_sort_key_per_element(monkeypatch):
    # The graph edges are sorted on keys built once per element; building
    # both ends' keys for every comparison made 98,976 sort_key calls for
    # 100 F4 intervals.
    rs = root_system("F", 4)
    real = WeylElement.sort_key
    calls = Counter()

    def counting(w):
        calls[w] += 1
        return real(w)

    monkeypatch.setattr(WeylElement, "sort_key", counting)
    for u_word, v_word in [((), (1, 2, 3, 2, 1, 4, 3, 2)),
                           ((2, 3), (2, 3, 2, 1, 4, 3, 2, 3, 4, 1))]:
        u, v = from_word(rs, u_word), from_word(rs, v_word)
        calls.clear()
        iv = interval.__wrapped__(u, v)
        assert len(iv.graph_edges) > 2 * len(iv)
        assert set(calls) <= iv.elements
        assert max(calls.values()) == 1


def test_richardson_query_builds_no_edges(monkeypatch):
    # The witness reads only the elements of [u, v]; the edges are worked
    # out once, when something first reads them.  On a fresh system, so no
    # interval comes from the shared cache.
    rs = build_root_system(cartan_datum("A", 3))
    group = canonical_order(enumerate_group(rs))

    def refuse(*args):
        raise AssertionError("a Bruhat-graph edge was built")

    real_sort = bruhatkit.bruhat._sort_edges
    monkeypatch.setattr(bruhatkit.bruhat, "_sort_edges", refuse)
    monkeypatch.setattr(bruhatkit.bruhat, "CoverEdge", refuse)
    for u, v in comparable_pairs(group):
        torus_complexity_richardson(u, v)
        assert "graph_edges" not in vars(interval(u, v))
    sorts = Counter()

    def counting(rs, edges):
        sorts["calls"] += 1
        return real_sort(rs, edges)

    monkeypatch.setattr(bruhatkit.bruhat, "_sort_edges", counting)
    monkeypatch.setattr(bruhatkit.bruhat, "CoverEdge", CoverEdge)
    iv = interval(group[0], group[-1])
    assert iv.graph_edges is iv.graph_edges
    assert len(iv.graph_edges) == 24 * 6 // 2
    assert sorts["calls"] == 1


def test_interval_rejects_incomparable(a2):
    with pytest.raises(NotComparableError):
        interval(from_word(a2, [1]), from_word(a2, [2]))


def test_cover_edge_structure(a3, s4):
    for w in s4:
        for e in lower_covers(w):
            assert e.upper == w
            assert e.upper.length == e.lower.length + 1
            assert multiply(reflection(a3, e.label), e.lower) == e.upper
    assert lower_covers(identity(a3)) == []


def test_upper_covers_le(a3):
    u = identity(a3)
    v = parse_element(a3, "3142")
    ups = upper_covers_le(u, v)
    assert {e.upper for e in ups} == {
        w for w in interval(u, v).elements if w.length == 1}
    with pytest.raises(NotComparableError):
        upper_covers_le(parse_element(a3, "4321"), v)


def test_graph_edges_are_reflection_related(a3):
    iv = interval(identity(a3), parse_element(a3, "3412"))
    for e in iv.graph_edges:
        assert multiply(reflection(a3, e.label), e.lower) == e.upper
        assert e.upper.length > e.lower.length
        assert e.lower in iv.elements and e.upper in iv.elements


def test_long_edges_in_span_of_two_shorter(a3, s4):
    # every Bruhat-graph edge of length >= 2 has its label in the span of
    # two shorter edges of its own interval
    for x, y in comparable_pairs(s4):
        if y.length - x.length < 2:
            continue
        try:
            label = edge_label(x, y)
        except NotComparableError:
            continue
        shorter = [e.label for e in interval(x, y).graph_edges
                   if e.upper.length - e.lower.length < y.length - x.length]
        found = any(
            span_rank([shorter[i], shorter[j]]) ==
            span_rank([shorter[i], shorter[j], label])
            for i in range(len(shorter)) for j in range(i + 1, len(shorter)))
        assert found, (x, y)


def test_saturated_chain(a2, a3):
    w = from_word(a2, [1, 2])
    chain = saturated_chain(identity(a2), w)
    assert len(chain) == 3
    assert chain[0].is_identity() and chain[-1] == w
    for x, y in zip(chain, chain[1:]):
        assert y.length == x.length + 1 and bruhat_le(x, y)
    assert saturated_chain(w, w) == [w]
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    assert len(saturated_chain(u, v)) == 4
    # deterministic: same chain twice
    assert saturated_chain(u, v) == saturated_chain(u, v)
    with pytest.raises(NotComparableError):
        saturated_chain(from_word(a2, [1]), from_word(a2, [2]))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_saturated_chain_takes_least_label(family, rank):
    # The rule the chain has always followed, read off the interval's cover
    # edges: at each step the least (label index, sort_key of the cover).
    rs = root_system(family, rank)
    pairs = comparable_pairs(canonical_order(enumerate_group(rs)))
    expected = []
    for u, v in pairs:
        ups: dict = {}
        for e in interval(u, v).cover_edges:
            ups.setdefault(e.lower, []).append(e)
        chain = [u]
        while chain[-1] != v:
            chain.append(min(ups[chain[-1]], key=lambda e: (
                rs.index[e.label], e.upper.sort_key())).upper)
        expected.append(chain)
    assert [saturated_chain(u, v) for u, v in pairs] == expected


def test_saturated_chain_builds_no_interval(a3, s4, monkeypatch):
    monkeypatch.setattr(bruhatkit.bruhat, "interval", None)
    for u, v in comparable_pairs(s4):
        chain = saturated_chain(u, v)
        assert len(chain) == v.length - u.length + 1
        assert ad_via_chain(u, v).rank == ad(u, v)
    with pytest.raises(NotComparableError, match="is not <="):
        saturated_chain(from_word(a3, [1]), from_word(a3, [2]))
