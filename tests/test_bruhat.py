import random
import sys
from collections import Counter

import pytest

import bruhatkit.algdim
import bruhatkit.bruhat
import bruhatkit.weyl
from bruhatkit import (InvalidInputError, NotComparableError,
                       PreconditionError, ad, bruhat_le, build_root_system,
                       canonical_order, enumerate_group, from_word, identity,
                       interval, longest_element, multiply, reduced_word,
                       right_descents, root_system, span_rank,
                       torus_complexity_richardson, word_string)
from bruhatkit.bruhat import _reflected, descent_labels
from bruhatkit.cli import parse_element
from bruhatkit.weyl import reflection, simple_reflection
from oracles import (Edge, ad_via_chain, element_descent_labels,
                     graph_edges, interval_all_roots, lower_covers,
                     perm_bruhat_le, perm_from_word, root_of_pair,
                     saturated_chain, subword_reachable)
from sweeps import comparable_pairs


def test_le_of_long_element_needs_no_recursion():
    # w_0 of A30 has 465 letters; a recursive comparison would need a frame
    # per letter and fail under this limit.
    rs = build_root_system("A", 30)
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
    assert len(iv) == 1 and iv.rank_sizes() == (1,)
    assert graph_edges(iv.elements) == []


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
        expected = {Edge(x, y, alpha) for x in members
                    for alpha in rs.positive_roots
                    for y in [multiply(reflection(rs, alpha), x)]
                    if y.length > x.length and y in members}
        edges = graph_edges(interval(u, v).elements)
        assert len(edges) == len(expected) and set(edges) == expected


def _assert_interval_matches_all_roots(u, v):
    # The uncached build, so every pair runs it and the shared cache stays
    # small.
    iv = interval.__wrapped__(u, v)
    edges = graph_edges(iv.elements)
    assert (iv.elements, frozenset(edges)) == interval_all_roots(u, v)
    assert len(edges) == len(set(edges))


@pytest.mark.parametrize("group", ["s4", "b3_group", "g2_group"])
def test_intervals_and_covers_match_all_roots_oracle(group, request):
    # Every interval and its edges (every reflection-related pair of its
    # members, once) are what the search over all N reflections finds.  Every
    # element's lower covers are its products by all N reflections that are
    # one shorter.
    elements = request.getfixturevalue(group)
    for u, v in comparable_pairs(elements):
        _assert_interval_matches_all_roots(u, v)
    for w in elements:
        rs = w.system
        expected = {Edge(x, w, alpha) for alpha in rs.positive_roots
                    for x in [multiply(reflection(rs, alpha), w)]
                    if x.length == w.length - 1}
        assert set(lower_covers(w)) == expected


@pytest.mark.parametrize("group", ["s4", "b3_group", "g2_group"])
def test_descent_walk_matches_element_walk(group, request):
    # The raw-permutation walk records the labels of the walk on interned
    # elements, on every pair, and says None exactly where it does.
    elements = request.getfixturevalue(group)
    incomparable = 0
    for u in elements:
        for v in elements:
            expected = element_descent_labels(u, v)
            assert descent_labels(u, v) == expected, (u, v)
            incomparable += expected is None
    assert 0 < incomparable < len(elements) ** 2


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


def test_interval_matches_all_roots_oracle_on_tuples():
    # Past 256 signed roots permutations are tuples, and the reflection test
    # composes them with itemgetter.  v has a seeded word of at most 20
    # letters, and u drops one to three letters of v's reduced word, so
    # u <= v; pairs with l(v) - l(u) > 3 are skipped.
    rs = root_system("A", 16)
    assert rs.perm_type is tuple
    rng = random.Random("interval/A16")
    gaps = Counter()
    while sum(gaps.values()) < 50:
        v = from_word(rs, [rng.randint(1, 16)
                           for _ in range(rng.randint(4, 20))])
        word = reduced_word(v)
        dropped = set(rng.sample(range(len(word)),
                                 min(len(word), rng.randint(1, 3))))
        u = from_word(rs, [i for k, i in enumerate(word) if k not in dropped])
        if v.length - u.length <= 3:
            _assert_interval_matches_all_roots(u, v)
            gaps[v.length - u.length] += 1
    assert gaps[2] + gaps[3] >= 25


def test_products_are_made_once(monkeypatch):
    # On a system no other test touches, so no earlier test has made its
    # products: every multiply counts, wherever it is bound.  The pairs come
    # from seeded words, so only their 600 ends are interned at first.
    rs = build_root_system("D", 4)
    rng = random.Random(4)
    pairs = [tuple(from_word(rs, [rng.randint(1, 4) for _ in range(12)])
                   for _ in "uv") for _ in range(300)]
    calls = [0]
    real = bruhatkit.weyl.multiply

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    for module in (bruhatkit.weyl, bruhatkit.bruhat):
        monkeypatch.setattr(module, "multiply", counting)
    # A comparison walks raw permutations: it makes no product and interns
    # nothing.
    interned = len(rs.element_cache)
    [bruhat_le(u, v) for u, v in pairs]
    assert calls[0] == 0
    assert len(rs.element_cache) == interned
    group = enumerate_group(rs)
    # With the comparisons known, an interval makes l(w) products for each
    # w above layer l(u) + 1, whose covers of u it admits by a reflection
    # test that makes none; trying all N reflections would make 12.
    u, v = from_word(rs, [2]), longest_element(rs, range(1, 5))
    above_u = sum(bruhat_le(u, x) for x in group)
    calls[0] = 0
    iv = interval.__wrapped__(u, v)
    assert len(iv) == above_u
    assert calls[0] <= sum(w.length for w in iv.elements
                           if w.length > u.length + 1)


def test_interval_from_identity_makes_no_comparison(monkeypatch):
    # Every element is >= the identity, so [id, w0] is admitted without a
    # walk per element, and the search reaching layer 1 shows id <= w0.
    # On a fresh system, so no comparison comes from the shared cache.
    rs = build_root_system("A", 4)
    real = bruhatkit.bruhat.descent_labels
    calls = [0]

    def counting(u, v):
        calls[0] += 1
        return real(u, v)

    monkeypatch.setattr(bruhatkit.bruhat, "descent_labels", counting)
    iv = interval(identity(rs), longest_element(rs, range(1, 5)))
    assert calls[0] == 0
    assert iv.elements == frozenset(enumerate_group(rs))


def test_richardson_query_walks_its_pair_once(monkeypatch):
    # The query takes its precondition from ad's walk, and the interval
    # walks nothing: its layer l(u) + 1 is admitted by the reflection test.
    # Only the witness search walks, once for each other w of [u, v].  On a
    # fresh system, so no walk comes from a shared memo table.
    rs = build_root_system("D", 4)
    real = bruhatkit.bruhat.descent_labels
    walks = Counter()

    def counting(u, v):
        walks[u, v] += 1
        return real(u, v)

    for module in (bruhatkit.bruhat, bruhatkit.algdim):
        monkeypatch.setattr(module, "descent_labels", counting)
    u, v = from_word(rs, [1, 2, 3]), from_word(rs, [1, 2, 3, 4, 2])
    assert bruhat_le.__wrapped__(u, v) and v.length - u.length == 2
    walks.clear()
    assert len(interval.__wrapped__(u, v)) == 4
    assert not walks
    torus_complexity_richardson(u, v)
    assert walks[u, v] == 1 and max(walks.values()) == 1
    assert {x for x, _ in walks} == interval(u, v).elements


@pytest.mark.parametrize("group", ["s4", "b3_group", "g2_group"])
def test_cover_test_agrees_with_bruhat_le(group, request):
    # For x one step longer than u, the reflection test is u <= x; in S4
    # against the tableau criterion, elsewhere against the walk.
    elements = request.getfixturevalue(group)
    n = elements[0].system.rank + 1
    for u in elements:
        covers = bruhatkit.bruhat._covers(u)
        for x in elements:
            if x.length != u.length + 1:
                continue
            if group == "s4":
                expected = perm_bruhat_le(perm_from_word(n, reduced_word(u)),
                                          perm_from_word(n, reduced_word(x)))
            else:
                expected = bruhat_le(u, x)
            assert covers(x) == expected, (u, x)


def test_incomparable_pairs_raise_the_same_errors(s4, b3_group, g2_group):
    # Every incomparable pair, whatever its length gap: interval raises from
    # its comparison (gap <= 1) or its search (gap >= 2), the query from ad.
    gaps = Counter()
    for group in (s4, b3_group, g2_group):
        for u in group:
            for v in group:
                if bruhat_le(u, v):
                    continue
                gaps[min(max(v.length - u.length, -1), 2)] += 1
                text = f"{word_string(u)} is not <= {word_string(v)}"
                with pytest.raises(NotComparableError) as err:
                    interval(u, v)
                assert str(err.value) == "empty interval: " + text
                with pytest.raises(PreconditionError) as err:
                    torus_complexity_richardson(u, v)
                assert str(err.value) == ("Richardson variety is empty: "
                                          + text)
    assert set(gaps) == {-1, 0, 1, 2}


@pytest.mark.parametrize("one,other", [(("A", 3, "private"), ("A", 3, "")),
                                       (("A", 16, ""), ("A", 17, "private"))],
                         ids=["A3-private-shared", "A16-A17"])
def test_elements_of_two_systems_are_refused(one, other):
    # A private A3 and the shared one, and A16 and A17, which are tuples:
    # each query refuses a pair from two systems, and the same words in one
    # system answer as in A3.
    def system(family, rank, private):
        return (build_root_system(family, rank) if private
                else root_system(family, rank))

    rs, other_rs = system(*one), system(*other)
    u, v = from_word(rs, [1]), from_word(rs, [1, 2, 3, 2, 1])
    y = from_word(rs, [1, 2])
    assert bruhat_le(u, v) and ad(u, v) == 3 and len(interval(u, v)) == 14
    assert multiply(u, v) is from_word(rs, [2, 3, 2, 1])
    far_v, far_y = (from_word(other_rs, w) for w in ([1, 2, 3, 2, 1], [1, 2]))
    for query, a, b in [(multiply, u, far_v), (bruhat_le, u, far_v),
                        (descent_labels, u, far_v), (ad, u, far_v),
                        (interval, u, far_v),
                        (bruhat_le, far_v, u), (interval, far_y, v)]:
        with pytest.raises(InvalidInputError,
                           match="elements belong to different root systems"):
            query(a, b)


def test_equal_lengths_stop_the_walk_at_once(b3_group, monkeypatch):
    # u != v of one length are incomparable, and the walk says so before
    # any step.
    def refuse(*args):
        raise AssertionError("the walk took a step")

    monkeypatch.setattr(bruhatkit.bruhat, "_compose", refuse)
    for u in b3_group:
        for v in b3_group:
            if u is not v and u.length == v.length:
                assert descent_labels(u, v) is None, (u, v)


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


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_covers_and_labels_against_every_root(family, rank):
    # Brute force over all N positive roots: every s_alpha w < w, labelled
    # alpha, and each once.
    rs = root_system(family, rank)
    for w in enumerate_group(rs):
        below = list(_reflected(w))
        assert len(below) == w.length
        assert set(below) == {
            (alpha, x) for alpha in rs.positive_roots
            for x in [multiply(reflection(rs, alpha), w)]
            if x.length < w.length}


def test_covers_make_one_product_per_root_on_their_side(monkeypatch):
    # l(w) products for the reflections below w.
    rs = build_root_system("B", 3)
    calls = [0]
    real = bruhatkit.bruhat.multiply

    def counting(u, v):
        calls[0] += 1
        return real(u, v)

    monkeypatch.setattr(bruhatkit.bruhat, "multiply", counting)
    for w in enumerate_group(rs):
        calls[0] = 0
        list(_reflected(w))
        assert calls[0] == w.length


def test_reflections_are_built_once_per_system(monkeypatch):
    # weyl makes the N reflections on the first read of the reflections
    # below an element and keeps them on the system; later reads of any kind
    # make none.  A reflection is made when weyl._reflections interns it.
    rs = build_root_system("B", 3)
    made, inside = [0], [False]
    real_reflections = bruhatkit.weyl._reflections
    real_intern = bruhatkit.weyl._intern

    def reflections(system):
        inside[0] = True
        try:
            return real_reflections(system)
        finally:
            inside[0] = False

    def intern(system, perm):
        made[0] += inside[0]
        return real_intern(system, perm)

    for module in (bruhatkit.bruhat, bruhatkit.weyl):
        monkeypatch.setattr(module, "_reflections", reflections)
    monkeypatch.setattr(bruhatkit.weyl, "_intern", intern)
    w0 = longest_element(rs, range(1, 4))
    first = list(_reflected(w0))
    assert made[0] == len(rs.positive_roots)
    made[0] = 0
    assert list(_reflected(w0)) == first
    interval(from_word(rs, [1]), w0)
    reflection(rs, rs.positive_roots[-1])
    assert made[0] == 0
    other = build_root_system("B", 3)
    list(_reflected(longest_element(other, range(1, 4))))
    assert made[0] == len(other.positive_roots)


def test_graph_edges_are_reflection_related(a3):
    elements = interval(identity(a3), parse_element(a3, "3412")).elements
    for e in graph_edges(elements):
        assert multiply(reflection(a3, e.label), e.lower) == e.upper
        assert e.upper.length > e.lower.length
        assert e.lower in elements and e.upper in elements


def test_long_edges_in_span_of_two_shorter(a3, s4):
    # every Bruhat-graph edge of length >= 2 has its label in the span of
    # two shorter edges of its own interval
    for x, y in comparable_pairs(s4):
        if y.length - x.length < 2:
            continue
        edges = graph_edges(interval(x, y).elements)
        label = next((e.label for e in edges if e.lower is x
                      and e.upper is y), None)
        if label is None:
            continue
        shorter = [e.label for e in edges
                   if e.upper.length - e.lower.length < y.length - x.length]
        found = any(
            span_rank([shorter[i], shorter[j]]) ==
            span_rank([shorter[i], shorter[j], label])
            for i in range(len(shorter)) for j in range(i + 1, len(shorter)))
        assert found, (x, y)


def _chain(u, v):
    return [u] + [w for _, w in saturated_chain(u, v)]


def test_saturated_chain(a2, a3):
    w = from_word(a2, [1, 2])
    chain = _chain(identity(a2), w)
    assert len(chain) == 3
    assert chain[0].is_identity() and chain[-1] == w
    for x, y in zip(chain, chain[1:]):
        assert y.length == x.length + 1 and bruhat_le(x, y)
    assert _chain(w, w) == [w]
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    assert len(_chain(u, v)) == 4
    # deterministic: same chain twice
    assert _chain(u, v) == _chain(u, v)
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
        for e in graph_edges(interval(u, v).elements):
            if e.upper.length == e.lower.length + 1:
                ups.setdefault(e.lower, []).append(e)
        chain = [u]
        while chain[-1] != v:
            chain.append(min(ups[chain[-1]], key=lambda e: (
                rs.position[e.label], e.upper.sort_key())).upper)
        expected.append(chain)
    assert [_chain(u, v) for u, v in pairs] == expected


def test_saturated_chain_builds_no_interval(a3, s4, monkeypatch):
    monkeypatch.setattr(bruhatkit.bruhat, "interval", None)
    for u, v in comparable_pairs(s4):
        assert len(_chain(u, v)) == v.length - u.length + 1
        assert span_rank(ad_via_chain(u, v)) == ad(u, v)
    with pytest.raises(NotComparableError, match="is not <="):
        saturated_chain(from_word(a3, [1]), from_word(a3, [2]))
