import hashlib
import random
import sys
import tracemalloc
import warnings
from math import comb

import pytest

import bruhatkit.deodhar
from bruhatkit import (InvalidInputError, NotComparableError, bruhat_le,
                       build_root_system, canonical_order,
                       component_shape, deodhar_polynomial,
                       enumerate_distinguished, enumerate_group, from_word,
                       identity, is_toric, multiply,
                       positive_distinguished, reduced_word, root_system)
from bruhatkit.cli import parse_element
from bruhatkit.deodhar import (SKIP, TAKE, DeodharComponentShape,
                               Subexpression, _live_moves,
                               build_subexpression)
from bruhatkit.weyl import longest_element, right_descents, simple_reflection
from oracles import (all_reduced_words, brute_force_distinguished,
                     r_polynomial, td_span, times_simple,
                     two_pass_live_moves)
from sweeps import comparable_pairs


def test_example_two_masks(a2):
    subexprs = enumerate_distinguished([1, 2, 1], identity(a2))
    assert [se.choices for se in subexprs] == [
        (TAKE, SKIP, TAKE), (SKIP, SKIP, SKIP)]
    shapes = {(len(se.j_circ), len(se.j_minus)) for se in subexprs}
    assert shapes == {(1, 1), (3, 0)}
    for se in subexprs:
        assert td_span(se) == 2
        assert se.evaluation.is_identity()


def test_example_betas(a2):
    a1 = a2.simple_root(1)
    al2 = a2.simple_root(2)
    all_skip = build_subexpression(a2, (1, 2, 1), (SKIP, SKIP, SKIP))
    assert all_skip.betas == ((1, a1), (2, al2), (3, a1))
    mixed = build_subexpression(a2, (1, 2, 1), (TAKE, SKIP, TAKE))
    assert mixed.j_plus == frozenset({1})
    assert mixed.j_circ == frozenset({2})
    assert mixed.j_minus == frozenset({3})
    assert mixed.beta_map() == {2: (1, 1), 3: a1}
    assert td_span(mixed) == 2


def test_component_shapes(a2):
    all_take = build_subexpression(a2, (1, 2, 1), (TAKE, TAKE, TAKE))
    assert component_shape(all_take) == DeodharComponentShape(0, 0)
    shape = component_shape(
        build_subexpression(a2, (1, 2, 1), (SKIP, SKIP, SKIP)))
    assert (shape.circ_count, shape.minus_count) == (3, 0)
    shape2 = component_shape(
        build_subexpression(a2, (1, 2, 1), (TAKE, SKIP, TAKE)))
    assert (shape2.circ_count, shape2.minus_count) == (1, 1)


def test_prefix_walk_invariants(a2, s3, b3, b3_group, g2, g2_group):
    # J+, Jo and J- are derived from the choices and the betas; check them
    # against the prefix lengths over the least word of every v.
    for rs, group in ((a2, s3), (b3, b3_group), (g2, g2_group)):
        for v in group:
            word = reduced_word(v)
            positions = frozenset(range(1, len(word) + 1))
            for u in group:
                for se in enumerate_distinguished(word, u):
                    assert se.prefixes[0].is_identity()
                    assert se.prefixes[-1] == u
                    assert (len(se.j_plus) + len(se.j_circ)
                            + len(se.j_minus) == len(word))
                    assert se.j_plus | se.j_circ | se.j_minus == positions
                    assert ({k for k, _ in se.betas}
                            == se.j_circ | se.j_minus)
                    for k in positions:
                        prev, cur = se.prefixes[k - 1], se.prefixes[k]
                        if k in se.j_circ:
                            assert cur == prev
                        elif k in se.j_plus:
                            assert cur.length == prev.length + 1
                        else:
                            assert cur.length == prev.length - 1
                    for _, beta in se.betas:
                        assert rs.is_positive_root(beta)


def test_matches_brute_force_masks(a2, a3, s3, b3, b3_group, g2, g2_group):
    for v in s3:
        word = reduced_word(v)
        for u in s3:
            got = [se.choices for se in enumerate_distinguished(word, u)]
            assert got == brute_force_distinguished(a2, word, u)
    word = reduced_word(parse_element(a3, "3412"))
    for text in ("1324", "id", "3412", "2413"):
        u = parse_element(a3, text)
        got = [se.choices for se in enumerate_distinguished(word, u)]
        assert got == brute_force_distinguished(a3, word, u)
    # every u over the w0 word of B3 and of G2, order included
    for rs, group in ((b3, b3_group), (g2, g2_group)):
        word = reduced_word(longest_element(rs, range(1, rs.rank + 1)))
        for u in group:
            got = [se.choices for se in enumerate_distinguished(word, u)]
            assert got == brute_force_distinguished(rs, word, u)
    # u not below v, though shorter: no mask
    u, v = from_word(a3, [3]), from_word(a3, [1, 2])
    assert not bruhat_le(u, v)
    assert enumerate_distinguished(reduced_word(v), u) == []
    # the empty word has exactly one (empty) mask, for u = id only
    (empty,) = enumerate_distinguished([], identity(a2))
    assert empty.choices == () and empty.prefixes == (identity(a2),)
    assert enumerate_distinguished([], from_word(a2, [1])) == []


def test_full_mask_for_top_element(a2, s3):
    for v in s3:
        word = reduced_word(v)
        subexprs = enumerate_distinguished(word, v)
        assert len(subexprs) == 1
        assert subexprs[0].choices == (TAKE,) * len(word)


def test_rejects_non_reduced(a2):
    with pytest.raises(InvalidInputError):
        enumerate_distinguished([1, 1], identity(a2))
    with pytest.raises(InvalidInputError):
        positive_distinguished([1, 2, 2, 1], identity(a2))
    with pytest.raises(InvalidInputError):
        deodhar_polynomial([1, 1], identity(a2))


def test_rejects_non_distinguished_mask(a2):
    with pytest.raises(InvalidInputError):
        build_subexpression(a2, (1, 1), (TAKE, SKIP))
    with pytest.raises(InvalidInputError, match="not distinguished"):
        build_subexpression(a2, (1, 2, 1), (TAKE, SKIP, SKIP))


def test_build_subexpression_rejects_non_reduced(a2):
    # td is ad(u, v), which needs u <= v; the subword property gives that
    # only for reduced words.
    with pytest.raises(InvalidInputError, match="not reduced"):
        build_subexpression(a2, (1, 2, 2), (SKIP, SKIP, SKIP))


def test_build_subexpression_refuses_malformed_masks(a2):
    with pytest.raises(InvalidInputError) as err:
        build_subexpression(a2, (1, 2, 1), (TAKE, SKIP))
    assert str(err.value) == "mask length does not match word length"
    with pytest.raises(InvalidInputError) as err:
        build_subexpression(a2, (1, 2, 1), (TAKE, "jump", TAKE))
    assert str(err.value) == "unknown mask token 'jump'"


def test_positive_distinguished(a2, a3, s4):
    pos = positive_distinguished([1, 2, 1], identity(a2))
    assert pos.choices == (SKIP, SKIP, SKIP)
    v = parse_element(a3, "3412")
    word = reduced_word(v)
    assert positive_distinguished(word, v).choices == (TAKE,) * 4
    se = positive_distinguished(word, parse_element(a3, "1324"))
    assert se.j_minus == frozenset()
    assert len(se.j_circ) == 3
    # unique positive subexpression among the enumeration, for every pair
    for u, v in comparable_pairs(s4):
        word = reduced_word(v)
        subexprs = enumerate_distinguished(word, u)
        positives = [se for se in subexprs if se.is_positive()]
        assert len(positives) == 1
        assert positives[0] == positive_distinguished(word, u)
        assert len(positives[0].j_circ) == v.length - u.length


def test_positive_distinguished_requires_le(a2):
    with pytest.raises(NotComparableError):
        positive_distinguished([1], from_word(a2, [2]))


def test_polynomial_examples(a2):
    assert deodhar_polynomial((1, 2, 1), from_word(a2, [1, 2, 1])) == (1,)
    poly = deodhar_polynomial((1, 2, 1), identity(a2))
    # (q-1)^3 + (q-1)q = q^3 - 2q^2 + 2q - 1
    assert poly == (-1, 2, -2, 1)
    assert deodhar_polynomial((2, 1, 2), identity(a2)) == poly


def test_polynomial_warns_when_incomparable(a2):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = deodhar_polynomial([1], from_word(a2, [2]))
    assert result == ()
    assert len(caught) == 1


def test_polynomial_reduced_word_invariance_s3(s3):
    for v in s3:
        words = sorted(all_reduced_words(v))
        for u in s3:
            if not bruhat_le(u, v):
                continue
            polys = {deodhar_polynomial(word, u) for word in words}
            assert len(polys) == 1


def test_toric_iff_positive_td_full(s4):
    for u, v in comparable_pairs(s4):
        se = positive_distinguished(reduced_word(v), u)
        assert is_toric(u, v) == (td_span(se) == v.length - u.length)


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("C", 3),
                                          ("G", 2)])
def test_polynomial_matches_r_polynomial(family, rank):
    # Deodhar: the mask census over any reduced word of v is R_{u,v}.
    rs = root_system(family, rank)
    group = canonical_order(enumerate_group(rs))
    for v in group:
        word = reduced_word(v)
        for u in group:
            expected = r_polynomial(u, v)
            if bruhat_le(u, v):
                assert deodhar_polynomial(word, u) == expected
            else:
                assert expected == ()


def test_polynomial_matches_r_polynomial_d4_top(d4, d4_group):
    w0 = longest_element(d4, range(1, 5))
    word = reduced_word(w0)
    for u in d4_group:
        assert deodhar_polynomial(word, u) == r_polynomial(u, w0)


def _count_mask_search(monkeypatch, u_word, counted):
    # Over the least reduced word of w0 in D5, count what the mask search
    # does: "states", the states it enters, as the sizes of the layers it
    # hands to deodhar's one step per layer ``_moves``, or "products", its
    # raw products x s_i (the forward layers, the backward takes and the
    # walk from where they meet), as the calls of the system's ``apply``,
    # which also make the word's product v.  The system is private, so
    # nothing an earlier test made is reused.
    rs = build_root_system("D", 5)
    word = reduced_word(longest_element(rs, range(1, 6)))
    u = from_word(rs, u_word)
    calls = [0]
    if counted == "states":
        real = bruhatkit.deodhar._moves

        def counting(rs, k, i, layer, *rest):
            calls[0] += len(layer)
            return real(rs, k, i, layer, *rest)

        monkeypatch.setattr(bruhatkit.deodhar, "_moves", counting)
    else:
        real = rs.apply

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(rs, "apply", counting)
    return len(enumerate_distinguished(word, u)), calls[0]


@pytest.mark.parametrize("u_word, masks, limit", [
    ((), 1613, 25_000),
    ((3, 4, 3, 1, 5, 3, 2, 1, 4, 3, 2, 5, 3, 4), 3, 1_000),
])
def test_mask_search_prunes(monkeypatch, u_word, masks, limit):
    # The search visits few states that yield no mask; a search pruned only
    # on length distance makes about 50,000 products for u = id and 6,000
    # for this u.  This one makes 1,221 and 111.
    found, calls = _count_mask_search(monkeypatch, u_word, "products")
    assert found == masks
    assert calls < limit


@pytest.mark.parametrize("u_word, masks, limit", [
    ((), 1613, 817),
    ((3, 4, 3, 1, 5, 3, 2, 1, 4, 3, 2, 5, 3, 4), 3, 25),
])
def test_mask_search_visits_no_dead_state(monkeypatch, u_word, masks, limit):
    # The limits are the states entered by a search that grows layers from
    # the identity and from u until they meet, the forward one while it is
    # at most half the size of the backward one, and then enters only live
    # states: 745 of the 817 are live for u = id, and all 25 for the second
    # u.  With frontiers of equal size it enters 31 for the second u.
    found, calls = _count_mask_search(monkeypatch, u_word, "states")
    assert found == masks
    assert calls <= limit


def _seeded_word(w, rnd):
    # A reduced word of w read off a walk down by seeded right descents.
    word = []
    while not w.is_identity():
        i = rnd.choice(sorted(right_descents(w)))
        word.append(i)
        w = times_simple(w, i)
    return tuple(reversed(word))


@pytest.mark.parametrize("family, rank", [
    ("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4), ("D", 4)])
def test_live_moves_match_two_passes(family, rank):
    # The search from both ends returns, layer by layer, the moves of two
    # whole passes: over the least and two seeded words of w0, a seeded
    # word of a seeded v and the empty word, for every u.
    rs = root_system(family, rank)
    group = canonical_order(enumerate_group(rs))
    w0 = longest_element(rs, range(1, rank + 1))
    rnd = random.Random(f"{family}{rank}")
    words = [reduced_word(w0), _seeded_word(w0, rnd), _seeded_word(w0, rnd),
             _seeded_word(rnd.choice(group), rnd), ()]
    dead = 0
    for word in words:
        for u in group:
            got = _live_moves(rs, word, u)
            assert got == two_pass_live_moves(rs, word, u)
            dead += identity(rs).perm not in got[0]
    # u is below v for every u over the w0 words, not for every u over the
    # v word, and only for u = id over the empty word.
    assert dead > len(group) - 1


@pytest.mark.parametrize("family, rank, digest", [
    ("E", 6,
     "b496a7f1ebaa001499154c77007aaba735ea505354fd34bc0c5f8ef931e2f3be"),
    ("A", 8,
     "aa470b3d0b2c692e06b4c4d425189f88e8b34283c84886e799faa2168a65dea1"),
], ids=["E6", "A8"])
def test_census_interns_only_what_the_search_meets(family, rank, digest):
    # On a fresh system, the census over the w0 word for u = id interns
    # nothing beyond what building the word interned: the search meets
    # only raw permutations.  A search on interned elements interned 6,112
    # elements on E6 and 10,529 on A8, and two whole passes 13,939 and
    # 38,648.  The digest is that of the two-pass census.
    rs = build_root_system(family, rank)
    assert not rs.element_cache
    word = reduced_word(longest_element(rs, range(1, rank + 1)))
    u = identity(rs)
    interned = len(rs.element_cache)
    poly = deodhar_polynomial(word, u)
    assert len(rs.element_cache) == interned
    assert hashlib.sha256(repr(poly).encode()).hexdigest() == digest


def test_live_moves_hold_one_object_per_permutation():
    # Each permutation the search returns, as a state or a move target, is
    # one object, however many moves reach it: on A8's w0 word with u = id
    # that is 1,734 objects, where a copy per product made 8,433.
    rs = build_root_system("A", 8)
    word = reduced_word(longest_element(rs, range(1, 9)))
    steps = _live_moves(rs, tuple(word), identity(rs))
    held = [x for layer in steps for x in layer]
    held += [move[1] for layer in steps for moves in layer.values()
             for move in moves]
    assert len({id(x) for x in held}) == len(set(held)) == 1734


@pytest.mark.parametrize("u_word", [
    (), (3, 4, 3, 1, 5, 3, 2, 1, 4, 3, 2, 5, 3, 4)])
def test_mask_search_makes_no_bruhat_comparison(u_word):
    # Neither makes one: enumerate_distinguished calls ad, whose own walk
    # checks u <= v.
    rs = build_root_system("D", 5)
    word = reduced_word(longest_element(rs, range(1, 6)))
    u = from_word(rs, u_word)

    def comparisons():
        info = bruhat_le.cache_info()
        return info.hits + info.misses

    bruhat_le.cache_clear()
    deodhar_polynomial(word, u)
    assert comparisons() == 0
    enumerate_distinguished(word, u)
    assert comparisons() == 0


def test_masks_of_long_word_need_no_recursion():
    # w_0 of A30 has 465 letters; a search with a frame per letter would
    # fail under this limit.
    rs = build_root_system("A", 30)
    w0 = longest_element(rs, range(1, 31))
    word = reduced_word(w0)
    u = multiply(w0, simple_reflection(rs, 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        top = enumerate_distinguished(word, w0)
        below = enumerate_distinguished(word, u)
        polys = deodhar_polynomial(word, w0), deodhar_polynomial(word, u)
    finally:
        sys.setrecursionlimit(limit)
    assert [se.choices for se in top] == [(TAKE,) * len(word)]
    assert len(below) == 1
    assert below[0].choices.count(SKIP) == 1
    assert below[0].evaluation == u
    assert polys == ((1,), (-1, 1))


def test_masks_hold_only_what_the_walk_produces():
    # A mask keeps its word, choices, prefixes, betas and td as a tuple; the
    # J sets are derived on demand.  The moves are built by the first call,
    # so the second retains the masks alone.
    assert list(Subexpression._fields) == [
        "base_word", "choices", "prefixes", "betas", "td"]
    rs = build_root_system("D", 5)
    word = reduced_word(longest_element(rs, range(1, 6)))
    u = identity(rs)
    enumerate_distinguished(word, u)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        masks = enumerate_distinguished(word, u)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(masks) == 1613
    assert not hasattr(masks[0], "__dict__")
    assert retained / len(masks) < 1_200


def _census_by_masks(subexprs):
    """Sum of (q-1)^|Jo| q^|J-| over the masks, expanded term by term."""
    total = {}
    for se in subexprs:
        circ, minus = len(se.j_circ), len(se.j_minus)
        for t in range(circ + 1):
            total[minus + t] = (total.get(minus + t, 0)
                                + comb(circ, t) * (-1) ** (circ - t))
    top = max((k for k, c in total.items() if c), default=-1)
    return tuple(total.get(k, 0) for k in range(top + 1))


@pytest.mark.parametrize("rank", [4, 5])
@pytest.mark.parametrize("u_word", [(), (1, 2, 3)])
def test_polynomial_matches_mask_sum(rank, u_word):
    # The census is a fold over the search's live moves; the masks it
    # never builds must add up to the same polynomial.
    rs = root_system("D", rank)
    word = reduced_word(longest_element(rs, range(1, rank + 1)))
    u = from_word(rs, u_word)
    masks = enumerate_distinguished(word, u)
    assert masks
    assert deodhar_polynomial(word, u) == _census_by_masks(masks)


def _walk_matches_oracle_route(rs, word, u):
    subexprs = enumerate_distinguished(word, u)
    for se in subexprs:
        # td is a field, so equality covers it as well.
        assert se == build_subexpression(rs, word, se.choices)
        assert se.td == td_span(se)
    return subexprs


def test_walk_masks_match_oracle_route(b3, b3_group, g2, g2_group):
    for rs, group in ((b3, b3_group), (g2, g2_group)):
        word = reduced_word(longest_element(rs, range(1, rs.rank + 1)))
        for u in group:
            assert _walk_matches_oracle_route(rs, word, u)
    d5 = root_system("D", 5)
    word = reduced_word(longest_element(d5, range(1, 6)))
    assert len(_walk_matches_oracle_route(d5, word, identity(d5))) == 1613
