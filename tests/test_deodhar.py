import warnings
from math import comb

import pytest

import bruhatkit.bruhat
import bruhatkit.deodhar
import bruhatkit.weyl
from bruhatkit import (InvalidInputError, NotComparableError, bruhat_le,
                       build_root_system, canonical_order, cartan_datum,
                       component_shape, deodhar_polynomial,
                       enumerate_distinguished, enumerate_group, from_word,
                       identity, is_toric, positive_distinguished,
                       reduced_word, root_system, td_span)
from bruhatkit.cli import parse_element
from bruhatkit.deodhar import (SKIP, TAKE, DeodharComponentShape,
                               build_subexpression, poly_string)
from bruhatkit.weyl import longest_element
from oracles import brute_force_distinguished, r_polynomial
from sweeps import comparable_pairs


def test_example_two_masks(a2):
    subexprs = enumerate_distinguished([1, 2, 1], identity(a2))
    assert [se.choices for se in subexprs] == [
        (TAKE, SKIP, TAKE), (SKIP, SKIP, SKIP)]
    shapes = {(len(se.j_circ), len(se.j_minus)) for se in subexprs}
    assert shapes == {(1, 1), (3, 0)}
    for se in subexprs:
        assert td_span(se).rank == 2
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
    assert td_span(mixed).rank == 2


def test_component_shapes(a2):
    all_take = build_subexpression(a2, (1, 2, 1), (TAKE, TAKE, TAKE))
    assert component_shape(all_take) == DeodharComponentShape(0, 0)
    shape = component_shape(
        build_subexpression(a2, (1, 2, 1), (SKIP, SKIP, SKIP)))
    assert (shape.circ_count, shape.minus_count) == (3, 0)
    shape2 = component_shape(
        build_subexpression(a2, (1, 2, 1), (TAKE, SKIP, TAKE)))
    assert (shape2.circ_count, shape2.minus_count) == (1, 1)


def test_prefix_walk_invariants(a2, s3):
    for v in s3:
        word = reduced_word(v)
        for u in s3:
            for se in enumerate_distinguished(word, u):
                assert se.prefixes[0].is_identity()
                assert se.prefixes[-1] == u
                assert (len(se.j_plus) + len(se.j_circ) + len(se.j_minus)
                        == len(word))
                for k in range(1, len(word) + 1):
                    prev, cur = se.prefixes[k - 1], se.prefixes[k]
                    if k in se.j_circ:
                        assert cur == prev
                    elif k in se.j_plus:
                        assert cur.length == prev.length + 1
                    else:
                        assert cur.length == prev.length - 1
                for _, beta in se.betas:
                    assert a2.is_positive_root(beta)


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
    assert poly_string(poly) == "q^3 - 2q^2 + 2q - 1"
    assert poly_string(()) == "0"


def test_polynomial_warns_when_incomparable(a2):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = deodhar_polynomial([1], from_word(a2, [2]))
    assert result == ()
    assert len(caught) == 1


def test_polynomial_reduced_word_invariance_s3(s3):
    from bruhatkit import all_reduced_words, bruhat_le
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
        assert is_toric(u, v) == (td_span(se).rank == v.length - u.length)


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


@pytest.mark.parametrize("u_word, masks, limit", [
    ((), 1613, 25_000),
    ((3, 4, 3, 1, 5, 3, 2, 1, 4, 3, 2, 5, 3, 4), 3, 1_000),
])
def test_mask_search_prunes(monkeypatch, u_word, masks, limit):
    # Over the least reduced word of w0 in D5 the search visits few states
    # that yield no mask; a search pruned only on length distance makes
    # about 50,000 multiplies for u = id and 6,000 for this u.  Every
    # multiply counts, the Bruhat cut's included, also those made through
    # weyl.times_simple.  The system is private and the comparison cache
    # is emptied, so no product or comparison an earlier test made lowers
    # the count.
    rs = build_root_system(cartan_datum("D", 5))
    word = reduced_word(longest_element(rs, range(1, 6)))
    u = from_word(rs, u_word)
    calls = [0]
    real = bruhatkit.weyl.multiply

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    for module in (bruhatkit.weyl, bruhatkit.deodhar, bruhatkit.bruhat):
        monkeypatch.setattr(module, "multiply", counting)
    bruhat_le.cache_clear()
    assert len(enumerate_distinguished(word, u)) == masks
    assert calls[0] < limit


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
    # The census is a dynamic program over the search's live moves; the
    # masks it never builds must add up to the same polynomial.
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
        assert se.td == td_span(se).rank
    return subexprs


def test_walk_masks_match_oracle_route(b3, b3_group, g2, g2_group):
    for rs, group in ((b3, b3_group), (g2, g2_group)):
        word = reduced_word(longest_element(rs, range(1, rs.rank + 1)))
        for u in group:
            assert _walk_matches_oracle_route(rs, word, u)
    d5 = root_system("D", 5)
    word = reduced_word(longest_element(d5, range(1, 6)))
    assert len(_walk_matches_oracle_route(d5, word, identity(d5))) == 1613
