import pytest

from bruhatkit import (CartanDatum, InvalidInputError, build_root_system,
                       cartan_datum, positive_root_count, root_system,
                       simple_reflect)
from oracles import root_of_pair

ENUMERABLE = ([("A", r) for r in (1, 2, 3, 4)]
              + [("B", r) for r in (2, 3, 4)]
              + [("C", r) for r in (2, 3, 4)]
              + [("D", r) for r in (2, 3, 4)]
              + [("G", 2), ("F", 4), ("E", 6)])


@pytest.mark.parametrize("family,rank", ENUMERABLE)
def test_positive_root_counts(family, rank):
    rs = root_system(family, rank)
    assert len(rs.positive_roots) == positive_root_count(family, rank)
    assert len(rs.index) == len(rs.positive_roots)


def test_classical_count_formulas():
    assert positive_root_count("A", 5) == 15
    assert positive_root_count("B", 3) == 9
    assert positive_root_count("C", 4) == 16
    assert positive_root_count("D", 5) == 20
    assert positive_root_count("G", 2) == 6
    assert positive_root_count("F", 4) == 24
    assert positive_root_count("E", 6) == 36


def test_a2_roots_match_pair_construction(a2):
    # independent construction: type A roots are e_i - e_j for i < j
    expected = {root_of_pair(i, j, 2) for i in (1, 2, 3)
                for j in range(i + 1, 4)}
    assert set(a2.positive_roots) == expected
    assert len(a2.positive_roots) == 3


def test_a1_trivial():
    rs = root_system("A", 1)
    assert rs.positive_roots == ((1,),)


def test_g2_root_set(g2):
    expected = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert set(g2.positive_roots) == expected


def test_ordering_height_then_lex(a3, b3):
    for rs in (a3, b3):
        keys = [(sum(r), r) for r in rs.positive_roots]
        assert keys == sorted(keys)


def test_simple_reflection_examples(a2, g2):
    assert simple_reflect(a2, 1, a2.simple_root(1)) == (-1, 0)
    assert simple_reflect(a2, 1, a2.simple_root(2)) == (1, 1)
    assert simple_reflect(g2, 1, g2.simple_root(2)) == (3, 1)


@pytest.mark.parametrize("family,rank", ENUMERABLE)
def test_simple_reflections_permute_other_positives(family, rank):
    rs = root_system(family, rank)
    for i in range(1, rank + 1):
        alpha_i = rs.simple_root(i)
        for r in rs.positive_roots:
            image = simple_reflect(rs, i, r)
            if r == alpha_i:
                assert image == tuple(-c for c in r)
            else:
                assert rs.is_positive_root(image)
            assert simple_reflect(rs, i, image) == r


def test_index_out_of_range(a2):
    with pytest.raises(InvalidInputError):
        simple_reflect(a2, 3, a2.simple_root(1))
    with pytest.raises(InvalidInputError):
        simple_reflect(a2, 0, a2.simple_root(1))


def test_non_root_rejected(a2):
    with pytest.raises(InvalidInputError):
        simple_reflect(a2, 1, (5, 7))


def test_invalid_cartan_rejected():
    with pytest.raises(InvalidInputError):
        CartanDatum("A", 2, ((1, -1), (-1, 2))).validate()  # bad diagonal
    with pytest.raises(InvalidInputError):
        CartanDatum("A", 2, ((2, 1), (-1, 2))).validate()  # positive entry
    with pytest.raises(InvalidInputError):
        CartanDatum("A", 2, ((2, -1), (0, 2))).validate()  # asymmetric zero
    with pytest.raises(InvalidInputError):
        build_root_system(CartanDatum("A", 2, ((2, 0), (-1, 2))))


@pytest.mark.parametrize("family,rank", [("E", 5), ("E", 9), ("F", 3),
                                         ("G", 3), ("D", 1), ("B", 1),
                                         ("A", 0), ("A", 46), ("B", 33),
                                         ("C", 33), ("D", 33)])
def test_rank_restrictions(family, rank):
    with pytest.raises(InvalidInputError):
        cartan_datum(family, rank)


def test_root_system_is_shared_and_build_is_fresh():
    shared = root_system("C", 3)
    assert root_system(family="C", rank=3) is shared
    assert root_system("C", rank=3) is shared
    fresh = build_root_system(cartan_datum("C", 3))
    assert fresh is not shared
    assert build_root_system(cartan_datum("C", 3)) is not fresh


def test_b_and_c_are_transposes():
    b = cartan_datum("B", 3).cartan
    c = cartan_datum("C", 3).cartan
    assert c == tuple(tuple(b[j][i] for j in range(3)) for i in range(3))
    # short root convention: last B row carries the -2
    assert b[2][1] == -2 and b[1][2] == -1


def test_coroot_pairing_integrality(b3, g2):
    for rs in (b3, g2):
        for alpha in rs.positive_roots:
            for beta in rs.positive_roots:
                value = rs.coroot_pairing(beta, alpha)
                assert isinstance(value, int)
                if alpha == beta:
                    assert value == 2
