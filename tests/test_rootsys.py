import hashlib
import tracemalloc

import pytest

from bruhatkit import (CartanDatum, InvalidInputError, build_root_system,
                       cartan_datum, positive_root_count, root_system,
                       simple_reflect, weyl_group_order)
from oracles import coroot_pairing, root_of_pair

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
    with pytest.raises(InvalidInputError) as err:
        CartanDatum("A", 2, ((2, -1), (-1,))).validate()  # not square
    assert str(err.value) == "Cartan matrix shape does not match rank"


NOT_FINITE = ("root closure does not terminate; Cartan matrix is not of "
              "finite type")


@pytest.mark.parametrize("cartan,message", [
    (((2, -2), (-2, 2)), NOT_FINITE),  # affine
    (((2, -3), (-3, 2)), NOT_FINITE),  # hyperbolic
    (((2, -1), (-2, 2)),  # B2's matrix under the label A
     "closure produced 4 positive roots, expected 3 for A2"),
], ids=["affine", "hyperbolic", "B2-as-A2"])
def test_closure_refusals(cartan, message):
    with pytest.raises(InvalidInputError) as err:
        build_root_system(CartanDatum("A", 2, cartan))
    assert str(err.value) == message


@pytest.mark.parametrize("family,rank", [("E", 5), ("E", 9), ("F", 3),
                                         ("G", 3), ("D", 1), ("B", 1),
                                         ("A", 0), ("A", 46), ("B", 33),
                                         ("C", 33), ("D", 33), ("A", -2),
                                         ("B", -1), ("", 3), ("AB", 3)])
def test_rank_restrictions(family, rank):
    # The public counts refuse what the builder refuses, with its message.
    with pytest.raises(InvalidInputError) as err:
        cartan_datum(family, rank)
    for count in (positive_root_count, weyl_group_order):
        with pytest.raises(InvalidInputError) as count_err:
            count(family, rank)
        assert str(count_err.value) == str(err.value)


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
                value = coroot_pairing(rs, beta, alpha)
                assert isinstance(value, int)
                if alpha == beta:
                    assert value == 2


def test_root_system_makes_no_reflection():
    # A system holds its roots and simple reflections; weyl makes the
    # other reflections on first use, so a fresh B16 (512 signed roots)
    # holds no table of N permutations.
    datum = cartan_datum("B", 16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rs = build_root_system(datum)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rs.reflection_cache == []
    assert not hasattr(rs, "reflection_perms")
    assert held < 500_000


@pytest.mark.parametrize("rank,built", [(2.5, 2), (3.0, 3), (True, 1)],
                         ids=["2.5", "3.0", "True"])
def test_rank_must_be_an_int(rank, built):
    # Refused with one message whatever the registry holds: 3.0 == 3 and
    # True == 1 hash like the ranks built first, so a check that let them
    # through would hand back (or register) the integer system.
    rs = root_system("A", built)
    message = f"rank must be an int, got {rank!r}"
    for call in (root_system, cartan_datum, positive_root_count,
                 weyl_group_order,
                 lambda f, r: CartanDatum(f, r, rs.cartan).validate()):
        with pytest.raises(InvalidInputError) as err:
            call("A", rank)
        assert str(err.value) == message
    again = root_system("A", built)
    assert again is rs and type(again.rank) is int and again.rank == built


@pytest.mark.parametrize("family", [["A"], ("A",), None, 65],
                         ids=["list", "tuple", "None", "int"])
def test_family_must_be_a_str(family):
    # One message whatever the type; a list, being unhashable, made the
    # lookup in the family table raise TypeError.
    message = f"family must be one of ABCDEFG, got {family!r}"
    for call in (root_system, cartan_datum, positive_root_count,
                 weyl_group_order):
        with pytest.raises(InvalidInputError) as err:
            call(family, 2)
        assert str(err.value) == message


def test_standard_cartan_matrices_are_pinned():
    # Every (family, rank) that cartan_datum admits, with its matrix, in
    # one digest: 45 ranks of A, 31 each of B, C and D, and E6-E8, F4, G2.
    lines = []
    for family in "ABCDEFG":
        for rank in range(50):
            try:
                datum = cartan_datum(family, rank)
            except InvalidInputError:
                continue
            lines.append(f"{family}{rank} {datum.cartan}\n")
    assert len(lines) == 143
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "a1082dc92490daa23dfa4aeba8f50f4e8c9f1315e5b77355a4604568f78e2d46")
