import hashlib
import tracemalloc
from collections import Counter
from math import prod

import pytest

from bruhatkit import (InvalidInputError, RootSystem, apply_to_root,
                       build_root_system, enumerate_distinguished,
                       enumerate_group, from_word, identity, levi_acts,
                       levi_borel_complexity, longest_element,
                       partial_flag_levi_complexity,
                       partial_flag_torus_complexity, positive_root_count,
                       root_system, scan, simple_reflect, weyl_group_order)
from bruhatkit.rootsys import FAMILIES
from bruhatkit.weyl import reflection, simple_reflection
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
    assert [rs.position[r] for r in rs.positive_roots] == list(
        range(len(rs.positive_roots)))


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


@pytest.mark.parametrize("family,rank,message", [
    ("H", 2, "family must be one of ABCDEFG, got 'H'"),
    ("A", 46, "family A admits ranks 1..45, got 46"),
    ("A", 2.0, "rank must be an int, got 2.0"),
], ids=["family", "rank", "rank-type"])
def test_build_refusals(family, rank, message):
    # A label is the whole input, so a bad label is all there is to refuse.
    with pytest.raises(InvalidInputError) as err:
        build_root_system(family, rank)
    assert str(err.value) == message


def test_closure_is_bounded(monkeypatch):
    # A wrong reflection that makes new roots forever fails once the
    # closure holds more than the table's N roots, instead of running on.
    monkeypatch.setattr(RootSystem, "_reflect_raw",
                        lambda self, i0, root: tuple(c + 1 for c in root))
    with pytest.raises(AssertionError, match="closure has"):
        build_root_system("B", 3)


def test_every_standard_system_has_its_table_counts():
    # All 143 standard labels, built fresh: N from the closure against the
    # table, and |W| (the public count and rs.order) against the product
    # over heights h of (h + 1)^(c_h - c_(h+1)), c_h the number of roots of
    # height h (Macdonald 1972).
    built = 0
    for family in FAMILIES:
        for rank in range(1, 46):
            try:
                rs = build_root_system(family, rank)
            except InvalidInputError:
                continue
            assert len(rs.positive_roots) == positive_root_count(family, rank)
            heights = Counter(sum(r) for r in rs.positive_roots)
            order = prod((h + 1) ** (c - heights[h + 1])
                         for h, c in heights.items())
            assert order == weyl_group_order(family, rank), (family, rank)
            assert order == rs.order, (family, rank)
            built += 1
    assert built == 143


@pytest.mark.parametrize("call", [
    lambda rs: simple_reflect(rs, 1, [0, 1]),
    lambda rs: apply_to_root(identity(rs), [0, 1]),
    lambda rs: reflection(rs, [1, 1]),
    lambda rs: rs.is_positive_root([1, 0]),
    lambda rs: rs.is_root((0, [1])),
], ids=["simple_reflect", "apply_to_root", "reflection", "is_positive_root",
        "is_root"])
def test_unhashable_root_is_invalid_input(a2, call):
    # A list is no root; its lookup raised TypeError (unhashable type).
    with pytest.raises(InvalidInputError, match="is not a root"):
        call(a2)


@pytest.mark.parametrize("family,rank", [("E", 5), ("E", 9), ("F", 3),
                                         ("G", 3), ("D", 1), ("B", 1),
                                         ("A", 0), ("A", 46), ("B", 33),
                                         ("C", 33), ("D", 33), ("A", -2),
                                         ("B", -1), ("", 3), ("AB", 3)])
def test_rank_restrictions(family, rank):
    # The public counts refuse what the builder refuses, with its message.
    with pytest.raises(InvalidInputError) as err:
        build_root_system(family, rank)
    for count in (root_system, positive_root_count, weyl_group_order):
        with pytest.raises(InvalidInputError) as count_err:
            count(family, rank)
        assert str(count_err.value) == str(err.value)


def test_root_system_is_shared_and_build_is_fresh():
    shared = root_system("C", 3)
    assert root_system(family="C", rank=3) is shared
    assert root_system("C", rank=3) is shared
    fresh = build_root_system("C", 3)
    assert fresh is not shared
    assert build_root_system("C", 3) is not fresh


def test_b_and_c_are_transposes():
    b = build_root_system("B", 3).cartan
    c = build_root_system("C", 3).cartan
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
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rs = build_root_system("B", 16)
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
    for call in (root_system, build_root_system, positive_root_count,
                 weyl_group_order):
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
    for call in (root_system, build_root_system, positive_root_count,
                 weyl_group_order):
        with pytest.raises(InvalidInputError) as err:
            call(family, 2)
        assert str(err.value) == message


def test_standard_cartan_matrices_are_pinned():
    # Every (family, rank) that build_root_system admits, with its matrix,
    # in one digest: 45 ranks of A, 31 each of B, C and D, E6-E8, F4, G2.
    lines = []
    for family in "ABCDEFG":
        for rank in range(50):
            try:
                rs = build_root_system(family, rank)
            except InvalidInputError:
                continue
            lines.append(f"{family}{rank} {rs.cartan}\n")
    assert len(lines) == 143
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "a1082dc92490daa23dfa4aeba8f50f4e8c9f1315e5b77355a4604568f78e2d46")


NOT_INT_CALLS = {
    "from_word-str": lambda rs: from_word(rs, "12"),
    "from_word-float": lambda rs: from_word(rs, [1.0]),
    "from_word-None": lambda rs: from_word(rs, [None]),
    "simple_reflection": lambda rs: simple_reflection(rs, "1"),
    "longest_element": lambda rs: longest_element(rs, ["1"]),
    "longest_element-mixed": lambda rs: longest_element(rs, [1, "2"]),
    "simple_reflect": lambda rs: simple_reflect(rs, 1.5, rs.simple_root(1)),
    "simple_root": lambda rs: rs.simple_root(1.0),
    "levi_acts": lambda rs: levi_acts([1.0], identity(rs)),
    "enumerate_distinguished":
        lambda rs: enumerate_distinguished("121", identity(rs)),
    "scan-float": lambda rs: scan(rs, "levi_table", max_length=1.5),
    "scan-str": lambda rs: scan(rs, "levi_table", max_length="2"),
    # An unhashable index, or a cap that does not compare with |W|, ended
    # in a raw TypeError.
    "levi_acts-list": lambda rs: levi_acts([[1]], identity(rs)),
    "levi_borel_complexity-list":
        lambda rs: levi_borel_complexity([[1]], identity(rs)),
    "partial_flag_torus_complexity-list":
        lambda rs: partial_flag_torus_complexity(identity(rs), [[1]]),
    "partial_flag_levi_complexity-list":
        lambda rs: partial_flag_levi_complexity(identity(rs), [[1]], []),
    "scan-cap-None": lambda rs: scan(rs, "levi_table", cap=None),
    "enumerate_group-cap-str": lambda rs: enumerate_group(rs, cap="9"),
    # A subset or word that is not iterable ended in a raw TypeError, and a
    # cap of a type other than int was compared with |W| (True as 1).
    "levi_acts-int": lambda rs: levi_acts(5, identity(rs)),
    "from_word-int": lambda rs: from_word(rs, 5),
    "longest_element-None": lambda rs: longest_element(rs, None),
    "partial_flag_levi_complexity-int":
        lambda rs: partial_flag_levi_complexity(identity(rs), 5, []),
    "enumerate_group-cap-bool": lambda rs: enumerate_group(rs, cap=True),
    "scan-cap-bool": lambda rs: scan(rs, "levi_table", cap=True),
    "scan-cap-float": lambda rs: scan(rs, "complexity_histogram", cap=1e9),
}


@pytest.mark.parametrize("call", NOT_INT_CALLS.values(),
                         ids=NOT_INT_CALLS.keys())
def test_an_index_that_is_not_an_int_is_refused(call, a2):
    # Each ended in TypeError or ValueError, and simple_root(1.0) answered.
    # from_word on the shared system may find s_1 memoized on the identity.
    from_word(a2, [1, 2])
    with pytest.raises(InvalidInputError,
                       match=" must be an (int|iterable of ints), got "):
        call(a2)


def test_an_error_raised_while_iterating_is_not_caught(a2):
    # Only iter() is guarded: a subset or word whose iteration fails keeps
    # its own error, even a TypeError.
    def failing():
        yield 1
        raise TypeError("failed while iterating")

    for call in (from_word, longest_element):
        with pytest.raises(TypeError, match="failed while iterating"):
            call(a2, failing())
