"""Property tests: random words against the independent oracles.

Examples are derandomized and bounded, so every run checks the same cases
and the suite stays fast.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bruhatkit import (bruhat_le, from_word, identity, inverse,  # noqa: E402
                       left_descents, multiply, reduced_word, right_descents,
                       root_system)
from oracles import (perm_bruhat_le, perm_from_word,  # noqa: E402
                     perm_inverse, perm_left_descents, perm_length, perm_mul,
                     perm_right_descents, subword_reachable)

CASES = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)


@st.composite
def sn_words(draw, count):
    """n in 2..6 and `count` words over the simple indices of S_n."""
    n = draw(st.integers(2, 6))
    word = st.lists(st.integers(1, n - 1), max_size=12)
    return (n, *(tuple(draw(word)) for _ in range(count)))


@st.composite
def words_of(draw, family, rank):
    word = st.lists(st.integers(1, rank), max_size=10)
    return family, rank, tuple(draw(word)), tuple(draw(word))


@CASES
@given(sn_words(3))
def test_sn_group_axioms(case):
    n, a, b, c = case
    rs = root_system("A", n - 1)
    x, y, z = (from_word(rs, w) for w in (a, b, c))
    e = identity(rs)
    assert multiply(multiply(x, y), z) is multiply(x, multiply(y, z))
    assert multiply(x, e) is x is multiply(e, x)
    assert multiply(x, inverse(x)) is e
    assert from_word(rs, a + b) is multiply(x, y)
    # Interning agrees with the oracle's equality of permutations.
    p, q = perm_from_word(n, a), perm_from_word(n, b)
    assert (x is y) == (p == q)
    assert (x == y) == (p == q)
    assert perm_from_word(n, reduced_word(inverse(x))) == perm_inverse(p)
    assert perm_from_word(n, reduced_word(multiply(x, y))) == perm_mul(p, q)


@CASES
@given(sn_words(1))
def test_sn_lengths_and_descents(case):
    n, word = case
    w = from_word(root_system("A", n - 1), word)
    p = perm_from_word(n, word)
    assert w.length == perm_length(p)
    assert right_descents(w) == perm_right_descents(p)
    assert left_descents(w) == perm_left_descents(p)
    assert perm_from_word(n, reduced_word(w)) == p
    assert len(reduced_word(w)) == w.length


@CASES
@given(sn_words(2))
def test_sn_bruhat_le_against_tableau_criterion(case):
    n, a, b = case
    rs = root_system("A", n - 1)
    u, v = from_word(rs, a), from_word(rs, b)
    pu, pv = perm_from_word(n, a), perm_from_word(n, b)
    assert bruhat_le(u, v) == perm_bruhat_le(pu, pv)
    assert bruhat_le(v, u) == perm_bruhat_le(pv, pu)


@CASES
@given(st.one_of(words_of("B", 3), words_of("G", 2)))
def test_bruhat_le_against_subword_criterion(case):
    family, rank, a, b = case
    rs = root_system(family, rank)
    u, v = from_word(rs, a), from_word(rs, b)
    below_v = subword_reachable(rs, reduced_word(v))
    assert bruhat_le(u, v) == (u in below_v)
