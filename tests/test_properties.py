"""Property tests: random words against the independent oracles.

Examples are derandomized and bounded, so every run checks the same cases
and the suite stays fast.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bruhatkit import (bruhat_le, canonical_order,  # noqa: E402
                       enumerate_distinguished, enumerate_group, from_word,
                       identity, inverse, left_descents, multiply,
                       reduced_word, right_descents, root_system, td_span)
from bruhatkit.deodhar import build_subexpression  # noqa: E402
from bruhatkit.weyl import simple_reflection, times_simple  # noqa: E402
from oracles import (WORD_MODEL_CARTAN, perm_bruhat_le,  # noqa: E402
                     perm_from_word, perm_inverse, perm_left_descents,
                     perm_length, perm_mul, perm_right_descents,
                     subword_reachable, word_action, word_lengths)
from sweeps import check_four_way_agreement  # noqa: E402

CASES = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)


@st.composite
def sn_words(draw, count):
    """n in 2..6 and `count` words over the simple indices of S_n."""
    n = draw(st.integers(2, 6))
    word = st.lists(st.integers(1, n - 1), max_size=12)
    return (n, *(tuple(draw(word)) for _ in range(count)))


@st.composite
def words_of(draw, family, rank, count=2):
    word = st.lists(st.integers(1, rank), max_size=10)
    return (family, rank, *(tuple(draw(word)) for _ in range(count)))


@st.composite
def reduced_words_of(draw, family, rank):
    """A random reduced word (each drawn letter that would not lengthen the
    product is dropped) and a subword of it."""
    rs = root_system(family, rank)
    word, x = [], identity(rs)
    for i in draw(st.lists(st.integers(1, rank), max_size=14)):
        y = multiply(x, simple_reflection(rs, i))
        if y.length > x.length:
            word.append(i)
            x = y
    keep = draw(st.lists(st.booleans(), min_size=len(word),
                         max_size=len(word)))
    return (family, rank, tuple(word),
            tuple(i for i, k in zip(word, keep) if k))


B3_OR_G2 = (("B", 3), ("G", 2))


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
@given(st.one_of(*(words_of(*g) for g in B3_OR_G2)))
def test_bruhat_le_against_subword_criterion(case):
    family, rank, a, b = case
    rs = root_system(family, rank)
    u, v = from_word(rs, a), from_word(rs, b)
    below_v = subword_reachable(rs, reduced_word(v))
    assert bruhat_le(u, v) == (u in below_v)


@CASES
@given(st.one_of(*(words_of(*g, count=3) for g in B3_OR_G2)))
def test_group_axioms_against_word_model(case):
    family, rank, a, b, c = case
    cartan = WORD_MODEL_CARTAN[family, rank]
    rs = root_system(family, rank)
    x, y, z = (from_word(rs, w) for w in (a, b, c))
    e = identity(rs)
    assert multiply(multiply(x, y), z) is multiply(x, multiply(y, z))
    assert multiply(x, e) is x is multiply(e, x)
    assert multiply(x, inverse(x)) is e
    assert from_word(rs, a + b) is multiply(x, y)
    assert from_word(rs, a[::-1]) is inverse(x)
    # Interning agrees with the model's equality of actions.
    assert (x is y) == (word_action(cartan, a) == word_action(cartan, b))
    assert word_action(cartan, reduced_word(x)) == word_action(cartan, a)


@CASES
@given(st.one_of(*(words_of(*g, count=1) for g in B3_OR_G2)))
def test_lengths_and_descents_against_word_model(case):
    family, rank, word = case
    cartan = WORD_MODEL_CARTAN[family, rank]
    lengths = word_lengths(cartan)
    w = from_word(root_system(family, rank), word)
    length = lengths[word_action(cartan, word)]
    assert w.length == len(reduced_word(w)) == length
    steps = range(1, rank + 1)
    assert right_descents(w) == {
        i for i in steps if lengths[word_action(cartan, word + (i,))] < length}
    assert left_descents(w) == {
        i for i in steps if lengths[word_action(cartan, (i,) + word)] < length}


@CASES
@given(st.one_of(*(words_of(*g, count=1) for g in B3_OR_G2 + (("D", 4),))))
def test_times_simple_is_the_memoized_product(case):
    family, rank, word = case
    rs = root_system(family, rank)
    w = from_word(rs, word)
    for i in range(1, rank + 1):
        x = times_simple(w, i)
        assert x is multiply(w, simple_reflection(rs, i))
        assert times_simple(x, i) is w
        assert times_simple(w, i) is x


@pytest.mark.parametrize("family,rank", B3_OR_G2)
@settings(CASES, max_examples=60)
@given(data=st.data())
def test_four_ad_routes_agree(family, rank, data):
    # v by its place in the canonical order, and u a subword of v's reduced
    # word, so u <= v by the subword property.
    rs = root_system(family, rank)
    group = canonical_order(enumerate_group(rs))
    v = group[data.draw(st.integers(0, len(group) - 1))]
    word = reduced_word(v)
    mask = data.draw(st.lists(st.booleans(), min_size=len(word),
                              max_size=len(word)))
    u = from_word(rs, [i for i, keep in zip(word, mask) if keep])
    assert bruhat_le(u, v)
    assert check_four_way_agreement(u, v) <= v.length - u.length


@CASES
@given(st.one_of(*(reduced_words_of(*g) for g in B3_OR_G2)))
def test_walk_masks_against_oracle_route(case):
    # Masks annotated along the walk, td included, equal the masks rebuilt
    # one at a time from their choices.
    family, rank, word, u_word = case
    rs = root_system(family, rank)
    subexprs = enumerate_distinguished(word, from_word(rs, u_word))
    assert subexprs  # u is a subword, so u <= v
    for se in subexprs:
        assert se == build_subexpression(rs, word, se.choices)
        assert se.td == td_span(se).rank
