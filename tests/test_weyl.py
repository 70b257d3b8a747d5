import hashlib
import random
import re
import sys
import time
from itertools import chain, combinations, islice
from operator import itemgetter

import pytest

import bruhatkit.weyl

from bruhatkit import (GroupTooLargeError, InvalidInputError,
                       apply_to_root, bruhat_le, build_root_system,
                       canonical_order, enumerate_group,
                       from_word, identity, inverse, left_descents,
                       left_inversions, left_parabolic_decomposition,
                       longest_element, multiply, reduced_word,
                       right_descents, right_inversions,
                       right_parabolic_decomposition, root_system,
                       simple_reflect, support,
                       weyl_group_order, word_string)
from bruhatkit.cli import element_to_oneline, parse_element
from bruhatkit.weyl import (_compose, _layers, _reflections,
                            reflection, simple_reflection)
from oracles import (all_reduced_words, coroot_pairing, perm_bruhat_le,
                     perm_from_word, perm_least_reduced_word,
                     perm_left_descents, perm_length,
                     perm_mul, perm_reduced_words, perm_right_descents,
                     perm_right_inversion_roots, perm_support, times_simple)


def words_up_to(rank, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (i,) for w in frontier for i in range(1, rank + 1)]
        out.extend(frontier)
    return out


def test_from_word_basics(a2):
    assert from_word(a2, []).is_identity()
    assert from_word(a2, [1, 2, 1]).length == 3
    assert from_word(a2, [1, 1]).is_identity()
    with pytest.raises(InvalidInputError):
        from_word(a2, [3])


@pytest.mark.parametrize("letter", [True, False, 1.0, "1"])
def test_from_word_checks_every_letter_cold_and_warm(letter):
    # A letter that is not an int is refused on a fresh system, where the
    # refusal interns nothing, and again once s_1 and some products w s_i
    # are interned; a bool is an int subclass, and a memo of w s_i once
    # answered True.
    rs = build_root_system("A", 2)
    message = re.escape(f"simple index must be an int, got {letter!r}")
    for word in ([letter], [1, 2, letter]):
        with pytest.raises(InvalidInputError, match=message):
            from_word(rs, word)
    assert not rs.element_cache
    assert times_simple(from_word(rs, [1, 2]), 2) is from_word(rs, [1])
    assert times_simple(identity(rs), 1) is from_word(rs, [1])
    for word in ([letter], [1, 2, letter], [letter, 1]):
        with pytest.raises(InvalidInputError, match=message):
            from_word(rs, word)


def test_against_permutation_model_exhaustive(a3):
    # every word of length <= 4 in A3: length, descents, inversion roots
    n = 4
    for word in words_up_to(3, 4):
        w = from_word(a3, word)
        p = perm_from_word(n, word)
        assert w.length == perm_length(p), word
        assert right_descents(w) == perm_right_descents(p)
        assert left_descents(w) == perm_left_descents(p)
        assert right_inversions(w) == perm_right_inversion_roots(p)


def test_oneline_codec_roundtrip(a3, s4):
    for w in s4:
        assert parse_element(a3, element_to_oneline(w)) == w


def test_group_operations(a2, s3):
    e = identity(a2)
    for w in s3:
        assert multiply(w, e) == w
        assert multiply(e, w) == w
        assert multiply(w, inverse(w)) == e
        assert inverse(inverse(w)) == w
    assert inverse(from_word(a2, [1, 2])) == from_word(a2, [2, 1])


def test_elements_of_separate_systems_never_equal():
    # Equality is identity, and each system interns its own elements; the
    # hash is that of the permutation as a tuple of ints, so it is the same
    # in every run (a hash of bytes is salted per process).
    one, two = build_root_system("B", 2), build_root_system("B", 2)
    for word in words_up_to(2, 4):
        x, y = from_word(one, word), from_word(two, word)
        assert x.perm == y.perm and hash(x) == hash(y) == hash(tuple(x.perm))
        assert x != y
        assert x == from_word(one, word)
    assert len({from_word(one, [1]), from_word(two, [1])}) == 2


def test_mismatched_systems_rejected(a2, a3):
    with pytest.raises(InvalidInputError):
        multiply(identity(a2), identity(a3))


def test_apply_to_root(a2):
    s1 = from_word(a2, [1])
    assert apply_to_root(s1, (1, 1)) == (0, 1)
    with pytest.raises(InvalidInputError):
        apply_to_root(s1, (2, 0))


def test_descents_examples(a2):
    e = identity(a2)
    assert right_descents(e) == frozenset() == left_descents(e)
    w0 = from_word(a2, [1, 2, 1])
    assert right_descents(w0) == frozenset({1, 2}) == left_descents(w0)
    w = from_word(a2, [1, 2])
    assert right_descents(w) == frozenset({2})
    assert left_descents(w) == frozenset({1})


def test_inversions_examples(a2):
    assert left_inversions(identity(a2)) == frozenset()
    w0 = from_word(a2, [1, 2, 1])
    assert left_inversions(w0) == frozenset(a2.positive_roots)
    assert left_inversions(from_word(a2, [1])) == frozenset({(1, 0)})


def test_length_equals_inversion_counts(s4, b3_group, g2_group):
    for group in (s4, b3_group, g2_group):
        for w in group:
            assert len(left_inversions(w)) == w.length
            assert len(right_inversions(w)) == w.length


def test_length_additive_inversion_sets(s4, b3_group):
    # I_L(uv) = I_L(u) disjoint-union u(I_L(v)) when lengths add
    for group in (s4, b3_group):
        for u in group:
            for v in group:
                uv = multiply(u, v)
                if uv.length != u.length + v.length:
                    continue
                left_u = left_inversions(u)
                mapped = {apply_to_root(u, r)
                          for r in left_inversions(v)}
                assert left_u.isdisjoint(mapped)
                assert left_u | mapped == left_inversions(uv)


def test_reduced_words(a2, s4):
    w0 = from_word(a2, [1, 2, 1])
    assert all_reduced_words(w0) == frozenset({(1, 2, 1), (2, 1, 2)})
    assert reduced_word(w0) == (1, 2, 1)
    assert reduced_word(identity(a2)) == ()
    for w in s4:
        word = reduced_word(w)
        assert len(word) == w.length
        assert from_word(w.system, word) == w
        words = all_reduced_words(w)
        assert word == min(words)
        assert {frozenset(x) for x in words} == {support(w)}


def test_all_reduced_words_against_perm_oracle(a3, s4):
    for w in s4:
        p = perm_from_word(4, reduced_word(w))
        assert all_reduced_words(w) == perm_reduced_words(p)


def test_support_examples(a3, a4):
    assert support(identity(a3)) == frozenset()
    assert support(from_word(a3, [1, 2, 1])) == frozenset({1, 2})
    w = parse_element(a4, "51234")
    assert support(w) == frozenset({1, 2, 3, 4})
    assert w.length == 4
    assert perm_support(perm_from_word(5, reduced_word(w))) == support(w)


def test_parabolic_decompositions_exhaustive(s4, b3_group):
    from itertools import combinations
    for group, rank in ((s4, 3), (b3_group, 3)):
        subsets = [frozenset(c) for size in range(rank + 1)
                   for c in combinations(range(1, rank + 1), size)]
        for w in group:
            for sub in subsets:
                a, d = left_parabolic_decomposition(w, sub)
                assert multiply(a, d) == w
                assert a.length + d.length == w.length
                assert support(a) <= sub
                assert not (left_descents(d) & sub)
                head, tail = right_parabolic_decomposition(w, sub)
                assert multiply(head, tail) == w
                assert head.length + tail.length == w.length
                assert support(tail) <= sub
                assert not (right_descents(head) & sub)


def test_parabolic_examples(a3, s4):
    w = parse_element(a3, "3412")
    a, d = left_parabolic_decomposition(w, {2})
    assert a == from_word(a3, [2])
    assert d.length == 3
    for w in s4:
        assert left_parabolic_decomposition(w, ()) == (identity(a3), w)
        assert left_parabolic_decomposition(w, {1, 2, 3}) == (w, identity(a3))


def test_longest_element(a2, a3):
    assert longest_element(a2, ()).is_identity()
    w = longest_element(a2, {1, 2})
    assert w == from_word(a2, [1, 2, 1]) and w.length == 3
    w13 = longest_element(a3, {1, 3})
    assert w13 == from_word(a3, [1, 3]) and w13.length == 2
    for i in (1, 3):
        assert i in right_descents(w13) and i in left_descents(w13)


def test_enumerate_group_counts(a1, a2, b2):
    assert len(enumerate_group(a1)) == 2
    assert len(enumerate_group(a2)) == 6
    assert len(enumerate_group(b2)) == 8
    elements = enumerate_group(a2)
    assert len(set(elements)) == len(elements)


def test_enumeration_cap_refused():
    e7 = root_system("E", 7)
    with pytest.raises(GroupTooLargeError) as err:
        enumerate_group(e7)
    assert err.value.order == 2903040
    assert "2903040" in str(err.value)


def test_word_string(a2):
    assert word_string(identity(a2)) == "id"
    assert word_string(from_word(a2, [2, 1])) == "2.1"


def test_action_permutes_signed_roots(b2, g2_group):
    for group in (enumerate_group(b2), g2_group):
        rs = group[0].system
        signed = set(rs.positive_roots) | {
            tuple(-c for c in r) for r in rs.positive_roots}
        for w in group:
            assert {apply_to_root(w, r) for r in signed} == signed


def act(rs, word, root):
    """Independent model: the product of the simple reflections in ``word``
    acts on a root by applying them one by one, rightmost first."""
    for i in reversed(word):
        root = simple_reflect(rs, i, root)
    return root


def test_representation_against_word_model(b3_group, g2_group, d4_group):
    for group in (b3_group, g2_group, d4_group):
        rs = group[0].system
        signed = rs.positive_roots + tuple(
            tuple(-c for c in r) for r in rs.positive_roots)

        def negative(root):
            return any(c < 0 for c in root)

        for w in group:
            word = reduced_word(w)
            for r in signed:
                assert apply_to_root(w, r) == act(rs, word, r)
                assert (apply_to_root(inverse(w), r)
                        == act(rs, word[::-1], r))
            assert w.length == len(word) == sum(
                negative(act(rs, word, r)) for r in rs.positive_roots)
            images = [act(rs, word, rs.simple_root(j))
                      for j in range(1, rs.rank + 1)]
            assert right_descents(w) == {
                j for j, img in enumerate(images, start=1) if negative(img)}
            # sort_key: length, then the matrix whose column j is w(alpha_j)
            matrix = tuple(tuple(img[r] for img in images)
                           for r in range(rs.rank))
            assert w.sort_key() == (len(word), matrix)


#: sha256 of the positive roots, the simple reflections' permutations and
#: the reflections' permutations, in that order (``_perm_digest``), on both
#: sides of 256 signed roots and at the rank ceilings.
PERM_DIGESTS = {
    "A15": "4c611e1d520a8e5ee63942ba04ca6f2bbddd92a2c2ccdea104732b18e42d388c",
    "A16": "1461c6ae8eca4761c292e7e0ad7e300337bece8dd5c61eebd7982371173cee66",
    "A45": "8d00377df87ee1a8330c3250ad64e707ff2f96ecd9d059ae503adaef00c74ce3",
    "B11": "4c8827397e1e792b519bf56447e3ea4a945caa571db40594e72f546f6723ee61",
    "B12": "db3da056d8ced202c97b72521ae0c9fd99a045aa26b180754c537c0c99d19dd4",
    "B32": "da140b11b808ee712c262c01fd53bf4e1dc781193eb67251db1a5151849431df",
    "C32": "a5a72d695bf1e3e09f2e552b5f8b8f88cfd9b5c53c8574aeed0bff67d8ad42d5",
    "D32": "2b028540cf13207cb1d4468c40b9eec4c68be78eee18277c42609c1b5c4cb5f4",
    "E6": "ca7a1f42f8cc73cf6243bde5867b931c2cf50421b03e421a36e93a050231b0ae",
    "E7": "6aa0a1e85dc39d05ee900b1c4cfd9e6672414e69a2588a73c8116496accbbcfc",
    "E8": "2ee3a07fdc0aec8c97d2d92a7167f5c7ccce10faaaee23493a2bf9e7c41bf8ae",
    "F4": "0bdb731be32c454021ea58357a7bfc4b065e0b21dea656e63d5a95dad4ca92bf",
    "G2": "b44b8f8f86388835f753bc180bf1c951e7ee6215cde40f8ab1141dff7a79edce",
}


def _perm_digest(rs):
    h = hashlib.sha256(repr(rs.positive_roots).encode())
    for perm in (*rs.simple_perms, *(s.perm for s in _reflections(rs))):
        h.update(repr(tuple(perm)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PERM_DIGESTS))
def test_permutation_digests(name):
    # The roots and every reflection's permutation are pinned, so a new way
    # of building them must give the same entries in the same order.  A
    # private system keeps the large ones out of the shared registry.
    rs = build_root_system(name[0], int(name[1:]))
    assert _perm_digest(rs) == PERM_DIGESTS[name]


@pytest.mark.parametrize("family,rank", [("A", 15), ("A", 16), ("B", 11),
                                         ("B", 12), ("D", 12), ("E", 8)])
def test_permutations_on_both_sides_of_256_signed_roots(family, rank):
    # A permutation is bytes exactly when every position fits in a byte;
    # products, inverses and words must agree with the model either way.
    # A private system keeps these six out of the shared registry.
    rs = build_root_system(family, rank)
    small = len(rs.signed_roots) <= 256
    assert small == ((family, rank) in {("A", 15), ("B", 11), ("E", 8)})
    rng = random.Random(f"{family}{rank}")

    def random_word(length):
        w, word = identity(rs), []
        while len(word) < length:
            i = rng.randint(1, rs.rank)
            if i not in right_descents(w):
                w, word = multiply(w, simple_reflection(rs, i)), word + [i]
        return w, word

    for _ in range(3):
        (u, u_word), (v, v_word) = random_word(12), random_word(9)
        uv = multiply(u, v)
        assert from_word(rs, u_word + v_word) is uv
        assert all(type(x.perm) is (bytes if small else tuple)
                   for x in (u, v, uv, inverse(uv)))
        for r in rs.signed_roots:
            assert (apply_to_root(uv, r)
                    == apply_to_root(u, apply_to_root(v, r))
                    == act(rs, u_word + v_word, r))
        assert inverse(inverse(uv)) is uv
    w0 = longest_element(rs, range(1, rs.rank + 1))
    assert inverse(w0) is w0 and multiply(w0, w0) is identity(rs)


@pytest.mark.parametrize("rank", [16, 30, 45])
def test_tuple_path_against_permutations(rank):
    # A16 and up have more than 256 signed roots, so their elements are
    # tuples; seeded products, lengths, right descents and Bruhat order
    # against permutations of 1..rank+1, each built from its word alone.
    rs = build_root_system("A", rank)
    assert rs.perm_type is tuple
    n = rank + 1
    rng = random.Random(f"tuple path A{rank}")
    for _ in range(4):
        x_word, y_word = ([rng.randint(1, rank) for _ in range(rank)]
                          for _ in range(2))
        x, y = from_word(rs, x_word), from_word(rs, y_word)
        px, py = perm_from_word(n, x_word), perm_from_word(n, y_word)
        xy, pxy = multiply(x, y), perm_mul(px, py)
        assert type(xy.perm) is tuple
        assert xy.length == perm_length(pxy)
        assert right_descents(xy) == perm_right_descents(pxy)
        assert perm_from_word(n, reduced_word(xy)) == pxy
        # A subword of a reduced word of xy is below xy.
        z_word = [i for i in reduced_word(xy) if rng.random() < 0.8]
        z, pz = from_word(rs, z_word), perm_from_word(n, z_word)
        for a, b, pa, pb in [(x, y, px, py), (y, x, py, px),
                             (z, xy, pz, pxy), (xy, z, pxy, pz)]:
            assert bruhat_le(a, b) == perm_bruhat_le(pa, pb)
        assert bruhat_le(z, xy)


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 4), ("G", 2),
                                         ("D", 4), ("F", 4), ("E", 6),
                                         ("A", 16), ("B", 12), ("E", 8)])
def test_reflections_act_by_coroot_pairing(family, rank):
    # s_alpha(x) = x - <x, alpha^vee> alpha on every signed root; A16 has
    # 272 signed roots and B12, with two root lengths, 288, so their
    # permutations are tuples, not bytes.  B12 and E8 check 24 seeded
    # roots alpha, the others every positive root.
    rs = root_system(family, rank)
    signed = rs.positive_roots + tuple(
        tuple(-c for c in r) for r in rs.positive_roots)
    alphas = rs.positive_roots
    if (family, rank) in {("B", 12), ("E", 8)}:
        alphas = random.Random(f"{family}{rank}").sample(alphas, 24)
    for alpha in alphas:
        s = reflection(rs, alpha)
        assert s.length % 2 == 1
        for x in signed:
            c = coroot_pairing(rs, x, alpha)
            assert apply_to_root(s, x) == tuple(
                a - c * b for a, b in zip(x, alpha))


def test_reflection_refuses_what_is_not_a_positive_root(a2):
    for root in ((-1, 0), (5, 7)):
        with pytest.raises(InvalidInputError) as err:
            reflection(a2, root)
        assert str(err.value) == (
            f"{root} is not a positive root of this system")


_OPERATOR_WORDS = [(), (1,), (2, 1), (1, 2, 3), (3, 2, 1, 2), (1, 3, 2, 1, 3)]


@pytest.mark.parametrize("family,rank,perm_type", [("A", 3, bytes),
                                                   ("A", 16, tuple)])
def test_operators_are_multiply_and_inverse(family, rank, perm_type):
    # A3 has 12 signed roots, so bytes permutations; A16 has 272, tuples.
    rs = root_system(family, rank)
    assert rs.perm_type is perm_type
    elements = [from_word(rs, word) for word in _OPERATOR_WORDS]
    for x in elements:
        assert ~x is inverse(x)
        for y in elements:
            assert x * y is multiply(x, y)


@pytest.mark.parametrize("family,rank,perm_type", [("F", 4, bytes),
                                                   ("A", 16, tuple)])
def test_inverse_inverts_the_permutation(family, rank, perm_type):
    # The operator words, then (on bytes) every element of a fresh F4 (48
    # signed roots; A16 has 272, tuples): the inverse sends w(k) back to k,
    # and inverting twice gives the element itself.  The words come first:
    # enumeration reads inverses, and with wrong ones need not end.
    rs = build_root_system(family, rank)
    assert rs.perm_type is perm_type

    def check(elements):
        for w in elements:
            inv = inverse(w).perm
            assert all(inv[p] == k for k, p in enumerate(w.perm))
            assert inverse(inverse(w)) is w

    check([from_word(rs, word) for word in _OPERATOR_WORDS])
    if perm_type is bytes:
        check(enumerate_group(rs))


def _elements(family, rank, top):
    # The whole group, or with ``top`` the elements of the words of length
    # at most top, each once.
    rs = root_system(family, rank)
    if top is None:
        return rs, enumerate_group(rs)
    words = words_up_to(rank, top)
    return rs, list(dict.fromkeys(from_word(rs, word) for word in words))


@pytest.mark.parametrize("family,rank,top", [("B", 3, None), ("G", 2, None),
                                             ("A", 16, 2)])
def test_left_factor_products_are_compose(family, rank, top):
    # A product through a kept table x + pad is the one-off product, on
    # bytes for every pair of B3 and G2, and on tuples for A16 (272 signed
    # roots) over its words of length at most 2.  On bytes the product is
    # ``bytes.translate`` itself, so it runs no Python frame.  The kept
    # tables of the simple reflections are made by the same rule.
    rs, elements = _elements(family, rank, top)
    assert (rs.apply is bytes.translate) == (rs.perm_type is bytes)
    assert len(rs.simple_tables) == rank
    for s, t in zip(rs.simple_perms, rs.simple_tables):
        assert t == s + rs.pad
    for x in elements:
        t = x.perm + rs.pad
        for y in elements:
            xy = rs.apply(y.perm, t)
            assert type(xy) is rs.perm_type
            assert xy == _compose(rs, x.perm, y.perm)
            assert list(xy) == [x.perm[k] for k in y.perm]


@pytest.mark.parametrize("family,rank,top", [("A", 1, None), ("G", 2, None),
                                             ("B", 4, None), ("F", 4, None),
                                             ("A", 16, 2)])
def test_descent_key_reads_left_descents(family, rank, top):
    # The levi_table scan keys each element by the signs of w^-1 at the
    # simple positions: one product by the table of the signs of all
    # positions and one itemgetter (an int at rank 1).  The key must spell
    # out D_L(w), and over a whole group meet every subset, as w_0(I) has
    # left descents I.
    rs, elements = _elements(family, rank, top)
    n_pos = len(rs.positive_roots)
    signs = rs.perm_type(k >= n_pos for k in range(2 * n_pos)) + rs.pad
    read = itemgetter(*rs.simple_positions)
    seen = {}
    for w in elements:
        key = read(rs.apply(inverse(w).perm, signs))
        bits = key if rank > 1 else (key,)
        descents = frozenset(i for i, bit in enumerate(bits, 1) if bit)
        assert descents == left_descents(w)
        assert seen.setdefault(key, descents) == descents
    if top is None:
        assert len(seen) == 2 ** rank


def _degree_distribution(degrees):
    # product over degrees d of (1 + q + ... + q^(d-1)), as coefficients
    coeffs = [1]
    for d in degrees:
        nxt = [0] * (len(coeffs) + d - 1)
        for k, c in enumerate(coeffs):
            for j in range(d):
                nxt[k + j] += c
        coeffs = nxt
    return coeffs


def test_length_distribution_matches_degrees(s4, b3_group, g2_group, b2):
    # independent oracle: the length generating function factors over the
    # classical degrees of the group
    cases = [(s4, (2, 3, 4)), (b3_group, (2, 4, 6)),
             (g2_group, (2, 6)), (list(enumerate_group(b2)), (2, 4))]
    for group, degrees in cases:
        expected = _degree_distribution(degrees)
        got = [0] * len(expected)
        for w in group:
            got[w.length] += 1
        assert got == expected
        # exactly one longest element, of length = number of positive roots
        rs = group[0].system
        assert len(expected) - 1 == len(rs.positive_roots)


def _closure_under_right_multiplication(rs):
    # Breadth-first closure of the identity under right multiplication by
    # the generators, keeping a set of the elements seen.
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    start = identity(rs)
    seen = {start}
    out = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                x = multiply(w, g)
                if x not in seen:
                    seen.add(x)
                    out.append(x)
                    nxt.append(x)
        frontier = nxt
    return out


def _least_words(group):
    # min(all_reduced_words(w)) for every w, as a table: the reduced words
    # of w are the words (i,) + t with i a left descent and t a reduced
    # word of s_i w, so the least one is the least of the (i,) + least(s_i w).
    least = {}
    for w in sorted(group, key=lambda x: x.length):
        least[w] = min(
            ((i,) + least[multiply(simple_reflection(w.system, i), w)]
             for i in left_descents(w)), default=())
    return least


ORACLE_GROUPS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
                 ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_enumeration_and_words_against_oracles(family, rank):
    # A fresh system, so that no word is known before the test asks for it.
    rs = build_root_system(family, rank)
    group = enumerate_group(rs)
    assert len(group) == len(set(group)) == weyl_group_order(family, rank)
    lengths = [w.length for w in group]
    assert lengths == sorted(lengths)
    closure = _closure_under_right_multiplication(rs)
    assert set(group) == set(closure)
    # The group comes in canonical order: by length, then by least reduced
    # word, as the oracle finds it, not as the construction wrote it.
    least = _least_words(group)
    assert list(group) == sorted(group, key=lambda w: (w.length, least[w]))
    for w in group:
        word = reduced_word(w)
        assert word == least[w]
        assert from_word(rs, word) is w
        if family == "A" and rank <= 4:
            # The full sets of words of S_6 take about 230 MB, so A5 is
            # checked against the least word in the permutation model.
            p = perm_from_word(rank + 1, word)
            assert word == min(perm_reduced_words(p))
        elif family == "A":
            assert word == perm_least_reduced_word(
                perm_from_word(rank + 1, word))
        elif w.length <= 8:
            assert word == min(all_reduced_words(w))
    # canonical_order sorts the closure's breadth-first order into the same.
    assert canonical_order(closure) == list(group)


@pytest.mark.parametrize("family,rank", [("B", 4), ("F", 4)])
def test_words_in_any_order(monkeypatch, family, rank):
    # Longest first, each element made by from_word, which records no word,
    # so each walk goes down a chain of unknown words: one step per letter.
    fresh = build_root_system(family, rank)
    steps = [0]
    real = bruhatkit.weyl._simple_times

    def counting(rs, word, p):
        steps[0] += len(word)
        return real(rs, word, p)

    monkeypatch.setattr(bruhatkit.weyl, "_simple_times", counting)
    for w in reversed(enumerate_group(root_system(family, rank))):
        expected = reduced_word(w)
        x = from_word(fresh, expected)
        before = steps[0]
        assert reduced_word(x) == expected
        assert steps[0] - before == len(expected)


def test_reduced_word_of_long_element_needs_no_recursion():
    # w_0 of A30 has 465 letters; a recursive walk would need a frame per
    # letter and fail under this limit.
    n = 31
    rs = build_root_system("A", n - 1)
    w0 = longest_element(rs, range(1, n))
    expected = perm_least_reduced_word(tuple(range(n, 0, -1)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        word = reduced_word(w0)
    finally:
        sys.setrecursionlimit(limit)
    assert len(word) == 465
    assert word == expected


def test_reduced_word_walk_is_bounded(monkeypatch):
    # With a wrong left step the descent walk never reaches the identity.
    # It stops after l(w) steps with an error, where an unbounded walk would
    # grow its chain until memory ran out; the guard ends such a walk.
    rs = build_root_system("B", 3)
    w = longest_element(rs, range(1, 4))
    calls = [0]

    def wrong(rs, word, p):
        calls[0] += 1
        if calls[0] > 1000:
            pytest.fail("the descent walk has no step bound")
        return p

    monkeypatch.setattr(bruhatkit.weyl, "_simple_times", wrong)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="after 9 descents"):
        reduced_word(w)
    assert time.perf_counter() - start < 1
    assert calls[0] == 9


def _levi_closure(rs, sub):
    """W_I, by closing the identity under right products by the s_i, i in
    I."""
    gens = [simple_reflection(rs, i) for i in sub]
    group = frontier = {identity(rs)}
    while frontier:
        frontier = {multiply(x, s) for x in frontier for s in gens} - group
        group = group | frontier
    return group


@pytest.mark.parametrize("family,rank", [("B", 3), ("G", 2), ("D", 4),
                                         ("F", 4), ("A", 16)])
def test_longest_element_is_longest_in_levi_and_interned_alone(family,
                                                               rank):
    # w_0(I) is built on raw permutations, so a fresh system holds only it
    # afterwards.  Every subset, against the longest of the elements of
    # the enumerated group with support in I; on A16, whose group is too
    # large to enumerate (tuple permutations), some subsets against the
    # longest element of W_I closed under products.
    rs = root_system(family, rank)
    if rs.perm_type is bytes:
        group = enumerate_group(rs)
        levis = {sub: [w for w in group if support(w) <= set(sub)]
                 for size in range(rank + 1)
                 for sub in combinations(range(1, rank + 1), size)}
    else:
        levis = {sub: _levi_closure(rs, sub)
                 for sub in [(), (16,), (1, 2, 3), (2, 5, 6, 16),
                             (9, 10, 11, 12)]}
    for sub, levi in levis.items():
        top = max(w.length for w in levi)
        (expected,) = [w for w in levi if w.length == top]
        fresh = build_root_system(family, rank)
        w0 = longest_element(fresh, sub[::-1])
        assert w0.perm == expected.perm
        assert list(fresh.element_cache.values()) == [w0]


@pytest.mark.parametrize("family,rank", [("B", 3), ("G", 2), ("F", 4),
                                         ("A", 16)])
def test_walk_word_strings_join_the_words(family, rank):
    # Each walked element's string is made by one concatenation onto that
    # of the element below it; it is the word joined by dots, "" for the
    # identity (the scans print "id").  A16 up to length 2.
    rs = build_root_system(family, rank)
    for toric in (False, True):
        layers = _layers(rs, toric)
        if rs.perm_type is tuple:
            layers = islice(layers, 3)
        walked = list(chain.from_iterable(layers))
        for _, _, word, text in walked:
            assert text == ".".join(map(str, word))
        assert walked[0][3] == ""
        assert len({text for *_, text in walked}) == len(walked)


@pytest.mark.parametrize("family,rank", [("B", 3), ("F", 4)])
def test_layer_walk_is_bounded(monkeypatch, family, rank):
    # With both products of the walk wrong, y = s_i x by ``apply`` and
    # y^-1 = x^-1 s_i by ``_compose``, every element is the identity, so
    # the descent test admits repeats, and the layers grow without end (F4:
    # millions of triples by layer 10).  No correct layer is longer than N,
    # and no correct walk makes more than |W| elements, so the walk stops
    # at once with an error.
    rs = build_root_system(family, rank)
    calls = [0]

    def count():
        calls[0] += 1
        if calls[0] > 100_000:
            pytest.fail("the layer walk has no bound")

    def wrong(rs, p, q):  # x^-1 s_i is x^-1
        count()
        return p

    def wrong_apply(q, table):  # s_i x is x
        count()
        return q

    monkeypatch.setattr(bruhatkit.weyl, "_compose", wrong)
    monkeypatch.setattr(rs, "apply", wrong_apply)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="layer"):
        list(_layers(rs))
    assert time.perf_counter() - start < 1
    assert not rs.element_cache


@pytest.mark.parametrize("family,rank", [("B", 3), ("G", 2), ("D", 4)])
def test_levi_factor_is_longest_element(family, rank):
    # For I in D_L(w) the left parabolic factor of w is w_0(I), so the
    # coset factor is w_0(I) w.
    rs = root_system(family, rank)
    for w in enumerate_group(rs):
        descents = sorted(left_descents(w))
        for size in range(len(descents) + 1):
            for sub in combinations(descents, size):
                w0 = longest_element(rs, sub)
                assert left_parabolic_decomposition(w, sub) == (
                    w0, multiply(w0, w))
