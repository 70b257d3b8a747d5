import pytest

from bruhatkit import (GroupTooLargeError, InvalidInputError,
                       all_reduced_words, apply_to_root, enumerate_group,
                       from_word, identity, inverse, left_descents,
                       left_inversions, left_parabolic_decomposition,
                       longest_element, multiply, reduced_word,
                       right_descents, right_inversions,
                       right_parabolic_decomposition, root_system,
                       simple_reflect, support, word_string)
from bruhatkit.cli import element_to_oneline, parse_element
from bruhatkit.weyl import reflection
from oracles import (perm_from_word, perm_left_descents, perm_length,
                     perm_reduced_words, perm_right_descents,
                     perm_right_inversion_roots, perm_support)


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
                mapped = {u.apply(r) for r in left_inversions(v)}
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
            assert {w.apply(r) for r in signed} == signed


def test_representation_against_word_model(b3_group, g2_group, d4_group):
    # independent model: w acts on a root by applying the simple
    # reflections of its reduced word one by one, rightmost first
    for group in (b3_group, g2_group, d4_group):
        rs = group[0].system
        signed = rs.positive_roots + tuple(
            tuple(-c for c in r) for r in rs.positive_roots)

        def act(word, root):
            for i in reversed(word):
                root = simple_reflect(rs, i, root)
            return root

        def negative(root):
            return any(c < 0 for c in root)

        for w in group:
            word = reduced_word(w)
            for r in signed:
                assert w.apply(r) == act(word, r)
                assert inverse(w).apply(r) == act(word[::-1], r)
            assert w.length == len(word) == sum(
                negative(act(word, r)) for r in rs.positive_roots)
            images = [act(word, rs.simple_root(j))
                      for j in range(1, rs.rank + 1)]
            assert right_descents(w) == {
                j for j, img in enumerate(images, start=1) if negative(img)}
            # sort_key: length, then the matrix whose column j is w(alpha_j)
            matrix = tuple(tuple(img[r] for img in images)
                           for r in range(rs.rank))
            assert w.sort_key() == (len(word), matrix)


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 4), ("G", 2),
                                         ("D", 4), ("F", 4), ("E", 6)])
def test_reflections_act_by_coroot_pairing(family, rank):
    # s_alpha(x) = x - <x, alpha^vee> alpha on every signed root
    rs = root_system(family, rank)
    signed = rs.positive_roots + tuple(
        tuple(-c for c in r) for r in rs.positive_roots)
    for alpha in rs.positive_roots:
        s = reflection(rs, alpha)
        assert s.length % 2 == 1
        for x in signed:
            c = rs.coroot_pairing(x, alpha)
            assert s.apply(x) == tuple(a - c * b for a, b in zip(x, alpha))


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
