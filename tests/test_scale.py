"""Cross-checks at the ranks the formulas claim: E7, E8, and B12, D12, C14
and A20, whose permutations are tuples (2N > 256), against ``oracles.py``.

Each random 40-letter word gives an element w, and a random subword of its
least reduced word gives u.  Then w must send the simple roots where the
word does over the Cartan matrix (which the 143-matrix digest pins); its
least reduced word must act as the word does, with length l(w) counted
without the permutation; u <= w must hold (the subword property,
Björner-Brenti, GTM 231, Thm. 2.2.2); and ad(u, w) must be the rank of the
labels along one saturated chain.  On A20 and B12 the right-descent walk
on raw permutations must also record the labels of the walk on interned
elements, for comparable and random pairs, and the Deodhar mask search,
which also steps on raw permutations, must find the live moves of two
whole passes on interned elements and masks that ``build_subexpression``
rebuilds.  The seeds are fixed.
"""

import random

import pytest

from bruhatkit import (ad, apply_to_root, bruhat_le, build_root_system,
                       enumerate_distinguished, from_word, identity,
                       reduced_word, right_descents)
from bruhatkit.bruhat import descent_labels
from bruhatkit.deodhar import _live_moves, build_subexpression
from oracles import (ad_via_chain, element_descent_labels, fraction_rank,
                     times_simple, two_pass_live_moves, word_action,
                     word_length)

# (family, rank, words, chain checks).  A chain step tries the reflections
# in root order until one gives a cover <= w, so the tuple systems, with far
# longer chains and far more roots, take few chain checks.
SYSTEMS = [("E", 7, 40, 40), ("E", 8, 40, 40), ("B", 12, 40, 6),
           ("D", 12, 40, 6), ("C", 14, 40, 4), ("A", 20, 40, 3)]


@pytest.mark.parametrize("family,rank,words,chains", SYSTEMS,
                         ids=[f"{f}{r}" for f, r, _, _ in SYSTEMS])
def test_random_words_agree_with_the_oracles(family, rank, words, chains):
    rs = build_root_system(family, rank)
    assert rs.perm_type is (tuple if family != "E" else bytes)
    rng = random.Random(f"{family}{rank}")
    for k in range(words):
        word = [rng.randint(1, rank) for _ in range(40)]
        w = from_word(rs, word)
        images = word_action(rs.cartan, word)
        assert tuple(apply_to_root(w, rs.simple_root(i))
                     for i in range(1, rank + 1)) == images
        least = reduced_word(w)
        assert word_action(rs.cartan, least) == images
        assert len(least) == w.length == word_length(
            rs.cartan, rs.positive_roots, word)
        u = from_word(rs, [i for i in least if rng.random() < 0.5])
        assert bruhat_le(u, w)
        if k < chains:
            assert ad(u, w) == fraction_rank(ad_via_chain(u, w))


@pytest.mark.parametrize("family,rank", [("A", 20), ("B", 12)])
def test_descent_walk_matches_element_walk_on_tuples(family, rank):
    # Half the u are subwords of v's least reduced word, so u <= v; the
    # other half are random words, mostly not below v.
    rs = build_root_system(family, rank)
    assert rs.perm_type is tuple
    rng = random.Random(f"walk/{family}{rank}")
    comparable = 0
    for k in range(40):
        v = from_word(rs, [rng.randint(1, rank) for _ in range(30)])
        u = from_word(rs, [i for i in reduced_word(v) if rng.random() < 0.7]
                      if k % 2 else
                      [rng.randint(1, rank) for _ in range(rng.randint(0, 20))])
        expected = element_descent_labels(u, v)
        assert descent_labels(u, v) == expected
        comparable += expected is not None
    assert 20 <= comparable < 40


@pytest.mark.parametrize("family,rank", [("A", 20), ("B", 12)])
def test_mask_search_matches_two_passes_on_tuples(family, rank):
    # A seeded 12-letter reduced word v over the last five simple indices,
    # which braid, so u = id has many masks; for u the identity, two
    # subwords of it (so u <= v) and a random word over those indices.
    rs = build_root_system(family, rank)
    assert rs.perm_type is tuple
    rng = random.Random(f"masks/{family}{rank}")
    v, word = identity(rs), []
    while len(word) < 12:
        i = rng.randint(rank - 4, rank)
        if i not in right_descents(v):
            v, word = times_simple(v, i), word + [i]
    us = [identity(rs)] + [
        from_word(rs, [i for i in word if rng.random() < 0.5])
        for _ in range(2)] + [
        from_word(rs, [rng.randint(rank - 4, rank) for _ in range(6)])]
    masks = 0
    for u in us:
        assert _live_moves(rs, tuple(word), u) == two_pass_live_moves(
            rs, word, u)
        for se in enumerate_distinguished(word, u):
            assert se == build_subexpression(rs, word, se.choices)
            masks += 1
    assert masks > 10 * len(us)
