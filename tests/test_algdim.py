import random

import pytest

from bruhatkit import (NotComparableError, ad, bruhat_le, build_root_system,
                       from_word, identity, interval, is_toric,
                       max_toric_above_bottom, max_toric_below_top,
                       root_system, span_rank, support)
from bruhatkit.weyl import WeylElement
from bruhatkit.cli import parse_element
from oracles import (ad_direct, ad_via_chain, ad_via_covers_at, echelon_basis,
                     fraction_rank, graph_edges, root_of_pair)
from sweeps import (all_chain_spans, check_four_way_agreement,
                    comparable_pairs)


def test_span_rank_examples():
    assert span_rank([]) == 0
    assert span_rank([(1, 0), (-1, 0)]) == 1
    labels = [root_of_pair(1, 3, 3), root_of_pair(2, 3, 3),
              root_of_pair(1, 4, 3), root_of_pair(2, 4, 3)]
    assert span_rank(labels) == 3


def test_span_rank_against_fraction_oracle(b3, g2):
    rng = random.Random(0)
    for rs in (b3, g2):
        roots = list(rs.positive_roots) + [
            tuple(-c for c in r) for r in rs.positive_roots]
        for _ in range(300):
            sample = rng.sample(roots, rng.randint(0, min(7, len(roots))))
            assert span_rank(sample) == fraction_rank(sample)
    # Every family at its least rank, E8 (coefficients up to 6) and the
    # tuple systems: 0 to 2N rows drawn with repeats, as zero vectors, roots
    # or their multiples 2 and 3, from all signed roots or from those of a
    # random parabolic subsystem, so that long samples fall short of rank.
    systems = [root_system(f, r) for f, r in (
        ("A", 1), ("B", 2), ("C", 2), ("D", 2), ("E", 6), ("F", 4),
        ("G", 2), ("E", 8))]
    systems += [build_root_system("A", 20), build_root_system("B", 12)]
    for rs in systems:
        n = len(rs.positive_roots)
        signed = list(rs.positive_roots) + [
            tuple(-c for c in r) for r in rs.positive_roots]
        sizes = [0, 2 * n, 2 * n] + [rng.randint(0, 2 * n) for _ in range(3)]
        for k, size in enumerate(sizes):
            nodes = set(rng.sample(range(rs.rank), rng.randint(1, rs.rank)))
            roots = signed if k % 2 else [
                r for r in signed
                if all(not c or i in nodes for i, c in enumerate(r))]
            sample = [tuple(m * c for c in rng.choice(roots))
                      for m in rng.choices((0, 1, 1, 1, 2, 3), k=size)]
            rank = fraction_rank(sample)
            assert span_rank(sample) == rank, (rs, sample)
            assert span_rank(r for r in sample) == rank


def test_echelon_basis_is_canonical(b3):
    rng = random.Random(1)
    roots = list(b3.positive_roots)
    for _ in range(100):
        sample = rng.sample(roots, rng.randint(1, 6))
        shuffled = sample[:]
        rng.shuffle(shuffled)
        scaled = [tuple(3 * c for c in r) for r in sample]
        assert echelon_basis(sample) == echelon_basis(shuffled)
        assert echelon_basis(sample) == echelon_basis(scaled)
        assert len(echelon_basis(sample)) == span_rank(sample)


def test_ad_example_values(a3):
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    assert span_rank(ad_direct(u, u)) == 0
    assert span_rank(ad_direct(u, v)) == 3
    other = ad_direct(identity(a3), parse_element(a3, "3142"))
    assert span_rank(other) == 3
    assert echelon_basis(ad_direct(u, v)) == echelon_basis(other)


def test_ad_via_covers_examples(a2, a3):
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    top = ad_via_covers_at(u, v, "top")
    assert set(top) == {
        root_of_pair(1, 3, 3), root_of_pair(2, 3, 3),
        root_of_pair(1, 4, 3), root_of_pair(2, 4, 3)}
    assert span_rank(top) == 3
    bottom = ad_via_covers_at(identity(a2), from_word(a2, [1, 2, 1]),
                              "bottom")
    assert set(bottom) == {(1, 0), (0, 1)}
    assert span_rank(bottom) == 2


def test_ad_via_chain_examples(a3):
    assert span_rank(ad_via_chain(identity(a3),
                                  parse_element(a3, "3142"))) == 3
    u = parse_element(a3, "1324")
    v = parse_element(a3, "4231")
    # every chain has 4 labels but only rank 3
    for space in all_chain_spans(u, v):
        assert len(space) == 3
    chain_labels = ad_via_chain(u, v)
    assert len(chain_labels) == 4 and span_rank(chain_labels) == 3


def test_ad_descent_examples(a3, a4):
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    assert ad(u, u) == 0
    assert ad(u, v) == 3 == span_rank(ad_direct(u, v))
    assert ad(identity(a4), parse_element(a4, "51234")) == 4


def test_four_way_agreement_small(s3, b2):
    from bruhatkit import enumerate_group
    for group in (s3, list(enumerate_group(b2))):
        for u, v in comparable_pairs(group):
            check_four_way_agreement(u, v)


def test_ad_bounded_by_length_difference(s4):
    for u, v in comparable_pairs(s4):
        assert ad(u, v) <= v.length - u.length


def test_ad_from_identity_is_support(s4):
    e = identity(s4[0].system)
    for w in s4:
        assert ad(e, w) == len(support(w))


def test_incident_covers_at_any_element_span_everything(s4):
    # covers incident to any w inside [u, v] span the full edge-label space
    for u, v in comparable_pairs(s4):
        elements = interval(u, v).elements
        covers = [e for e in graph_edges(elements)
                  if e.upper.length == e.lower.length + 1]
        target = echelon_basis(ad_direct(u, v))
        for w in elements:
            labels = [e.label for e in covers if e.lower == w or e.upper == w]
            assert echelon_basis(labels) == target, (u, v, w)


def test_coatom_recurrence(s4):
    # ad(u, v) = rank(AD(u, w) + wt(w, v)) for every coatom w
    for u, v in comparable_pairs(s4):
        if u == v:
            continue
        elements = interval(u, v).elements
        for e in graph_edges(elements):
            if e.upper == v and e.lower.length == v.length - 1:
                gens = ad_direct(u, e.lower) + (e.label,)
                assert span_rank(gens) == ad(u, v)


def test_rank_two_intervals(s4, b3_group, g2_group):
    # both chains of a diamond span the same 2-dimensional space
    for group in (s4, b3_group, g2_group):
        for u, v in comparable_pairs(group):
            if v.length - u.length != 2:
                continue
            spaces = all_chain_spans(u, v)
            assert len(spaces) == 1
            assert len(next(iter(spaces))) == 2
            assert is_toric(u, v)


def test_middle_element_carries_rank(s4):
    # in a diamond x < {y1, y2} < v above u, if ad(u, v) - ad(u, x) = 1 then
    # some middle element y already spans the full space
    for u, x in comparable_pairs(s4):
        for v in s4:
            if v.length - x.length != 2 or not bruhat_le(x, v):
                continue
            middles = [y for y in interval(x, v).elements
                       if y.length == x.length + 1]
            assert len(middles) == 2
            if ad(u, v) - ad(u, x) == 1:
                assert any(ad(u, y) == ad(u, v) for y in middles)


def test_is_toric_examples(a3, a4, s4):
    assert not is_toric(parse_element(a3, "1324"), parse_element(a3, "4231"))
    assert is_toric(identity(a4), parse_element(a4, "51234"))
    for u, v in comparable_pairs(s4):
        if v.length - u.length <= 2:
            assert is_toric(u, v)


def test_max_toric_examples(a3):
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    assert max_toric_above_bottom(u, u) == (u, 0)
    w, value = max_toric_above_bottom(u, v)
    assert value == 3 and w == v
    w2, value2 = max_toric_above_bottom(u, parse_element(a3, "4231"))
    assert value2 == 3
    assert is_toric(u, w2) and w2.length - u.length == 3


def test_max_toric_equals_ad(s4):
    for u, v in comparable_pairs(s4):
        assert max_toric_above_bottom(u, v)[1] == ad(u, v)
        assert max_toric_below_top(u, v)[1] == ad(u, v)


def _reference_witnesses(u, v, group, toric):
    # The first strictly better value in sort_key order, for both searches.
    above = below = None
    inside = [w for w in group if (u, w) in toric and (w, v) in toric]
    for w in sorted(inside, key=WeylElement.sort_key):
        if toric[u, w] and (above is None or w.length - u.length > above[1]):
            above = (w, w.length - u.length)
        if toric[w, v] and (below is None or v.length - w.length > below[1]):
            below = (w, v.length - w.length)
    return above, below


def test_max_toric_witness_exhaustive(s4, b3_group, g2_group):
    for group in (s4, b3_group, g2_group):
        pairs = comparable_pairs(group)
        toric = {(u, v): span_rank(ad_direct(u, v)) == v.length - u.length
                 for u, v in pairs}
        for u, v in pairs:
            above, below = _reference_witnesses(u, v, group, toric)
            assert max_toric_above_bottom(u, v) == above, (u, v)
            assert max_toric_below_top(u, v) == below, (u, v)


def test_rejects_incomparable(a2):
    s1 = from_word(a2, [1])
    s2 = from_word(a2, [2])
    for fn in (ad, is_toric, max_toric_above_bottom, max_toric_below_top):
        with pytest.raises(NotComparableError):
            fn(s1, s2)


def test_sampled_four_way_agreement_s5_d4(s5, d4_group):
    rng = random.Random(0)
    for group in (s5, d4_group):
        checked = 0
        while checked < 1000:
            u = rng.choice(group)
            v = rng.choice(group)
            if u.length <= v.length and bruhat_le(u, v):
                check_four_way_agreement(u, v)
                checked += 1
