"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks
at desk scale, each printing a PASS/FAIL line with its runtime.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import time
from itertools import combinations

from bruhatkit import (ad, bruhat_le, canonical_order,
                       enumerate_distinguished, enumerate_group,
                       deodhar_polynomial, identity, interval, is_toric,
                       is_toric_partial, left_descents,
                       left_parabolic_decomposition, levi_acts,
                       levi_borel_complexity, longest_element,
                       max_toric_below_top, multiply,
                       partial_stabilizer_descents, positive_distinguished,
                       reduced_word, right_descents,
                       right_parabolic_decomposition, root_system, span_rank,
                       support, torus_complexity_richardson,
                       torus_complexity_schubert, word_string)
from bruhatkit.cli import main, parse_element
from bruhatkit.deodhar import SKIP
from bruhatkit.weyl import simple_reflection
from oracles import (ad_direct, all_reduced_words, echelon_basis,
                     lower_covers, root_of_pair, td_span)
from sweeps import check_four_way_agreement, comparable_pairs


def _criterion(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} runtime {elapsed:.2f}s exceeds the "
            f"{budget_seconds}s target")
    print(f"[criterion {number}] PASS ({elapsed:.2f}s)  {description}")


def _subsets(rank):
    return [frozenset(c) for size in range(rank + 1)
            for c in combinations(range(1, rank + 1), size)]


def test_criterion_1_interval_golden(a3):
    def body():
        u = parse_element(a3, "1324")
        v = parse_element(a3, "3412")
        assert interval(u, v).rank_sizes() == (1, 4, 4, 1)
        iv2 = interval(identity(a3), parse_element(a3, "3142"))
        assert iv2.rank_sizes() == (1, 3, 3, 1)
        labels_v = {e.label for e in lower_covers(v)}
        assert labels_v == {root_of_pair(1, 3, 3), root_of_pair(2, 3, 3),
                            root_of_pair(1, 4, 3), root_of_pair(2, 4, 3)}
        labels_w = {e.label for e in lower_covers(parse_element(a3, "3142"))
                    if e.lower in iv2.elements}
        assert labels_w == {root_of_pair(1, 3, 3), root_of_pair(2, 3, 3),
                            root_of_pair(2, 4, 3)}
        assert span_rank(labels_v) == 3
        assert span_rank(labels_w) == 3
        assert echelon_basis(labels_v) == echelon_basis(labels_w)

    _criterion(1, "interval [1324,3412]: rank sizes, cover labels, "
                  "equal rank-3 spans", 1.0, body)


def test_criterion_2_subexpression_golden(a2):
    def body():
        subexprs = enumerate_distinguished([1, 2, 1], identity(a2))
        assert len(subexprs) == 2
        shapes = sorted((len(se.j_circ), len(se.j_minus)) for se in subexprs)
        assert shapes == [(1, 1), (3, 0)]
        assert all(td_span(se) == 2 for se in subexprs)
        positives = [se for se in subexprs if se.is_positive()]
        assert len(positives) == 1
        assert positives[0].choices == (SKIP, SKIP, SKIP)
        assert positives[0] == positive_distinguished([1, 2, 1],
                                                      identity(a2))

    _criterion(2, "masks over 1.2.1 at u=id: two distinguished, shapes "
                  "(3,0)/(1,1), td=2, unique positive", 1.0, body)


def test_criterion_3_toric_golden(a3, a4):
    def body():
        u = parse_element(a3, "1324")
        v = parse_element(a3, "4231")
        assert len(interval(u, v)) == 16
        assert not is_toric(u, v)
        assert is_toric(identity(a4), parse_element(a4, "51234"))

    _criterion(3, "[1324,4231] has 16 elements, not toric; "
                  "[12345,51234] toric", 1.0, body)


def test_criterion_4_four_way_ad_agreement(s4, b3_group, g2_group):
    def body():
        for group in (s4, b3_group, g2_group):
            for u, v in comparable_pairs(group):
                check_four_way_agreement(u, v)

    _criterion(4, "ad agreement (direct, covers at both ends, every chain, "
                  "recursion over every descent) on all S4, B3, G2 "
                  "intervals", 120.0, body)


def test_criterion_5_td_suite(s4, b3_group, g2_group):
    c3_group = canonical_order(enumerate_group(root_system("C", 3)))

    def body():
        # (group, every reduced word of v, or only the least one)
        for group, every_word in ((s4, True), (g2_group, True),
                                  (b3_group, False), (c3_group, False)):
            for u, v in comparable_pairs(group):
                space = echelon_basis(ad_direct(u, v))
                td = ad(u, v)
                assert len(space) == td
                words = (sorted(all_reduced_words(v)) if every_word
                         else [reduced_word(v)])
                polynomials = set()
                for word in words:
                    positive = positive_distinguished(word, u)
                    assert positive.td == td
                    subexprs = enumerate_distinguished(word, u)
                    assert sum(1 for se in subexprs if se.is_positive()) == 1
                    for se in subexprs:
                        # equality: every mask's betas span L(u, v)
                        assert se.td == td
                        assert echelon_basis(
                            beta for _, beta in se.betas) == space
                    polynomials.add(deodhar_polynomial(word, u))
                assert len(polynomials) == 1

    _criterion(5, "every distinguished mask over every reduced word in S4 "
                  "and G2, and over the least word in B3 and C3: betas "
                  "span L(u, v) and td = ad, mask-census polynomial "
                  "word-invariance", 600.0, body)


def test_criterion_6_schubert_richardson_coherence(s4, s5, b3_group,
                                                   g2_group):
    def body():
        for group in (s5, b3_group, g2_group):
            e = identity(group[0].system)
            for w in group:
                schubert = torus_complexity_schubert(w)
                richardson = torus_complexity_richardson(e, w)
                assert schubert.value == richardson.value, word_string(w)
        for u, v in comparable_pairs(s4):
            assert max_toric_below_top(u, v)[1] == ad(u, v)

    _criterion(6, "Schubert = Richardson-from-identity complexity on S5, "
                  "B3, G2; dual max-toric reproduces ad on all S4 "
                  "intervals", 300.0, body)


def test_criterion_7_levi_suite(s4, b3_group):
    def body():
        for group in (s4, b3_group):
            rs = group[0].system
            for w in group:
                for sub in _subsets(rs.rank):
                    action = levi_acts(sub, w)
                    assert action.descent_containment == \
                        action.factor_equality
                    if not action.acts:
                        continue
                    a, d = left_parabolic_decomposition(w, sub)
                    assert multiply(a, d) == w
                    assert a.length + d.length == w.length
                    assert support(a) <= sub
                    assert not (left_descents(d) & sub)
                    report = levi_borel_complexity(sub, w)
                    assert report.value == d.length - len(support(d))
                    if not sub:
                        assert report.value == \
                            torus_complexity_schubert(w).value

    _criterion(7, "Levi-Borel complexity = l(d) - supp(d) with both action "
                  "criteria agreeing, all (I, w) in S4 and B3", 120.0, body)


def test_criterion_8_partial_flag_suite(a3, s4):
    def body():
        gens = {i: simple_reflection(a3, i) for i in (1, 2, 3)}
        for j_sub in _subsets(3):
            w0j = longest_element(a3, j_sub)
            minimal = [w for w in s4
                       if not (right_descents(w) & j_sub)]
            for w in minimal:
                stated = partial_stabilizer_descents(w, j_sub)
                assert stated == left_descents(multiply(w, w0j))
                # brute force: stabilizer of the coset union at group level
                span = {y for y in s4
                        if bruhat_le(
                            right_parabolic_decomposition(y, j_sub)[0], w)}
                brute = frozenset(
                    i for i in (1, 2, 3)
                    if {multiply(gens[i], y) for y in span} == span)
                assert stated == brute, (word_string(w), sorted(j_sub))
                # toric classification in the partial flag variety
                repeat_free = all(len(set(word)) == len(word)
                                  for word in all_reduced_words(w))
                assert is_toric_partial(w, j_sub) == repeat_free
                assert is_toric_partial(w, j_sub) == \
                    (w.length == len(support(w)))
                assert is_toric_partial(w, j_sub) == \
                    is_toric(identity(a3), w)

    _criterion(8, "partial-flag stabilizer descents match brute force; "
                  "toric classification = repeat-free reduced words, "
                  "all (w, J) in S4", 60.0, body)


def test_criterion_9_scan_determinism(tmp_path, capsys):
    def body():
        blobs = {}
        for target, fam, rank in (("toric_schubert", "A", "3"),
                                  ("toric_richardson", "A", "2"),
                                  ("levi_table", "B", "2"),
                                  ("complexity_histogram", "B", "2")):
            for form in ("csv", "json"):
                runs = []
                for tag, jobs in (("r1", "1"), ("r2", "1"), ("r3", "7")):
                    path = tmp_path / f"{target}.{form}.{tag}"
                    code = main(["scan", "--type", fam, "--rank", rank,
                                 "--target", target, "--format", form,
                                 "--jobs", jobs, "--out", str(path)])
                    assert code == 0
                    runs.append(path.read_bytes())
                assert runs[0] == runs[1] == runs[2]
                blobs[(target, form)] = runs[0]
        assert all(blob for blob in blobs.values())
        capsys.readouterr()

    _criterion(9, "scans byte-identical across repeated runs and across "
                  "--jobs", None, body)
