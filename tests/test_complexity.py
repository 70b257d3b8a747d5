from functools import lru_cache
from itertools import combinations, islice

import pytest

import bruhatkit.complexity as complexity
import bruhatkit.weyl
from bruhatkit import (FormulaUnavailableError, InvalidInputError,
                       PreconditionError, ad, bruhat_le, build_root_system,
                       canonical_order, enumerate_group,
                       from_word, identity, is_toric, is_toric_partial,
                       left_descents, levi_acts, levi_borel_complexity,
                       left_parabolic_decomposition, longest_element,
                       partial_flag_levi_complexity,
                       partial_flag_torus_complexity,
                       partial_stabilizer_descents, reduced_word,
                       right_descents, root_system, scan, span_rank, support,
                       torus_complexity_richardson,
                       torus_complexity_schubert, word_string)
from bruhatkit.bruhat import descent_labels
from bruhatkit.cli import parse_element
from bruhatkit.complexity import SCAN_TARGETS
from bruhatkit.rootsys import _FAMILIES, FAMILIES
from oracles import (fraction_rank, interval_all_roots, minimal_coset_element,
                     per_subset_histogram, rows_by_words, subword_reachable)
from sweeps import comparable_pairs


def subsets(rank):
    return [frozenset(c) for size in range(rank + 1)
            for c in combinations(range(1, rank + 1), size)]


def test_richardson_examples(a3):
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    assert torus_complexity_richardson(u, u).value == 0
    report = torus_complexity_richardson(u, v)
    assert report.value == 0
    assert report.witness["ad"] == 3
    assert report.witness["length_v"] - report.witness["length_u"] == 3
    report2 = torus_complexity_richardson(u, parse_element(a3, "4231"))
    assert report2.value == 1
    with pytest.raises(PreconditionError):
        torus_complexity_richardson(v, u)


def test_richardson_witness_reconstructs_value(a3):
    u = parse_element(a3, "1324")
    v = parse_element(a3, "4231")
    rep = torus_complexity_richardson(u, v)
    w = rep.witness
    assert rep.value == w["length_v"] - w["length_u"] - w["ad"]
    assert w["max_toric_value"] == w["ad"]
    witness_el = parse_element(a3, w["max_toric_witness"])
    assert is_toric(witness_el, v)
    assert v.length - witness_el.length == w["ad"]


def test_schubert_examples(a2, a4):
    assert torus_complexity_schubert(identity(a2)).value == 0
    assert torus_complexity_schubert(parse_element(a4, "51234")).value == 0
    rep = torus_complexity_schubert(from_word(a2, [1, 2, 1]))
    assert rep.value == 1
    assert rep.witness["support"] == [1, 2]
    assert rep.value == rep.witness["length"] - rep.witness["supp"]


def test_richardson_consistency(s4, b3_group):
    # value >= 0 and value + ad = l(v) - l(u)
    for group in (s4, b3_group):
        for u, v in comparable_pairs(group):
            rep = torus_complexity_richardson(u, v)
            assert rep.value >= 0
            assert rep.value + ad(u, v) == v.length - u.length


def test_levi_acts_examples(a2):
    w = from_word(a2, [1, 2])
    assert levi_acts((), w).acts
    assert levi_acts({1}, w).acts
    assert not levi_acts({2}, w).acts
    assert levi_acts({2}, w).missing == (2,)


def test_levi_acts_two_criteria_agree(a3, s4):
    for w in s4:
        for sub in subsets(3):
            action = levi_acts(sub, w)
            assert action.descent_containment == action.factor_equality
            assert action.acts == (sub <= left_descents(w))
            if action.acts:
                assert action.levi_factor == longest_element(a3, sub)


def test_levi_borel_examples(a2, a3, s4):
    w = parse_element(a3, "3412")
    rep = levi_borel_complexity({2}, w)
    assert rep.value == 0
    assert rep.witness["coset_factor"] == word_string(
        from_word(a3, [1, 3, 2]))
    assert rep.witness["length_d"] == 3 and rep.witness["supp_d"] == 3
    # I = empty reduces to the Schubert torus complexity
    for x in s4:
        assert levi_borel_complexity((), x).value == \
            torus_complexity_schubert(x).value
    # w = w_0(I) for I = its full descent set: value 0
    w0 = longest_element(a2, {1, 2})
    assert levi_borel_complexity({1, 2}, w0).value == 0


def test_levi_borel_precondition(a2):
    with pytest.raises(PreconditionError) as err:
        levi_borel_complexity({2}, from_word(a2, [1, 2]))
    assert "2" in str(err.value)


def test_levi_borel_against_coset_oracle(a3, s4):
    # independent route to d: least-length element of the coset W_I w
    for w in s4:
        for sub in subsets(3):
            if not sub <= left_descents(w):
                continue
            d = minimal_coset_element(a3, w, sub)
            rep = levi_borel_complexity(sub, w)
            assert rep.value == d.length - len(support(d))


def test_levi_borel_decomposes_once(monkeypatch, a3, s4):
    # For I in D_L(w) the factor a is w_0(I), so the report splits nothing;
    # its values still agree with the decomposition w = a d.
    real = complexity.left_parabolic_decomposition
    calls = [0]

    def counting(w, sub):
        calls[0] += 1
        return real(w, sub)

    monkeypatch.setattr(complexity, "left_parabolic_decomposition", counting)
    for w in s4:
        for sub in subsets(3):
            if not sub <= left_descents(w):
                continue
            calls[0] = 0
            rep = levi_borel_complexity(sub, w)
            assert calls[0] == 0
            a, d = real(w, sub)
            assert rep.value == d.length - len(support(d))
            assert rep.witness["levi_factor"] == word_string(a)
            assert rep.witness["coset_factor"] == word_string(d)
            assert rep.witness["length_d"] == d.length
            assert rep.witness["support_d"] == sorted(support(d))


def test_levi_monotonicity_empirical(s4, b3_group):
    # empirical conjecture of this test suite, not a stated theorem: for
    # nested I <= I' inside D_L(w) the complexity does not increase
    for group in (s4, b3_group):
        rank = group[0].system.rank
        for w in group:
            dl = left_descents(w)
            vals = {sub: levi_borel_complexity(sub, w).value
                    for sub in subsets(rank) if sub <= dl}
            for small in vals:
                for big in vals:
                    if small <= big:
                        assert vals[small] >= vals[big], (w, small, big)


def test_coset_factor_statistics_monotone(a3, s4):
    # u <= w forces both l and supp of the minimal coset factor to be
    # monotone, for every I
    for sub in subsets(3):
        stats = {}
        for w in s4:
            _, d = left_parabolic_decomposition(w, sub)
            stats[w] = (d.length, len(support(d)))
        for u, w in comparable_pairs(s4):
            assert stats[u][0] <= stats[w][0]
            assert stats[u][1] <= stats[w][1]


def test_partial_stabilizer_examples(a2, s3):
    w = from_word(a2, [1, 2])
    assert partial_stabilizer_descents(w, {1}) == frozenset({1, 2})
    for x in s3:
        assert partial_stabilizer_descents(x, ()) == left_descents(x)
    for sub in ({1}, {2}, {1, 2}):
        assert partial_stabilizer_descents(identity(a2), sub) == \
            frozenset(sub)
    with pytest.raises(PreconditionError):
        partial_stabilizer_descents(from_word(a2, [1]), {1})


def test_partial_torus_examples(a2, a4):
    rep = partial_flag_torus_complexity(identity(a2), {1})
    assert rep.value == 0 and rep.witness["toric"]
    w = parse_element(a4, "51234")
    assert right_descents(w) == frozenset({1})
    rep = partial_flag_torus_complexity(w, {2, 3, 4})
    assert rep.value == 0 and rep.witness["toric"]
    assert is_toric_partial(w, {2, 3, 4})
    w0 = from_word(a2, [1, 2, 1])
    rep = partial_flag_torus_complexity(w0, ())
    assert rep.value == 1 and not rep.witness["toric"]
    with pytest.raises(PreconditionError):
        partial_flag_torus_complexity(w0, {1})


def test_partial_levi_examples(a2):
    w = from_word(a2, [1, 2])
    rep = partial_flag_levi_complexity(w, {1}, {1})
    assert rep.value == levi_borel_complexity({1}, w).value == 0
    # J empty reduces to the full flag variety
    rep2 = partial_flag_levi_complexity(w, (), {1})
    assert rep2.value == levi_borel_complexity({1}, w).value
    # I empty reduces to the torus case
    rep3 = partial_flag_levi_complexity(w, {1}, ())
    assert rep3.value == partial_flag_torus_complexity(w, {1}).value


def test_partial_levi_hypotheses_reported_separately(a2):
    w0 = from_word(a2, [1, 2, 1])
    with pytest.raises(PreconditionError):
        partial_flag_levi_complexity(w0, {1}, {1})  # w not minimal
    # acts on the partial-flag variety but not the full-flag one:
    # distinct error, no value
    with pytest.raises(FormulaUnavailableError):
        partial_flag_levi_complexity(identity(a2), {1}, {1})
    # does not act at all
    w = from_word(a2, [1, 2])
    stab = partial_stabilizer_descents(w, {1})
    assert stab == frozenset({1, 2})
    s2 = from_word(a2, [2])
    assert partial_stabilizer_descents(s2, {1}) == frozenset({2})
    with pytest.raises(PreconditionError) as err:
        partial_flag_levi_complexity(s2, {1}, {1})
    assert not isinstance(err.value, FormulaUnavailableError)


def test_partial_rejects_out_of_range_indices(a3):
    w = from_word(a3, [1])
    for bad in ({5}, {0, -2}):
        for check in (partial_flag_torus_complexity, is_toric_partial,
                      partial_stabilizer_descents):
            with pytest.raises(InvalidInputError, match="out of range 1..3"):
                check(w, bad)
    # I is checked before any hypothesis, even for a non-minimal w, and
    # before J, even an unhashable one
    for j_sub in ({3}, {1, 2, 3}, [[1]]):
        with pytest.raises(InvalidInputError,
                           match=r"simple index 7 out of range 1\.\.3"):
            partial_flag_levi_complexity(w, j_sub, {7})


def test_least_bad_index_is_named(a3):
    # Indices are checked in sorted order, whatever the set's iteration
    # order, so the error names the least bad one.
    w = from_word(a3, [1])
    with pytest.raises(InvalidInputError, match=r"index -1 out of range"):
        levi_acts({5, -1}, w)
    with pytest.raises(InvalidInputError, match=r"index -1 out of range"):
        partial_flag_levi_complexity(w, (), {5, -1})
    with pytest.raises(InvalidInputError, match=r"index -2 out of range"):
        partial_flag_torus_complexity(w, {0, -2})
    with pytest.raises(InvalidInputError, match=r"index -1 out of range"):
        left_parabolic_decomposition(w, {5, -1})
    with pytest.raises(InvalidInputError, match=r"index -1 out of range"):
        longest_element(a3, {5, -1})
    with pytest.raises(InvalidInputError, match=r"index -1 out of range"):
        levi_borel_complexity({5, -1}, w)


def test_scan_toric_schubert(a2):
    rows = list(scan(a2, "toric_schubert"))
    assert len(rows) == 5
    assert rows[0] == {"w": "id", "length": 0, "support": ""}
    assert all(row["length"] == len(row["support"].split(","))
               for row in rows if row["support"])


def test_scan_toric_richardson(a1):
    rows = list(scan(a1, "toric_richardson"))
    assert len(rows) == 3
    assert all(row["rank"] == row["ad"] for row in rows)


@pytest.mark.parametrize("family,rank", [("A", 3), ("G", 2), ("B", 3)])
def test_toric_richardson_and_descent_labels_against_oracles(family, rank):
    # Every pair, with u <= v by the subword property over a reduced word of
    # v, and ad(u, v) by Fraction elimination over the labels of all
    # Bruhat-graph edges of [u, v]; neither goes through the descent walk.
    rs = root_system(family, rank)
    group = canonical_order(enumerate_group(rs))
    below = {v: subword_reachable(rs, reduced_word(v)) for v in group}
    expected = []
    for u in group:
        for v in group:
            labels = descent_labels(u, v)
            assert (labels is None) == (u not in below[v]), (u, v)
            if labels is None:
                continue
            elements, edges = interval_all_roots(u, v)
            assert elements == {x for x in below[v] if u in below[x]}
            rank_uv = fraction_rank([e.label for e in edges])
            assert len(labels) == v.length - u.length
            assert span_rank(labels) == rank_uv, (u, v)
            if rank_uv == len(labels):
                expected.append({"u": word_string(u), "v": word_string(v),
                                  "rank": rank_uv, "ad": rank_uv})
    assert list(scan(rs, "toric_richardson")) == expected


def test_toric_richardson_scan_leaves_memo_tables_as_found():
    # One uncached walk per pair, so neither unbounded table grows, and the
    # walks are on raw permutations, so the system interns no element.
    rs = build_root_system("B", 3)

    def sizes():
        return bruhat_le.cache_info().currsize, ad.cache_info().currsize

    before = sizes()
    assert len(list(scan(rs, "toric_richardson"))) == 504
    assert sizes() == before
    assert not rs.element_cache


def test_scan_histogram(b2):
    rows = list(scan(b2, "complexity_histogram"))
    assert rows == [{"value": 0, "count": 5}, {"value": 1, "count": 2},
                    {"value": 2, "count": 1}]


# Every label of rank at most 8.
_UP_TO_RANK_8 = [(family, rank) for family in FAMILIES for rank in range(1, 9)
                 if rank in _FAMILIES[family][0]]


@pytest.mark.parametrize("family,rank", _UP_TO_RANK_8,
                         ids=[f"{f}{r}" for f, r in _UP_TO_RANK_8])
def test_histogram_matches_per_subset_oracle(family, rank):
    # The scan makes each Poincare polynomial once and sums those of each
    # size before multiplying by (q - 1)^(r - |T|); the oracle makes one
    # per subset and multiplies each.  Bounds below, at and past the
    # longest length.
    rs = root_system(family, rank)
    n_pos = len(rs.positive_roots)
    for max_length in (None, 0, 1, 2, 5, n_pos // 2, n_pos - 1, n_pos + 3):
        top = n_pos if max_length is None else min(max_length, n_pos)
        expected = [{"value": value, "count": count}
                    for value, count in per_subset_histogram(rs, top)]
        assert list(scan(rs, "complexity_histogram", max_length=max_length,
                         cap=rs.order)) == expected
    assert sum(row["count"] for row in expected) == rs.order


def test_scan_levi_table(a2, s3):
    rows = list(scan(a2, "levi_table"))
    expected = sum(2 ** len(left_descents(w)) for w in s3)
    assert len(rows) == expected
    for row in rows:
        assert row["value"] >= 0


def test_scan_max_length(a3):
    short = list(scan(a3, "toric_schubert", max_length=1))
    assert all(row["length"] <= 1 for row in short)


def test_scan_max_length_stops_after_its_layer():
    # E6 has 1 + 6 + 20 elements of length <= 2.  A bounded scan walks
    # only those, and prints the rows of the whole group filtered by length.
    # The support targets do not intern the walk's elements, so their rows
    # are checked against the word route over the short elements.  The Levi
    # rows of the short elements come first in the unbounded scan, and
    # intern nothing: each w_0(I) of their left descents is built raw (it
    # interned the 17 of them).  The toric Richardson rows over short u and
    # v are those with [u, v] toric, and its scan interns nothing either:
    # it walks the raw permutations.
    e6 = root_system("E", 6)
    short = tuple(w for w in enumerate_group(e6) if w.length <= 2)
    interned = {"complexity_histogram": 0, "toric_schubert": 0,
                "toric_richardson": 0, "levi_table": 0}
    for target in SCAN_TARGETS:
        fresh = build_root_system("E", 6)
        rows = list(scan(fresh, target, max_length=2))
        assert len(fresh.element_cache) == interned[target]
        if target in ("complexity_histogram", "toric_schubert"):
            assert rows_by_words(short, target) == rows
        elif target == "levi_table":
            whole = scan(e6, target)
            assert list(islice(whole, len(rows))) == rows
            assert next(whole)["w"].count(".") == 2   # length 3
        else:
            assert rows == [
                {"u": word_string(u), "v": word_string(v),
                 "rank": v.length - u.length, "ad": ad(u, v)}
                for u in short for v in short
                if bruhat_le(u, v) and is_toric(u, v)]


def test_support_scans_build_no_group():
    # On E6 neither support target interns an element: the histogram walks
    # no element at all, and toric_schubert walks only its 242 rows, on raw
    # permutations, where enumerating the group interns 51,840.
    rs = build_root_system("E", 6)
    rows = list(scan(rs, "complexity_histogram"))
    assert sum(row["count"] for row in rows) == 51840
    assert len(rs.element_cache) == 0
    rows = list(scan(rs, "toric_schubert"))
    assert len(rows) == 242
    assert len(rs.element_cache) == 0


def test_scan_huge_max_length_is_unbounded(a3):
    # A bound past the longest length, even one too large for islice, is
    # the same as no bound.
    for target in SCAN_TARGETS:
        assert (list(scan(a3, target, max_length=2**64))
                == list(scan(a3, target)))


def test_scan_streams(a3, monkeypatch):
    # The first row is read from layer 0, the identity alone, before the
    # walk makes the product of layer 1's first element.
    calls = [0]
    real = bruhatkit.weyl._compose

    def counting(rs, p, q):
        calls[0] += 1
        return real(rs, p, q)

    monkeypatch.setattr(bruhatkit.weyl, "_compose", counting)
    rows = scan(a3, "levi_table")
    assert next(rows) == {"w": "id", "I": "", "coset_factor": "id",
                          "value": 0}
    assert calls[0] == 0
    assert next(rows)["w"] == "1"
    assert calls[0] > 0


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4),
                                         ("D", 4), ("G", 2), ("A", 16)])
def test_levi_table_matches_descent_stripping(family, rank):
    # Reference rows whose coset factor comes from stripping the descents
    # in I from w one at a time, not from the product w_0(I) w.  A16 has
    # 272 signed roots, so tuple permutations, and |W| = 17!: its rows are
    # those of the elements of length at most 2, the words of up to two
    # letters.
    rs = root_system(family, rank)
    if rs.perm_type is bytes:
        max_length, group = None, enumerate_group(rs)
    else:
        max_length = 2
        group = {from_word(rs, (i, j)[:n]) for i in range(1, rank + 1)
                 for j in range(1, rank + 1) for n in range(3)}
    expected = []
    for w in canonical_order(group):
        descents = sorted(left_descents(w))
        for size in range(len(descents) + 1):
            for sub in combinations(descents, size):
                _, d = left_parabolic_decomposition(w, sub)
                expected.append({"w": word_string(w),
                                 "I": ",".join(map(str, sub)),
                                 "coset_factor": word_string(d),
                                 "value": d.length - len(support(d))})
    assert list(scan(rs, "levi_table", max_length=max_length,
                     cap=10**30)) == expected
    if max_length:
        assert len(expected) == 513


@pytest.mark.parametrize("target", ["complexity_histogram", "toric_schubert",
                                    "levi_table"])
def test_scan_multiplies_once_per_element(monkeypatch, target):
    # The walk makes each element once, with its reduced word, by two raw
    # products (y = s_i x by ``rs.apply`` through the kept table of s_i,
    # y^-1 = x^-1 s_i by ``_compose``), and interns none of them.  A Levi
    # row makes one raw product (``rs.apply`` through the table of w_0(I))
    # and no element: its coset factor w_0(I) w is looked up among the
    # elements already walked.  Each walked element's left descents are
    # one more ``rs.apply``, through ``rs.sign_table``, counted apart.  The
    # walk makes no table (``rs.simple_tables`` and ``rs.sign_table`` are
    # kept on the system), and each w_0(I) is tabled once, as perm + pad.
    # Each w_0(I) is built once on raw permutations, by one
    # ``_compose`` per letter, so a Levi scan makes no multiply and interns
    # nothing (it made one multiply per letter, and interned each w_0(I)
    # and its prefixes).  The histogram walks no element and no word;
    # toric_schubert walks its rows only.  Rebuilding each word from
    # scratch and closing the group under all generators costs 16
    # multiplies per element of F4.  A fresh system, so that no word is
    # known before the scan.  The counted ``_compose`` is the entrywise
    # product, so that ``rs.apply`` and ``rs.pad`` count only the direct
    # uses.
    rs = build_root_system("F", 4)
    order = 1152
    # w_0(I) is built by one product per letter, and every I is in the
    # left descent set of w_0.
    levi = build_root_system("F", 4)
    levi_builds = sum(longest_element(levi, sub).length for sub in subsets(4))
    calls = {"multiply": 0, "_compose": 0, "apply": 0, "signs": 0}
    made = []
    real_apply, real_pad = rs.apply, rs.pad

    class CountingPad:
        def __radd__(self, p):
            made.append(p)
            return p + real_pad

    def counting_apply(q, t):
        calls["signs" if t is rs.sign_table else "apply"] += 1
        return real_apply(q, t)

    def counting(name, real):
        def count(*args):
            calls[name] += 1
            return real(*args)
        return count

    monkeypatch.setattr(bruhatkit.weyl, "multiply",
                        counting("multiply", bruhatkit.weyl.multiply))
    monkeypatch.setattr(bruhatkit.weyl, "_compose", counting(
        "_compose", lambda rs, p, q: rs.perm_type(p[k] for k in q)))
    monkeypatch.setattr(complexity, "multiply", bruhatkit.weyl.multiply)
    monkeypatch.setattr(rs, "apply", counting_apply)
    monkeypatch.setattr(rs, "pad", CountingPad())
    misses = bruhatkit.weyl.reduced_word.cache_info().misses
    rows = list(scan(rs, target))
    words = bruhatkit.weyl.reduced_word.cache_info().misses - misses
    assert words == 0
    if target == "complexity_histogram":
        assert sum(row["count"] for row in rows) == order
        assert calls == {"multiply": 0, "_compose": 0, "apply": 0,
                         "signs": 0}
        assert made == []
        assert len(rs.element_cache) == 0
    elif target == "toric_schubert":
        assert len(rows) == 34
        assert calls == {"multiply": 0, "_compose": len(rows) - 1,
                         "apply": len(rows) - 1, "signs": 0}
        assert made == []
        assert len(rs.element_cache) == 0
    else:
        assert len(rows) == 5089
        assert calls == {"multiply": 0,
                         "_compose": order - 1 + levi_builds,
                         "apply": order - 1 + len(rows), "signs": order}
        assert calls["_compose"] + calls["apply"] == 2 * (
            order - 1) + levi_builds + len(rows)
        assert len(rs.element_cache) == 0
        levi_perms = [longest_element(levi, sub).perm for sub in subsets(4)]
        assert sorted(made) == sorted(levi_perms)
    # The words of a freshly enumerated group cost no product at all.
    group = enumerate_group(build_root_system("F", 4))
    calls["multiply"] = 0
    assert [len(bruhatkit.weyl.reduced_word(w)) for w in group] == [
        w.length for w in group]
    assert calls["multiply"] == 0


@lru_cache(maxsize=None)
def _group(family, rank):
    return enumerate_group(root_system(family, rank))


# Every family with each bound, and E6, whose word route takes seconds,
# with no bound only.
_SUPPORT_SWEEP = [
    (max_length, target, family, rank)
    for family, rank in [("A", 4), ("B", 3), ("C", 4), ("G", 2), ("D", 4),
                         ("D", 5), ("F", 4), ("E", 6)]
    for target in ("complexity_histogram", "toric_schubert")
    for max_length in ([None] if family == "E" else [None, 0, 3])]


@pytest.mark.parametrize("max_length,target,family,rank", _SUPPORT_SWEEP)
def test_support_scans_match_word_route(family, rank, target, max_length):
    # A fresh system for the scan, so that no word is known before it.
    rs = build_root_system(family, rank)
    expected = rows_by_words(_group(family, rank), target, max_length)
    assert list(scan(rs, target, max_length=max_length)) == expected


@pytest.mark.parametrize("max_length", [-1, -10])
def test_scan_rejects_negative_max_length(b3, max_length):
    # Refused at the call, before the cap is checked and before any row.
    for target in SCAN_TARGETS:
        with pytest.raises(InvalidInputError, match="non-negative"):
            scan(b3, target, max_length=max_length, cap=10)
    with pytest.raises(InvalidInputError, match="unknown scan target"):
        scan(b3, "nothing", max_length=max_length)


def test_scan_cap(b3):
    from bruhatkit import GroupTooLargeError
    for target in ("toric_schubert", "complexity_histogram"):
        with pytest.raises(GroupTooLargeError):
            list(scan(b3, target, cap=10))
