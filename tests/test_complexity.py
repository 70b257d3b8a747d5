from itertools import combinations

import pytest

import bruhatkit.complexity as complexity
import bruhatkit.weyl
from bruhatkit import (FormulaUnavailableError, InvalidInputError,
                       PreconditionError, ad, build_root_system,
                       canonical_order, cartan_datum, enumerate_group,
                       from_word, identity, is_toric, is_toric_partial,
                       left_descents, levi_acts, levi_borel_complexity,
                       left_parabolic_decomposition, longest_element,
                       partial_flag_levi_complexity,
                       partial_flag_torus_complexity,
                       partial_stabilizer_descents, right_descents,
                       root_system, scan, support,
                       torus_complexity_richardson,
                       torus_complexity_schubert, word_string)
from bruhatkit.cli import parse_element
from oracles import minimal_coset_element
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
    # levi_acts already splits w = a d; the report reuses its a.
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
            assert calls[0] == 1
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
    # I is checked before any hypothesis, even for a non-minimal w
    for j_sub in ({3}, {1, 2, 3}):
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


def test_scan_histogram(b2):
    rows = list(scan(b2, "complexity_histogram"))
    assert rows == [{"value": 0, "count": 5}, {"value": 1, "count": 2},
                    {"value": 2, "count": 1}]


def test_scan_levi_table(a2, s3):
    rows = list(scan(a2, "levi_table"))
    expected = sum(2 ** len(left_descents(w)) for w in s3)
    assert len(rows) == expected
    for row in rows:
        assert row["value"] >= 0


def test_scan_max_length(a3):
    short = list(scan(a3, "toric_schubert", max_length=1))
    assert all(row["length"] <= 1 for row in short)


def test_scan_streams(a3, monkeypatch):
    # the first row is produced from the first element alone
    seen = []
    unit = complexity._scan_unit

    def counting(target, w, *rest):
        seen.append(w)
        return unit(target, w, *rest)

    monkeypatch.setattr(complexity, "_scan_unit", counting)
    rows = scan(a3, "levi_table")
    assert seen == []
    next(rows)
    assert seen == [identity(a3)]


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4)])
def test_levi_table_matches_descent_stripping(family, rank):
    # Reference rows whose coset factor comes from stripping the descents
    # in I from w one at a time, not from the product w_0(I) w.
    rs = root_system(family, rank)
    expected = []
    for w in canonical_order(enumerate_group(rs)):
        descents = sorted(left_descents(w))
        for size in range(len(descents) + 1):
            for sub in combinations(descents, size):
                _, d = left_parabolic_decomposition(w, sub)
                expected.append({"w": word_string(w),
                                 "I": ",".join(map(str, sub)),
                                 "coset_factor": word_string(d),
                                 "value": d.length - len(support(d))})
    assert list(scan(rs, "levi_table")) == expected


@pytest.mark.parametrize("target", ["complexity_histogram", "levi_table"])
def test_scan_multiplies_once_per_element(monkeypatch, target):
    # Enumeration makes each element once, each reduced word extends a known
    # one, and a Levi row is one product w_0(I) w.  Rebuilding each word
    # from scratch and closing the group under all generators costs 16
    # multiplies per element of F4.  A fresh system, so that no word is
    # known before the scan.
    rs = build_root_system(cartan_datum("F", 4))
    order = 1152
    calls = [0]
    real = bruhatkit.weyl.multiply

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    for module in (bruhatkit.weyl, complexity):
        monkeypatch.setattr(module, "multiply", counting)
    rows = list(scan(rs, target))
    if target == "complexity_histogram":
        assert sum(row["count"] for row in rows) == order
        assert calls[0] <= 3 * order
    else:
        assert len(rows) == 5089
        assert calls[0] <= 3 * order + len(rows)


def test_scan_cap(b3):
    from bruhatkit import GroupTooLargeError
    with pytest.raises(GroupTooLargeError):
        list(scan(b3, "toric_schubert", cap=10))
