"""Torus and Levi-Borel complexity of Schubert and Richardson varieties.

The governing formulas, all exact and type-uniform:

* Richardson variety R_{u,v}:  c_T = l(v) - l(u) - ad(u, v), and
  ad(u, v) = max l(v) - l(w) over w in [u, v] with [w, v] toric.
* Schubert variety X_w:        c_T = l(w) - supp(w).
* Levi-Borel action on X_w (requires I contained in the left descent set of
  w): with the left parabolic decomposition w = a d, a in W_I,
  c_{L_I} = l(d) - supp(d).
* Partial flag variety G/P_J, w minimal in its coset: the stabilizer of the
  Schubert variety is the standard parabolic on D_L(w w_0(J)); torus
  complexity is unchanged from the full flag, and the Levi formula transfers
  exactly when L_I also acts on the full-flag Schubert variety.

Every report carries the witnessing data its value is computed from, so
callers (and the CLI) can print derivations rather than bare numbers.
``ComplexityReport`` and ``LeviAction`` are immutable NamedTuples.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, combinations, islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .algdim import ad, max_toric_below_top, span_rank
from .bruhat import descent_labels
from .errors import (FormulaUnavailableError, InvalidInputError,
                     NotComparableError, PreconditionError)
from .rootsys import RootSystem, _listed
from .weyl import (DEFAULT_GROUP_CAP, Perm, SimpleSubset, WeylElement,
                   _check_cap, _interned, _layers, _longest_perm,
                   left_descents, left_parabolic_decomposition,
                   longest_element, multiply, right_descents, support,
                   word_string)

#: Fixed column order per scan target (also the CSV header order).
SCAN_COLUMNS = {
    "toric_schubert": ("w", "length", "support"),
    "toric_richardson": ("u", "v", "rank", "ad"),
    "complexity_histogram": ("value", "count"),
    "levi_table": ("w", "I", "coset_factor", "value"),
}
SCAN_TARGETS = tuple(SCAN_COLUMNS)


class ComplexityReport(NamedTuple):
    """A complexity value plus the ingredients it was computed from."""

    kind: str
    value: int
    witness: dict


def _subset_str(indices: Iterable[int]) -> str:
    return ",".join(map(str, sorted(indices)))


def torus_complexity_richardson(u: WeylElement,
                                v: WeylElement) -> ComplexityReport:
    """c_T of the Richardson variety for u <= v: l(v) - l(u) - ad(u, v)."""
    try:
        dim = ad(u, v)
    except NotComparableError:
        raise PreconditionError(
            f"Richardson variety is empty: {word_string(u)} is not <= "
            f"{word_string(v)}") from None
    witness_w, witness_value = max_toric_below_top(u, v)
    return ComplexityReport(
        kind="torus_richardson",
        value=v.length - u.length - dim,
        witness={
            "u": word_string(u),
            "v": word_string(v),
            "length_u": u.length,
            "length_v": v.length,
            "ad": dim,
            "max_toric_witness": word_string(witness_w),
            "max_toric_value": witness_value,
        })


def torus_complexity_schubert(w: WeylElement) -> ComplexityReport:
    """c_T of the Schubert variety: l(w) - supp(w)."""
    supp_set = support(w)
    return ComplexityReport(
        kind="torus_schubert",
        value=w.length - len(supp_set),
        witness={
            "w": word_string(w),
            "length": w.length,
            "support": sorted(supp_set),
            "supp": len(supp_set),
        })


class LeviAction(NamedTuple):
    """Whether L_I acts on X_w, with both equivalent combinatorial witnesses:
    I contained in the left descent set, and the left parabolic factor
    equal to w_0(I)."""

    acts: bool
    descent_containment: bool
    factor_equality: bool
    missing: tuple[int, ...]
    levi_factor: WeylElement
    longest_in_levi: WeylElement

    def __bool__(self) -> bool:
        return self.acts


def levi_acts(subset: Iterable[int], w: WeylElement) -> LeviAction:
    """Decide whether the Levi subgroup on the given simple indices acts on
    the Schubert variety of w, reporting both equivalent criteria."""
    sub = w.system._check_subset(subset)
    a, _ = left_parabolic_decomposition(w, sub)
    missing = tuple(sorted(sub - left_descents(w)))
    w0 = longest_element(w.system, sub)
    descent_ok = not missing
    factor_ok = a == w0
    return LeviAction(acts=descent_ok, descent_containment=descent_ok,
                      factor_equality=factor_ok, missing=missing,
                      levi_factor=a, longest_in_levi=w0)


def levi_borel_complexity(subset: Iterable[int],
                          w: WeylElement) -> ComplexityReport:
    """c_{L_I} of the Schubert variety of w, for I in the left descent set:
    with w = a d the left parabolic decomposition, the value is
    l(d) - supp(d)."""
    sub = w.system._check_subset(subset)
    a = longest_element(w.system, sub)
    missing = sub - left_descents(w)
    if missing:
        raise PreconditionError(
            f"I is not contained in the left descent set of w "
            f"(offending indices: {{{_subset_str(missing)}}}); the "
            f"formula l(d) - supp(d) requires the Levi subgroup to act")
    # I in D_L(w): the left parabolic factor is a = w_0(I) = a^-1.
    d = multiply(a, w)
    supp_d = support(d)
    return ComplexityReport(
        kind="levi_borel_schubert",
        value=d.length - len(supp_d),
        witness={
            "w": word_string(w),
            "I": sorted(sub),
            "left_descents": sorted(left_descents(w)),
            "levi_factor": word_string(a),
            "coset_factor": word_string(d),
            "length_d": d.length,
            "support_d": sorted(supp_d),
            "supp_d": len(supp_d),
        })


def _require_minimal(w: WeylElement, subset: Iterable[int]) -> SimpleSubset:
    sub = w.system._check_subset(subset)
    bad = right_descents(w) & sub
    if bad:
        raise PreconditionError(
            f"w is not a minimal coset representative for J: right descents "
            f"{{{_subset_str(bad)}}} lie in J")
    return sub


def partial_stabilizer_descents(w: WeylElement,
                                subset: Iterable[int]) -> SimpleSubset:
    """Simple indices of the standard parabolic stabilizing the Schubert
    variety of w in the partial flag variety on J: D_L(w w_0(J))."""
    sub = _require_minimal(w, subset)
    return left_descents(multiply(w, longest_element(w.system, sub)))


def partial_flag_torus_complexity(w: WeylElement,
                                  subset: Iterable[int]) -> ComplexityReport:
    """c_T of the Schubert variety of w in G/P_J equals its full-flag value
    l(w) - supp(w); requires w minimal in its coset."""
    sub = _require_minimal(w, subset)
    base = torus_complexity_schubert(w)
    # "w" first, then "J", then the full-flag witness in its own order.
    return ComplexityReport(
        kind="torus_partial", value=base.value,
        witness={"w": base.witness["w"], "J": sorted(sub), **base.witness,
                 "toric": base.value == 0})


def is_toric_partial(w: WeylElement, subset: Iterable[int]) -> bool:
    """Toric iff every generator appears at most once in any reduced word,
    i.e. c_T = l(w) - supp(w) = 0."""
    return partial_flag_torus_complexity(w, subset).value == 0


def partial_flag_levi_complexity(w: WeylElement, j_subset: Iterable[int],
                                 i_subset: Iterable[int]) -> ComplexityReport:
    """c_{L_I} of the Schubert variety of w in G/P_J.

    Hypotheses, each reported separately on failure: w minimal in its coset;
    I contained in D_L(w w_0(J)) (else L_I does not act at all); and I
    contained in D_L(w) (else L_I acts on the partial-flag variety only and
    no transferred value exists - a distinct FormulaUnavailableError).
    """
    j_sub = _listed(j_subset, "subset")  # entries checked after I
    i_sub = w.system._check_subset(i_subset)
    stab = partial_stabilizer_descents(w, j_sub)
    outside = i_sub - stab
    if outside:
        raise PreconditionError(
            f"L_I does not act on the partial-flag Schubert variety: indices "
            f"{{{_subset_str(outside)}}} are not in D_L(w w_0(J)) = "
            f"{{{_subset_str(stab)}}}")
    not_full = i_sub - left_descents(w)
    if not_full:
        raise FormulaUnavailableError(
            f"L_I acts on the partial-flag Schubert variety but not on the "
            f"full-flag one (indices {{{_subset_str(not_full)}}} are not "
            f"left descents of w); the complexity does not transfer and no "
            f"value is available")
    base = levi_borel_complexity(i_sub, w)
    witness = dict(base.witness)
    witness["J"] = sorted(set(j_sub))
    witness["stabilizer_descents"] = sorted(stab)
    return ComplexityReport(kind="levi_partial", value=base.value,
                            witness=witness)


# -- batch scans ----------------------------------------------------------


def _richardson_rows(rs: RootSystem, walked) -> Iterator[tuple]:
    """The pairs u <= v with ad(u, v) = l(v) - l(u), over the elements of
    the walked tuples, by one uncached ``descent_labels`` walk per pair: its
    l(v) - l(u) labels must be independent."""
    elements = _interned(rs, walked)
    for u in elements:
        u_str = word_string(u)
        for v in elements:
            if u.length <= v.length:
                labels = descent_labels(u, v)
                if labels is not None and span_rank(labels) == len(labels):
                    yield u_str, word_string(v), len(labels), len(labels)


def _levi_rows(rs: RootSystem, walked, quote) -> Iterator[tuple]:
    """The levi_table rows.  For I in D_L(w) the left parabolic factor of w
    is w_0(I), an involution, so the coset factor is d = w_0(I) w.  It is no
    longer than w, so it came no later, and ``spelled`` has, by permutation,
    its word string (the walk's own) and l(d) - |supp(d)|.  The pairs
    (table of w_0(I), I) are listed once per left descent set, each w_0(I)
    built raw (``_longest_perm``) and tabled once as w_0(I) + pad, so a row
    is one ``rs.apply`` through a kept table, one C call on bytes, and one
    lookup, and the scan makes no element.  The left descents of w are the
    i whose simple root w^-1 sends negative: the table ``signs`` marks the
    negative positions, so one ``rs.apply`` through it and one
    ``itemgetter`` read them as a key, which is spelled out as a list of
    descents only the first time it is met."""
    n_pos, apply, pad = len(rs.positive_roots), rs.apply, rs.pad
    signs = rs.perm_type([k >= n_pos for k in range(2 * n_pos)]) + pad
    descent_bits = itemgetter(*rs.simple_positions)  # an int for rank 1
    levi_w0: dict[tuple[int, ...], tuple[Perm, str]] = {}
    by_descents: dict[tuple[int, ...] | int, list[tuple[Perm, str]]] = {}
    spelled: dict[Perm, tuple[str, int]] = {}
    for perm, inv, word, w_str in walked:
        w_str = w_str or "id"
        spelled[perm] = w_str, len(word) - len(set(word))
        key = descent_bits(apply(inv, signs))
        pairs = by_descents.get(key)
        if pairs is None:
            bits = key if rs.rank > 1 else (key,)
            descents = [i for i, bit in enumerate(bits, start=1) if bit]
            pairs = by_descents[key] = []
            for size in range(len(descents) + 1):
                for sub in combinations(descents, size):
                    entry = levi_w0.get(sub)
                    if entry is None:
                        entry = levi_w0[sub] = (
                            _longest_perm(rs, sub) + pad,
                            quote(_subset_str(sub)))
                    pairs.append(entry)
        for w0, sub_str in pairs:
            d_str, value = spelled[apply(perm, w0)]
            yield w_str, sub_str, d_str, value


def _support_histogram(rs: RootSystem, top: int) -> list[tuple[int, int]]:
    """Rows of l(w) - |supp(w)| over the w with l(w) <= top, in increasing
    order.  The w with support in T form W_T, with Poincare polynomial
    P_T(q) the product over its positive roots a of [ht(a) + 1]_q / [ht(a)]_q,
    i.e. of [h + 1]_q^(c_h - c_(h+1)) with c_h of them of height h.  By
    inclusion-exclusion over the supports, the sum of q^(l(w) - |supp(w)|)
    is q^-r times the sum of P_T(q) (q - 1)^(r - |T|) over T.  P_T depends
    only on the height counts, which also give |T| = c_1, so each distinct
    P_T is made once, times the number of T that share it, and the P_T of
    each size are summed before their one product by (q - 1)^(r - |T|)."""
    rank = rs.rank
    roots = [(sum(1 << j for j, c in enumerate(a) if c), sum(a))
             for a in rs.positive_roots]
    shapes = Counter(  # the height counts of each W_T, by height
        tuple(Counter(h for mask, h in roots if mask & t == mask).items())
        for t in range(1 << rank))
    by_size = [[0] * (top + 1) for _ in range(rank + 1)]
    for shape, times in shapes.items():
        heights, poly = dict(shape), [1] + [0] * top
        for h, c in shape:
            for _ in range(c - heights.get(h + 1, 0)):  # times [h + 1]_q, cut
                acc = [0] * (h + 1) + list(accumulate(poly))
                poly = [x - y for x, y in zip(acc[h + 1:], acc)]
        size = heights.get(1, 0)
        by_size[size] = [a + times * p for a, p in zip(by_size[size], poly)]
    total = [0] * (top + rank + 1)
    for size, poly in enumerate(by_size):
        for _ in range(rank - size):  # times q - 1
            poly = [b - a for a, b in zip(poly + [0], [0] + poly)]
        for k, p in enumerate(poly):
            total[k] += p
    return [(k - rank, c) for k, c in enumerate(total) if c]


def _scan_rows(rs: RootSystem, target: str, max_length: int | None,
               cap: int, quote=str) -> Iterator[tuple]:
    """``scan``'s rows as tuples in ``SCAN_COLUMNS`` order, with its eager
    refusals; each subset cell (``I``, ``support``) is ``quote``d."""
    if target not in SCAN_TARGETS:
        raise InvalidInputError(
            f"unknown scan target {target!r}; expected one of {SCAN_TARGETS}")
    if max_length is not None and type(max_length) is not int:
        raise InvalidInputError(
            f"max_length must be an int, got {max_length!r}")
    if max_length is not None and max_length < 0:
        raise InvalidInputError(
            f"max_length must be non-negative, got {max_length}")
    _check_cap(rs, cap)
    top = len(rs.positive_roots)  # no element is longer
    top = top if max_length is None else min(max_length, top)
    if target == "complexity_histogram":
        return iter(_support_histogram(rs, top))
    toric = target == "toric_schubert"
    walked = chain.from_iterable(islice(_layers(rs, toric), top + 1))
    if toric:
        return ((text or "id", len(word), quote(_subset_str(word)))
                for _, _, word, text in walked)
    if target == "toric_richardson":
        return _richardson_rows(rs, walked)
    return _levi_rows(rs, walked, quote)


def scan(rs: RootSystem, target: str, *, max_length: int | None = None,
         cap: int = DEFAULT_GROUP_CAP) -> Iterator[dict]:
    """Stream scan rows over the Weyl group (the elements of length at most
    ``max_length``, if given), in a deterministic order.

    Bad targets, a ``max_length`` that is negative or not an int, and a
    group of more than ``cap`` elements are refused eagerly, before any
    row, whatever the target.
    ``complexity_histogram`` builds no element (see ``_support_histogram``).
    The others walk theirs in canonical order (length, then least reduced
    word) on raw permutations, a layer when its rows are read (``_layers``):
    ``toric_schubert`` only its rows, the others the whole group.  Only
    ``toric_richardson`` interns it, and it makes one uncached right-descent
    walk per pair (``bruhat.descent_labels``), so it leaves the
    ``bruhat_le`` and ``ad`` memo tables as it found them.

    >>> from bruhatkit.rootsys import root_system
    >>> list(scan(root_system("A", 2), "complexity_histogram"))
    [{'value': 0, 'count': 5}, {'value': 1, 'count': 1}]
    """
    rows = _scan_rows(rs, target, max_length, cap)
    return (dict(zip(SCAN_COLUMNS[target], row)) for row in rows)
