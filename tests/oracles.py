"""Independent oracles used to cross-check the library.

The permutation model implements the symmetric group S_n directly on
one-line tuples, with its classical statistics (inversion count, descents,
the sorted-prefix Bruhat criterion), sharing no code with the root-lattice
implementation.  Every rank and span oracle is one Gauss-Jordan
elimination over Fractions (``echelon_basis``), which shares no code with
the library's fraction-free ``span_rank``.  The reference routes
for ad (all graph edges of an interval, its covers at either end, one
saturated chain) are the slow, obviously correct ways to the same number,
and the library ships none of them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import gcd, lcm
from typing import NamedTuple

# -- permutation model of S_n (type A), one-line tuples of 1..n -------------


def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_mul(p, q):
    """(p q)(k) = p(q(k))."""
    return tuple(p[q[k] - 1] for k in range(len(p)))


def perm_inverse(p):
    out = [0] * len(p)
    for pos, val in enumerate(p, start=1):
        out[val - 1] = pos
    return tuple(out)


def perm_simple(n, i):
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_from_word(n, word):
    p = perm_identity(n)
    for i in word:
        p = perm_mul(p, perm_simple(n, i))
    return p


def perm_length(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def perm_right_descents(p):
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def perm_left_descents(p):
    return perm_right_descents(perm_inverse(p))


def perm_bruhat_le(u, v):
    """Sorted-prefix (tableau) criterion for Bruhat order on S_n."""
    n = len(u)
    for i in range(1, n):
        us = sorted(u[:i])
        vs = sorted(v[:i])
        if any(a > b for a, b in zip(us, vs)):
            return False
    return True


@lru_cache(maxsize=None)
def perm_reduced_words(p):
    if perm_length(p) == 0:
        return frozenset({()})
    words = set()
    for i in perm_right_descents(p):
        shorter = perm_mul(p, perm_simple(len(p), i))
        words.update(w + (i,) for w in perm_reduced_words(shorter))
    return frozenset(words)


def perm_least_reduced_word(p):
    """The lexicographically least reduced word of p: the least first
    letter is the least left descent, and the rest is least for what
    remains.  A loop, so it also serves for long elements."""
    word = []
    while perm_length(p):
        i = min(perm_left_descents(p))
        word.append(i)
        p = perm_mul(perm_simple(len(p), i), p)
    return tuple(word)


def perm_support(p):
    words = perm_reduced_words(p)
    supports = {frozenset(w) for w in words}
    assert len(supports) == 1
    return next(iter(supports))


def all_perms(n):
    from itertools import permutations
    return [tuple(q) for q in permutations(range(1, n + 1))]


def root_of_pair(i, j, rank):
    """e_i - e_j (i < j) as a coefficient vector over alpha_1..alpha_rank."""
    assert 1 <= i < j <= rank + 1
    return tuple(1 if i <= k < j else 0 for k in range(1, rank + 1))


def perm_right_inversion_roots(p):
    """Right inversion set of p as type-A roots e_i - e_j."""
    n = len(p)
    return frozenset(root_of_pair(i, j, n - 1)
                     for i in range(1, n) for j in range(i + 1, n + 1)
                     if p[i - 1] > p[j - 1])


# -- words acting on the root lattice ----------------------------------------

#: Cartan matrices, a[i][j] = <alpha_j, alpha_i^vee>, written out here rather
#: than taken from the library.
WORD_MODEL_CARTAN = {
    ("B", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("G", 2): ((2, -3), (-1, 2)),
}


def word_action(cartan, word):
    """The images of the simple roots under the product of the word, acting
    by s_i(x) = x - (A x)_i alpha_i; two words give the same element iff
    they give the same images."""
    rank = len(cartan)
    images = []
    for j in range(rank):
        x = [int(k == j) for k in range(rank)]
        for i in reversed(word):
            x[i - 1] -= sum(cartan[i - 1][k] * x[k] for k in range(rank))
        images.append(tuple(x))
    return tuple(images)


def word_length(cartan, positive_roots, word):
    """l(w) for the product of the word: the number of positive roots it
    sends negative.  w(beta) is a root, so it is negative iff its height is,
    and by linearity that height is the sum of beta_j times the height of
    w(alpha_j), read off ``word_action``."""
    heights = [sum(image) for image in word_action(cartan, word)]
    return sum(sum(c * h for c, h in zip(beta, heights)) < 0
               for beta in positive_roots)


@lru_cache(maxsize=None)
def word_lengths(cartan):
    """Length of every element, keyed by word_action: its distance from the
    identity in the Cayley graph, by breadth-first search over words."""
    rank = len(cartan)
    start = ()
    lengths = {word_action(cartan, start): 0}
    frontier = [start]
    while frontier:
        nxt = []
        for word in frontier:
            for i in range(1, rank + 1):
                longer = word + (i,)
                key = word_action(cartan, longer)
                if key not in lengths:
                    lengths[key] = len(longer)
                    nxt.append(longer)
        frontier = nxt
    return lengths


# -- coroot pairing through a symmetrized Cartan matrix ----------------------


@lru_cache(maxsize=None)
def symmetrizer(cartan):
    """Positive integers d with d[i] a[i][j] = d[j] a[j][i]; they exist for
    any valid Cartan matrix, component by component over the Dynkin
    graph."""
    rank = len(cartan)
    d = [None] * rank
    for start in range(rank):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(rank):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    queue.append(j)
    return _coprime_integers(d)


def _coprime_integers(fractions):
    """The fractions times the one positive rational that makes them
    coprime integers."""
    scale = lcm(*(x.denominator for x in fractions))
    ints = [int(x * scale) for x in fractions]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def coroot_pairing(rs, x, alpha):
    """<x, alpha^vee> = 2 (x, alpha) / (alpha, alpha), exactly, with the
    invariant form (x, y) = sum_i d_i x_i (A y)_i."""
    n = rs.rank
    a = rs.cartan
    d = symmetrizer(a)
    ax = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
    aa = [sum(a[i][j] * alpha[j] for j in range(n)) for i in range(n)]
    num = 2 * sum(d[i] * alpha[i] * ax[i] for i in range(n))
    den = sum(d[i] * alpha[i] * aa[i] for i in range(n))
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"{alpha} is not a root of this system")
    return q


# -- exact rank over Fractions ----------------------------------------------


def echelon_basis(vectors):
    """Canonical basis of the rational span: the reduced row echelon form
    over Fractions, each row scaled to the primitive integer vector with a
    positive pivot.  Two sets of vectors span the same space iff their
    bases are equal.  Memoized, since the chain and recursion sweeps ask
    for few distinct spans many times over."""
    return _rref(tuple(vectors))


@lru_cache(maxsize=None)
def _rref(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][c] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return tuple(_coprime_integers(row) for row in rows[:rank])


def fraction_rank(vectors):
    return len(echelon_basis(vectors))


# -- reference routes for ad, words and spans, over library elements --------


class Edge(NamedTuple):
    """A Bruhat-graph edge lower ~ upper = s_label lower, l(upper) >
    l(lower)."""

    lower: object
    upper: object
    label: tuple


def graph_edges(elements):
    """Every edge x ~ w = s_alpha x with both ends among the elements (of
    an interval), read off ``bruhat._reflected``."""
    from bruhatkit.bruhat import _reflected
    return [Edge(x, w, alpha) for w in elements
            for alpha, x in _reflected(w) if x in elements]


def lower_covers(w):
    """The edges x ~ w with l(x) = l(w) - 1."""
    from bruhatkit.bruhat import _reflected
    return [Edge(x, w, alpha) for alpha, x in _reflected(w)
            if x.length == w.length - 1]


def times_simple(w, i):
    """w s_i by ``multiply``.  Elements are interned, so a product made
    twice is the same object."""
    from bruhatkit.weyl import multiply, simple_reflection
    return multiply(w, simple_reflection(w.system, i))


def element_descent_labels(u, v):
    """The right-descent walk of ``bruhat.descent_labels`` on interned
    elements: each step is ``times_simple`` and the descents are the
    element's ``right_descents``; None when it ends with u != v."""
    from bruhatkit.weyl import right_descents
    rs, labels = u.system, []
    while u.length < v.length:
        i = min(right_descents(v))
        if i in right_descents(u):
            u = times_simple(u, i)
        else:
            labels.append(rs.signed_roots[u.perm[rs.simple_positions[i - 1]]])
        v = times_simple(v, i)
    return labels if u is v else None


def ad_direct(u, v):
    """The labels of all Bruhat-graph edges of [u, v], each once."""
    from bruhatkit.bruhat import interval
    return tuple(sorted({e.label
                         for e in graph_edges(interval(u, v).elements)}))


def ad_via_covers_at(u, v, end):
    """The labels of the covers of [u, v] at its "bottom" or "top" end."""
    from bruhatkit.bruhat import interval
    elements = interval(u, v).elements
    if end == "top":
        return tuple(e.label for e in lower_covers(v) if e.lower in elements)
    return tuple(e.label for y in elements if y.length == u.length + 1
                 for e in lower_covers(y) if e.lower is u)


def saturated_chain(u, v):
    """One maximal chain u = w_0 < w_1 < ... < w_k = v, as the steps
    (alpha_j, w_j) with w_j = s_alpha_j w_(j-1), built with no interval:
    from w = u, each step goes to the first s_alpha w, over the positive
    roots alpha in order, that covers w and is <= v."""
    from bruhatkit.bruhat import bruhat_le
    from bruhatkit.errors import NotComparableError
    from bruhatkit.weyl import multiply, reflection
    if not bruhat_le(u, v):
        raise NotComparableError(f"{u!r} is not <= {v!r}")
    rs, w, steps = u.system, u, []
    while w != v:
        step = next((a, y) for a in rs.positive_roots
                    for y in [multiply(reflection(rs, a), w)]
                    if y.length == w.length + 1 and bruhat_le(y, v))
        steps.append(step)
        w = step[1]
    return steps


def ad_via_chain(u, v):
    """The labels along ``saturated_chain``."""
    return tuple(alpha for alpha, _ in saturated_chain(u, v))


def td_span(se):
    """The rank of the span of a mask's betas: an oracle for ``se.td``."""
    return fraction_rank(beta for _, beta in se.betas)


def all_reduced_words(w):
    """Every reduced word of w: i then a word of s_i w, for each left
    descent i."""
    from bruhatkit.weyl import left_descents, multiply, simple_reflection
    if w.is_identity():
        return frozenset({()})
    return frozenset(
        (i,) + tail for i in left_descents(w) for tail in
        all_reduced_words(multiply(simple_reflection(w.system, i), w)))


# -- brute-force helpers over library elements -------------------------------


def subword_reachable(rs, word):
    """All elements expressible as a subexpression of the word; the subword
    property says u <= v iff u is reachable over a reduced word of v."""
    from bruhatkit.weyl import identity, multiply, simple_reflection
    reachable = {identity(rs)}
    for i in word:
        s = simple_reflection(rs, i)
        reachable |= {multiply(x, s) for x in reachable}
    return reachable


def brute_force_distinguished(rs, v_word, target):
    """Filter all 2^l masks by the raw definition of distinguished, keeping
    those whose prefix walk ends at the target element."""
    from bruhatkit.weyl import identity, multiply, simple_reflection
    masks = []
    for bits in product((True, False), repeat=len(v_word)):
        prefix = identity(rs)
        ok = True
        for take, i in zip(bits, v_word):
            stepped = multiply(prefix, simple_reflection(rs, i))
            if not take and stepped.length < prefix.length:
                ok = False  # skipped a forced descent
                break
            if take:
                prefix = stepped
        if ok and prefix == target:
            masks.append(tuple("take" if b else "skip" for b in bits))
    return masks


def element_moves(rs, k, x, i):
    """The distinguished moves of ``deodhar._moves`` on interned elements,
    read off lengths: take (to x s_i) always, skip only when x s_i > x; a
    skip carries beta_k = x(alpha_i) and a take that goes down
    -x(alpha_i)."""
    from bruhatkit.rootsys import negate
    from bruhatkit.weyl import apply_to_root
    y = times_simple(x, i)
    beta = apply_to_root(x, rs.simple_root(i))
    if y.length > x.length:
        return ("take", y, None), ("skip", x, (k, beta))
    return (("take", y, (k, negate(beta))),)


def two_pass_live_moves(rs, word, u):
    """The per-layer live moves of ``deodhar._live_moves`` by two whole
    passes over the word on interned elements, each state and next prefix
    given as its permutation.  The backward pass collects, for each k, the
    prefixes of length at most k from which a distinguished completion
    reaches u (y s_i by a take, y itself by a skip when y s_i > y); the
    forward pass goes layer by layer from the identity and keeps only the
    moves of ``element_moves`` into those sets."""
    from bruhatkit.weyl import identity
    n = len(word)
    reach = [{u}]
    for k in range(n - 1, -1, -1):
        i, here = word[k], set()
        for y in reach[-1]:
            ys = times_simple(y, i)
            if ys.length <= k:
                here.add(ys)
            if ys.length > y.length and y.length <= k:
                here.add(y)
        reach.append(here)
    reach.reverse()
    steps, layer = [], reach[0] & {identity(rs)}
    for k, i in enumerate(word):
        found = {x: tuple(move for move in element_moves(rs, k + 1, x, i)
                          if move[1] in reach[k + 1]) for x in layer}
        steps.append(found)
        layer = {move[1] for moves in found.values() for move in moves}
    steps.append({u: ()})
    return [{x.perm: tuple((choice, y.perm, entry)
                           for choice, y, entry in moves)
             for x, moves in step.items()} for step in steps]


def interval_all_roots(u, v):
    """[u, v] as (elements, graph edges), both frozensets, by a downward
    search from v that multiplies every element by all N reflections and
    keeps the x = s_alpha w of lower length, where the library reads the
    l(w) elements below w off its inversions."""
    from bruhatkit.bruhat import bruhat_le
    from bruhatkit.weyl import multiply, reflection
    rs = u.system
    elements = {v}
    candidates = []
    frontier = [v]
    while frontier:
        nxt = []
        for w in frontier:
            for alpha in rs.positive_roots:
                x = multiply(reflection(rs, alpha), w)
                if x.length < w.length:
                    candidates.append(Edge(x, w, alpha))
                if (x.length == w.length - 1 and x not in elements
                        and bruhat_le(u, x)):
                    elements.add(x)
                    nxt.append(x)
        frontier = nxt
    return (frozenset(elements),
            frozenset(e for e in candidates if e.lower in elements))


def minimal_coset_element(rs, w, subset):
    """Least-length element of the coset W_I w, by enumerating W_I."""
    from bruhatkit.weyl import identity, multiply, simple_reflection
    group = {identity(rs)}
    frontier = [identity(rs)]
    gens = [simple_reflection(rs, i) for i in subset]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = multiply(x, g)
                if y not in group:
                    group.add(y)
                    nxt.append(y)
        frontier = nxt
    coset = [multiply(a, w) for a in group]
    best = min(coset, key=lambda x: x.length)
    assert sum(1 for x in coset if x.length == best.length) == 1
    return best


def rows_by_words(elements, target, max_length=None):
    """``complexity_histogram`` or ``toric_schubert`` rows by the route that
    puts every element in canonical order and reads each support off its
    least reduced word."""
    from collections import Counter

    from bruhatkit.weyl import canonical_order, support, word_string
    elements = canonical_order(elements)
    if max_length is not None:
        elements = [w for w in elements if w.length <= max_length]
    if target == "complexity_histogram":
        counts = Counter(w.length - len(support(w)) for w in elements)
        return [{"value": value, "count": counts[value]}
                for value in sorted(counts)]
    rows = []
    for w in elements:
        supp_set = support(w)
        if w.length == len(supp_set):
            rows.append({"w": word_string(w), "length": w.length,
                         "support": ",".join(map(str, sorted(supp_set)))})
    return rows


def per_subset_histogram(rs, top):
    """The (value, count) pairs of l(w) - |supp(w)| over the w with
    l(w) <= top, by inclusion-exclusion over each subset T of the simple
    indices on its own: the Poincare polynomial P_T of W_T, the product
    of [h + 1]_q^(c_h - c_(h+1)) with c_h positive roots of W_T of height
    h (Macdonald 1972), cut after q^top, times (q - 1)^(r - |T|).  The sum
    over T is q^r times the sum of q^(l(w) - |supp(w)|)."""
    rank = rs.rank
    roots = [(sum(1 << j for j, c in enumerate(a) if c), sum(a))
             for a in rs.positive_roots]
    total = [0] * (top + rank + 1)
    for t in range(1 << rank):
        heights = Counter(h for mask, h in roots if mask & t == mask)
        poly = [1] + [0] * top
        for h, c in heights.items():
            for _ in range(c - heights[h + 1]):  # times [h + 1]_q, cut
                acc = [0] * (h + 1) + list(accumulate(poly))
                poly = [x - y for x, y in zip(acc[h + 1:], acc)]
        for _ in range(rank - t.bit_count()):  # times q - 1
            poly = [b - a for a, b in zip(poly + [0], [0] + poly)]
        for k, p in enumerate(poly):
            total[k] += p
    return [(k - rank, c) for k, c in enumerate(total) if c]


def scan_tables(rows, columns, meta):
    """The text, csv and json tables of ``cli scan`` over the dict rows of
    ``complexity.scan``, by one pass that hands each row to ``csv.writer``
    (a tab or a comma between cells) and to ``json.dumps``: the writers
    that the CLI's templates must match byte for byte."""
    import csv
    import io
    import json

    outs = {fmt: io.StringIO() for fmt in ("text", "csv", "json")}
    writers = [csv.writer(outs[fmt], lineterminator="\n", delimiter=sep)
               for fmt, sep in (("text", "\t"), ("csv", ","))]
    for writer in writers:
        writer.writerow(columns)
    outs["json"].write(json.dumps({"meta": meta}) + "\n")
    for row in rows:
        for writer in writers:
            writer.writerow(row.values())
        outs["json"].write(json.dumps(row) + "\n")
    return {fmt: out.getvalue() for fmt, out in outs.items()}


# -- Kazhdan-Lusztig R-polynomials -------------------------------------------


def _poly_trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def r_polynomial(u, v):
    """R_{u,v} as coefficients in ascending powers of q, () for zero.

    By the recursion on a right descent s of v (Kazhdan-Lusztig 1979):
    R_{u,v} = R_{us,vs} if s is a right descent of u, else
    (q-1) R_{u,vs} + q R_{us,vs}; and R_{u,id} is 1 for u = id, else 0.
    It vanishes exactly when u is not below v.
    """
    from bruhatkit.weyl import multiply, right_descents, simple_reflection
    if v.is_identity():
        return (1,) if u.is_identity() else ()
    i = min(right_descents(v))
    s = simple_reflection(v.system, i)
    vs = multiply(v, s)
    r_us = r_polynomial(multiply(u, s), vs)
    if i in right_descents(u):
        return r_us
    r_u = r_polynomial(u, vs)
    # (q-1) A + q B = -A + q (A + B)
    n = max(len(r_u), len(r_us)) + 1
    a = list(r_u) + [0] * (n - len(r_u))
    b = list(r_us) + [0] * (n - len(r_us))
    return _poly_trim(-a[k] + (a[k - 1] + b[k - 1] if k else 0)
                      for k in range(n))
