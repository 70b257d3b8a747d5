"""Independent oracles used to cross-check the library.

The permutation model implements the symmetric group S_n directly on
one-line tuples, with its classical statistics (inversion count, descents,
the sorted-prefix Bruhat criterion), sharing no code with the root-lattice
implementation.  Rank oracles run Gaussian elimination over Fractions,
independent of the integer fraction-free routine.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

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


# -- exact rank over Fractions ----------------------------------------------


def fraction_rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


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


def interval_all_roots(u, v):
    """[u, v] as (elements, sorted graph edges) by a downward search from v
    that multiplies every element by all N reflections and keeps the
    x = s_alpha w of lower length, where the library reads the l(w)
    elements below w off its inversions."""
    from bruhatkit.bruhat import CoverEdge, _edge_key, bruhat_le
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
                    candidates.append(CoverEdge(x, w, alpha))
                if (x.length == w.length - 1 and x not in elements
                        and bruhat_le(u, x)):
                    elements.add(x)
                    nxt.append(x)
        frontier = nxt
    graph = sorted((e for e in candidates if e.lower in elements),
                   key=lambda e: _edge_key(rs, e))
    return frozenset(elements), tuple(graph)


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
