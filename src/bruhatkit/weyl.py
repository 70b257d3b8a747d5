"""Weyl group elements as permutations of the signed roots.

An element is the permutation it induces on the 2N signed roots of its
root system (``RootSystem.signed_roots``): entry k is the position of the
image of root k.  It is ``bytes`` when 2N <= 256 (E6-E8, F4, G2, A1-A15,
B/C/D up to rank 11), so that a product is one ``bytes.translate``, and a
tuple above that.  ``RootSystem._build_permutations`` chooses, and with
the format its one product rule: p q is ``rs.apply(q, p + rs.pad)``.
``_compose`` makes a one-off product so; a repeated left factor p keeps
its table p + pad, as ``rs.simple_tables`` does for each s_i, so that
each product by it is one ``rs.apply``.  Only ``WeylElement.length`` and
``inverse`` branch on the format (``rs.perm_type``), as their algorithms
differ by it.  Lengths and descents are read off which positive roots
land on negative positions.  Words compose left to right:
``from_word(rs, [1, 2])`` is s_1 s_2, acting by
``(s_1 s_2)(x) = s_1(s_2(x))``.

A walk that keeps only a word, labels or its last element (``from_word``,
``reduced_word``, ``longest_element``, the scans' ``_layers``,
``bruhat.descent_labels``, the Deodhar mask search) steps through raw
permutations and interns only the elements it returns.  ``_layers``
returns none, and carries each element's word string, made by one
concatenation onto that of the element it came from, which the
``levi_table`` and ``toric_schubert`` rows print as they are.  Elements
are interned per root system, so equality is identity, and lengths,
inverses, descents and reduced words are computed once per element.  The
hash is that of the permutation as a tuple of ints, the same in every run
(a hash of bytes is salted per process), so set and dict order never
depends on memory addresses or the hash seed.  Everything here is pure: a
memo slot is only ever written with its one correct value.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import GroupTooLargeError, InvalidInputError
from .rootsys import Root, RootSystem, _listed

SimpleSubset = frozenset[int]
Perm = bytes | tuple[int, ...]  # see RootSystem._build_permutations

#: Default refusal threshold for full group enumeration (= |W(E6)|).
DEFAULT_GROUP_CAP = 51840

#: Its first N bytes are the positions of the positive roots.
_BYTES = bytes(range(256))


class WeylElement:
    """A Weyl group element; obtain instances via from_word / identity.

    Besides its permutation, an element memoizes its length, inverse and
    least reduced word.
    """

    __slots__ = ("system", "perm", "_length", "_inverse", "_word", "_hash")

    def __init__(self, system: RootSystem, perm: Perm):
        self.system = system
        self.perm = perm
        self._length: int | None = None
        self._inverse: WeylElement | None = None
        self._word: tuple[int, ...] | None = None
        self._hash = hash(tuple(perm))

    @property
    def length(self) -> int:
        """Coxeter length = number of positive roots sent negative; on
        bytes, what is left of the first N entries once those below N are
        deleted."""
        if self._length is None:
            n_pos = len(self.system.positive_roots)
            head = self.perm[:n_pos]
            self._length = (
                sum(p >= n_pos for p in head)
                if self.system.perm_type is tuple
                else len(head.translate(None, _BYTES[:n_pos])))
        return self._length

    def is_identity(self) -> bool:
        return self.length == 0

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return multiply(self, other)

    def __invert__(self) -> "WeylElement":
        return inverse(self)

    # __eq__ is object's identity test: one element per permutation and
    # system, see _intern.

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"WeylElement({word_string(self)})"

    def sort_key(self) -> tuple:
        """Deterministic total order: by length, then the entries of the
        simple-root-coordinate matrix whose column j is w(alpha_j)."""
        rs = self.system
        images = [rs.signed_roots[self.perm[k]] for k in rs.simple_positions]
        return (self.length, tuple(zip(*images)))


def _intern(rs: RootSystem, perm: Perm) -> WeylElement:
    cache = rs.element_cache
    el = cache.get(perm)
    if el is None:
        el = cache.setdefault(perm, WeylElement(rs, perm))
    return el


def _identity_perm(rs: RootSystem) -> Perm:
    return rs.perm_type(range(len(rs.signed_roots)))


def identity(rs: RootSystem) -> WeylElement:
    return _intern(rs, _identity_perm(rs))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    rs._check_index(i)
    return _intern(rs, rs.simple_perms[i - 1])


def _reflections(rs: RootSystem) -> list[WeylElement]:
    """The reflections s_alpha by root index, made on the first call for a
    system and kept in ``rs.reflection_cache`` (their permutations in
    ``rs.reflection_set``).  A non-simple beta at index k takes s_i s_alpha
    s_i, composed on the permutations by ``_compose``, for the first i with
    s_i.perm[k] < k: alpha = s_i(beta) is earlier, so s_alpha is made.
    """
    made = rs.reflection_cache
    if not made:
        perms = dict(zip(rs.simple_positions, rs.simple_perms))
        for k in range(rs.rank, len(rs.positive_roots)):
            s = next(s for s in rs.simple_perms if s[k] < k)
            perms[k] = _compose(rs, _compose(rs, s, perms[s[k]]), s)
        made.extend(_intern(rs, perms[k]) for k in range(len(perms)))
        rs.reflection_set.update(perms.values())
    return made


def reflection(rs: RootSystem, alpha: Root) -> WeylElement:
    """The reflection s_alpha for a positive root alpha."""
    if not rs.is_positive_root(alpha):
        raise InvalidInputError(
            f"{alpha} is not a positive root of this system")
    return _reflections(rs)[rs.position[alpha]]


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Product of simple reflections in the given order.

    Every letter is checked before any is composed, so a word that is not
    iterable, or a letter that is not an int in 1..rank, is refused
    whatever is interned.  The product is composed right to left by
    ``_simple_times`` on raw permutations, and only it is interned.

    >>> from bruhatkit.rootsys import root_system
    >>> rs = root_system("A", 2)
    >>> from_word(rs, [1, 2, 1]).length
    3
    >>> from_word(rs, [1, 1]) == identity(rs)
    True
    """
    word = _listed(word, "word")
    for i in word:
        rs._check_index(i)
    return _intern(rs, _simple_times(rs, word, _identity_perm(rs)))


def _compose(rs: RootSystem, p: Perm, q: Perm) -> Perm:
    """The raw product p q: entry k is p[q[k]]."""
    # Called from a local: CPython 3.11 does not specialize the call
    # rs.apply(...) of an instance attribute, which costs about 20 ns more.
    apply = rs.apply
    return apply(q, p + rs.pad)


def _simple_times(rs: RootSystem, word: list[int], p: Perm) -> Perm:
    """The raw product s_i1 ... s_ik p of a checked word with p, composed
    right to left, one ``apply`` per letter through ``rs.simple_tables``."""
    apply, tables = rs.apply, rs.simple_tables
    for i in reversed(word):
        p = apply(p, tables[i - 1])
    return p


def _same_system(u: WeylElement, v: WeylElement) -> RootSystem:
    """The root system of u and v; refuses elements of two systems."""
    if u.system is not v.system:
        raise InvalidInputError("elements belong to different root systems")
    return u.system


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    rs = _same_system(u, v)
    return _intern(rs, _compose(rs, u.perm, v.perm))


def inverse(w: WeylElement) -> WeylElement:
    """w^-1, whose permutation sends p[k] to k, p that of w."""
    if w._inverse is None:
        p, rs = w.perm, w.system
        if rs.perm_type is tuple:
            inv = [0] * len(p)
            for k, q in enumerate(p):
                inv[q] = k
        else:  # one C call: the table sends each byte p[k] to k
            inv = bytes.maketrans(p, bytes(range(len(p))))[:len(p)]
        inv_el = _intern(rs, rs.perm_type(inv))
        w._inverse = inv_el
        inv_el._inverse = w
    return w._inverse


def apply_to_root(w: WeylElement, root: Root) -> Root:
    """w(root) for a root of either sign; anything else is refused."""
    rs = w.system
    if not rs.is_root(root):
        raise InvalidInputError(f"{root} is not a root of {rs!r}")
    return rs.signed_roots[w.perm[rs.position[root]]]


def right_descents(w: WeylElement) -> SimpleSubset:
    """Simple indices i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
    n_pos = len(w.system.positive_roots)
    return frozenset(i for i, k in enumerate(w.system.simple_positions, 1)
                     if w.perm[k] >= n_pos)


def left_descents(w: WeylElement) -> SimpleSubset:
    """Simple indices i with l(s_i w) < l(w), i.e. w^{-1}(alpha_i) negative."""
    return right_descents(inverse(w))


def right_inversions(w: WeylElement) -> frozenset[Root]:
    """{alpha in Phi+ : w(alpha) in Phi-}; has exactly l(w) members."""
    roots = w.system.positive_roots
    return frozenset(r for r, p in zip(roots, w.perm) if p >= len(roots))


def left_inversions(w: WeylElement) -> frozenset[Root]:
    """{alpha in Phi+ : w^{-1}(alpha) in Phi-}; has exactly l(w) members."""
    return right_inversions(inverse(w))


@lru_cache(maxsize=None)
def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """The lexicographically least reduced word (greedy least left descent).

    The word of w is (i,) + the word of s_i w, with i the least left
    descent: the least i whose simple root is the image of a negative root
    (``perm.index``).  The walk steps on raw permutations
    (``_simple_times``) and interns nothing; it goes down only until it
    meets an interned element whose word is known, or one with no descent,
    the identity, and records the word of every interned element it
    passed.  It is a loop: w_0 of A45 has 1035 letters, and past its bound
    of l(w) steps it raises.

    >>> from bruhatkit.rootsys import root_system
    >>> rs = root_system("A", 2)
    >>> reduced_word(from_word(rs, [2, 1, 2]))
    (1, 2, 1)
    """
    rs = w.system
    cache, n_pos = rs.element_cache, len(rs.positive_roots)
    chain = []
    p, x = w.perm, w
    while x is None or x._word is None:
        i = next((i for i, k in enumerate(rs.simple_positions, start=1)
                  if p.index(k) >= n_pos), None)
        if i is None:  # p is the identity
            break
        if len(chain) == w.length:  # only wrong products get here
            raise AssertionError(f"no reduced word after {w.length} descents")
        chain.append((x, i))
        p = _simple_times(rs, [i], p)
        x = cache.get(p)
    word = () if x is None else x._word or ()
    for y, i in reversed(chain):
        word = (i,) + word
        if y is not None:
            y._word = word
    return word


def support(w: WeylElement) -> SimpleSubset:
    """Simple indices occurring in one (hence every) reduced word of w.

    Read off the least reduced word, which is cheap once that word is
    known.
    """
    return frozenset(reduced_word(w))


def word_string(w: WeylElement) -> str:
    """Dot-separated reduced word; the identity renders as "id"."""
    return ".".join(map(str, reduced_word(w))) or "id"


def left_parabolic_decomposition(
        w: WeylElement, subset: Iterable[int]) -> tuple[WeylElement, WeylElement]:
    """w = a d with a in W_I, d with no left descent in I, lengths additive.

    Computed by iteratively stripping left descents lying in I.
    """
    rs = w.system
    sub = rs._check_subset(subset)
    a = identity(rs)
    d = w
    while True:
        common = left_descents(d) & sub
        if not common:
            return a, d
        i = min(common)
        s = simple_reflection(rs, i)
        a = multiply(a, s)
        d = multiply(s, d)


def right_parabolic_decomposition(
        w: WeylElement, subset: Iterable[int]) -> tuple[WeylElement, WeylElement]:
    """w = w^I w_I with w_I in W_I, w^I with no right descent in I.

    The inverse of the left decomposition w^{-1} = a d, which is unique.
    """
    a, d = left_parabolic_decomposition(inverse(w), subset)
    return inverse(d), inverse(a)


def longest_element(rs: RootSystem, subset: Iterable[int] = ()) -> WeylElement:
    """The maximal-length element w_0(I) of the standard parabolic W_I.

    With the default empty subset this is the identity; with the full index
    set it is the longest element of W.  Built by ``_longest_perm``, and
    only it is interned.
    """
    return _intern(rs, _longest_perm(rs, sorted(rs._check_subset(subset))))


def _longest_perm(rs: RootSystem, sub: list[int]) -> Perm:
    """The raw w_0(I) of a checked, sorted I: from the identity, times s_i
    on the right (``_compose``) for the least i in I with w(alpha_i)
    positive, until there is none."""
    n_pos, simple, gens = (len(rs.positive_roots), rs.simple_positions,
                           rs.simple_perms)
    p = _identity_perm(rs)
    while i := next((i for i in sub if p[simple[i - 1]] < n_pos), None):
        p = _compose(rs, p, gens[i - 1])
    return p


def _check_cap(rs: RootSystem, cap: int) -> None:
    """Refuse a cap that is no int, and, with the exact order in the error,
    a group of more elements than the cap."""
    if type(cap) is not int:
        raise InvalidInputError(f"cap must be an int, got {cap!r}")
    if rs.order > cap:
        raise GroupTooLargeError(
            f"|W({rs.family}{rs.rank})| = {rs.order} exceeds the "
            f"enumeration cap {cap}", rs.order, cap)


def _layers(rs: RootSystem, toric: bool = False
            ) -> Iterator[list[tuple[Perm, Perm, tuple[int, ...], str]]]:
    """The length layers of W (with ``toric``, of its elements whose reduced
    words repeat no letter) in canonical order, each built only when asked
    for, as (permutation, inverse, least reduced word, word string) tuples
    that intern nothing; callers check the cap first (``_check_cap``).

    The least reduced word of y is (i,) + that of s_i y, with i the least
    left descent of y.  So layer k + 1 is, for i = 1..r and x in layer k in
    order, each y = s_i x whose least left descent is i (and, if toric, i
    not in x's word), made with y^-1 = x^-1 s_i by two raw products: y by
    one ``rs.apply`` through the kept table of s_i (``rs.simple_tables``),
    and y^-1 by ``_compose``, whose left factor x^-1 changes every time.
    The word string is the word joined by dots ("" for the identity), and
    that of y is "i." + that of x, one concatenation.
    """
    n_pos = len(rs.positive_roots)
    simple, gens = rs.simple_positions, rs.simple_perms
    apply, tables = rs.apply, rs.simple_tables
    # i is the least left descent of s_i x iff x^-1 sends alpha_i and each
    # s_i(alpha_j), j < i, to positive roots.  For i > 1 one itemgetter
    # reads all their images, once that of alpha_i is seen positive.
    reads = [itemgetter(k, *(g[simple[j]] for j in range(i)))
             for i, (k, g) in enumerate(zip(simple, gens))]
    e = _identity_perm(rs)
    layer, length = [(e, e, (), "")], 0
    while layer:
        # Only a wrong product makes a longer layer or one larger than W.
        if length > n_pos or len(layer) > rs.order:
            raise AssertionError(f"layer {length} of {len(layer)} elements")
        yield layer
        length += 1
        nxt = []
        for i, (k, g, t, read) in enumerate(
                zip(simple, gens, tables, reads), start=1):
            head = f"{i}." if length > 1 else str(i)
            for p, q, word, text in layer:
                if (q[k] < n_pos and (i == 1 or max(read(q)) < n_pos)
                        and not (toric and i in word)):
                    nxt.append((apply(p, t), _compose(rs, q, g),
                                (i,) + word, head + text))
        layer = nxt


def _interned(rs: RootSystem, walked) -> tuple[WeylElement, ...]:
    """The elements of ``_layers`` tuples, with their lengths and words."""
    elements = []
    for p, _, word, _ in walked:
        elements.append(w := _intern(rs, p))
        w._length, w._word = len(word), word
    return tuple(elements)


def enumerate_group(rs: RootSystem,
                    cap: int = DEFAULT_GROUP_CAP) -> tuple[WeylElement, ...]:
    """All Weyl group elements in canonical order (length, then least
    reduced word), each made once and with its word known (``_layers``).
    Refuses if |W| exceeds the cap.

    >>> from bruhatkit.rootsys import root_system
    >>> [word_string(w) for w in enumerate_group(root_system("A", 3))
    ...  if w.length == 2]
    ['1.2', '1.3', '2.1', '2.3', '3.2']
    """
    _check_cap(rs, cap)
    return _interned(rs, chain.from_iterable(_layers(rs)))


def canonical_order(elements: Iterable[WeylElement]) -> list[WeylElement]:
    """Sort by length, then lexicographically by least reduced word."""
    return sorted(elements, key=lambda w: (w.length, reduced_word(w)))
