"""Weyl group elements as permutations of the signed roots.

An element is the permutation it induces on the 2N signed roots of its
root system (``RootSystem.signed_roots``): entry k is the position of the
image of root k.  It is ``bytes`` when 2N <= 256 (E6-E8, F4, G2, A1-A15,
B/C/D up to rank 11), so that a product is one ``bytes.translate``, and a
tuple above that; ``RootSystem._build_permutations`` chooses.  Products
compose, inverses invert, and lengths and descents are read off which
positive roots land on negative positions.  Words compose left to right:
``from_word(rs, [1, 2])`` is s_1 s_2, acting by
``(s_1 s_2)(x) = s_1(s_2(x))``.

Elements are interned per root system, so equality is identity, and
lengths, inverses, descents, reduced words and the products w s_i by simple
reflections (``times_simple``) are computed once per element.  The hash is
that of the permutation as a tuple of ints, the same in every run (a hash of
bytes is salted per process), so set and dict order never depends on memory
addresses or the hash seed.  Everything here is pure and safe for concurrent
readers: a memo slot is only ever written with its one correct value, so a
lost or repeated write costs time, not results.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import GroupTooLargeError, InvalidInputError
from .rootsys import Root, RootSystem, weyl_group_order

SimpleSubset = frozenset[int]
Perm = bytes | tuple[int, ...]  # see RootSystem._build_permutations

#: Default refusal threshold for full group enumeration (= |W(E6)|).
DEFAULT_GROUP_CAP = 51840


class WeylElement:
    """A Weyl group element; obtain instances via from_word / identity.

    Besides its permutation, an element memoizes its length, inverse,
    right descents, least reduced word and, in ``_right``, the products
    w s_i (a list of ``rank`` entries, allocated on first use by
    ``times_simple``).
    """

    __slots__ = ("system", "perm", "_length", "_inverse", "_descents",
                 "_word", "_right", "_hash")

    def __init__(self, system: RootSystem, perm: Perm):
        self.system = system
        self.perm = perm
        self._length: int | None = None
        self._inverse: WeylElement | None = None
        self._descents: SimpleSubset | None = None
        self._word: tuple[int, ...] | None = None
        self._right: list[WeylElement | None] | None = None
        self._hash = hash(tuple(perm))

    @property
    def length(self) -> int:
        """Coxeter length = number of positive roots sent negative."""
        if self._length is None:
            n_pos = len(self.system.positive_roots)
            self._length = sum(p >= n_pos for p in self.perm[:n_pos])
        return self._length

    def apply(self, root: Root) -> Root:
        rs = self.system
        return rs.signed_roots[self.perm[rs.position[root]]]

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


def identity(rs: RootSystem) -> WeylElement:
    return _intern(rs, rs.perm_type(range(len(rs.signed_roots))))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    rs._check_index(i)
    return _intern(rs, rs.simple_perms[i - 1])


def reflection(rs: RootSystem, alpha: Root) -> WeylElement:
    """The reflection s_alpha for a positive root alpha."""
    try:
        return _intern(rs, rs.reflection_perms[alpha])
    except KeyError:
        raise InvalidInputError(
            f"{alpha} is not a positive root of this system") from None


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Product of simple reflections in the given order.

    >>> from bruhatkit.rootsys import root_system
    >>> rs = root_system("A", 2)
    >>> from_word(rs, [1, 2, 1]).length
    3
    >>> from_word(rs, [1, 1]) == identity(rs)
    True
    """
    w = identity(rs)
    for i in word:
        w = times_simple(w, i)
    return w


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    if u.system is not v.system:
        raise InvalidInputError("elements belong to different root systems")
    rs = u.system
    if rs.pad is None:
        return _intern(rs, tuple(map(u.perm.__getitem__, v.perm)))
    return _intern(rs, v.perm.translate(u.perm + rs.pad))


def times_simple(w: WeylElement, i: int) -> WeylElement:
    """w s_i, made by ``multiply`` once per element and index.

    The product is kept on w, and w on w s_i, since (w s_i) s_i = w; a
    repeated product costs one list lookup.

    >>> from bruhatkit.rootsys import root_system
    >>> rs = root_system("A", 2)
    >>> times_simple(from_word(rs, [1, 2]), 2) is from_word(rs, [1])
    True
    """
    right = w._right
    if right is None:
        right = w._right = [None] * w.system.rank
    x = right[i - 1] if 0 < i <= len(right) else None
    if x is None:
        # simple_reflection refuses an index out of range.
        x = multiply(w, simple_reflection(w.system, i))
        right[i - 1] = x
        back = x._right
        if back is None:
            back = x._right = [None] * w.system.rank
        back[i - 1] = w
    return x


def inverse(w: WeylElement) -> WeylElement:
    if w._inverse is None:
        inv = [0] * len(w.perm)
        for k, p in enumerate(w.perm):
            inv[p] = k
        inv_el = _intern(w.system, w.system.perm_type(inv))
        w._inverse = inv_el
        inv_el._inverse = w
    return w._inverse


def apply_to_root(w: WeylElement, root: Root) -> Root:
    if not w.system.is_root(root):
        raise InvalidInputError(f"{root} is not a root of {w.system!r}")
    return w.apply(root)


def right_descents(w: WeylElement) -> SimpleSubset:
    """Simple indices i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
    if w._descents is None:
        n_pos = len(w.system.positive_roots)
        w._descents = frozenset(
            i for i, k in enumerate(w.system.simple_positions, start=1)
            if w.perm[k] >= n_pos)
    return w._descents


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
    descent.  The walk goes down that chain only until it meets an element
    whose word is known, then records the word of every element it passed,
    so each element's word costs one multiply in all.  The walk is a loop:
    w_0 of A45 has 1035 letters.

    >>> from bruhatkit.rootsys import root_system
    >>> rs = root_system("A", 2)
    >>> reduced_word(from_word(rs, [2, 1, 2]))
    (1, 2, 1)
    """
    chain = []
    x = w
    while x._word is None:
        if x.is_identity():
            x._word = ()
            break
        i = min(left_descents(x))
        chain.append((x, i))
        x = multiply(simple_reflection(x.system, i), x)
    word = x._word
    for y, i in reversed(chain):
        word = (i,) + word
        y._word = word
    return word


def all_reduced_words(w: WeylElement) -> frozenset[tuple[int, ...]]:
    """Every reduced word of w."""
    if w.is_identity():
        return frozenset({()})
    words = set()
    for i in left_descents(w):
        rest = all_reduced_words(multiply(simple_reflection(w.system, i), w))
        words.update((i,) + tail for tail in rest)
    return frozenset(words)


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
    sub = frozenset(subset)
    rs = w.system
    for i in sorted(sub):
        rs._check_index(i)
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
    set it is the longest element of W.
    """
    sub = sorted(frozenset(subset))
    for i in sub:
        rs._check_index(i)
    w = identity(rs)
    while True:
        ascent = next((i for i in sub if i not in right_descents(w)), None)
        if ascent is None:
            return w
        w = multiply(w, simple_reflection(rs, ascent))


def _check_cap(rs: RootSystem, cap: int) -> None:
    """Refuse, with the exact order in the error, if |W| exceeds the cap."""
    order = weyl_group_order(rs.datum.family, rs.rank)
    if order > cap:
        raise GroupTooLargeError(
            f"|W({rs.datum.family}{rs.rank})| = {order} exceeds the "
            f"enumeration cap {cap}", order, cap)


def _layers(rs: RootSystem,
            toric: bool = False) -> Iterator[list[WeylElement]]:
    """The length layers of W (with ``toric``, of its elements whose reduced
    words repeat no letter) in canonical order, each built only when asked
    for; callers check the cap first (``_check_cap``).

    The least reduced word of y is (i,) + that of s_i y, with i the least
    left descent of y.  So layer k + 1 is, for i = 1..r and x in layer k in
    order, each y = s_i x whose least left descent is i (and, if toric, i
    not in x's word), made by one multiply with its length and word.
    """
    n_pos = len(rs.positive_roots)
    simple = rs.simple_positions
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    # i is the least left descent of s_i x iff x^-1 sends alpha_i and each
    # s_i(alpha_j), j < i (positions lower[i]), to positive roots.  x^-1
    # has x's length and is toric when x is, so it interns no new element.
    lower = [[g.perm[simple[j]] for j in range(i)]
             for i, g in enumerate(gens)]
    layer = [identity(rs)]
    layer[0]._word = ()
    length = 0
    while layer:
        yield layer
        length += 1
        inverses = [inverse(x).perm for x in layer]
        nxt = []
        for i, (k, g, below) in enumerate(zip(simple, gens, lower), start=1):
            for x, p in zip(layer, inverses):
                if (p[k] < n_pos and all(p[q] < n_pos for q in below)
                        and not (toric and i in x._word)):
                    y = multiply(g, x)
                    y._length = length
                    y._word = (i,) + x._word
                    nxt.append(y)
        layer = nxt


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
    return tuple(w for layer in _layers(rs) for w in layer)


def canonical_order(elements: Iterable[WeylElement]) -> list[WeylElement]:
    """Sort by length, then lexicographically by least reduced word."""
    return sorted(elements, key=lambda w: (w.length, reduced_word(w)))
