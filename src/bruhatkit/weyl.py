"""Weyl group elements as permutations of the signed roots.

An element is the permutation it induces on the 2N signed roots of its
root system (``RootSystem.signed_roots``): entry k is the position of the
image of root k.  It is ``bytes`` when 2N <= 256 (E6-E8, F4, G2, A1-A15,
B/C/D up to rank 11), so that a product is one ``bytes.translate``, and a
tuple above that; ``RootSystem._build_permutations`` chooses, and only
this module reads the format: ``_compose`` composes two permutations,
``_simple_times`` makes s_i1 ... s_ik p (a translate per letter through
``rs.simple_tables`` on bytes) and ``WeylElement.length`` counts.  Inverses
invert, and lengths and descents are read off which positive roots land on
negative positions.  Words compose left to right: ``from_word(rs, [1, 2])``
is s_1 s_2, acting by ``(s_1 s_2)(x) = s_1(s_2(x))``.

A walk that keeps only a word or labels (``from_word``, ``reduced_word``,
``bruhat.descent_labels``, the Deodhar mask search) steps through raw
permutations and interns only the elements it returns.  Elements are
interned per root system, so equality is identity, and lengths, inverses,
descents and reduced words are computed once per element.  The hash is
that of the permutation as a tuple of ints, the same in every run (a hash
of bytes is salted per process), so set and dict order never depends on
memory addresses or the hash seed.  Everything here is pure: a memo slot
is only ever written with its one correct value.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import GroupTooLargeError, InvalidInputError
from .rootsys import Root, RootSystem

SimpleSubset = frozenset[int]
Perm = bytes | tuple[int, ...]  # see RootSystem._build_permutations

#: Default refusal threshold for full group enumeration (= |W(E6)|).
DEFAULT_GROUP_CAP = 51840

#: Its first N bytes are the positions of the positive roots.
_BYTES = bytes(range(256))


class WeylElement:
    """A Weyl group element; obtain instances via from_word / identity.

    Besides its permutation, an element memoizes its length, inverse,
    right descents and least reduced word.
    """

    __slots__ = ("system", "perm", "_length", "_inverse", "_descents",
                 "_word", "_hash")

    def __init__(self, system: RootSystem, perm: Perm):
        self.system = system
        self.perm = perm
        self._length: int | None = None
        self._inverse: WeylElement | None = None
        self._descents: SimpleSubset | None = None
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
                sum(p >= n_pos for p in head) if self.system.pad is None
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
    return _reflections(rs)[rs.index[alpha]]


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Product of simple reflections in the given order.

    Every letter is checked before any is composed, so a letter that is
    not an int in 1..rank is refused whatever is interned.  The product is
    composed right to left by ``_simple_times`` on raw permutations, and
    only it is interned.

    >>> from bruhatkit.rootsys import root_system
    >>> rs = root_system("A", 2)
    >>> from_word(rs, [1, 2, 1]).length
    3
    >>> from_word(rs, [1, 1]) == identity(rs)
    True
    """
    word = list(word)
    for i in word:
        rs._check_index(i)
    return _intern(rs, _simple_times(rs, word, _identity_perm(rs)))


def _compose(rs: RootSystem, p: Perm, q: Perm) -> Perm:
    """The raw product p q (entry k is p[q[k]]), in either format."""
    return itemgetter(*q)(p) if rs.pad is None else q.translate(p + rs.pad)


def _simple_times(rs: RootSystem, word: list[int], p: Perm) -> Perm:
    """The raw product s_i1 ... s_ik p of a checked word with p, composed
    right to left: on bytes one translate per letter through the table
    s_i.perm + pad, else ``_compose``."""
    tables = rs.simple_tables
    if tables is None:
        for i in reversed(word):
            p = _compose(rs, rs.simple_perms[i - 1], p)
    else:
        for i in reversed(word):
            p = p.translate(tables[i - 1])
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
        if rs.pad is None:
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
    set it is the longest element of W.
    """
    sub = sorted(rs._check_subset(subset))
    w = identity(rs)
    while True:
        ascent = next((i for i in sub if i not in right_descents(w)), None)
        if ascent is None:
            return w
        w = multiply(w, simple_reflection(rs, ascent))


def _check_cap(rs: RootSystem, cap: int) -> None:
    """Refuse, with the exact order in the error, if |W| exceeds the cap."""
    if rs.order > cap:
        raise GroupTooLargeError(
            f"|W({rs.family}{rs.rank})| = {rs.order} exceeds the "
            f"enumeration cap {cap}", rs.order, cap)


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
        # Only a wrong product or inverse makes a longer or larger layer.
        if length > n_pos or len(layer) > len(rs.element_cache):
            raise AssertionError(f"layer {length} of {len(layer)} elements")
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
