"""Finite root systems by Dynkin label, with exact integer arithmetic.

A root system is given by its family and rank; its Cartan matrix is the
label's standard one (``_FAMILIES``).  Roots are stored as integer
coefficient vectors in the simple-root basis, so every span or rank
computation downstream runs over the integers and is basis-independent.  No
Euclidean embedding is ever constructed.

Conventions (the single place they are documented):

* Cartan matrix entries are ``a[i][j] = <alpha_j, alpha_i^vee>``, so the
  reflection action is ``s_i(x) = x - (row i of A . x) alpha_i``.
* Indices of simple roots are 1-based in the public API (matching words like
  ``[1, 2, 1]``); matrices are 0-indexed internally.
* Type B_n has its last simple root short (``a[n][n-1] = -2`` in 1-based
  terms); type C_n is the transpose of B_n.
* Type G_2 has its first simple root short: ``a = [[2, -3], [-1, 2]]``, so
  ``s_1(alpha_2) = 3 alpha_1 + alpha_2``.
* E_6/E_7/E_8 and F_4 follow the Bourbaki node numbering (branch node of E
  is node 4, attached to node 2; F_4 has the double bond between nodes 2
  and 3 with rows ``[0, -2, 2, -1]`` in the third row).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import itemgetter
from typing import Iterable

from .errors import InvalidInputError

Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def _path(n: int) -> list[tuple[int, int, int, int]]:
    return [(i, i + 1, -1, -1) for i in range(n - 1)]


# The classification (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates
# I-IX), one row per family: the ranks it admits and, as functions of the
# rank n, its Dynkin bonds (i, j, a_ij, a_ji) on 0-based nodes and its
# (N, |W|).  Families A-D stop where a system would have more positive roots
# than A45 (1035), which takes about 0.07 s and 16 MB to build, and 32 MB
# once its reflections are made; the root_system registry keeps what it
# builds alive.
_FAMILIES = {
    "A": (range(1, 46), _path,
          lambda n: (n * (n + 1) // 2, factorial(n + 1))),
    "B": (range(2, 33), lambda n: _path(n - 1) + [(n - 2, n - 1, -1, -2)],
          lambda n: (n * n, factorial(n) << n)),
    "C": (range(2, 33), lambda n: _path(n - 1) + [(n - 2, n - 1, -2, -1)],
          lambda n: (n * n, factorial(n) << n)),
    # Bourbaki nodes 1..n-1 in a path, node n on node n-2; D2 is A1 x A1.
    "D": (range(2, 33),
          lambda n: _path(n - 1) + [(n - 3, n - 1, -1, -1)] * (n > 2),
          lambda n: (n * (n - 1), factorial(n) << (n - 1))),
    # Bourbaki nodes: the path 1-3-4-5-..., with node 2 on node 4.
    "E": (range(6, 9),
          lambda n: [(0, 2, -1, -1), (1, 3, -1, -1)] + _path(n)[2:],
          {6: (36, 51840), 7: (63, 2903040), 8: (120, 696729600)}.get),
    "F": (range(4, 5),
          lambda n: [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)],
          lambda n: (24, 1152)),
    "G": (range(2, 3), lambda n: [(0, 1, -3, -1)], lambda n: (6, 12)),
}

FAMILIES = "".join(_FAMILIES)


def _counts(family: str, rank: int) -> tuple[int, int]:
    """(N, |W|) from the label's table row, after checking the label."""
    _check_family_rank(family, rank)
    return _FAMILIES[family][2](rank)


def positive_root_count(family: str, rank: int) -> int:
    """Classical number of positive roots for the family/rank; refuses
    what ``RootSystem`` refuses."""
    return _counts(family, rank)[0]


def weyl_group_order(family: str, rank: int) -> int:
    """|W| for the family/rank; refuses what ``RootSystem`` refuses."""
    return _counts(family, rank)[1]


def _standard_cartan(family: str, rank: int) -> Matrix:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, a_ij, a_ji in _FAMILIES[family][1](rank):
        a[i][j], a[j][i] = a_ij, a_ji
    return tuple(tuple(row) for row in a)


def _check_family_rank(family: str, rank: int) -> None:
    if not isinstance(family, str) or family not in _FAMILIES:
        raise InvalidInputError(
            f"family must be one of {FAMILIES}, got {family!r}")
    if type(rank) is not int:
        raise InvalidInputError(f"rank must be an int, got {rank!r}")
    ranks = _FAMILIES[family][0]
    if rank not in ranks:
        raise InvalidInputError(
            f"family {family} admits ranks {ranks[0]}..{ranks[-1]}, "
            f"got {rank}")


def root_height(root: Root) -> int:
    return sum(root)


def negate(root: Root) -> Root:
    return tuple(-c for c in root)


def _listed(items: Iterable, what: str) -> list:
    """The items as a list; refuses what is not iterable, but lets an error
    raised while iterating through."""
    try:
        it = iter(items)
    except TypeError:
        raise InvalidInputError(
            f"{what} must be an iterable of ints, got {items!r}") from None
    return list(it)


def _take(q: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    """The tuple format's ``apply``: entry k is p[q[k]]."""
    return itemgetter(*q)(p)


class RootSystem:
    """All positive roots of a finite root system, with exact arithmetic,
    and the permutations of the signed roots induced by the simple
    reflections; ``weyl`` makes the other reflections on first use.

    Immutable after construction (internal caches aside).
    """

    def __init__(self, family: str, rank: int):
        n_pos, self.order = _counts(family, rank)  # order is |W|
        self.family, self.rank = family, rank
        self.cartan = _standard_cartan(family, rank)  # int entries
        # The nonzero (j, a_ij) of each Cartan row, at most four.
        self._cartan_terms = tuple(
            tuple((j, a) for j, a in enumerate(row) if a)
            for row in self.cartan)
        self.positive_roots: tuple[Root, ...] = self._close(n_pos)
        self._build_permutations()
        # Interning cache for Weyl group elements, s_alpha by root index and
        # the set of their permutations, filled by weyl on first use.
        self.element_cache: dict = {}
        self.reflection_cache: list = []
        self.reflection_set: set = set()

    # -- construction ----------------------------------------------------

    def simple_root(self, i: int) -> Root:
        """The i-th simple root (1-based)."""
        self._check_index(i)
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def _check_index(self, i: int) -> None:
        if type(i) is not int:
            raise InvalidInputError(f"simple index must be an int, got {i!r}")
        if not 1 <= i <= self.rank:
            raise InvalidInputError(
                f"simple index {i} out of range 1..{self.rank}")

    def _check_subset(self, subset: Iterable[int]) -> frozenset[int]:
        items = _listed(subset, "subset")
        odd = [i for i in items if type(i) is not int]
        # The least non-int by repr is refused first, so an unhashable one
        # is refused before it is hashed; only ints are sorted.
        for i in [min(odd, key=repr)] if odd else sorted(set(items)):
            self._check_index(i)
        return frozenset(items)

    def _reflect_raw(self, i0: int, root: Root) -> Root:
        # s_i(x) = x - (row i of A . x) alpha_i, with i0 0-based.
        c = 0
        for j, a in self._cartan_terms[i0]:
            c += a * root[j]
        if not c:
            return root
        out = list(root)
        out[i0] -= c
        return tuple(out)

    def _close(self, n_pos: int) -> tuple[Root, ...]:
        simples = [tuple(1 if j == i else 0 for j in range(self.rank))
                   for i in range(self.rank)]
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for r in frontier:
                for i0 in range(self.rank):
                    s = self._reflect_raw(i0, r)
                    if s not in seen and all(c >= 0 for c in s):
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
            if len(seen) > n_pos:  # only a wrong reflection gets here
                raise AssertionError(f"closure has more than {n_pos} roots")
        return tuple(sorted(seen, key=lambda r: (root_height(r), r)))

    def _build_permutations(self) -> None:
        # Signed roots: positions 0..N-1 hold the positive roots and N..2N-1
        # their negatives, so a root is negative iff its position is >= N.
        # A permutation maps each position to the position of its image.  It
        # is bytes if 2N <= 256, else a tuple; only this method chooses, and
        # with the format it fixes the one product rule: p q is
        # apply(q, p + pad), on bytes one translate through the 256-byte
        # table p + pad, on tuples one itemgetter.  A table p + pad kept
        # for a repeated left factor p makes each product by it one call.
        # As s_i(-beta) = -s_i(beta), entry N + k is entry k moved N places.
        self.signed_roots: tuple[Root, ...] = self.positive_roots + tuple(
            negate(r) for r in self.positive_roots)
        n_pos, n = len(self.positive_roots), len(self.signed_roots)
        perm = self.perm_type = bytes if n <= 256 else tuple
        self.pad = bytes(range(n, 256)) if perm is bytes else ()
        self.apply = bytes.translate if perm is bytes else _take
        self.position: dict[Root, int] = {
            r: k for k, r in enumerate(self.signed_roots)}
        self.simple_positions: tuple[int, ...] = tuple(
            self.position[self.simple_root(i)]
            for i in range(1, self.rank + 1))
        flip = [*range(n_pos, n), *range(n_pos)]
        rows = ([self.position[self._reflect_raw(i0, r)]
                 for r in self.positive_roots] for i0 in range(self.rank))
        self.simple_perms: tuple[bytes | tuple[int, ...], ...] = tuple(
            perm(row + [flip[p] for p in row]) for row in rows)
        # s_i p is apply(p, simple_tables[i - 1]).
        self.simple_tables = tuple(s + self.pad for s in self.simple_perms)

    # -- predicates -------------------------------------------------------

    def is_positive_root(self, root: Root) -> bool:
        return (self.is_root(root)
                and self.position[root] < len(self.positive_roots))

    def is_root(self, root: Root) -> bool:
        try:
            return root in self.position
        except TypeError:  # unhashable, so not a root
            raise InvalidInputError(f"{root!r} is not a root") from None

    def __repr__(self) -> str:
        return (f"RootSystem({self.family}{self.rank}, "
                f"{len(self.positive_roots)} positive roots)")


def build_root_system(family: str, rank: int) -> RootSystem:
    """A fresh RootSystem for the family/rank, shared with no other caller.

    Its elements are interned apart from those of every other instance, so
    they never compare equal to them.  Use ``root_system`` for the shared
    instance.

    Positive roots are graded by height, then lexicographic on coefficient
    vectors.

    >>> rs = build_root_system("A", 2)
    >>> rs.positive_roots
    ((0, 1), (1, 0), (1, 1))
    >>> build_root_system("G", 2).cartan
    ((2, -3), (-1, 2))
    """
    return RootSystem(family, rank)


def root_system(family: str, rank: int) -> RootSystem:
    """The shared RootSystem of the family/rank.

    Every call with the same family and rank, positional or by keyword,
    returns the same instance, so its interned elements and the caches keyed
    on them are reused.  Use ``build_root_system`` for a private instance.

    >>> root_system("B", 3) is root_system(family="B", rank=3)
    True
    """
    _check_family_rank(family, rank)
    return _shared_system(family, rank)


# Keyed on (family, rank), so a hit builds nothing.  Bounded, so a process
# that walks through many labels does not keep every system alive; 32 is
# above the number of labels the test suite visits.
_shared_system = lru_cache(maxsize=32)(RootSystem)


def simple_reflect(rs: RootSystem, i: int, root: Root) -> Root:
    """Apply the simple reflection s_i to a root (either sign).

    >>> rs = root_system("G", 2)
    >>> simple_reflect(rs, 1, rs.simple_root(2))
    (3, 1)
    """
    rs._check_index(i)
    if not rs.is_root(root):
        raise InvalidInputError(f"{root} is not a root of {rs!r}")
    return rs._reflect_raw(i - 1, root)
