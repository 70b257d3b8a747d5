"""Finite root systems from Cartan matrices, with exact integer arithmetic.

Roots are stored as integer coefficient vectors in the simple-root basis, so
every span or rank computation downstream runs over the integers and is
basis-independent.  No Euclidean embedding is ever constructed.

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

``CartanDatum`` is an immutable NamedTuple; it compares and hashes as the
tuple of its fields.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, NamedTuple

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


def positive_root_count(family: str, rank: int) -> int:
    """Classical number of positive roots for the family/rank; refuses
    what ``cartan_datum`` refuses."""
    _check_family_rank(family, rank)
    return _FAMILIES[family][2](rank)[0]


def weyl_group_order(family: str, rank: int) -> int:
    """|W| for the family/rank; refuses what ``cartan_datum`` refuses."""
    _check_family_rank(family, rank)
    return _FAMILIES[family][2](rank)[1]


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


class CartanDatum(NamedTuple):
    """A family label, a rank, and the Cartan matrix tying them together."""

    family: str
    rank: int
    cartan: Matrix

    def validate(self) -> None:
        _check_family_rank(self.family, self.rank)
        n = self.rank
        if len(self.cartan) != n or any(len(row) != n for row in self.cartan):
            raise InvalidInputError("Cartan matrix shape does not match rank")
        for i in range(n):
            if self.cartan[i][i] != 2:
                raise InvalidInputError(
                    f"Cartan diagonal entry a[{i + 1}][{i + 1}] = "
                    f"{self.cartan[i][i]}, expected 2")
            for j in range(n):
                if i != j and self.cartan[i][j] > 0:
                    raise InvalidInputError(
                        f"positive off-diagonal Cartan entry at "
                        f"({i + 1}, {j + 1})")
                if i != j and (self.cartan[i][j] == 0) != (self.cartan[j][i] == 0):
                    raise InvalidInputError(
                        f"Cartan zero pattern must be symmetric at "
                        f"({i + 1}, {j + 1})")


def cartan_datum(family: str, rank: int) -> CartanDatum:
    """Standard CartanDatum for the family/rank.

    >>> cartan_datum("G", 2).cartan
    ((2, -3), (-1, 2))
    """
    _check_family_rank(family, rank)
    datum = CartanDatum(family, rank, _standard_cartan(family, rank))
    datum.validate()
    return datum


def root_height(root: Root) -> int:
    return sum(root)


def negate(root: Root) -> Root:
    return tuple(-c for c in root)


class RootSystem:
    """All positive roots of a finite root system, with exact arithmetic,
    and the permutations of the signed roots induced by the simple
    reflections; ``weyl`` makes the other reflections on first use.

    Immutable after construction (internal caches aside).
    """

    def __init__(self, datum: CartanDatum):
        datum.validate()
        self.datum = datum
        self.rank = datum.rank
        self.cartan = datum.cartan
        # The nonzero (j, a_ij) of each Cartan row, at most four.
        self._cartan_terms = tuple(
            tuple((j, a) for j, a in enumerate(row) if a)
            for row in self.cartan)
        self.positive_roots: tuple[Root, ...] = self._close()
        self.index: dict[Root, int] = {
            r: k for k, r in enumerate(self.positive_roots)}
        expected = positive_root_count(datum.family, datum.rank)
        if len(self.positive_roots) != expected:
            raise InvalidInputError(
                f"closure produced {len(self.positive_roots)} positive roots, "
                f"expected {expected} for {datum.family}{datum.rank}")
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
        if not 1 <= i <= self.rank:
            raise InvalidInputError(
                f"simple index {i} out of range 1..{self.rank}")

    def _check_subset(self, subset: Iterable[int]) -> frozenset[int]:
        sub = frozenset(subset)
        for i in sorted(sub):
            self._check_index(i)
        return sub

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

    def _close(self) -> tuple[Root, ...]:
        simples = [tuple(1 if j == i else 0 for j in range(self.rank))
                   for i in range(self.rank)]
        seen = set(simples)
        frontier = list(simples)
        cap = 10 * positive_root_count(self.datum.family, self.datum.rank) + 16
        while frontier:
            nxt = []
            for r in frontier:
                for i0 in range(self.rank):
                    s = self._reflect_raw(i0, r)
                    if s not in seen and all(c >= 0 for c in s):
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
            if len(seen) > cap:
                raise InvalidInputError(
                    "root closure does not terminate; Cartan matrix is not "
                    "of finite type")
        return tuple(sorted(seen, key=lambda r: (root_height(r), r)))

    def _build_permutations(self) -> None:
        # Signed roots: positions 0..N-1 hold the positive roots and N..2N-1
        # their negatives, so a root is negative iff its position is >= N.
        # A permutation maps each position to the position of its image.  It
        # is bytes if 2N <= 256, which weyl._compose composes by one translate
        # through p + pad, else a tuple; only this method chooses.  As
        # s_i(-beta) = -s_i(beta), entry N + k is entry k moved N places.
        self.signed_roots: tuple[Root, ...] = self.positive_roots + tuple(
            negate(r) for r in self.positive_roots)
        n_pos, n = len(self.positive_roots), len(self.signed_roots)
        self.pad: bytes | None = bytes(range(n, 256)) if n <= 256 else None
        perm = self.perm_type = tuple if self.pad is None else bytes
        self.position: dict[Root, int] = {
            r: k for k, r in enumerate(self.signed_roots)}
        self.simple_positions: tuple[int, ...] = tuple(
            self.index[self.simple_root(i)] for i in range(1, self.rank + 1))
        flip = [*range(n_pos, n), *range(n_pos)]
        rows = ([self.position[self._reflect_raw(i0, r)]
                 for r in self.positive_roots] for i0 in range(self.rank))
        self.simple_perms: tuple[bytes | tuple[int, ...], ...] = tuple(
            perm(row + [flip[p] for p in row]) for row in rows)

    # -- predicates -------------------------------------------------------

    def is_positive_root(self, root: Root) -> bool:
        return root in self.index

    def is_root(self, root: Root) -> bool:
        return root in self.position

    def __repr__(self) -> str:
        return (f"RootSystem({self.datum.family}{self.rank}, "
                f"{len(self.positive_roots)} positive roots)")


def build_root_system(datum: CartanDatum) -> RootSystem:
    """A fresh RootSystem for the datum, shared with no other caller.

    Its elements are interned apart from those of every other instance, so
    they never compare equal to them.  Use ``root_system`` for the shared
    instance of a standard datum.

    Positive roots are graded by height, then lexicographic on coefficient
    vectors.

    >>> rs = build_root_system(cartan_datum("A", 2))
    >>> rs.positive_roots
    ((0, 1), (1, 0), (1, 1))
    """
    return RootSystem(datum)


def root_system(family: str, rank: int) -> RootSystem:
    """The shared RootSystem of ``cartan_datum(family, rank)``.

    Every call with the same family and rank, positional or by keyword,
    returns the same instance, so its interned elements and the caches keyed
    on them are reused.  Use ``build_root_system`` for a private instance.

    >>> root_system("B", 3) is root_system(family="B", rank=3)
    True
    """
    _check_family_rank(family, rank)
    return _shared_system(family, rank)


# Keyed on (family, rank), so a hit neither builds nor validates a datum.
# Bounded, so a process that walks through many data does not keep every
# system alive; 32 is above the number of data the test suite visits.
@lru_cache(maxsize=32)
def _shared_system(family: str, rank: int) -> RootSystem:
    return RootSystem(cartan_datum(family, rank))


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
