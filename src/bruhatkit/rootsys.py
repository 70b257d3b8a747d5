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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import InvalidInputError

Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

FAMILIES = "ABCDEFG"

# Positive-root counts and group orders for the finite families, used both
# for construction sanity checks and to refuse oversized enumerations early.
_E_DATA = {6: (36, 51840), 7: (63, 2903040), 8: (120, 696729600)}


def positive_root_count(family: str, rank: int) -> int:
    """Classical number of positive roots for the family/rank."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "E":
        return _E_DATA[rank][0]
    if family == "F":
        return 24
    if family == "G":
        return 6
    raise InvalidInputError(f"unknown family {family!r}")


def weyl_group_order(family: str, rank: int) -> int:
    """|W| for the family/rank."""
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return (1 << rank) * factorial(rank)
    if family == "D":
        return (1 << (rank - 1)) * factorial(rank)
    if family == "E":
        return _E_DATA[rank][1]
    if family == "F":
        return 1152
    if family == "G":
        return 12
    raise InvalidInputError(f"unknown family {family!r}")


def _standard_cartan(family: str, rank: int) -> Matrix:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, down: int = -1, up: int = -1) -> None:
        a[i][j] = down
        a[j][i] = up

    if family in ("A", "B", "C", "F", "G"):
        for i in range(rank - 1):
            bond(i, i + 1)
    if family == "B" and rank >= 2:
        a[rank - 1][rank - 2] = -2
    if family == "C" and rank >= 2:
        a[rank - 2][rank - 1] = -2
    if family == "D":
        # chain 1..(rank-1), with node rank attached to node rank-2; D2 is
        # the disconnected A1 x A1 diagram.
        for i in range(rank - 2):
            bond(i, i + 1)
        if rank >= 3:
            bond(rank - 3, rank - 1)
    if family == "E":
        # chain 1-3-4-5-..., with node 2 hanging off node 4 (Bourbaki).
        bond(0, 2)
        bond(1, 3)
        for i in range(2, rank - 1):
            bond(i, i + 1)
    if family == "F":
        a[2][1] = -2
        a[1][2] = -1
    if family == "G":
        a[0][1] = -3
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


# Families A-D stop where a system would have more positive roots than A45
# (1035), which takes about 1 s and 32 MB to build; the root_system registry
# keeps what it builds alive.
_RANK_RANGE = {"A": (1, 45), "B": (2, 32), "C": (2, 32), "D": (2, 32),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _check_family_rank(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise InvalidInputError(
            f"family must be one of {FAMILIES}, got {family!r}")
    lo, hi = _RANK_RANGE[family]
    if not lo <= rank <= hi:
        raise InvalidInputError(
            f"family {family} admits ranks {lo}..{hi}, got {rank}")


@dataclass(frozen=True)
class CartanDatum:
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
    and the permutation of the signed roots induced by each reflection.

    Immutable after construction (internal caches aside); safe to share
    between concurrent tasks.
    """

    def __init__(self, datum: CartanDatum):
        datum.validate()
        self.datum = datum
        self.rank = datum.rank
        self.cartan = datum.cartan
        self.positive_roots: tuple[Root, ...] = self._close()
        self.index: dict[Root, int] = {
            r: k for k, r in enumerate(self.positive_roots)}
        expected = positive_root_count(datum.family, datum.rank)
        if len(self.positive_roots) != expected:
            raise InvalidInputError(
                f"closure produced {len(self.positive_roots)} positive roots, "
                f"expected {expected} for {datum.family}{datum.rank}")
        self._build_permutations()
        # Interning cache for Weyl group elements, managed by the weyl module.
        self.element_cache: dict = {}

    # -- construction ----------------------------------------------------

    def simple_root(self, i: int) -> Root:
        """The i-th simple root (1-based)."""
        self._check_index(i)
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise InvalidInputError(
                f"simple index {i} out of range 1..{self.rank}")

    def _reflect_raw(self, i0: int, root: Root) -> Root:
        # s_i(x) = x - (row i of A . x) alpha_i, with i0 0-based.
        row = self.cartan[i0]
        c = sum(row[j] * root[j] for j in range(self.rank))
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
        # is bytes if 2N <= 256, which weyl.multiply composes by one translate
        # through u.perm + pad, else a tuple; only this method chooses.
        self.signed_roots: tuple[Root, ...] = self.positive_roots + tuple(
            negate(r) for r in self.positive_roots)
        n = len(self.signed_roots)
        self.pad: bytes | None = bytes(range(n, 256)) if n <= 256 else None
        perm = self.perm_type = tuple if self.pad is None else bytes
        self.position: dict[Root, int] = {
            r: k for k, r in enumerate(self.signed_roots)}
        self.simple_positions: tuple[int, ...] = tuple(
            self.index[self.simple_root(i)] for i in range(1, self.rank + 1))
        self.simple_perms: tuple[bytes | tuple[int, ...], ...] = tuple(
            perm(self.position[self._reflect_raw(i0, r)]
                  for r in self.signed_roots)
            for i0 in range(self.rank))
        # s_beta = s_i s_alpha s_i, where alpha = s_i(beta) is a positive
        # root of lower height; roots come in height order, so s_alpha is
        # always known before s_beta.
        perms = {self.simple_root(i0 + 1): s
                 for i0, s in enumerate(self.simple_perms)}
        for beta in self.positive_roots[self.rank:]:
            for s in self.simple_perms:
                alpha = self.signed_roots[s[self.index[beta]]]
                if alpha in perms:
                    s_alpha = perms[alpha]
                    perms[beta] = perm(s[s_alpha[q]] for q in s)
                    break
        self.reflection_perms: dict[Root, bytes | tuple[int, ...]] = perms

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
