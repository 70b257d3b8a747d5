"""A small Weyl-group model, independent of bruhatkit, for making and
checking benchmark inputs.

An element is stored as the permutation it induces on the list of all roots
(positive roots first, then their negatives), so products are compositions
and lengths are counts of positive roots sent negative.  The conventions
match bruhatkit's: roots in the simple-root basis, Cartan entry
``a[i][j] = <alpha_j, alpha_i^vee>``, ``s_i(x) = x - (A x)_i alpha_i``,
1-based simple indices, and Bourbaki node numbering for family D.

Only families A-D are needed by the workloads and the checks.
"""

from __future__ import annotations

from fractions import Fraction


def cartan(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int) -> None:
        a[i][j] = a[j][i] = -1

    if family in "ABC":
        for i in range(rank - 1):
            bond(i, i + 1)
        if family == "B":
            a[rank - 1][rank - 2] = -2
        if family == "C":
            a[rank - 2][rank - 1] = -2
    elif family == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    else:
        raise ValueError(f"family {family!r} is not modelled")
    return tuple(tuple(row) for row in a)


class Group:
    """The Weyl group of one Cartan matrix, acting on its roots."""

    def __init__(self, family: str, rank: int):
        self.rank = rank
        a = cartan(family, rank)

        def reflect(i: int, x: tuple[int, ...]) -> tuple[int, ...]:
            c = sum(a[i][j] * x[j] for j in range(rank))
            return x[:i] + (x[i] - c,) + x[i + 1:]

        simples = [tuple(int(j == i) for j in range(rank))
                   for i in range(rank)]
        positive = set(simples)
        frontier = list(simples)
        while frontier:
            frontier = [y for x in frontier for i in range(rank)
                        for y in [reflect(i, x)]
                        if min(y) >= 0 and y not in positive
                        and not positive.add(y)]
        self.n_pos = len(positive)
        pos = sorted(positive, key=lambda r: (sum(r), r))
        self.roots = pos + [tuple(-c for c in r) for r in pos]
        index = {r: k for k, r in enumerate(self.roots)}
        self.simple = [index[r] for r in simples]
        self.gens = [tuple(index[reflect(i, r)] for r in self.roots)
                     for i in range(rank)]
        self.identity = tuple(range(len(self.roots)))

    # -- elements -------------------------------------------------------

    def right(self, w: tuple[int, ...], i: int) -> tuple[int, ...]:
        """w s_i (i 1-based)."""
        g = self.gens[i - 1]
        return tuple(w[k] for k in g)

    def left(self, i: int, w: tuple[int, ...]) -> tuple[int, ...]:
        """s_i w (i 1-based)."""
        g = self.gens[i - 1]
        return tuple(g[k] for k in w)

    def from_word(self, word) -> tuple[int, ...]:
        w = self.identity
        for i in word:
            w = self.right(w, i)
        return w

    def length(self, w: tuple[int, ...]) -> int:
        return sum(1 for k in range(self.n_pos) if w[k] >= self.n_pos)

    def right_descents(self, w: tuple[int, ...]) -> list[int]:
        return [i + 1 for i, k in enumerate(self.simple)
                if w[k] >= self.n_pos]

    def left_descents(self, w: tuple[int, ...]) -> list[int]:
        return [i for i in range(1, self.rank + 1)
                if self.length(self.left(i, w)) < self.length(w)]

    def reduced_word(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """Lexicographically least reduced word."""
        out = []
        while self.length(w):
            i = self.left_descents(w)[0]
            out.append(i)
            w = self.left(i, w)
        return tuple(out)

    def word_string(self, w: tuple[int, ...]) -> str:
        return ".".join(map(str, self.reduced_word(w))) or "id"

    def longest(self) -> tuple[int, ...]:
        w = self.identity
        while True:
            up = [i for i in range(1, self.rank + 1)
                  if i not in self.right_descents(w)]
            if not up:
                return w
            w = self.right(w, up[0])

    def apply_simple(self, w: tuple[int, ...], i: int) -> tuple[int, ...]:
        """The root w(alpha_i) as a coefficient vector."""
        return self.roots[w[self.simple[i - 1]]]

    # -- Bruhat order and ad ----------------------------------------------

    def le(self, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        while True:
            if self.length(u) > self.length(v):
                return False
            if u == v:
                return True
            i = self.right_descents(v)[0]
            if i in self.right_descents(u):
                u = self.right(u, i)
            v = self.right(v, i)

    def ad(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        """Rank of the edge-label span of [u, v], by the descent recursion."""
        labels = []
        while u != v:
            i = self.right_descents(v)[0]
            us = self.right(u, i)
            if self.length(us) < self.length(u):
                u = us
            else:
                labels.append(self.apply_simple(u, i))
            v = self.right(v, i)
        return rank(labels)


def rank(vectors) -> int:
    """Rank of the rational span of integer vectors (Gauss-Jordan)."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for k in range(r + 1, len(rows)):
            f = rows[k][col] / rows[r][col]
            rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        r += 1
    return r
