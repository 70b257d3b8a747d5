"""Distinguished subexpressions of a reduced word and their invariants.

A mask over a reduced word ``v_word`` for v picks, at each position, either
``take`` (multiply by the letter) or ``skip``.  Walking the prefixes
u_(0) = id, u_(1), ..., u_(l) partitions positions 1..l into

* J+ (take, length goes up),
* Jo (skip, prefix unchanged),
* J- (take, length goes down).

The mask is *distinguished* when a letter that shortens the current prefix
is always taken, so skipping never jumps over a forced descent.  Positions
are 1-based throughout, aligning k with the prefix u_(k).

Each position k in Jo or J- carries the positive root
beta_k = +- u_(k-1)(alpha_{i_k}) (plus for Jo, minus for J-); the span of
the beta_k is the torus-weight space of the corresponding component, and the
pair (|Jo|, |J-|) is the component's shape.  ``Subexpression.td`` is the
rank of that span; ``td_span`` recomputes it from the betas.

``enumerate_distinguished`` annotates every mask along its depth-first
walk: masks that share a prefix share its positions, betas and the echelon
rows of its betas, so each walk edge costs one reduction of at most one
beta instead of each mask costing a fresh elimination.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

from .algdim import SpanBasis, _reduce_into, span_rank
from .bruhat import bruhat_le
from .errors import InvalidInputError, NotComparableError
from .rootsys import Root
from .weyl import (WeylElement, from_word, identity, inverse, multiply,
                   right_descents, simple_reflection, times_simple,
                   word_string)

TAKE = "take"
SKIP = "skip"


@dataclass(frozen=True)
class DeodharComponentShape:
    """(|Jo|, |J-|): the torus and affine parameter counts of a component."""

    circ_count: int
    minus_count: int


@dataclass(frozen=True)
class Subexpression:
    """A distinguished mask over a fixed reduced word, fully annotated.

    ``betas`` lists (k, beta_k) for k in Jo u J-, in position order, and
    ``td`` is the rank of their span.
    """

    base_word: tuple[int, ...]
    choices: tuple[str, ...]
    prefixes: tuple[WeylElement, ...]
    j_plus: frozenset[int]
    j_circ: frozenset[int]
    j_minus: frozenset[int]
    betas: tuple[tuple[int, Root], ...]
    td: int

    @property
    def evaluation(self) -> WeylElement:
        return self.prefixes[-1]

    def beta_map(self) -> dict[int, Root]:
        return dict(self.betas)

    def is_positive(self) -> bool:
        return not self.j_minus

    def mask_string(self) -> str:
        return ",".join(self.choices)

    def __repr__(self) -> str:
        return (f"Subexpression({self.mask_string()} over "
                f"{'.'.join(map(str, self.base_word))} -> "
                f"{word_string(self.evaluation)})")


def _check_reduced(rs, v_word: Sequence[int]) -> WeylElement:
    v = from_word(rs, v_word)
    if v.length != len(v_word):
        raise InvalidInputError(
            f"word {'.'.join(map(str, v_word))} is not reduced "
            f"(length {v.length} != {len(v_word)} letters)")
    return v


def _beta(rs, k: int, prev: WeylElement, i: int, skip: bool) -> Root:
    """beta_k for a position k in Jo (``skip``) or J- with prefix ``prev``
    before it and letter i."""
    # prev(alpha_i) is the signed root at position p, its negation the one
    # n_pos places away; beta_k is whichever of them is positive.
    n_pos = len(rs.positive_roots)
    p = prev.perm[rs.simple_positions[i - 1]]
    if (p < n_pos) != skip:
        raise AssertionError(f"beta_{k} is not a positive root")
    return rs.positive_roots[p % n_pos]


def _annotate(rs, word: tuple[int, ...], choices: tuple[str, ...],
              prefixes: tuple[WeylElement, ...]) -> Subexpression:
    """Classify the positions of a distinguished mask whose prefix chain is
    known, and collect its betas and td."""
    j_plus, j_circ, j_minus = [], [], []
    betas = []
    for k, (i, choice) in enumerate(zip(word, choices), start=1):
        prev = prefixes[k - 1]
        if choice == TAKE and prefixes[k].length > prev.length:
            j_plus.append(k)
            continue
        (j_circ if choice == SKIP else j_minus).append(k)
        betas.append((k, _beta(rs, k, prev, i, choice == SKIP)))
    return Subexpression(word, choices, prefixes, frozenset(j_plus),
                         frozenset(j_circ), frozenset(j_minus), tuple(betas),
                         span_rank(beta for _, beta in betas))


def build_subexpression(rs, v_word: Sequence[int],
                        choices: Sequence[str]) -> Subexpression:
    """Walk a mask over v_word, classifying positions and collecting betas.

    Raises InvalidInputError if the mask is not distinguished.
    """
    word = tuple(v_word)
    mask = tuple(choices)
    if len(word) != len(mask):
        raise InvalidInputError("mask length does not match word length")
    prefixes = [identity(rs)]
    for k, (i, choice) in enumerate(zip(word, mask), start=1):
        prev = prefixes[-1]
        if choice == SKIP:
            if i in right_descents(prev):
                raise InvalidInputError(
                    f"mask is not distinguished: position {k} skips a "
                    f"forced descent")
            prefixes.append(prev)
        elif choice == TAKE:
            prefixes.append(times_simple(prev, i))
        else:
            raise InvalidInputError(f"unknown mask token {choice!r}")
    return _annotate(rs, word, mask, tuple(prefixes))


class _MaskSearch:
    """The exact search for the distinguished masks over one reduced word
    that end at u.

    A state (k, x) is the prefix x after the first k letters.  ``moves`` is
    the memo, local to one search: it maps each state reached by a
    distinguished prefix to its live moves, the (choice, next prefix) steps,
    take before skip, after which some distinguished completion still ends
    at u.  A state with no live move is dead; at the last position only u
    is live.

    A state is cut before its moves are tried when x^-1 u is not below the
    product of the remaining letters: every completion multiplies x by a
    subexpression of that suffix, which is reduced, so by the subword
    property the test is necessary.
    """

    def __init__(self, rs, word: tuple[int, ...], u: WeylElement):
        self.rs, self.word, self.u = rs, word, u
        self.suffix = [identity(rs)] * (len(word) + 1)
        for k in range(len(word) - 1, -1, -1):
            self.suffix[k] = multiply(simple_reflection(rs, word[k]),
                                      self.suffix[k + 1])
        self.moves: dict[tuple[int, WeylElement],
                         tuple[tuple[str, WeylElement], ...]] = {}

    def live(self, k: int, x: WeylElement) -> bool:
        n, u = len(self.word), self.u
        if k == n:
            return x == u
        moves = self.moves.get((k, x))
        if moves is None:
            moves = ()
            # The length test is implied by the Bruhat cut but costs no
            # multiplication.
            if (abs(x.length - u.length) <= n - k
                    and bruhat_le(multiply(inverse(x), u), self.suffix[k])):
                stepped = times_simple(x, self.word[k])
                if self.live(k + 1, stepped):
                    moves = ((TAKE, stepped),)
                if (self.word[k] not in right_descents(x)
                        and self.live(k + 1, x)):
                    moves += ((SKIP, x),)
            self.moves[(k, x)] = moves
        return bool(moves)

    def walk(self) -> list[Subexpression]:
        """Every mask for u, in order, once ``live(0, id)`` has filled the
        memo and found the start live.

        The walk pushes each edge's position onto J+, Jo or J- and, for Jo
        and J-, its beta onto the betas and into an echelon of their span;
        backtracking pops exactly what the edge pushed.  A leaf builds its
        mask from the stacks, with td the size of the echelon.
        """
        rs, word, n = self.rs, self.word, len(self.word)
        chain, mask = [identity(rs)], []
        j_plus, j_circ, j_minus = [], [], []
        betas: list[tuple[int, Root]] = []
        echelon: dict[int, list[int]] = {}
        out: list[Subexpression] = []

        def step(k: int, x: WeylElement) -> None:
            if k == n:
                out.append(Subexpression(
                    word, tuple(mask), tuple(chain), frozenset(j_plus),
                    frozenset(j_circ), frozenset(j_minus), tuple(betas),
                    len(echelon)))
                return
            pos = k + 1
            for choice, nxt in self.moves[(k, x)]:
                mask.append(choice)
                chain.append(nxt)
                if choice == TAKE and nxt.length > x.length:
                    j_plus.append(pos)
                    step(pos, nxt)
                    j_plus.pop()
                else:
                    skip = choice == SKIP
                    side = j_circ if skip else j_minus
                    beta = _beta(rs, pos, x, word[k], skip)
                    side.append(pos)
                    betas.append((pos, beta))
                    pivot = _reduce_into(echelon, beta)
                    step(pos, nxt)
                    if pivot is not None:
                        del echelon[pivot]
                    betas.pop()
                    side.pop()
                mask.pop()
                chain.pop()

        step(0, chain[0])
        return out

    def census(self) -> tuple[int, ...]:
        """The mask census polynomial from the memo, building no mask; as
        for ``walk``, the start must be live.

        P(n, u) = 1, and P(k, x) sums over the live moves of (k, x):
        (q-1) P for a skip, q P for a take that goes down and P for a take
        that goes up, each P at the state the move leads to.
        """
        n = len(self.word)
        polys: dict[tuple[int, WeylElement], tuple[int, ...]] = {}

        def poly(k: int, x: WeylElement) -> tuple[int, ...]:
            if k == n:
                return (1,)
            got = polys.get((k, x))
            if got is None:
                got = ()
                for choice, nxt in self.moves[(k, x)]:
                    p = poly(k + 1, nxt)
                    if choice == SKIP:
                        p = _poly_add((0,) + p, tuple(-c for c in p))
                    elif nxt.length < x.length:
                        p = (0,) + p
                    got = _poly_add(got, p)
                polys[(k, x)] = got
            return got

        return poly(0, identity(self.rs))


def enumerate_distinguished(v_word: Sequence[int],
                            u: WeylElement) -> list[Subexpression]:
    """All distinguished masks over v_word whose final prefix equals u.

    An exact depth-first search (``_MaskSearch``): a memo local to the call
    holds the live moves of every state, and the walk follows only those,
    so every state it enters yields at least one mask.  Each mask, td
    included, is annotated from stacks the walk keeps along its path.
    Order is lexicographic on masks with take before skip.  Empty when u is
    not below the word's product.
    """
    rs = u.system
    _check_reduced(rs, v_word)
    search = _MaskSearch(rs, tuple(v_word), u)
    return search.walk() if search.live(0, identity(rs)) else []


def positive_distinguished(v_word: Sequence[int],
                           u: WeylElement) -> Subexpression:
    """The unique distinguished mask for u over v_word with empty J-.

    Built right to left: a letter is taken exactly when it shortens the
    running suffix product.  Exists iff u <= v.
    """
    rs = u.system
    v = _check_reduced(rs, v_word)
    word = tuple(v_word)
    choices = [SKIP] * len(word)
    x = u
    for k in range(len(word), 0, -1):
        i = word[k - 1]
        if i in right_descents(x):
            choices[k - 1] = TAKE
            x = times_simple(x, i)
    if not x.is_identity():
        raise NotComparableError(
            f"no positive distinguished subexpression: {word_string(u)} is "
            f"not <= {word_string(v)}")
    se = build_subexpression(rs, word, choices)
    if not (se.is_positive() and se.evaluation == u):
        raise AssertionError(
            f"positive mask {se.mask_string()} does not evaluate to "
            f"{word_string(u)}")
    return se


def td_span(se: Subexpression) -> SpanBasis:
    """Span of the beta roots over Jo u J-; its rank is td of the mask.

    An oracle for ``se.td``, which every route that builds a mask fills in.
    """
    return SpanBasis(beta for _, beta in se.betas)


def component_shape(se: Subexpression) -> DeodharComponentShape:
    """(|Jo|, |J-|) for the mask."""
    return DeodharComponentShape(len(se.j_circ), len(se.j_minus))


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = [0] * n
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def deodhar_polynomial(v_word: Sequence[int],
                       u: WeylElement) -> tuple[int, ...]:
    """Mask census polynomial: sum over distinguished masks for u of
    (q-1)^{|Jo|} q^{|J-|}, as coefficients in ascending powers of q.

    Independent of which reduced word of v is used.  Computed by a dynamic
    program over the live moves of the mask search (``_MaskSearch.census``),
    so no mask is built.  Returns the zero polynomial () with a warning when
    u is not below the word's product.
    """
    rs = u.system
    v = _check_reduced(rs, v_word)
    if not bruhat_le(u, v):
        warnings.warn(
            f"{word_string(u)} is not <= {word_string(v)}; the mask census "
            f"is the zero polynomial", stacklevel=2)
        return ()
    search = _MaskSearch(rs, tuple(v_word), u)
    search.live(0, identity(rs))
    return search.census()


def poly_string(coeffs: tuple[int, ...], var: str = "q") -> str:
    """Human-readable polynomial, highest power first; '0' for ()."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        elif k == 1:
            term = f"{var}" if mag == 1 else f"{mag}{var}"
        else:
            term = f"{var}^{k}" if mag == 1 else f"{mag}{var}^{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
