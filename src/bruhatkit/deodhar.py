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
pair (|Jo|, |J-|) is the component's shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .algdim import SpanBasis
from .bruhat import bruhat_le
from .errors import InvalidInputError, NotComparableError
from .rootsys import Root
from .weyl import (WeylElement, from_word, identity, inverse, multiply,
                   right_descents, simple_reflection, word_string)

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

    ``betas`` lists (k, beta_k) for k in Jo u J-, in position order.
    """

    base_word: tuple[int, ...]
    choices: tuple[str, ...]
    prefixes: tuple[WeylElement, ...]
    j_plus: frozenset[int]
    j_circ: frozenset[int]
    j_minus: frozenset[int]
    betas: tuple[tuple[int, Root], ...]

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


def _annotate(rs, word: tuple[int, ...], choices: tuple[str, ...],
              prefixes: tuple[WeylElement, ...]) -> Subexpression:
    """Classify the positions of a distinguished mask whose prefix chain is
    known, and collect its betas."""
    n_pos = len(rs.positive_roots)
    j_plus, j_circ, j_minus = [], [], []
    betas = []
    for k, (i, choice) in enumerate(zip(word, choices), start=1):
        prev = prefixes[k - 1]
        if choice == TAKE and prefixes[k].length > prev.length:
            j_plus.append(k)
            continue
        (j_circ if choice == SKIP else j_minus).append(k)
        # prev(alpha_i) is the signed root at position p, its negation the
        # one n_pos places away; beta_k is whichever of them is positive.
        p = prev.perm[rs.simple_positions[i - 1]]
        if (p < n_pos) != (choice == SKIP):
            raise AssertionError(f"beta_{k} is not a positive root")
        betas.append((k, rs.positive_roots[p % n_pos]))
    return Subexpression(word, choices, prefixes, frozenset(j_plus),
                         frozenset(j_circ), frozenset(j_minus), tuple(betas))


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
            prefixes.append(multiply(prev, simple_reflection(rs, i)))
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
        self.gens = [simple_reflection(rs, i) for i in word]
        self.suffix = [identity(rs)] * (len(word) + 1)
        for k in range(len(word) - 1, -1, -1):
            self.suffix[k] = multiply(self.gens[k], self.suffix[k + 1])
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
                stepped = multiply(x, self.gens[k])
                if self.live(k + 1, stepped):
                    moves = ((TAKE, stepped),)
                if (self.word[k] not in right_descents(x)
                        and self.live(k + 1, x)):
                    moves += ((SKIP, x),)
            self.moves[(k, x)] = moves
        return bool(moves)

    def walk(self, chain: list[WeylElement], mask: list[str],
             out: list[Subexpression]) -> None:
        """Append every mask that extends the live prefix chain, in order."""
        k = len(mask)
        if k == len(self.word):
            out.append(_annotate(self.rs, self.word, tuple(mask),
                                 tuple(chain)))
            return
        for choice, nxt in self.moves[(k, chain[-1])]:
            mask.append(choice)
            chain.append(nxt)
            self.walk(chain, mask, out)
            mask.pop()
            chain.pop()


def enumerate_distinguished(v_word: Sequence[int],
                            u: WeylElement) -> list[Subexpression]:
    """All distinguished masks over v_word whose final prefix equals u.

    An exact depth-first search (``_MaskSearch``): a memo local to the call
    holds the live moves of every state, and the walk follows only those,
    so every state it enters yields at least one mask.  Each mask is
    annotated from the prefix chain the walk holds.  Order is lexicographic
    on masks with take before skip.  Empty when u is not below the word's
    product.
    """
    rs = u.system
    _check_reduced(rs, v_word)
    search = _MaskSearch(rs, tuple(v_word), u)
    start = identity(rs)
    out: list[Subexpression] = []
    if search.live(0, start):
        search.walk([start], [], out)
    return out


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
            x = multiply(x, simple_reflection(rs, i))
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
    """Span of the beta roots over Jo u J-; its rank is td of the mask."""
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


def _shape_term(circ: int, minus: int) -> tuple[int, ...]:
    # (q - 1)^circ * q^minus, coefficients in ascending powers of q
    out = [0] * (minus + circ + 1)
    for t in range(circ + 1):
        out[minus + t] = comb(circ, t) * ((-1) ** (circ - t))
    return tuple(out)


def deodhar_polynomial(v_word: Sequence[int],
                       u: WeylElement) -> tuple[int, ...]:
    """Mask census polynomial: sum over distinguished masks for u of
    (q-1)^{|Jo|} q^{|J-|}, as coefficients in ascending powers of q.

    Independent of which reduced word of v is used.  Returns the zero
    polynomial () with a warning when u is not below the word's product.
    """
    rs = u.system
    v = _check_reduced(rs, v_word)
    if not bruhat_le(u, v):
        warnings.warn(
            f"{word_string(u)} is not <= {word_string(v)}; the mask census "
            f"is the zero polynomial", stacklevel=2)
        return ()
    total: tuple[int, ...] = ()
    for se in enumerate_distinguished(v_word, u):
        total = _poly_add(total, _shape_term(len(se.j_circ), len(se.j_minus)))
    return total


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
