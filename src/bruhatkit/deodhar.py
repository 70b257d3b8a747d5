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
from typing import Iterator, Sequence

from .algdim import SpanBasis
from .bruhat import bruhat_le
from .errors import InvalidInputError, NotComparableError
from .rootsys import Root
from .weyl import (WeylElement, from_word, identity, multiply,
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
    j_plus, j_circ, j_minus = set(), set(), set()
    betas = []
    for k, (i, choice) in enumerate(zip(word, mask), start=1):
        prev = prefixes[-1]
        descent = i in right_descents(prev)
        if choice == SKIP:
            if descent:
                raise InvalidInputError(
                    f"mask is not distinguished: position {k} skips a "
                    f"forced descent")
            prefixes.append(prev)
            j_circ.add(k)
            betas.append((k, prev.apply(rs.simple_root(i))))
        elif choice == TAKE:
            cur = multiply(prev, simple_reflection(rs, i))
            prefixes.append(cur)
            if descent:
                j_minus.add(k)
                betas.append((k, tuple(-c for c in
                                       prev.apply(rs.simple_root(i)))))
            else:
                j_plus.add(k)
        else:
            raise InvalidInputError(f"unknown mask token {choice!r}")
    for _, beta in betas:
        assert all(c >= 0 for c in beta)
    return Subexpression(word, mask, tuple(prefixes),
                         frozenset(j_plus), frozenset(j_circ),
                         frozenset(j_minus), tuple(betas))


def _masks(rs, word: tuple[int, ...], k: int, prefix: WeylElement,
           acc: list[str], target: WeylElement) -> Iterator[tuple[str, ...]]:
    remaining = len(word) - k
    if abs(prefix.length - target.length) > remaining:
        return
    if k == len(word):
        if prefix == target:
            yield tuple(acc)
        return
    i = word[k]
    s = simple_reflection(rs, i)
    stepped = multiply(prefix, s)
    # take first, then skip: enumeration order is lexicographic on masks
    # with take < skip.
    acc.append(TAKE)
    yield from _masks(rs, word, k + 1, stepped, acc, target)
    acc.pop()
    if i not in right_descents(prefix):
        acc.append(SKIP)
        yield from _masks(rs, word, k + 1, prefix, acc, target)
        acc.pop()


def enumerate_distinguished(v_word: Sequence[int],
                            u: WeylElement) -> list[Subexpression]:
    """All distinguished masks over v_word whose final prefix equals u.

    Depth-first with forced-take pruning; order is lexicographic on masks
    with take before skip.  Empty when u is not below the word's product.
    """
    rs = u.system
    _check_reduced(rs, v_word)
    word = tuple(v_word)
    return [build_subexpression(rs, word, mask)
            for mask in _masks(rs, word, 0, identity(rs), [], u)]


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
    assert se.is_positive() and se.evaluation == u
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
