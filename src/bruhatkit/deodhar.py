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
rank of that span, which the tests recompute from the betas.  Both records,
``Subexpression`` and ``DeodharComponentShape``, are immutable NamedTuples.

The betas of every distinguished mask for u over a reduced word of v span
L(u, v), the span of the edge labels of [u, v], so td = ad(u, v): one
number per query.  Proof, with the lifting property (Bjorner-Brenti, GTM
231, Prop. 2.2.7) and Deodhar (Invent. Math. 79, 1985); a + L is the span
of the root a and the space L.

* (F) The labels of any saturated chain of [x, y] span L(x, y) (the tests
  check every chain of every interval of S4, B3 and G2).
* (R) Right multiplication by s keeps edge labels: (s_a z) s = s_a (z s).
* Step 1.  If s is in D_R(x) and D_R(y), then L(x, y) = L(xs, ys).  Build a
  saturated chain from xs to ys through elements z with zs > z: of the
  upper covers of such a z in [z, ys], only zs can have s as a descent
  (lifting), and an interval of length >= 2 has at least two atoms.  Times
  s, it is a chain from x to y with the same labels (R); apply (F).
* Step 2.  If i is in D_R(v), u s_i > u and u <= v, then L(u, v) =
  u(alpha_i) + L(u s_i, v) by (F) on a chain through u < u s_i, and
  L(u s_i, v) = L(u, v s_i) by Step 1.
* Induction on l(v): the betas before the last letter i, a right descent
  of v, span L(x, v s_i), x the prefix there.  Jo: x = u, and u(alpha_i) +
  L(u, v s_i) = L(u, v) by Step 2.  J-: x = u s_i > u, beta = u(alpha_i),
  and u(alpha_i) + L(u s_i, v s_i) = L(u, v s_i) by (F), which is L(u, v)
  by Step 2.  J+ (forced when u s_i < u): L(u s_i, v s_i) = L(u, v) by
  Step 1.
"""

from __future__ import annotations

import warnings
from itertools import zip_longest
from operator import add
from typing import NamedTuple, Sequence

from .algdim import ad
from .errors import InvalidInputError, NotComparableError
from .rootsys import Root
from .weyl import (Perm, WeylElement, _compose, _intern, from_word,
                   identity, word_string)

TAKE = "take"
SKIP = "skip"


class DeodharComponentShape(NamedTuple):
    """(|Jo|, |J-|): the torus and affine parameter counts of a component."""

    circ_count: int
    minus_count: int


class Subexpression(NamedTuple):
    """A distinguished mask over a fixed reduced word, fully annotated.

    ``betas`` lists (k, beta_k) for k in Jo u J-, in position order, and
    ``td`` is the rank of their span, ad(evaluation, v) for every mask (see
    the module docstring).  Jo is the skips, J- the other beta positions.
    """

    base_word: tuple[int, ...]
    choices: tuple[str, ...]
    prefixes: tuple[WeylElement, ...]
    betas: tuple[tuple[int, Root], ...]
    td: int

    @property
    def j_plus(self) -> frozenset[int]:
        return frozenset(range(1, len(self.choices) + 1)).difference(
            k for k, _ in self.betas)

    @property
    def j_circ(self) -> frozenset[int]:
        return frozenset(k for k, c in enumerate(self.choices, 1) if c == SKIP)

    @property
    def j_minus(self) -> frozenset[int]:
        return frozenset(k for k, _ in self.betas
                         if self.choices[k - 1] == TAKE)

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


def _moves(rs, k: int, i: int, layer: dict, first: dict,
           reach=None) -> dict:
    """One step of the search, by letter i at position k: sets each prefix
    x of ``layer`` (raw permutations) to its distinguished moves, take
    before skip, and returns the next layer, the states they reach in move
    order.  A move is (choice, next prefix, entry), the prefix after a take
    x s_i as its first copy in ``first`` and entry the (k, beta_k) of a Jo
    or J- position, else None; with ``reach``, only the moves into it are
    kept.  x(alpha_i) is the signed root at position p; skipping is allowed
    exactly when it is positive (taking goes up), and beta_k is it or its
    negation, n_pos places away, whichever is positive."""
    apply, pad, s = rs.apply, rs.pad, rs.simple_perms[i - 1]
    roots, pos = rs.positive_roots, rs.simple_positions[i - 1]
    n_pos, after = len(roots), {}
    for x in layer:
        y = apply(s, x + pad)
        p = x[pos]
        entry, moves = (k, roots[p % n_pos]), ()
        if reach is None or y in reach:
            y = first.setdefault(y, y)
            moves = (TAKE, y, None if p < n_pos else entry),
            after[y] = None
        if p < n_pos and (reach is None or x in reach):
            moves += (SKIP, x, entry),
            after[x] = None
        layer[x] = moves
    return after


def build_subexpression(rs, v_word: Sequence[int],
                        choices: Sequence[str]) -> Subexpression:
    """Walk a mask over the reduced word v_word, collecting its prefixes
    and the betas of Jo and J-; td is ad(u, v) for the mask's evaluation u.

    Raises InvalidInputError if the word is not reduced or the mask is not
    distinguished.
    """
    word = tuple(v_word)
    mask = tuple(choices)
    if len(word) != len(mask):
        raise InvalidInputError("mask length does not match word length")
    v = _check_reduced(rs, word)
    prefixes = [rs.identity_perm]
    betas = []
    for k, (i, choice) in enumerate(zip(word, mask), start=1):
        if choice not in (TAKE, SKIP):
            raise InvalidInputError(f"unknown mask token {choice!r}")
        layer = {prefixes[-1]: None}
        _moves(rs, k, i, layer, {})
        for move, x, entry in layer[prefixes[-1]]:
            if move == choice:
                break
        else:
            raise InvalidInputError(
                f"mask is not distinguished: position {k} skips a "
                f"forced descent")
        prefixes.append(x)
        if entry:
            betas.append(entry)
    chain = tuple(_intern(rs, x) for x in prefixes)
    return Subexpression(word, mask, chain, tuple(betas), ad(chain[-1], v))


def _live_moves(rs, word: tuple[int, ...], u: WeylElement
                ) -> list[dict[Perm, tuple]]:
    """The live moves of the search for the distinguished masks over one
    reduced word that end at u, found from both ends of the word.

    A state (k, x) is the prefix x, a raw permutation, after the first k
    letters.  Entry k maps each live x to its moves, take before skip:
    (choice, next prefix, entry) with entry the (k+1, beta) of a Jo or J-
    position, else None.  A move is live when a distinguished completion
    through it ends at u, so entry n is {u.perm: ()}; the start is live
    exactly when entry 0 holds the identity.  Nothing is interned, and
    each permutation is held as one object, its first copy (``first``,
    seeded with the two ends), however many moves reach it.

    Forward layers grow from the identity, one ``_moves`` step per layer.
    Backward layers grow from u, each state keyed to its length: the layer
    at depth k holds, for each y one layer on, y s_i (a take) and, when
    y s_i > y, y itself (a skip), each kept only if its length is at most
    k.  That cut drops no live state, since a letter changes the length by
    one or not at all, so k letters from the identity reach nothing
    longer.  Both make each product inline, one ``rs.apply``.  Each step
    extends one frontier: the forward one while it is at most half the
    size of the backward one, since a forward state costs a product and
    keeps its moves, while a backward one costs at most a product and
    keeps only its length.  When the frontiers meet at depth m, the
    forward layer holds every state reached from the identity and the
    backward one every state of length at most m that reaches u, so their
    intersection is exactly the live states at depth m.  The forward
    layers are pruned back from it to their live moves, and a walk from
    it, one ``_moves`` step per layer with the backward layer as
    ``reach``, keeps the moves into the backward layers, so every state it
    enters is live.
    """
    n, n_pos, apply, pad = len(word), len(rs.positive_roots), rs.apply, rs.pad
    first = {u.perm: u.perm}
    start = first.setdefault(rs.identity_perm, rs.identity_perm)
    ahead, behind = [{start: None}], [{u.perm: u.length}]
    # The frontiers are at depths len(ahead) - 1 and n + 1 - len(behind).
    while len(ahead) + len(behind) <= n + 1:
        if 2 * len(ahead[-1]) <= len(behind[-1]):
            k = len(ahead) - 1
            ahead.append(_moves(rs, k + 1, word[k], ahead[-1], first))
        else:
            k = n - len(behind)
            i, here = word[k], {}
            pos, s = rs.simple_positions[i - 1], rs.simple_perms[i - 1]
            for y, length in behind[-1].items():
                step = 1 if y[pos] < n_pos else -1
                if length + step <= k:
                    here[apply(s, y + pad)] = length + step
                if step > 0 and length <= k:
                    here[y] = length
            behind.append(here)
    layer = live = {x: None for x in ahead.pop() if x in behind[-1]}
    steps = []
    for before in reversed(ahead):
        live = {x: kept for x, moves in before.items()
                if (kept := tuple(move for move in moves
                                  if move[1] in live))}
        steps.append(live)
    steps.reverse()
    for k, reach in enumerate(reversed(behind[:-1]), len(ahead)):
        steps.append(layer)
        layer = _moves(rs, k + 1, word[k], layer, first, reach)
    steps.append({u.perm: ()})
    return steps


def mask_halves(v_word: Sequence[int], u: WeylElement, piece,
                zero: tuple) -> tuple:
    """(heads, tails, td) for the distinguished masks over v_word ending at
    u.  A mask's value adds up, entry by entry, the tuples ``piece(k,
    move)`` of its moves (k the 1-based position, the prefix in the move
    raw), from ``zero``.

    Meet in the middle over the live moves of ``_live_moves``, each live
    move mapped to its piece once: ``heads`` lists (x, value) for the live
    prefixes of depth m = n // 2, grown from the identity in mask order, x
    the raw state they end at, and ``tails`` maps each such x to the values
    of its live suffixes, grown back from u in mask order.  The masks, in
    order, are each head joined to each tail of its state.  td is ad(u, v),
    None when u is not below the word's product.
    """
    rs = u.system
    v = _check_reduced(rs, v_word)
    start, moves = rs.identity_perm, _live_moves(rs, tuple(v_word), u)
    m = (len(moves) - 1) // 2
    heads = [(start, zero)] if start in moves[0] else []
    for k, step in enumerate(moves[:m], 1):
        pieces = {x: [(move[1], piece(k, move)) for move in steps]
                  for x, steps in step.items()}
        heads = [(y, tuple(map(add, head, p)))
                 for x, head in heads for y, p in pieces[x]]
        # Dropped layer by layer, so no piece is held beside the tails.
        del pieces
    tails = {u.perm: [zero]}
    for k in range(len(moves) - 1, m, -1):
        tails = {x: [tuple(map(add, p, tail)) for move in steps
                     for p in (piece(k, move),) for tail in tails[move[1]]]
                 for x, steps in moves[k - 1].items()}
    return heads, tails, ad(u, v) if heads else None


def enumerate_distinguished(v_word: Sequence[int],
                            u: WeylElement) -> list[Subexpression]:
    """All distinguished masks over v_word whose final prefix equals u.

    ``mask_halves`` with the choices, the prefixes after each letter (the
    identity put in front) and the (k, beta) entries of Jo and J- as
    values; every mask's td is the one ad(u, v).  Lexicographic on masks
    with take before skip; empty when u is not below the word's product.
    """
    rs = u.system

    def piece(k: int, move: tuple) -> tuple:
        choice, y, entry = move
        return (choice,), (_intern(rs, y),), (entry,) if entry else ()

    word, start = tuple(v_word), (identity(rs),)
    heads, tails, td = mask_halves(word, u, piece, ((), (), ()))
    return [Subexpression._make((word, mask + tail[0],
                                 start + chain + tail[1], betas + tail[2],
                                 td))
            for x, (mask, chain, betas) in heads for tail in tails[x]]


def positive_distinguished(v_word: Sequence[int],
                           u: WeylElement) -> Subexpression:
    """The unique distinguished mask for u over v_word with empty J-.

    Built right to left on raw permutations: a letter is taken exactly
    when it shortens the running suffix product.  Exists iff u <= v.
    """
    rs = u.system
    v = _check_reduced(rs, v_word)
    word = tuple(v_word)
    choices = [SKIP] * len(word)
    x = u.perm
    for k in range(len(word), 0, -1):
        i = word[k - 1]
        if x[rs.simple_positions[i - 1]] >= len(rs.positive_roots):
            choices[k - 1] = TAKE
            x = _compose(rs, x, rs.simple_perms[i - 1])
    if x != rs.identity_perm:
        raise NotComparableError(
            f"no positive distinguished subexpression: {word_string(u)} is "
            f"not <= {word_string(v)}")
    se = build_subexpression(rs, word, choices)
    if not (se.is_positive() and se.evaluation == u):
        raise AssertionError(
            f"positive mask {se.mask_string()} does not evaluate to "
            f"{word_string(u)}")
    return se


def component_shape(se: Subexpression) -> DeodharComponentShape:
    """(|Jo|, |J-|) for the mask."""
    return DeodharComponentShape(len(se.j_circ), len(se.j_minus))


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a + b, with no trim: the census only adds polynomials whose leading
    coefficient is positive, as that of each (q-1)^|Jo| q^|J-| is 1."""
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def deodhar_polynomial(v_word: Sequence[int],
                       u: WeylElement) -> tuple[int, ...]:
    """Mask census polynomial: sum over distinguished masks for u of
    (q-1)^{|Jo|} q^{|J-|}, as coefficients in ascending powers of q.

    Independent of which reduced word of v is used.  Folded over the live
    moves of ``_live_moves`` from the end of the word back to the start,
    keeping two layers: P(n, u) = 1, and P(k, x) sums P(k+1, y) over the
    moves of (k, x) to y, times q-1 for a skip (Jo), q for a take that goes
    down (J-) and 1 for a take that goes up (J+).  No mask is built.
    Returns the zero polynomial () with a warning when u is not below the
    word's product.

    >>> from bruhatkit.rootsys import root_system
    >>> rs = root_system("A", 2)
    >>> deodhar_polynomial([1, 2, 1], identity(rs))
    (-1, 2, -2, 1)
    >>> len(enumerate_distinguished([1, 2, 1], identity(rs)))
    2
    """
    rs = u.system
    v = _check_reduced(rs, v_word)
    moves = _live_moves(rs, tuple(v_word), u)
    start = rs.identity_perm
    if start not in moves[0]:
        warnings.warn(
            f"{word_string(u)} is not <= {word_string(v)}; the mask census "
            f"is the zero polynomial", stacklevel=2)
        return ()
    polys = {u.perm: (1,)}
    for layer in reversed(moves[:-1]):
        ahead, polys = polys, {}
        for x, steps in layer.items():
            total: tuple[int, ...] = ()
            for choice, y, entry in steps:
                p = ahead[y]
                if choice == SKIP:
                    p = _poly_add((0,) + p, tuple(-c for c in p))
                elif entry:
                    p = (0,) + p
                total = _poly_add(total, p)
            polys[x] = total
    return polys[start]
