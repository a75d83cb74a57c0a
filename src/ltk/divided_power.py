"""Divided power algebra on s degree-one generators, as a right module
over the Steenrod squares.

A monomial is the exponent tuple (t_1, ..., t_s); an element is a
frozenset of equal-length tuples (presence = coefficient 1).  The right
action of a square on one divided power is

    a^(j) Sq^i = C(j-i, i) a^(j-i),

extended over products by the Cartan formula, i.e. by summing over all
ways to distribute i among the factors.  A factor absorbs Sq^i only when
2i <= j, so the whole action vanishes whenever 2i exceeds the degree.

The kernel, _sq_fold, is the only code that applies a square.  It folds
the factors of one monomial left to right once for a whole tuple of
squares, each state tagged with the square it belongs to, so the
primitivity test, the stacked map of primitive_basis and the transfer's
sum over squares make one pass per monomial.  The squares one factor
a^(t) absorbs (the i <= t/2 with C(t-i, i) odd) come from a table per
exponent value; the last factor must take exactly the remainder, so
it needs one parity test.  A partial distribution survives only while
the factors after it can still absorb its remainder, at most the sum
of their t // 2, so every surviving state ends at remainder 0.
Distinct distributions give distinct monomials, so nothing cancels
within one monomial and the states need no mod-2 bookkeeping.

Each monomial is folded under its generator squares at most once per
process.  is_primitive reads those images from a memo, _generator_images,
which holds only the monomials of the elements it has been given (a
verify run and its mutants share theirs).  primitive_basis folds every
monomial of its basis once into a bit row, keeps the rows, and re-checks
each kernel vector as the XOR of the rows it names; it does not touch the
memo, so a large basis does not stay in memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

from . import f2core
from .f2core import binom_mod2

GammaMonomial = tuple[int, ...]
GammaElement = frozenset  # of GammaMonomial

ZERO: GammaElement = frozenset()


def element(*monomials: Iterable[int]) -> GammaElement:
    """Build an element from exponent tuples; duplicates cancel mod 2."""
    acc: set[GammaMonomial] = set()
    ranks = set()
    for m in monomials:
        t = tuple(m)
        if any(x < 0 for x in t):
            raise ValueError(f"negative exponent in {t}")
        ranks.add(len(t))
        acc ^= {t}
    if len(ranks) > 1:
        raise ValueError("monomials of mixed rank")
    return frozenset(acc)


def degree_of(e: GammaElement) -> Optional[int]:
    degs = {sum(m) for m in e}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("element is not homogeneous")
    return degs.pop()


@functools.cache
def _absorbs(t: int) -> tuple[int, ...]:
    """The squares a^(t) absorbs: every ik <= t/2 with C(t - ik, ik) odd."""
    return tuple(ik for ik in range(t // 2 + 1) if binom_mod2(t - ik, ik))


def _sq_fold(m: GammaMonomial, squares: tuple[int, ...]) -> list[list[GammaMonomial]]:
    """Cartan expansion of one monomial under each of the squares: entry
    k lists the monomials of m Sq^squares[k], each once."""
    # room[k]: the most that the factors k, k+1, ... can absorb together
    room = [0] * (len(m) + 1)
    for k in range(len(m) - 1, -1, -1):
        room[k] = room[k + 1] + m[k] // 2
    # states: (partial exponent tuple, remaining square degree, index of
    # the square), folded left to right, kept only while the factors
    # after it can absorb the rest; distinct distributions give distinct
    # monomials, so no parity
    states = [((), i, tag) for tag, i in enumerate(squares) if i <= room[0]]
    for k, t in enumerate(m):
        if not states:
            break
        if k == len(m) - 1:
            # the last factor must absorb exactly the remainder left to it;
            # C(t - rem, rem) is odd iff rem's bits lie in t - rem's (Lucas)
            states = [(partial + (t - rem,), 0, tag) for partial, rem, tag in states
                      if (t - rem) & rem == rem]
            break
        after = room[k + 1]
        absorbs = _absorbs(t)
        nxt = []
        for partial, rem, tag in states:
            for ik in absorbs:
                if ik > rem:
                    break
                if rem - ik <= after:
                    nxt.append((partial + (t - ik,), rem - ik, tag))
        states = nxt
    images: list[list[GammaMonomial]] = [[] for _ in squares]
    for partial, _, tag in states:
        images[tag].append(partial)
    return images


def sq_right(e: GammaElement, i: int) -> GammaElement:
    """The right action of Sq^i, extended linearly."""
    if i < 0:
        raise ValueError("square degree must be non-negative")
    acc: set[GammaMonomial] = set()
    for m in e:
        acc.symmetric_difference_update(_sq_fold(m, (i,))[0])
    return frozenset(acc)


@dataclass(frozen=True)
class PrimitivityEvidence:
    """Outcome of the annihilation test, square by square."""

    holds: bool
    checked: tuple[tuple[int, GammaElement], ...]  # (square degree, image)

    def __bool__(self) -> bool:
        return self.holds


def _generator_squares(d: int) -> tuple[int, ...]:
    # Sq^(2^k) generate the whole algebra of squares, and any square of
    # degree above d/2 acts as zero on degree d, so these suffice.
    squares = []
    i = 1
    while 2 * i <= d:
        squares.append(i)
        i *= 2
    return tuple(squares)


@functools.cache
def _generator_images(m: GammaMonomial) -> tuple[tuple[GammaMonomial, ...], ...]:
    """m's images under each generator square of its degree, folded once
    per process."""
    return tuple(map(tuple, _sq_fold(m, _generator_squares(sum(m)))))


def is_primitive(e: GammaElement) -> PrimitivityEvidence:
    """Whether every positive-degree square annihilates e."""
    d = degree_of(e)
    if d is None:
        return PrimitivityEvidence(True, ())
    squares = _generator_squares(d)
    accs: list[set[GammaMonomial]] = [set() for _ in squares]
    for m in e:
        for acc, image in zip(accs, _generator_images(m)):
            acc.symmetric_difference_update(image)
    checked = tuple(zip(squares, map(frozenset, accs)))
    return PrimitivityEvidence(all(not img for _, img in checked), checked)


def gamma_basis(s: int, d: int) -> tuple[GammaMonomial, ...]:
    """All exponent tuples of length s summing to d, descending lex order."""
    if s < 1:
        raise ValueError("rank must be at least 1")
    if d < 0:
        raise ValueError("degree must be non-negative")

    def extend(prefix: GammaMonomial, remaining: int, slots: int,
               out: list[GammaMonomial]) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for t in range(remaining, -1, -1):
            extend(prefix + (t,), remaining - t, slots - 1, out)

    monomials: list[GammaMonomial] = []
    extend((), d, s, monomials)
    return tuple(monomials)


def primitive_basis(s: int, d: int) -> list[GammaElement]:
    """A basis of the joint kernel of the generator squares at (s, d)."""
    basis = gamma_basis(s, d)
    squares = _generator_squares(d)
    # the images under all the squares sit side by side in one row, each
    # image monomial numbered as it is first met: images under distinct
    # squares have distinct degrees, so one numbering serves them all
    column: dict[GammaMonomial, int] = {}
    rows: list[int] = []
    span = f2core.Span()
    out = []
    for j, m in enumerate(basis):
        row = 0
        for image in _sq_fold(m, squares):
            for w in image:
                row |= 1 << column.setdefault(w, len(column))
        rows.append(row)
        residual, v = span.add(row, 1 << j)
        if residual:
            continue
        # the tag of a dependent row is a kernel vector; re-check it as
        # the XOR of the fold rows it names, not through the elimination
        members = list(f2core.set_bits(v))
        image = 0
        for k in members:
            image ^= rows[k]
        if image:
            raise AssertionError("kernel vector failed the primitivity re-check")
        out.append(frozenset(basis[k] for k in members))
    return out
