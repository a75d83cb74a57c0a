"""Cohomology of the Lambda algebra differential in a fixed bidegree.

Each bidegree slice carries the admissible basis and the echelon span of
the boundaries in it, whose tags record which words of the previous
slice produce each boundary.  Class-level questions (is this a
boundary, are these two cycles homologous) reduce to a reduction against
such a span.  row places each word of an element in the sorted basis
with bisect, so one question about a few words builds no index over a
basis of thousands.  Witnesses are always re-verified by applying the
differential before they are returned.

Ext dimensions need ranks only, and take a path of their own.
lambda_algebra.differential_rows turns each basis word straight into its
bit row over the codomain basis, and rank_out eliminates those rows
against their pivots alone: no tags are kept, so only the echelon rows
are held.  The rank out of each bidegree is kept in a memo of plain
ints, filled by slice_at or by rank_out, so each differential is
computed at most once per process.  slice_at and transfer.find_preimage
feed the same rows to a tagged span.

For s >= d the rank out of (s, d) is the rank out of (d-1, d), so the
memo keys only cells with s < d.  A word of degree d has at most d
nonzero letters, all before its zeros, so the basis of (s, d) is that of
(d-1, d) padded with s-d+1 zeros, plus lambda_1^d padded with s-d zeros;
padding with zeros maps the basis of (d, d-1) onto that of (s+1, d-1).
d(u 0^k) = d(u) 0^k, since d(lambda_0) = 0 and no pair (x, 0) is ever
rewritten, and d(lambda_1^d) = 0: the matrix out of (s, d) is the one out
of (d-1, d) with a zero row added.

is_cycle sums the differentials of an element's admissible words, each
word's read from a memo (_word_differential).  d is linear and reads the
same on an element and on its normal form, so the sum is exactly
lambda_algebra.differential of the element.  The memo holds only the
words of elements is_cycle has been asked about: in one process,
repeated verify calls ask about the same target and nearly the same
transfer image.  lambda_algebra.differential itself is not cached.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from . import f2core, lambda_algebra as la
from .lambda_algebra import LambdaElement, LambdaMonomial


class NotACycleError(ValueError):
    """Raised when an operation defined on cycles receives a non-cycle."""


@dataclass(frozen=True)
class BidegreeSlice:
    """The chain data at one bidegree (s, d).

    boundaries holds the differentials of prev_basis, the basis at
    (s-1, d+1), as rows in basis coordinates, the row of prev_basis[i]
    tagged 1 << i: bit i of a tag stands for prev_basis[i].  The slice is
    cached and shared, so add nothing to boundaries; copy it instead.
    """

    basis: tuple[LambdaMonomial, ...]
    prev_basis: tuple[LambdaMonomial, ...]
    next_basis: tuple[LambdaMonomial, ...]
    boundaries: f2core.Span


def row(e: LambdaElement, basis: tuple[LambdaMonomial, ...]) -> int:
    """e as a bit-packed row, bit i standing for basis[i].  The basis is
    sorted and holds every word of e, so bisect places each word; an
    index over the whole basis would cost more than the row."""
    bits = 0
    for w in e:
        bits |= 1 << bisect_left(basis, w)
    return bits


# rank of the differential out of (s, d), into (s+1, d-1); only ints are
# kept, since a cached span or slice would hold its bases in memory
_RANK_OUT: dict[tuple[int, int], int] = {}


def rank_out(s: int, d: int) -> int:
    """Rank of the differential from (s, d) to (s+1, d-1), computed once
    and without tags; for s >= d it is the rank out of (d - 1, d)."""
    if s < 0 or d < 1:
        return 0
    s = min(s, d - 1)
    rank = _RANK_OUT.get((s, d))
    if rank is None:
        pivots: dict[int, int] = {}  # top bit -> echelon row
        for row in la.differential_rows(la.admissible_basis(s, d),
                                        la.admissible_basis(s + 1, d - 1)):
            while row:
                top = row.bit_length() - 1
                pivot = pivots.get(top)
                if pivot is None:
                    pivots[top] = row
                    break
                row ^= pivot
        rank = _RANK_OUT[s, d] = len(pivots)
    return rank


@functools.cache
def slice_at(s: int, d: int) -> BidegreeSlice:
    """Build (and cache) the chain slice at bidegree (s, d), recording
    the rank of its boundaries as rank_out(s - 1, d + 1)."""
    basis = la.admissible_basis(s, d)
    prev_basis = la.admissible_basis(s - 1, d + 1) if s >= 1 else ()
    boundaries = f2core.Span()
    for i, row in enumerate(la.differential_rows(prev_basis, basis)):
        boundaries.add(row, 1 << i)
    if s >= 1:
        _RANK_OUT[min(s - 1, d), d + 1] = len(boundaries)
    return BidegreeSlice(
        basis=basis,
        prev_basis=prev_basis,
        next_basis=la.admissible_basis(s + 1, d - 1) if d >= 1 else (),
        boundaries=boundaries,
    )


@functools.cache
def _word_differential(w: LambdaMonomial) -> LambdaElement:
    return la.differential(frozenset({w}))


def is_cycle(e: LambdaElement) -> bool:
    """True iff the differential of e vanishes: the XOR of its admissible
    words' differentials, each read from a memo."""
    la.bidegree(e)  # refuses an element that is not homogeneous
    total: set = set()
    for w in la.normalize(e):
        total ^= _word_differential(w)
    return not total


def boundary_witness(r: LambdaElement) -> Optional[LambdaElement]:
    """An element b with differential(b) = normalize(r), or None.

    The returned witness is re-verified before being handed back; the
    zero element is its own (empty) witness.
    """
    # before normalize, which keeps each word's bidegree: a mixed r is
    # refused even if its normal form is homogeneous
    bideg = la.bidegree(r)
    r = la.normalize(r)
    if not r:
        return la.ZERO
    sl = slice_at(*bideg)
    residual, x = sl.boundaries.reduce(row(r, sl.basis))
    if residual:
        return None
    witness = frozenset(sl.prev_basis[i] for i in f2core.set_bits(x))
    if la.differential(witness) != r:
        raise AssertionError("witness failed re-verification")
    return witness


@functools.cache
def ext_dimension(s: int, d: int) -> int:
    """dim of the cohomology at (s, d): cycles modulo boundaries.

    By rank-nullity this is the basis size less the ranks of the
    differentials out of (s, d) and into it, both read from the rank
    memo; no slice is built.
    """
    if s < 0 or d < 0:
        raise ValueError("bidegree components must be non-negative")
    return len(la.admissible_basis(s, d)) - rank_out(s, d) - rank_out(s - 1, d + 1)


def _require_cycle(e: LambdaElement) -> LambdaElement:
    e = la.normalize(e)
    if not is_cycle(e):
        raise NotACycleError("element is not a cycle")
    return e


def same_class(e1: LambdaElement, e2: LambdaElement) -> tuple[bool, Optional[LambdaElement]]:
    """Whether two cycles are homologous; on success also the witness b
    with differential(b) = e1 + e2."""
    e1 = _require_cycle(e1)
    e2 = _require_cycle(e2)
    if e1 and e2 and la.bidegree(e1) != la.bidegree(e2):
        raise ValueError("cycles live in different bidegrees")
    witness = boundary_witness(e1 ^ e2)
    return (witness is not None), witness


def class_nonzero(e: LambdaElement) -> bool:
    """True iff the cycle e is not a boundary."""
    e = _require_cycle(e)
    return boundary_witness(e) is None
