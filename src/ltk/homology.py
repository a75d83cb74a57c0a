"""Cohomology of the Lambda algebra differential in a fixed bidegree.

Each bidegree slice carries the admissible basis and the echelon span of
the boundaries in it, whose tags record which words of the previous
slice produce each boundary.  Class-level questions (is this a
boundary, are these two cycles homologous) reduce to a reduction against
such a span.  row places each word of an element in the sorted basis
with bisect, so one question about a few words builds no index over a
basis of thousands.  Witnesses are always re-verified by applying the
differential before they are returned.

Ext dimensions need ranks only, and take a path of their own: rank_out
eliminates the stored rows, read straight off their arrays, against
their pivots alone, so no tags are kept and only the echelon rows are
held.  The rank out of each bidegree is cached as a plain int
(_rank_out).  slice_at, which only boundary_witness calls, and
transfer.find_preimage feed the same rows, through differential_rows,
to a tagged span, and transfer.transfer_image_dim to an untagged one.

differential_rows builds the row of an admissible word n T, first letter
n, from d(n T) = d(lambda_n) T + lambda_n d(T).  Lambda(m), spanned by
the admissible words with first letter below m, is a subcomplex, and the
Hopf map H: Lambda(n+1) -> Lambda(2n+1), sending lambda_n T to T and
Lambda(n) to 0, is a chain map: the EHP sequence Lambda(n) -> Lambda(n+1)
-> Lambda(2n+1) of Curtis' algorithm.  T lies in Lambda(2n+1), so every
word of d(T) starts at most at 2n and lambda_n d(T) is admissible as it
stands: its row is the row of d(T), shifted to the block of the words
that start with n in the sorted codomain.  As H commutes with d, the
normal form of d(lambda_n) T, which is d(n T) less lambda_n d(T), lies in
Lambda(n).  So only those terms are rewritten, and each word they reach
must land before the block of n: one that does not would break the
shift, and raises AssertionError.  The words are placed through an index
of the codomain, built for each run of rows and dropped after it:
bisect, over thousands of rows, cost a fifth of their time.

The row of d(T) is read from the rows stored for the cell of T (_ROWS),
arrays of the positions of their bits, 2.6 a row on average over the
cells s + d <= 21.  Each cell is built only as far as the cells that
read it need, its words with first letter at most 2n, and to its end
when its own rows are asked for; so every row is built at most once per
process.  No basis is cached but in the slices slice_at keeps and in
_basis, which holds the two enumerated last: a cell built whole takes
its words and its codomain from it, so the next cell on the diagonal in
a chart pass (s ascending) finds its words there, and slice_at takes
prev_basis before the boundary rows that read it and its own basis from
the codomain they leave.  A basis is a pure function of its bidegree,
so a cached one is never stale.  A cell read below another takes its
words and codomain from that one's block of n, the letter n stripped.

For s >= d the rank out of (s, d) is the rank out of (d-1, d), so the
memo keys only cells with s < d, and the rows of (s, d), s > d, are kept
as those of (d, d).  A word of degree d has at most d nonzero letters,
all before its zeros, so the basis of (s, d) is that of (d-1, d) padded
with s-d+1 zeros, plus lambda_1^d padded with s-d zeros; padding with
zeros maps the basis of (d, d-1) onto that of (s+1, d-1).
d(u 0^k) = d(u) 0^k, since d(lambda_0) = 0 and no pair (x, 0) is ever
rewritten, and d(lambda_1^d) = 0: the matrix out of (s, d) is the one out
of (d-1, d) with a zero row added.  ext_dimension reads the size of each
basis off the rows, so it enumerates none.

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
import threading
from array import array
from bisect import bisect_left
from itertools import groupby
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Sequence

from . import f2core, lambda_algebra as la
from .lambda_algebra import LambdaElement, LambdaMonomial


class NotACycleError(ValueError):
    """Raised when an operation defined on cycles receives a non-cycle."""


class BidegreeSlice(NamedTuple):
    """The chain data at one bidegree (s, d), a read-only record.

    boundaries holds the differentials of prev_basis, the basis at
    (s-1, d+1), as rows in basis coordinates, the row of prev_basis[i]
    tagged 1 << i: bit i of a tag stands for prev_basis[i].  The slice is
    cached and shared, so add nothing to boundaries.
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


def differential_rows(s: int, d: int) -> Iterator[int]:
    """The differential of each word of admissible_basis(s, d), in order,
    as a bit row: bit i stands for word i of admissible_basis(s+1, d-1)."""
    starts, cols = _whole_rows(s, d)
    for k in range(len(starts) - 1):
        bits = 0
        for i in cols[starts[k]:starts[k + 1]]:
            bits |= 1 << i
        yield bits


# the rows stored for a cell, for a leading run of its basis: (s, d) ->
# (starts, cols), two array("I"), row i having its bits at the positions
# cols[starts[i]:starts[i + 1]]; a cell with s > d is keyed by (d, d).  A
# stored pair is never changed: _extend stores a longer copy in its place
_ROWS: dict[tuple[int, int], tuple[array, array]] = {}
_WHOLE: set[tuple[int, int]] = set()  # the keys whose rows are all stored
_STORING = threading.Lock()
_NO_ROWS = (array("I", [0]), array("I"))  # no rows: starts begins at 0


def _stored(s: int, d: int) -> tuple[array, array]:
    return _ROWS.get((min(s, d), d), _NO_ROWS)


def _built(s: int, d: int) -> int:
    """How many rows of the cell (s, d) are stored."""
    return len(_stored(s, d)[0]) - 1


# the last two bases enumerated: a cell's words and its codomain.  The
# next cell on the diagonal reads that codomain as its words, and a slice
# built after ext_dimension at its cell finds both of its bases here
@functools.lru_cache(maxsize=2)
def _basis(s: int, d: int) -> tuple[LambdaMonomial, ...]:
    return la.admissible_basis(s, d)


def _whole_rows(s: int, d: int) -> tuple[array, array]:
    """The rows of all of the basis (s, d), built where not yet stored."""
    if s < 0 or d < 0:
        raise ValueError("bidegree components must be non-negative")
    # padding with zeros carries the rows of (d, d) onto (s, d); a cell
    # (s, 0) holds one word, the empty one or zeros, with d of it 0
    s = min(s, d) if d else 1
    if (s, d) not in _WHOLE:
        words = _basis(s, d)
        if _built(s, d) < len(words):
            _extend(s, d, words, _basis(s + 1, d - 1) if d else ())
        _WHOLE.add((s, d))
    return _stored(s, d)


def _extend(s: int, d: int, words: Sequence[LambdaMonomial],
            codomain: Sequence[LambdaMonomial]) -> None:
    """Store the rows of words, a leading run of whole first-letter blocks
    of the basis (s, d), after those stored; codomain is a leading run of
    the basis (s+1, d-1) that holds every word they reach.  The row of
    n T joins the words of d(lambda_n) T, rewritten, to the row of d(T)
    shifted into the block of n (module docstring).  A term (n-j, j-1) T
    can violate only at its pair 1, and goes to the kernel, la._rewrite,
    as a list built for it; an admissible one toggles straight into the
    row."""
    # a copy, as a stored pair is never changed
    starts, cols = (run[:] for run in _stored(s, d))
    # the stored rows end at a first-letter block, as every run read does
    words = words[len(starts) - 1:]
    done: set[LambdaMonomial] = set()
    place = {w: i for i, w in enumerate(codomain)}.get
    for n, block in groupby(words, itemgetter(0)):
        tails = [w[1:] for w in block]
        start = bisect_left(codomain, (n,))
        # a word starting with 0 is all zeros, and so is d(T); a word of
        # one letter leaves T empty
        if n and s > 1:
            tail_starts, tail_cols = _tail_rows(n, tails, codomain, start)
            tail_cols = [start + i for i in tail_cols[:tail_starts[len(tails)]]]
        else:
            tail_starts, tail_cols = (0,) * (len(tails) + 1), ()
        pairs = [(pair, 2 * pair[1]) for pair in la._generator_differential(n)]
        for k, tail in enumerate(tails):
            hi = tail[0] if tail else -1  # a term violates at pair 1 if hi > 2b
            for pair, twice in pairs:
                if hi > twice:
                    la._rewrite([*pair, *tail], 1, s, s, done)
                elif (word := pair + tail) in done:
                    done.discard(word)
                else:
                    done.add(word)
            if done:
                row = [place(t, start) for t in done]
                done.clear()
                # a word not before the block of n lands on start or past it
                if max(row) >= start:
                    raise AssertionError(f"d(lambda_{n}) {tail} reaches a word "
                                         f"from lambda_{n} on")
                cols.extend(row)
            cols.extend(tail_cols[tail_starts[k]:tail_starts[k + 1]])
            starts.append(len(cols))
    # every run of rows stored leads the same rows, so the longest stays,
    # whichever thread stored one in the meantime
    with _STORING:
        if len(starts) > len(_stored(s, d)[0]):
            _ROWS[min(s, d), d] = starts, cols


def _tail_rows(n: int, tails: list[LambdaMonomial], codomain: Sequence[LambdaMonomial],
               start: int) -> tuple[array, array]:
    """The rows stored for the cell of tails, built as far as tails go.
    The tails T of the block of n are the words of their cell with first
    letter at most 2n, so their differentials lie in Lambda(2n + 1): in
    the block of n of codomain, behind the letter n."""
    s, d = len(tails[0]), sum(tails[0])
    if _built(s, d) < len(tails):
        end = bisect_left(codomain, (n + 1,), start)
        _extend(s, d, tails, [w[1:] for w in codomain[start:end]])
    return _stored(s, d)


def rank_out(s: int, d: int) -> int:
    """Rank of the differential from (s, d) to (s+1, d-1), computed once
    and without tags; for s >= d it is the rank out of (d - 1, d)."""
    if s < 0 or d < 1:
        return 0
    return _rank_out(min(s, d - 1), d)


# only ints are kept, since a cached span or slice would hold its bases
# in memory
@functools.cache
def _rank_out(s: int, d: int) -> int:
    starts, cols = _whole_rows(s, d)
    pivots: dict[int, int] = {}  # top bit -> echelon row
    start = 0
    for end in starts[1:]:
        row = 0
        for i in cols[start:end]:
            row |= 1 << i
        start = end
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


@functools.cache
def slice_at(s: int, d: int) -> BidegreeSlice:
    """Build (and cache) the chain slice at bidegree (s, d)."""
    boundaries, prev_basis = f2core.Span(), ()
    if s >= 1:
        # taken before its rows, which then read it from _basis and leave
        # their codomain, the basis (s, d), there
        prev_basis = _basis(s - 1, d + 1)
        for i, row in enumerate(differential_rows(s - 1, d + 1)):
            boundaries.add(row, 1 << i)
    return BidegreeSlice(
        basis=_basis(s, d),
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
    differentials out of (s, d) and into it, both read through rank_out;
    no slice is built.
    """
    if s < 0 or d < 0:
        raise ValueError("bidegree components must be non-negative")
    if d == 0:
        return 1  # the word of s zeros: d(lambda_1 0^(s-1)) = 0, no boundary
    # the basis of (s, d), s >= d, is that of (d - 1, d) padded with a zero,
    # and the word of d ones
    size = len(_whole_rows(min(s, d - 1), d)[0]) - 1 + (s >= d)
    return size - rank_out(s, d) - rank_out(s - 1, d + 1)


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
