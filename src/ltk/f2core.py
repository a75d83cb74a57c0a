"""Exact mod-2 scalar arithmetic and GF(2) linear algebra.

Rows are bit-packed into Python ints, so row operations are single XORs
regardless of width.  `Span` eliminates rows that carry caller-chosen
tags, XORed along each reduction.  Which rows are independent, the tag
of each dependent row and the tag of any vector inside the span depend
neither on the pivots stored nor on the column order, so kernels and
solutions read off them are canonical.  homology.rank_out eliminates for
ranks alone, without tags.  BitMatrix, rank and solve have no caller in
the package; they stay only because perfbench/spans.py times them.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional


def binom_mod2(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) reduced mod 2.

    Returns 0 whenever the pair falls outside 0 <= k <= n; otherwise
    Lucas' theorem: C(n, k) is odd iff every binary digit of k is at
    most the corresponding digit of n.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (n & k) == k else 0


def set_bits(v: int) -> Iterator[int]:
    """The positions of the set bits of v >= 0, lowest first; the cost
    grows with the number of set bits, not with the width of v."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


# the fields of BitMatrix: a NamedTuple may not define __new__ itself
class _Matrix(NamedTuple):
    rows: int
    cols: int
    data: tuple[int, ...]


class BitMatrix(_Matrix):
    """A dense matrix over GF(2); each row is a bit-packed int.  A
    NamedTuple whose constructor checks the payload."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, data: tuple[int, ...]):
        if len(data) != rows:
            raise ValueError("row count does not match payload")
        for r in data:
            if r < 0 or r >> cols:
                raise ValueError("row has bits outside the declared width")
        return super().__new__(cls, rows, cols, data)

    def transpose(self) -> "BitMatrix":
        cols = []
        for j in range(self.cols):
            bits = 0
            for i in range(self.rows):
                bits |= ((self.data[i] >> j) & 1) << i
            cols.append(bits)
        return BitMatrix(self.cols, self.rows, tuple(cols))


class Span:
    """Incrementally maintained row span whose rows carry tags.

    Rows are bit-packed ints, each added with an int tag the caller
    chooses (1 << i for the i-th row, say).  Each stored row is reduced
    to a distinct top bit, and a reduction XORs tags as it XORs rows, so
    a stored row and its tag are the sums of the rows and of the tags of
    some independent added rows.  A row is independent iff it is not a
    sum of earlier rows.  So none of these depends on the pivots stored
    or on the column order:

    - which rows are independent (the pivots that reduced row echelon
      form picks);
    - the tag add returns for a dependent row;
    - the tag reduce returns for a vector inside the span.

    The tag of a vector outside the span depends on both; read none.
    """

    def __init__(self):
        self._pivots: dict[int, tuple[int, int]] = {}  # top bit -> (row, tag)

    def reduce(self, bits: int, tag: int = 0) -> tuple[int, int]:
        """(residual, tag): bits reduced against the stored rows, and tag
        XORed with the tags of the rows used; residual is 0 iff bits is
        in the span."""
        while bits:
            pivot = self._pivots.get(bits.bit_length() - 1)
            if pivot is None:
                break
            row, origin = pivot
            bits ^= row
            tag ^= origin
        return bits, tag

    def add(self, bits: int, tag: int = 0) -> tuple[int, int]:
        """Add a row with its tag and return what reduce returns: the
        residual is nonzero iff the row was independent of the span."""
        residual, tag = self.reduce(bits, tag)
        if residual:
            self._pivots[residual.bit_length() - 1] = (residual, tag)
        return residual, tag

    def copy(self) -> "Span":
        other = Span()
        other._pivots = dict(self._pivots)
        return other

    def __len__(self) -> int:
        return len(self._pivots)


def rank(m: BitMatrix) -> int:
    """Rank of the matrix over GF(2)."""
    span = Span()
    for row in m.data:
        span.add(row)
    return len(span)


def solve(m: BitMatrix, b: int) -> Optional[int]:
    """Some x with Mx = b, or None if the system is unsolvable.

    x is supported on the pivot columns, as back-substitution from
    reduced row echelon form gives it.
    """
    if b >> m.rows:
        raise ValueError("dimension mismatch")
    span = Span()
    for j, column in enumerate(m.transpose().data):
        span.add(column, 1 << j)
    residual, x = span.reduce(b)
    return None if residual else x
