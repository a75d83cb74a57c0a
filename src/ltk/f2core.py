"""Exact mod-2 scalar arithmetic and GF(2) linear algebra.

Vectors and matrices are bit-packed into Python ints, so row operations
are single XORs regardless of width.  `Span` is the one elimination
routine: rank, kernel and solve all read off its echelon rows and their
provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


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


@dataclass(frozen=True)
class BitVector:
    """A vector over GF(2), coordinates packed little-endian into an int."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("payload has bits outside the declared length")

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise IndexError(f"coordinate {i} out of range for length {length}")
            bits ^= 1 << i
        return cls(length, bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"coordinate {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def weight(self) -> int:
        return bin(self.bits).count("1")


@dataclass(frozen=True)
class BitMatrix:
    """A dense matrix over GF(2); each row is a bit-packed int."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ValueError("row count does not match payload")
        for r in self.data:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits outside the declared width")

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[int]) -> "BitMatrix":
        data = tuple(rows)
        return cls(len(data), cols, data)

    def transpose(self) -> "BitMatrix":
        cols = []
        for j in range(self.cols):
            bits = 0
            for i in range(self.rows):
                bits |= ((self.data[i] >> j) & 1) << i
            cols.append(bits)
        return BitMatrix(self.cols, self.rows, tuple(cols))


class Span:
    """Incrementally maintained row span with provenance.

    Rows are bit-packed ints, numbered in the order they are added.  Each
    stored row is reduced to a distinct top bit and kept with its
    provenance: the mask of added rows that sum to it.  A row is
    independent iff it is not a sum of earlier rows, so the independent
    rows are the lexicographically first ones, the pivots that reduced
    row echelon form picks.
    """

    def __init__(self):
        self._pivots: dict[int, tuple[int, int]] = {}  # top bit -> (row, provenance)
        self._added = 0
        # provenance of each dependent add, in order: a kernel basis of the
        # map sending added row i to its bits
        self.kernel: list[int] = []

    def reduce(self, bits: int) -> tuple[int, int]:
        """(residual, provenance) with bits = residual + the sum of the
        added rows in provenance; residual is 0 iff bits is in the span."""
        provenance = 0
        while bits:
            pivot = self._pivots.get(bits.bit_length() - 1)
            if pivot is None:
                break
            row, origin = pivot
            bits ^= row
            provenance ^= origin
        return bits, provenance

    def add(self, bits: int) -> bool:
        """Add the next row; True iff it was independent of the span."""
        residual, provenance = self.reduce(bits)
        provenance ^= 1 << self._added
        self._added += 1
        if residual:
            self._pivots[residual.bit_length() - 1] = (residual, provenance)
            return True
        self.kernel.append(provenance)
        return False

    def copy(self) -> "Span":
        other = Span()
        other._pivots = dict(self._pivots)
        other._added = self._added
        other.kernel = list(self.kernel)
        return other

    def __len__(self) -> int:
        return len(self._pivots)


def rank(m: BitMatrix) -> int:
    """Rank of the matrix over GF(2)."""
    span = Span()
    for row in m.data:
        span.add(row)
    return len(span)


def solve(m: BitMatrix, b: BitVector) -> Optional[BitVector]:
    """Some x with Mx = b, or None if the system is unsolvable.

    x is supported on the pivot columns, as back-substitution from
    reduced row echelon form gives it.
    """
    if b.length != m.rows:
        raise ValueError("dimension mismatch")
    span = Span()
    for column in m.transpose().data:
        span.add(column)
    residual, x = span.reduce(b.bits)
    return None if residual else BitVector(m.cols, x)
