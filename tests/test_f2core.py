from __future__ import annotations

import random

import pytest

from ltk.f2core import (
    BitMatrix,
    BitVector,
    Span,
    binom_mod2,
    rank,
    set_bits,
    solve,
)

from .oracles import (
    apply_rows,
    binom2,
    brute_kernel_basis,
    compose,
    kernel_basis,
    mat_vec,
    rank_of_rows,
)


def random_matrix(rng: random.Random, rows: int, cols: int, density: float = 0.5) -> BitMatrix:
    data = []
    for _ in range(rows):
        bits = 0
        for j in range(cols):
            if rng.random() < density:
                bits |= 1 << j
        data.append(bits)
    return BitMatrix(rows, cols, tuple(data))


def identity(n: int) -> BitMatrix:
    return BitMatrix.from_rows(n, [1 << i for i in range(n)])


def column_span(m: BitMatrix) -> Span:
    """The columns of m added in order, so the kernel is {x : Mx = 0}."""
    span = Span()
    for column in m.transpose().data:
        span.add(column)
    return span


class TestBinomMod2:
    def test_base_cases(self):
        assert binom_mod2(0, 0) == 1
        assert binom_mod2(-1, 1) == 0
        assert binom_mod2(2, 1) == 0
        assert binom_mod2(3, 1) == 1
        assert binom_mod2(4, 2) == 0

    def test_out_of_range_is_zero(self):
        assert binom_mod2(5, 6) == 0
        assert binom_mod2(5, -1) == 0
        assert binom_mod2(-3, -1) == 0
        assert binom_mod2(-1, 0) == 0

    def test_against_pascal_table(self):
        for n in range(257):
            for k in range(n + 1):
                assert binom_mod2(n, k) == binom2(n, k), (n, k)

    def test_small_rectangle_including_invalid(self):
        for n in range(-4, 65):
            for k in range(-4, 65):
                assert binom_mod2(n, k) == binom2(n, k), (n, k)


class TestBitVector:
    def test_construction_and_access(self):
        v = BitVector.from_support(5, [0, 3])
        assert v[0] == 1 and v[1] == 0 and v[3] == 1
        assert v.support() == (0, 3)
        assert v.weight() == 2

    def test_xor_is_addition(self):
        a = BitVector.from_support(4, [0, 1])
        b = BitVector.from_support(4, [1, 2])
        assert (a ^ b).support() == (0, 2)
        assert (a ^ a).bits == 0
        assert (a ^ BitVector(4)) == a

    def test_set_bits_against_every_bit(self):
        rng = random.Random(3)
        cases = [0, 1, 1 << 10_000, (1 << 10_000) | 5]
        cases += [rng.getrandbits(rng.randrange(1, 300)) for _ in range(200)]
        for v in cases:
            expected = [j for j in range(v.bit_length()) if v >> j & 1]
            assert list(set_bits(v)) == expected, v

    def test_bounds(self):
        with pytest.raises(IndexError):
            BitVector(3)[3]
        with pytest.raises(ValueError):
            BitVector(3, 1 << 3)
        with pytest.raises(ValueError):
            a = BitVector(3)
            b = BitVector(4)
            _ = a ^ b


class TestRank:
    def test_zero_matrix(self):
        assert rank(BitMatrix.from_rows(7, [0] * 4)) == 0

    def test_identity(self):
        assert rank(identity(9)) == 9

    def test_invariant_under_row_operations(self):
        rng = random.Random(11)
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 12), rng.randrange(1, 12))
            r = rank(m)
            data = list(m.data)
            i, j = rng.randrange(len(data)), rng.randrange(len(data))
            data[i], data[j] = data[j], data[i]
            if len(data) > 1:
                k = rng.randrange(len(data))
                t = rng.randrange(len(data))
                if k != t:
                    data[k] ^= data[t]
            assert rank(BitMatrix(m.rows, m.cols, tuple(data))) == r

    def test_rank_bounded(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 10))
            assert rank(m) <= min(m.rows, m.cols)


class TestKernelAndSolve:
    def test_solve_identity(self):
        b = BitVector.from_support(3, [0, 2])
        assert solve(identity(3), b) == b

    def test_rank_nullity_and_recheck_40x60(self):
        rng = random.Random(23)
        m = random_matrix(rng, 40, 60)
        basis = column_span(m).kernel
        assert rank(m) + len(basis) == 60
        for v in basis:
            assert mat_vec(m.data, v) == 0

    def test_kernel_vectors_independent(self):
        rng = random.Random(3)
        for _ in range(15):
            m = random_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 14))
            basis = column_span(m).kernel
            if basis:
                km = BitMatrix.from_rows(m.cols, basis)
                assert rank(km) == len(basis)

    def test_solve_constructed_systems(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng, rng.randrange(1, 12), rng.randrange(1, 12))
            x0 = BitVector(m.cols, rng.getrandbits(m.cols))
            b = BitVector(m.rows, mat_vec(m.data, x0.bits))
            x = solve(m, b)
            assert x is not None
            assert mat_vec(m.data, x.bits) == b.bits

    def test_solve_detects_unsolvable(self):
        rng = random.Random(13)
        seen_unsolvable = 0
        for _ in range(200):
            m = random_matrix(rng, rng.randrange(2, 10), rng.randrange(1, 8))
            b = BitVector(m.rows, rng.getrandbits(m.rows))
            x = solve(m, b)
            if x is None:
                seen_unsolvable += 1
                aug = BitMatrix(m.rows, m.cols + 1,
                                tuple(r | (((b.bits >> i) & 1) << m.cols)
                                      for i, r in enumerate(m.data)))
                assert rank(aug) == rank(m) + 1
            else:
                assert mat_vec(m.data, x.bits) == b.bits
        assert seen_unsolvable > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(identity(3), BitVector(4))
        with pytest.raises(ValueError):
            BitMatrix.from_rows(3, [1 << 3])


class TestMatrixOps:
    def test_transpose_involution(self):
        rng = random.Random(2)
        m = random_matrix(rng, 7, 5)
        assert m.transpose().transpose() == m

    def test_mat_mul_against_entries(self):
        # the composition oracle, against the entrywise matrix product
        rng = random.Random(9)
        for _ in range(20):
            a = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
            b = random_matrix(rng, a.cols, rng.randrange(1, 7))
            c = compose(a.data, b.data)
            for i in range(a.rows):
                for j in range(b.cols):
                    acc = 0
                    for k in range(a.cols):
                        acc ^= (a.data[i] >> k) & (b.data[k] >> j) & 1
                    assert (c[i] >> j) & 1 == acc

    def test_span_matches_rank(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_matrix(rng, rng.randrange(1, 14), rng.randrange(1, 14))
            span = Span()
            added = sum(1 for row in m.data if span.add(row))
            assert added == rank(m) == len(span) == rank_of_rows(list(m.data), m.cols)

    def test_span_provenance_and_kernel_on_random_matrices(self):
        rng = random.Random(29)
        for _ in range(60):
            m = random_matrix(rng, rng.randrange(1, 10), rng.randrange(0, 10))
            rows = list(m.data)
            span = Span()
            for row in rows:
                span.add(row)
            for row in rows:
                residual, provenance = span.reduce(row)
                assert residual == 0 and apply_rows(rows, provenance) == row
            for _ in range(10):
                target = rng.getrandbits(m.cols)
                residual, provenance = span.reduce(target)
                assert residual ^ apply_rows(rows, provenance) == target
                assert (residual == 0) == (rank(BitMatrix.from_rows(m.cols, rows + [target]))
                                           == len(span))
            assert span.kernel == brute_kernel_basis(rows) == kernel_basis(rows, m.cols)
