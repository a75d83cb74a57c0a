from __future__ import annotations

import random

import pytest

from ltk.f2core import (
    BitMatrix,
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
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def run_tagged(rows: list[int]) -> tuple[Span, list]:
    """rows[i] added tagged 1 << i: the span, and each row's tag if it
    was dependent (None if it was independent)."""
    span = Span()
    tags = []
    for i, row in enumerate(rows):
        residual, tag = span.add(row, 1 << i)
        tags.append(None if residual else tag)
    return span, tags


def column_kernel(m: BitMatrix) -> list[int]:
    """The tags of the dependent columns of m: a basis of {x : Mx = 0}."""
    return [tag for tag in run_tagged(list(m.transpose().data))[1] if tag is not None]


def permute_columns(v: int, perm: list[int]) -> int:
    """v with bit j moved to bit perm[j]."""
    return sum(1 << perm[j] for j in set_bits(v))


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


class TestSetBits:
    def test_set_bits_against_every_bit(self):
        rng = random.Random(3)
        cases = [0, 1, 1 << 10_000, (1 << 10_000) | 5]
        cases += [rng.getrandbits(rng.randrange(1, 300)) for _ in range(200)]
        for v in cases:
            expected = [j for j in range(v.bit_length()) if v >> j & 1]
            assert list(set_bits(v)) == expected, v


class TestRank:
    def test_zero_matrix(self):
        assert rank(BitMatrix(4, 7, (0,) * 4)) == 0

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
        assert solve(identity(3), 0b101) == 0b101

    def test_rank_nullity_and_recheck_40x60(self):
        rng = random.Random(23)
        m = random_matrix(rng, 40, 60)
        basis = column_kernel(m)
        assert rank(m) + len(basis) == 60
        for v in basis:
            assert mat_vec(m.data, v) == 0

    def test_kernel_vectors_independent(self):
        rng = random.Random(3)
        for _ in range(15):
            m = random_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 14))
            basis = column_kernel(m)
            if basis:
                km = BitMatrix(len(basis), m.cols, tuple(basis))
                assert rank(km) == len(basis)

    def test_solve_constructed_systems(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng, rng.randrange(1, 12), rng.randrange(1, 12))
            b = mat_vec(m.data, rng.getrandbits(m.cols))
            x = solve(m, b)
            assert x is not None
            assert mat_vec(m.data, x) == b

    def test_solve_detects_unsolvable(self):
        rng = random.Random(13)
        seen_unsolvable = 0
        for _ in range(200):
            m = random_matrix(rng, rng.randrange(2, 10), rng.randrange(1, 8))
            b = rng.getrandbits(m.rows)
            x = solve(m, b)
            if x is None:
                seen_unsolvable += 1
                aug = BitMatrix(m.rows, m.cols + 1,
                                tuple(r | (((b >> i) & 1) << m.cols)
                                      for i, r in enumerate(m.data)))
                assert rank(aug) == rank(m) + 1
            else:
                assert mat_vec(m.data, x) == b
        assert seen_unsolvable > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(identity(3), 1 << 3)
        with pytest.raises(ValueError):
            BitMatrix(1, 3, (1 << 3,))


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
            added = sum(1 for row in m.data if span.add(row)[0])
            assert added == rank(m) == len(span) == rank_of_rows(list(m.data), m.cols)

    def test_span_provenance_and_kernel_on_random_matrices(self):
        # row i is tagged 1 << i, so a tag is a provenance mask.  Permuting
        # the columns changes the pivots stored, but not which rows are
        # independent, the dependent rows' tags or an in-span vector's tag
        rng = random.Random(29)
        for _ in range(60):
            m = random_matrix(rng, rng.randrange(1, 10), rng.randrange(0, 10))
            rows = list(m.data)
            span, tags = run_tagged(rows)
            for row in rows:
                residual, tag = span.reduce(row)
                assert residual == 0 and apply_rows(rows, tag) == row
            for _ in range(10):
                target = rng.getrandbits(m.cols)
                residual, tag = span.reduce(target)
                assert residual ^ apply_rows(rows, tag) == target
                assert (residual == 0) == (rank(BitMatrix(m.rows + 1, m.cols, (*rows, target)))
                                           == len(span))
            kernel = [tag for tag in tags if tag is not None]
            assert kernel == brute_kernel_basis(rows) == kernel_basis(rows, m.cols)
            perm = list(range(m.cols))
            rng.shuffle(perm)
            permuted, permuted_tags = run_tagged([permute_columns(r, perm) for r in rows])
            assert permuted_tags == tags
            for _ in range(10):
                target = apply_rows(rows, rng.getrandbits(m.rows))
                assert permuted.reduce(permute_columns(target, perm)) == span.reduce(target)
