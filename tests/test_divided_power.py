from __future__ import annotations

import itertools
import random
import time
from math import comb

import pytest

from ltk import catalog, f2core
from ltk.divided_power import (
    ZERO,
    _generator_images,
    _generator_squares,
    _sq_fold,
    degree_of,
    element,
    gamma_basis,
    is_primitive,
    primitive_basis,
    sq_right,
)

from .oracles import (
    compositions,
    divided_multiply,
    kernel_basis,
    sq_right_dual_oracle,
    sq_right_dual_table,
)


def random_gamma(rng: random.Random, rank: int, degree: int, terms: int = 3):
    out = set()
    for _ in range(terms):
        exps = []
        left = degree
        for k in range(rank):
            t = left if k == rank - 1 else rng.randrange(0, left + 1)
            exps.append(t)
            left -= t
        out ^= {tuple(exps)}
    return frozenset(out)


class TestElementHelpers:
    def test_cancellation_and_rank(self):
        e = element((1, 2), (1, 2), (0, 3))
        assert e == element((0, 3))
        assert degree_of(e) == 3

    def test_mixed_rank_rejected(self):
        with pytest.raises(ValueError):
            element((1, 2), (1, 2, 3))

    def test_zero_has_no_rank(self):
        assert degree_of(ZERO) is None


class TestSqRight:
    def test_single_divided_power(self):
        assert sq_right(element((2,)), 1) == element((1,))
        assert sq_right(element((3,)), 1) == ZERO

    def test_sq0_is_identity(self):
        e = element((4, 1), (2, 3))
        assert sq_right(e, 0) == e

    def test_catalog_annihilation(self):
        u14 = catalog.entry("u14").element
        assert sq_right(u14, 4) == ZERO

    def test_degree_bookkeeping(self):
        rng = random.Random(7)
        for _ in range(50):
            d = rng.randrange(1, 12)
            e = random_gamma(rng, rng.randrange(1, 4), d)
            i = rng.randrange(0, d + 1)
            img = sq_right(e, i)
            if img:
                assert degree_of(img) == d - i

    def test_instability(self):
        rng = random.Random(11)
        for _ in range(100):
            d = rng.randrange(0, 10)
            e = random_gamma(rng, rng.randrange(1, 5), d)
            i = d // 2 + 1 + rng.randrange(0, 3)
            if 2 * i > d:
                assert sq_right(e, i) == ZERO

    def test_composition_relations(self):
        # right-module reading: x(ab) = ((x)a)b, so SqaSqb acts a first
        rng = random.Random(13)
        for _ in range(200):
            e = random_gamma(rng, rng.randrange(1, 5), rng.randrange(0, 14))
            assert sq_right(sq_right(e, 1), 1) == ZERO
            assert sq_right(sq_right(e, 1), 2) == sq_right(e, 3)

    def test_against_polynomial_duality_oracle(self):
        rng = random.Random(17)
        for _ in range(120):
            rank = rng.randrange(1, 4)
            d = rng.randrange(1, 9)
            e = random_gamma(rng, rank, d, terms=rng.randrange(1, 4))
            i = rng.randrange(0, d + 1)
            assert sq_right(e, i) == sq_right_dual_oracle(e, i), (sorted(e), i)

    def test_every_small_monomial_against_oracle(self):
        for rank in range(1, 5):
            for d in range(13):
                for i in range(d // 2 + 2):
                    table = sq_right_dual_table(rank, d, i)
                    for m, image in table.items():
                        assert sq_right(frozenset({m}), i) == image, (m, i)

    @pytest.mark.parametrize("name", ["u14", "u20", "u24"])
    def test_catalog_inputs_against_oracle(self, name):
        u = catalog.entry(name).element
        for i in _generator_squares(degree_of(u)):
            assert sq_right(u, i) == sq_right_dual_oracle(u, i), i

    def test_nothing_beyond_the_room(self):
        # a^(t) absorbs at most t // 2, so Sq^i kills m once i exceeds the sum
        for rank in range(1, 5):
            for d in range(13):
                for m in compositions(rank, d):
                    room = sum(t // 2 for t in m)
                    for i in range(room + 1, d + 2):
                        assert _sq_fold(m, (i,)) == [[]], (m, i)

    def test_fold_of_every_square_tuple_against_oracle(self):
        # one fold for several squares at once gives, square by square,
        # what the duality oracle gives for each square alone, whatever
        # squares the tuple holds and in whatever order
        tables: dict = {}

        def oracle(rank, d, i):
            if (rank, d, i) not in tables:
                tables[rank, d, i] = sq_right_dual_table(rank, d, i)
            return tables[rank, d, i]

        for rank in range(1, 5):
            for d in range(13):
                gens = _generator_squares(d)
                tuples = [combo for n in range(1, len(gens) + 1)
                          for combo in itertools.permutations(gens, n)]
                # psi folds every square up to the room at once, from Sq^0
                tuples.append(tuple(range(d // 2 + 2)))
                for squares in tuples:
                    for m in compositions(rank, d):
                        images = _sq_fold(m, squares)
                        assert len(images) == len(squares)
                        for i, image in zip(squares, images):
                            assert len(image) == len(set(image)), (m, i)
                            assert frozenset(image) == oracle(rank, d, i)[m], (m, squares, i)

    def test_cartan_over_products(self):
        rng = random.Random(19)
        for _ in range(120):
            rank = rng.randrange(1, 4)
            m1 = tuple(rng.randrange(0, 5) for _ in range(rank))
            m2 = tuple(rng.randrange(0, 5) for _ in range(rank))
            prod = divided_multiply(m1, m2)
            n = rng.randrange(0, sum(m1) + sum(m2) + 1)
            lhs = sq_right(prod, n)
            rhs: set = set()
            for p in range(n + 1):
                for x in sq_right(frozenset({m1}), p):
                    for y in sq_right(frozenset({m2}), n - p):
                        rhs ^= divided_multiply(x, y)
            assert lhs == frozenset(rhs)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            sq_right(element((2,)), -1)

    def test_rank_one_against_the_defining_formula(self):
        # a^(t) Sq^i = C(t - i, i) a^(t - i), and zero once 2i > t
        for t in range(200):
            for i in range(t + 2):
                odd = 2 * i <= t and comb(t - i, i) % 2
                assert sq_right(element((t,)), i) == (element((t - i,)) if odd
                                                      else ZERO), (t, i)

    def test_huge_last_factor_folds_quickly(self):
        # the last factor takes the remainder in one parity test, not a
        # walk over the t // 2 squares it might absorb
        t = 10**9
        start = time.perf_counter()
        assert sq_right(element((t,)), 1) == element((t - 1,))
        assert sq_right(element((1, t)), 2) == element((1, t - 2))
        assert not is_primitive(element((t,)))
        assert primitive_basis(1, t) == []
        assert time.perf_counter() - start < 1.0


class TestGammaBasis:
    def test_rank_one(self):
        assert gamma_basis(1, 6) == ((6,),)

    def test_rank_two_order(self):
        assert gamma_basis(2, 2) == ((2, 0), (1, 1), (0, 2))

    def test_counts(self):
        for s in range(1, 6):
            for d in range(0, 10):
                assert len(gamma_basis(s, d)) == comb(d + s - 1, s - 1)
        assert len(gamma_basis(5, 14)) == 3060

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_basis(0, 3)
        with pytest.raises(ValueError):
            gamma_basis(2, -1)


class TestIsPrimitive:
    def test_catalog_u24(self):
        evidence = is_primitive(catalog.entry("u24").element)
        assert evidence.holds
        assert [i for i, _ in evidence.checked] == [1, 2, 4, 8]
        assert all(img == ZERO for _, img in evidence.checked)

    def test_degree_one_trivially_primitive(self):
        evidence = is_primitive(element((1,)))
        assert evidence.holds
        assert evidence.checked == ()

    def test_single_even_power_not_primitive(self):
        evidence = is_primitive(element((2,)))
        assert not evidence.holds
        assert (1, element((1,))) in evidence.checked

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError, match=r"^element is not homogeneous$"):
            is_primitive(element((1, 0), (1, 1)))


class TestGeneratorImagesMemo:
    @staticmethod
    def inputs():
        out = []
        for name in ("u14", "u20", "u24"):
            u = catalog.entry(name).element
            out += [u - {m} for m in sorted(u)]
        rng = random.Random(29)
        for _ in range(80):
            out.append(random_gamma(rng, rng.randrange(1, 5), rng.randrange(0, 13),
                                    terms=rng.randrange(1, 5)))
        return out

    def test_cold_and_warm_evidence_against_the_oracle(self):
        # rank 5 reads the duality table once per square, since its images
        # are linear in the monomials; smaller ranks call the oracle itself
        tables: dict = {}

        def oracle(e, i):
            rank, d = len(next(iter(e))), degree_of(e)
            if rank < 5:
                return sq_right_dual_oracle(e, i)
            if (d, i) not in tables:
                tables[d, i] = sq_right_dual_table(rank, d, i)
            image: set = set()
            for m in e:
                image ^= tables[d, i][m]
            return frozenset(image)

        for e in self.inputs():
            squares = _generator_squares(degree_of(e)) if e else ()
            expected = tuple((i, oracle(e, i)) for i in squares)
            _generator_images.cache_clear()
            cold = is_primitive(e)
            assert _generator_images.cache_info().currsize == len(e)
            hits = _generator_images.cache_info().hits
            warm = is_primitive(e)
            assert _generator_images.cache_info().hits == hits + len(e)
            assert cold.checked == expected, sorted(e)
            assert warm == cold, sorted(e)

    def test_primitive_basis_leaves_the_memo_alone(self):
        is_primitive(catalog.entry("u14").element)
        size = _generator_images.cache_info().currsize
        primitive_basis(5, 14)
        assert _generator_images.cache_info().currsize == size


class TestPrimitiveBasis:
    def test_rank_one_degree_three(self):
        basis = primitive_basis(1, 3)
        assert basis == [element((3,))]

    def test_degree_zero(self):
        for s in range(1, 5):
            assert primitive_basis(s, 0) == [frozenset({(0,) * s})]

    def test_members_primitive_and_independent(self):
        for s, d in [(2, 6), (3, 7), (4, 6)]:
            basis = primitive_basis(s, d)
            index = {m: i for i, m in enumerate(gamma_basis(s, d))}
            rows = []
            for e in basis:
                assert is_primitive(e).holds
                bits = 0
                for m in e:
                    bits |= 1 << index[m]
                rows.append(bits)
            if rows:
                mat = f2core.BitMatrix(len(rows), len(index), tuple(rows))
                assert f2core.rank(mat) == len(rows)

    def test_u14_lies_in_primitive_span(self):
        u14 = catalog.entry("u14").element
        basis = primitive_basis(5, 14)
        assert len(basis) == 320
        index = {m: i for i, m in enumerate(gamma_basis(5, 14))}
        rows = []
        for e in basis:
            bits = 0
            for m in e:
                bits |= 1 << index[m]
            rows.append(bits)
        target = 0
        for m in u14:
            target |= 1 << index[m]
        matrix = f2core.BitMatrix(len(rows), len(index), tuple(rows)).transpose()
        assert f2core.solve(matrix, target) is not None


    def test_recheck_fires_on_a_corrupted_kernel_vector(self, monkeypatch):
        # flip, in the tag of every dependent row after it, the bit of a
        # monomial that is not primitive alone: the named rows then XOR to
        # that monomial's images, which are not zero
        assert primitive_basis(4, 7)
        basis = gamma_basis(4, 7)
        k = next(k for k, m in enumerate(basis) if not is_primitive(frozenset({m})))
        add = f2core.Span.add

        def corrupted(self, bits, tag=0):
            residual, v = add(self, bits, tag)
            return residual, v if residual or v >> k <= 1 else v ^ 1 << k

        monkeypatch.setattr(f2core.Span, "add", corrupted)
        with pytest.raises(AssertionError,
                           match="^kernel vector failed the primitivity re-check$"):
            primitive_basis(4, 7)

    def test_exact_list_against_the_dual_kernel(self):
        # the stacked map of the squares Sq^(2^k), 2^(k+1) <= d, built from
        # the polynomial duality; primitive_basis must list its free-column
        # kernel basis over gamma_basis(s, d), in order
        for s in range(1, 5):
            for d in range(13):
                basis = gamma_basis(s, d)
                rows, width = [0] * len(basis), 0
                for i in (1 << k for k in range(d.bit_length()) if 2 << k <= d):
                    table = sq_right_dual_table(s, d, i)
                    index: dict = {}
                    for j, m in enumerate(basis):
                        for w in table[m]:
                            rows[j] |= 1 << (width + index.setdefault(w, len(index)))
                    width += len(index)
                expected = [frozenset(m for k, m in enumerate(basis) if v >> k & 1)
                            for v in kernel_basis(rows, width)]
                assert primitive_basis(s, d) == expected, (s, d)


class TestDividedMultiply:
    def test_binomial_carry_rule(self):
        assert divided_multiply((1,), (2,)) == element((3,))
        assert divided_multiply((1,), (1,)) == ZERO
        assert divided_multiply((2, 1), (1, 2)) == element((3, 3))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            divided_multiply((1,), (1, 2))
