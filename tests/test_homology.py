from __future__ import annotations

import random

import pytest

from ltk import catalog, homology, lambda_algebra
from ltk.f2core import BitMatrix, Span, rank
from ltk.homology import (
    NotACycleError,
    boundary_witness,
    class_nonzero,
    ext_dimension,
    is_cycle,
    rank_out,
    same_class,
    slice_at,
)
from ltk.lambda_algebra import (
    ZERO,
    admissible_basis,
    differential,
    element,
    normalize,
    product,
)

from . import oracles
from .oracles import admissible_words_brute, binom2, compose, kernel_basis, rank_of_rows


def image_rows(domain, codomain) -> list[int]:
    return oracles.image_rows(differential, domain, codomain)


def target_product(*names: str):
    acc = None
    for name in names:
        e = catalog.entry(name).element
        acc = e if acc is None else product(acc, e)
    return acc


class TestSliceInvariants:
    @pytest.mark.parametrize("s,d", [(1, 5), (2, 7), (3, 9), (4, 14), (5, 14), (4, 17)])
    def test_out_composed_with_in_is_zero(self, s, d):
        sl = slice_at(s, d)
        composed = compose(image_rows(sl.prev_basis, sl.basis),
                           image_rows(sl.basis, sl.next_basis))
        assert all(row == 0 for row in composed)

    def test_matrix_shapes_follow_bases(self):
        # boundary rows live on basis, their tags on prev_basis
        sl = slice_at(3, 8)
        rows = image_rows(sl.prev_basis, sl.basis)
        for row in rows:
            residual, tag = sl.boundaries.reduce(row)
            assert residual == 0
            assert row >> len(sl.basis) == 0
            assert tag >> len(sl.prev_basis) == 0
        nullity = len(kernel_basis(rows, len(sl.basis)))
        assert len(sl.boundaries) + nullity == len(sl.prev_basis)


class TestIsCycle:
    def test_adams_generators(self):
        for t in range(5):
            assert is_cycle(element((2 ** t - 1,)))

    def test_non_cycle(self):
        assert not is_cycle(element((2,)))

    def test_catalog_four_letter_cycle(self):
        assert is_cycle(catalog.entry("e0_paper").element)

    def test_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            is_cycle(element((1,), (2,)))


class TestBoundaryWitness:
    def test_zero_input(self):
        assert boundary_witness(ZERO) == ZERO

    def test_two_letter_boundary(self):
        assert boundary_witness(element((1, 0))) == element((2,))

    def test_not_a_boundary(self):
        t = target_product("d0", "h0")
        assert boundary_witness(t) is None

    def test_unit_not_a_boundary(self):
        assert boundary_witness(element(())) is None

    def test_soundness_on_random_boundaries(self):
        rng = random.Random(101)
        for _ in range(40):
            s = rng.randrange(1, 4)
            d = rng.randrange(1, 14)
            basis = slice_at(s, d).basis
            if not basis:
                continue
            words = rng.sample(basis, k=min(len(basis), rng.randrange(1, 4)))
            r = differential(element(*words))
            w = boundary_witness(r)
            assert w is not None
            assert differential(w) == r


class TestExtDimension:
    def test_length_zero_and_one(self):
        assert ext_dimension(0, 0) == 1
        assert ext_dimension(0, 3) == 0
        assert ext_dimension(1, 2) == 0

    def test_stem_pattern_in_length_one(self):
        # independent oracle: a singleton is a cycle iff every summand of
        # its generator differential has even coefficient
        for d in range(21):
            cycle = all(binom2(d - j, j) == 0 for j in range(1, d + 1))
            expected = 1 if cycle else 0
            assert ext_dimension(1, d) == expected, d
        hits = [d for d in range(21) if ext_dimension(1, d) == 1]
        assert hits == [0, 1, 3, 7, 15]

    def test_h0_powers(self):
        for s in range(1, 7):
            assert ext_dimension(s, 0) == 1

    def test_length_two_chart_matches_product_presentation(self):
        # degree-2 classes are the products of two degree-1 generators,
        # with adjacent products vanishing
        for d in range(21):
            count = sum(
                1
                for i in range(5)
                for j in range(i, 6)
                if j != i + 1 and 2 ** i + 2 ** j - 2 == d
            )
            assert ext_dimension(2, d) == count, d

    def test_rank_nullity_consistency(self):
        for s, d in [(2, 5), (3, 8), (4, 10)]:
            sl = slice_at(s, d)
            out_rows = image_rows(sl.basis, sl.next_basis)
            cycles = len(kernel_basis(out_rows, len(sl.next_basis)))
            out = BitMatrix(len(out_rows), len(sl.next_basis), tuple(out_rows))
            assert cycles + rank(out) == len(sl.basis)
            bounds = len(sl.boundaries)
            assert bounds == rank_of_rows(image_rows(sl.prev_basis, sl.basis), len(sl.basis))
            assert ext_dimension(s, d) == cycles - bounds
            assert ext_dimension(s, d) >= 0

    def test_negative_bidegree_rejected(self):
        with pytest.raises(ValueError):
            ext_dimension(-1, 3)

    def test_against_testlocal_rank_route(self):
        # rebuild both differential matrices from the brute-force basis
        # and run a from-scratch elimination, sharing no linear algebra
        # with the package
        def local_rank(rows: list[int]) -> int:
            rank_count = 0
            work = list(rows)
            while work:
                row = work.pop()
                if row == 0:
                    continue
                rank_count += 1
                top = 1 << (row.bit_length() - 1)
                work = [r ^ row if r & top else r for r in work]
            return rank_count

        def matrix_rows(s, d):
            domain = admissible_words_brute(s, d)
            codomain = {w: i for i, w in enumerate(admissible_words_brute(s + 1, d - 1))} if d else {}
            rows = []
            for w in domain:
                bits = 0
                for t in differential(element(w)):
                    bits |= 1 << codomain[t]
                rows.append(bits)
            return rows, len(domain)

        for s in range(0, 4):
            for d in range(0, 11):
                out_rows, n = matrix_rows(s, d)
                in_rows, _ = matrix_rows(s - 1, d + 1) if s >= 1 else ([], 0)
                expected = (n - local_rank(out_rows)) - local_rank(in_rows)
                assert ext_dimension(s, d) == expected, (s, d)


@pytest.fixture()
def fresh_caches():
    """Empty the rank memo and the caches that read or fill it."""
    def clear():
        homology._RANK_OUT.clear()
        slice_at.cache_clear()
        ext_dimension.cache_clear()
    clear()
    yield
    clear()


def counting_rows(monkeypatch) -> list[int]:
    """Count the words that lambda_algebra.differential_rows differentiates."""
    calls = [0]
    inner = lambda_algebra.differential_rows

    def counted(domain, codomain):
        def words():
            for w in domain:
                calls[0] += 1
                yield w
        return inner(words(), codomain)
    monkeypatch.setattr(lambda_algebra, "differential_rows", counted)
    return calls


class TestRankMemo:
    GRID = [(s, t - s) for t in range(13) for s in range(t + 1)]

    @pytest.mark.parametrize("with_slices", [False, True])
    def test_ext_dimension_matches_oracle_in_any_order(self, with_slices, fresh_caches):
        def oracle(s, d):
            domain = admissible_words_brute(s, d)
            codomain = admissible_words_brute(s + 1, d - 1) if d else []
            nullity = len(kernel_basis(image_rows(domain, codomain), len(codomain)))
            prev = admissible_words_brute(s - 1, d + 1) if s else []
            return nullity - rank_of_rows(image_rows(prev, domain), len(domain))

        expected = {cell: oracle(*cell) for cell in self.GRID}
        rng = random.Random(59 + with_slices)
        cells = list(self.GRID)
        rng.shuffle(cells)
        for cell in cells:
            if with_slices:
                # slice_at fills the memo from the other side
                slice_at(*rng.choice(self.GRID))
            assert ext_dimension(*cell) == expected[cell], cell

    def test_each_word_differentiated_once(self, fresh_caches, monkeypatch):
        calls = counting_rows(monkeypatch)
        grid = [(s, t - s) for t in range(11) for s in range(t + 1)]
        dims = [ext_dimension(s, d) for s, d in grid]
        assert calls[0] == sum(len(admissible_basis(s, d)) for s, d in grid if d >= 1)
        ext_dimension.cache_clear()
        assert [ext_dimension(s, d) for s, d in grid] == dims
        assert calls[0] == sum(len(admissible_basis(s, d)) for s, d in grid if d >= 1)

    def test_slice_fills_the_incoming_rank(self, fresh_caches, monkeypatch):
        sl = slice_at(4, 10)
        calls = counting_rows(monkeypatch)
        assert ext_dimension(4, 10) == len(sl.basis) - rank_out(4, 10) - len(sl.boundaries)
        # only the outgoing differential of (4, 10) was new
        assert calls[0] == len(sl.basis)


class TestRankPath:
    """rank_out eliminates differential_rows without tags; slice_at and
    find_preimage feed the same rows to a tagged Span."""

    # every chart cell (s + d <= 21) and the next three diagonals, where a
    # rewrite that stops its scan one pair short first goes wrong
    CELLS = [(s, t - s) for t in range(25) for s in range(t)]

    def test_rows_match_the_differential_and_ranks_match_a_span(self, fresh_caches):
        for s, d in self.CELLS:
            domain = admissible_basis(s, d)
            codomain = admissible_basis(s + 1, d - 1)
            rows = list(lambda_algebra.differential_rows(domain, codomain))
            # each word's differential, placed in the codomain basis
            assert rows == [homology.row(differential(frozenset({w})), codomain)
                            for w in domain], (s, d)
            span = Span()
            for row in rows:
                span.add(row)
            assert rank_out(s, d) == len(span), (s, d)

    def test_rows_take_any_iterable_of_admissible_words(self):
        codomain = admissible_basis(3, 9)
        domain = admissible_basis(2, 10)
        assert (list(lambda_algebra.differential_rows(iter(domain), codomain))
                == list(lambda_algebra.differential_rows(domain, codomain)))
        assert list(lambda_algebra.differential_rows((), codomain)) == []


class TestSameClass:
    def test_reflexive_with_empty_witness(self):
        x = catalog.entry("d0").element
        equal, witness = same_class(x, x)
        assert equal and witness == ZERO

    def test_rejects_non_cycles(self):
        with pytest.raises(NotACycleError):
            same_class(element((2,)), element((2,)))

    def test_rejects_mismatched_bidegrees(self):
        with pytest.raises(ValueError):
            same_class(element((1,)), element((3,)))

    def test_equivalence_relation_on_random_cycles(self):
        rng = random.Random(103)
        sl = slice_at(3, 9)
        kernel = oracles.kernel_elements(differential, sl.basis, sl.next_basis)
        cycles = []
        for _ in range(6):
            acc = frozenset()
            for v in kernel:
                if rng.random() < 0.5:
                    acc ^= v
            cycles.append(acc)
        for x in cycles:
            eq, _ = same_class(x, x)
            assert eq
        for x in cycles:
            for y in cycles:
                assert same_class(x, y)[0] == same_class(y, x)[0]
        for x in cycles:
            for y in cycles:
                for z in cycles:
                    if same_class(x, y)[0] and same_class(y, z)[0]:
                        assert same_class(x, z)[0]

    def test_witness_reverifies(self):
        z = normalize(element((1, 0)))
        equal, witness = same_class(z, ZERO)
        assert equal
        assert differential(witness) == z


class TestClassNonzero:
    def test_detected_class(self):
        assert class_nonzero(target_product("d0", "h0"))

    def test_boundary_is_zero_class(self):
        assert not class_nonzero(element((1, 0)))
        assert boundary_witness(element((1, 0))) is not None

    def test_zero_element(self):
        assert not class_nonzero(ZERO)

    def test_rejects_non_cycle(self):
        with pytest.raises(NotACycleError):
            class_nonzero(element((4,)))
