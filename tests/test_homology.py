from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from ltk import catalog, homology, lambda_algebra
from ltk.transfer import transfer_image_dim
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
from .oracles import (admissible_words_brute, binom2, compose, kernel_basis,
                      oracle_differential, rank_of_rows)


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


def random_words(rng: random.Random, s: int, d: int, terms: int) -> set:
    """Up to `terms` words of length s and degree d, admissible or not."""
    words = set()
    for _ in range(terms):
        cuts = sorted(rng.randrange(d + 1) for _ in range(s - 1))
        words.add(tuple(b - a for a, b in zip([0, *cuts], [*cuts, d])))
    return words


def recording_differential(monkeypatch) -> list:
    """Record the argument of each lambda_algebra.differential call."""
    calls = []
    inner = lambda_algebra.differential

    def recorded(e):
        calls.append(e)
        return inner(e)
    monkeypatch.setattr(lambda_algebra, "differential", recorded)
    return calls


class TestWordDifferentialMemo:
    """is_cycle sums memoized word differentials; d is linear, so the sum
    is the differential of the whole element."""

    CELLS = [(1, 5), (2, 7), (2, 12), (3, 9), (3, 14), (4, 13)]

    @staticmethod
    def inputs() -> list:
        rng = random.Random(211)
        out = []
        for s, d in TestWordDifferentialMemo.CELLS:
            basis = admissible_basis(s, d)
            kernel = oracles.kernel_elements(differential, basis, admissible_basis(s + 1, d - 1))
            for _ in range(6):
                admissible = frozenset(w for w in basis if rng.random() < 0.3)
                cycle = frozenset()
                for v in kernel:
                    if rng.random() < 0.5:
                        cycle ^= v
                # the same cycle with some words written inadmissibly
                words = random_words(rng, s, d, 3)
                relation = frozenset(words) ^ normalize(frozenset(words))
                out += [admissible, cycle, cycle ^ relation, frozenset(words)]
        return out

    def test_cold_and_warm_answers_equal_the_differential(self):
        inputs = self.inputs()
        assert any(not differential(e) for e in inputs if e)
        assert any(differential(e) for e in inputs)
        assert any(not all(map(lambda_algebra.is_admissible, e)) and not differential(e)
                   for e in inputs)
        for e in [ZERO, *inputs]:
            expected = not differential(e)
            homology._word_differential.cache_clear()
            assert is_cycle(e) == expected, sorted(e)
            assert is_cycle(e) == expected, sorted(e)

    def test_non_homogeneous_input_raises_cold_and_warm(self):
        e = element((1,), (2,))
        homology._word_differential.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^element is not homogeneous$"):
                is_cycle(e)
        is_cycle(element((1,)))
        is_cycle(element((2,)))
        with pytest.raises(ValueError, match=r"^element is not homogeneous$"):
            is_cycle(e)

    def test_second_call_differentiates_nothing(self, monkeypatch):
        # d0 is stored with inadmissible words; the memo holds its normal form's
        e = catalog.entry("d0").element
        homology._word_differential.cache_clear()
        calls = recording_differential(monkeypatch)
        assert is_cycle(e)
        assert len(calls) == len(normalize(e))
        assert set(calls) == {frozenset({w}) for w in normalize(e)}
        assert homology._word_differential.cache_info().currsize == len(calls)
        assert is_cycle(e)
        assert len(calls) == len(normalize(e))

    def test_ext_and_slices_leave_the_memo_alone(self, fresh_caches):
        is_cycle(catalog.entry("d0").element)
        size = homology._word_differential.cache_info().currsize
        transfer_image_dim(5, 14)
        ext_dimension(4, 17)
        slice_at(3, 11)
        assert homology._word_differential.cache_info().currsize == size


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

    def test_mixed_input_is_refused_before_normalize(self):
        # lambda_0 lambda_1 normalizes to 0, leaving a homogeneous lambda_1
        assert normalize(element((0, 1))) == ZERO
        for r in (element((1,), (2,)), element((1,), (0, 1))):
            with pytest.raises(ValueError, match=r"^element is not homogeneous$"):
                boundary_witness(r)

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
    """Empty the rank memo, the stored rows, the carried basis and the
    caches that read or fill them."""
    def clear():
        homology._RANK_OUT.clear()
        homology._ROWS.clear()
        homology._WHOLE.clear()
        homology._CARRIED = None
        slice_at.cache_clear()
        ext_dimension.cache_clear()
    clear()
    yield
    clear()


def counting_rows(monkeypatch) -> dict:
    """Record the rows stored for each cell after each _extend."""
    built: dict = {}
    inner = homology._extend

    def counted(s, d, words, codomain):
        key = (min(s, d), d)
        # rows are only ever added, by _extend, after those stored
        assert homology._built(s, d) == built.get(key, 0), key
        inner(s, d, words, codomain)
        built[key] = homology._built(s, d)
    monkeypatch.setattr(homology, "_extend", counted)
    return built


def counting_bases(monkeypatch) -> Counter:
    """Count, by bidegree, the admissible_basis calls made from homology
    (not those the enumeration makes of itself)."""
    calls: Counter = Counter()
    inner = lambda_algebra.admissible_basis

    def counted(s, d):
        if sys._getframe(1).f_globals["__name__"] == homology.__name__:
            calls[s, d] += 1
        return inner(s, d)
    monkeypatch.setattr(lambda_algebra, "admissible_basis", counted)
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
                # slice_at stores the rows into a cell, which rank_out then
                # reads without building them again
                slice_at(*rng.choice(self.GRID))
            assert ext_dimension(*cell) == expected[cell], cell

    def test_each_word_differentiated_once(self, fresh_caches, monkeypatch):
        # each cell's rows are built at most once per process: a row built
        # again would make its cell longer than its basis
        built = counting_rows(monkeypatch)
        grid = [(s, t - s) for t in range(11) for s in range(t + 1)]
        dims = [ext_dimension(s, d) for s, d in grid]
        # a cell with s >= d reads its rank from (d - 1, d), whose rows are
        # all built; a cell read only below a larger one, up to some letter
        for s, d in grid:
            if 1 <= d and s < d:
                assert built.get((s, d), 0) == len(admissible_basis(s, d)), (s, d)
        assert all(n <= len(admissible_basis(*key)) for key, n in built.items())
        known = dict(built)
        rank_out(40, 5)
        ext_dimension.cache_clear()
        assert [ext_dimension(s, d) for s, d in grid] == dims
        assert built == known
        for d in range(6, 9):
            rank = rank_out(d - 1, d)
            known = dict(built)
            assert rank_out(d, d) == rank
            assert built == known, d

    def test_stable_range_matches_oracle_in_any_order(self, fresh_caches):
        def oracle_rank(s, d):
            if s < 0 or d < 1:
                return 0
            codomain = admissible_words_brute(s + 1, d - 1)
            rows = oracles.image_rows(oracle_differential, admissible_words_brute(s, d), codomain)
            return rank_of_rows(rows, len(codomain))

        cells = [(s, d) for d in range(6) for s in range(max(d - 1, 0), 13)]
        expected = {(s, d): (oracle_rank(s, d), len(admissible_words_brute(s, d))
                             - oracle_rank(s, d) - oracle_rank(s - 1, d + 1))
                    for s, d in cells}
        rng = random.Random(17)
        rng.shuffle(cells)
        for s, d in cells:
            # slice_at stores the rows into a cell, which rank_out then
            # reads without building them again
            slice_at(*rng.choice(cells))
            assert (rank_out(s, d), ext_dimension(s, d)) == expected[s, d], (s, d)

    def test_slice_leaves_the_memo_and_its_rows_give_the_incoming_rank(
            self, fresh_caches, monkeypatch):
        # rank_out is the memo's one writer: a slice stores the rows into
        # its cell, and rank_out reads them later
        sl = slice_at(4, 10)
        assert homology._RANK_OUT == {}
        built = counting_rows(monkeypatch)
        assert ext_dimension(4, 10) == len(sl.basis) - rank_out(4, 10) - len(sl.boundaries)
        assert homology._RANK_OUT[3, 11] == len(sl.boundaries)
        # the rows of (3, 11) are not built again, the outgoing rows of
        # (4, 10) are new, and the cells below (4, 10) are built only as
        # far as it reads them
        assert (3, 11) not in built
        assert built[4, 10] == len(sl.basis)
        assert all(s == 3 and d < 10 for s, d in built if (s, d) != (4, 10))
        # past the diagonal the incoming rank is the rank out of (d - 1, d)
        known = dict(homology._RANK_OUT)
        sl = slice_at(7, 3)
        assert homology._RANK_OUT == known
        assert rank_out(6, 4) == len(sl.boundaries) == homology._RANK_OUT[3, 4]

    def test_padded_cells_enumerate_no_basis(self, fresh_caches, monkeypatch):
        # s > d: the size is counted, and the ranks read from (d - 1, d),
        # so once the cells below the diagonal are built nothing is
        # enumerated
        rank_out(4, 5)
        rank_out(5, 6)
        calls = []
        inner = lambda_algebra.admissible_basis

        def counted(s, d):
            calls.append((s, d))
            return inner(s, d)
        monkeypatch.setattr(lambda_algebra, "admissible_basis", counted)
        assert ext_dimension(12, 5) == 0
        assert calls == []


class TestCarriedBasis:
    """_whole_rows leaves the codomain it enumerated in one slot, and the
    next cell on the diagonal, or slice_at, takes its words from it."""

    def test_a_chart_pass_enumerates_each_basis_once(self, fresh_caches, monkeypatch):
        # the chart workload's pass: s ascending within each diagonal
        calls = counting_bases(monkeypatch)
        for t in range(22):
            for s in range(t + 1):
                ext_dimension(s, t - s)
        assert calls and max(calls.values()) == 1, calls.most_common(3)

    def test_a_cold_slice_enumerates_its_basis_once(self, fresh_caches, monkeypatch):
        made = {}
        inner = lambda_algebra.admissible_basis

        def kept(s, d):
            made[s, d] = inner(s, d)
            return made[s, d]
        monkeypatch.setattr(lambda_algebra, "admissible_basis", kept)
        calls = counting_bases(monkeypatch)
        sl = slice_at(5, 14)
        # the basis, prev_basis (4, 15), whose rows are built, and next_basis
        assert calls == {(5, 14): 1, (4, 15): 1, (6, 13): 1}
        # the slice holds the very tuples the boundary rows read and
        # enumerated, and the slot is empty again
        assert sl.basis is made[5, 14]
        assert sl.prev_basis is made[4, 15]
        assert homology._CARRIED is None
        assert sl.basis == admissible_basis(5, 14)
        assert sl.prev_basis == admissible_basis(4, 15)

    def test_a_slice_keeps_the_basis_its_rows_left(self, fresh_caches, monkeypatch):
        # rows built whole, as ext_dimension builds them, leave (5, 14) in
        # the slot, and slice_at takes it rather than carry its prev_basis
        homology._whole_rows(4, 15)
        assert homology._CARRIED[0] == (5, 14)
        calls = counting_bases(monkeypatch)
        sl = slice_at(5, 14)
        assert calls == {(4, 15): 1, (6, 13): 1}
        assert sl.basis == admissible_basis(5, 14)
        assert homology._CARRIED is None

    @pytest.mark.parametrize("cell", [(9, 4), (7, 5), (6, 5), (3, 0)])
    def test_a_cold_slice_past_the_diagonal_enumerates_each_basis_once(
            self, cell, fresh_caches, monkeypatch):
        # the rows of prev_basis (s - 1, d + 1) are those of (d + 1, d + 1)
        # when s - 1 > d + 1: the slot, keyed by prev_basis's own bidegree,
        # does not stand in for that basis
        calls = counting_bases(monkeypatch)
        s, d = cell
        sl = slice_at(s, d)
        assert calls and max(calls.values()) == 1, calls
        assert sl.prev_basis == admissible_basis(s - 1, d + 1)
        assert sl.basis == admissible_basis(s, d)
        for i, w in enumerate(sl.prev_basis):
            image = homology.row(differential(frozenset({w})), sl.basis)
            assert sl.boundaries.reduce(image)[0] == 0, (cell, w)

    def test_a_stale_slot_is_harmless(self, fresh_caches):
        cells = [(s, t - s) for t in range(4, 17) for s in range(t + 1)]
        rows = {cell: list(homology.differential_rows(*cell)) for cell in cells}
        dims = {cell: ext_dimension(*cell) for cell in cells}

        def clear():
            homology._RANK_OUT.clear()
            homology._ROWS.clear()
            homology._WHOLE.clear()
            ext_dimension.cache_clear()

        descending = sorted(cells, reverse=True)
        shuffled = random.Random(43).sample(cells, len(cells))
        # the last order takes the stale basis first
        for order in (descending, shuffled, [(3, 8)] + shuffled):
            # the slot keeps the codomain (3, 8) of a cell whose rows are
            # then dropped
            clear()
            homology._whole_rows(2, 9)
            assert homology._CARRIED[0] == (3, 8)
            clear()
            for cell in order:
                assert ext_dimension(*cell) == dims[cell], cell
                assert list(homology.differential_rows(*cell)) == rows[cell], cell


class TestRankPath:
    """rank_out eliminates the stored rows without tags; slice_at and
    find_preimage feed the same rows, through differential_rows, to a
    tagged Span."""

    # every chart cell (s + d <= 21) and the next three diagonals, where a
    # rewrite that stops its scan one pair short first goes wrong
    CELLS = [(s, t - s) for t in range(25) for s in range(t + 1)]

    def test_rows_match_the_differential_and_ranks_match_a_span(self, fresh_caches):
        for s, d in self.CELLS:
            domain = admissible_basis(s, d)
            codomain = admissible_basis(s + 1, d - 1) if d else ()
            rows = list(homology.differential_rows(s, d))
            # each word's differential, placed in the codomain basis
            assert rows == [homology.row(differential(frozenset({w})), codomain)
                            for w in domain], (s, d)
            span = Span()
            for row in rows:
                span.add(row)
            assert rank_out(s, d) == len(span), (s, d)

    def test_rows_do_not_depend_on_the_order_cells_are_built(self, fresh_caches):
        # a cell read below a larger one is built only up to a letter, and
        # completed when it is asked for itself
        cells = [(s, t - s) for t in range(4, 19) for s in range(1, t)]
        expected = {cell: list(homology.differential_rows(*cell)) for cell in cells}
        rng = random.Random(31)
        for _ in range(3):
            homology._ROWS.clear()
            homology._WHOLE.clear()
            rng.shuffle(cells)
            for cell in cells:
                assert list(homology.differential_rows(*cell)) == expected[cell], cell

    def test_a_stored_run_never_changes(self, fresh_caches):
        # (3, 8) is built part way as the tails of (4, 10), then whole;
        # the whole run is stored as a new pair, and the kept one stays
        list(homology.differential_rows(4, 10))
        kept = homology._stored(3, 8)
        before = [list(run) for run in kept]
        assert 0 < homology._built(3, 8) < len(admissible_basis(3, 8))
        list(homology.differential_rows(3, 8))
        assert [list(run) for run in kept] == before
        whole = homology._stored(3, 8)
        assert len(whole[0]) == len(admissible_basis(3, 8)) + 1
        assert [list(run[:len(old)]) for run, old in zip(whole, before)] == before

    def test_threads_building_the_same_cells_agree(self, fresh_caches):
        # threads extend the same cells at once; a stale store that cut a
        # cell's rows short would show as a missing or wrong row
        from concurrent.futures import ThreadPoolExecutor

        cells = [(s, t - s) for t in range(8, 17) for s in range(2, 6)]
        expected = {cell: list(homology.differential_rows(*cell)) for cell in cells}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(3):
                homology._ROWS.clear()
                homology._WHOLE.clear()
                # the slot holds a basis no thread has taken yet
                homology._CARRIED = (3, 10), admissible_basis(3, 10)
                orders = [random.Random(seed * 8 + i).sample(cells, len(cells))
                          for i in range(8)]
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(
                        lambda order: {c: list(homology.differential_rows(*c)) for c in order},
                        orders, timeout=60))
                assert all(rows == expected for rows in got)
        finally:
            sys.setswitchinterval(interval)

    def test_a_first_letter_term_reaching_its_own_block_is_refused(
            self, fresh_caches, monkeypatch):
        # d(lambda_n) T must stay below the block of n, where the shifted
        # row of d(T) lands; a term starting with n itself breaks that
        monkeypatch.setattr(lambda_algebra, "_generator_differential",
                            lambda n: ((n, 0),) if n else ())
        with pytest.raises(AssertionError, match=r"^d\(lambda_\d+\) .* reaches"):
            list(homology.differential_rows(2, 4))


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
