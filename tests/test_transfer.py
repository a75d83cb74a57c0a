from __future__ import annotations

import random
import time
from math import comb

import pytest

from ltk import catalog, homology
from ltk import divided_power as dp
from ltk import lambda_algebra as la
from ltk.catalog import CatalogEntry
from ltk.cli import CLASSES
from ltk.transfer import (
    DEFAULT_MAX_BASIS,
    ResourceLimitError,
    cells,
    find_preimage,
    guard,
    psi,
    sq0_family,
    transfer_image_dim,
    verify_detection,
)

from .oracles import (
    EXT_CLASS_NAMES,
    admissible_words_brute,
    image_rows,
    kernel_elements,
    psi_rank2_oracle,
    rank_of_rows,
    reference,
    sq_right_dual_table,
)


def gamma_entry(name: str, element: frozenset, s: int, d: int) -> CatalogEntry:
    return CatalogEntry(name, catalog.GAMMA, (s, d), element)


class TestPsi:
    def test_rank_one_is_generator(self):
        assert psi(dp.element((3,))) == la.element((3,))
        assert psi(dp.element((0,))) == la.element((0,))

    def test_zero(self):
        assert psi(dp.ZERO) == la.ZERO

    def test_rank_two_against_oracle(self):
        rng = random.Random(7)
        for _ in range(150):
            t1, t2 = rng.randrange(0, 12), rng.randrange(0, 12)
            got = psi(dp.element((t1, t2)))
            want = la.normalize(la.element(*psi_rank2_oracle(t1, t2)))
            assert got == want, (t1, t2)

    def test_linear(self):
        rng = random.Random(11)
        for _ in range(40):
            monos = [tuple(rng.randrange(0, 5) for _ in range(3)) for _ in range(3)]
            x = dp.element(monos[0], monos[1])
            y = dp.element(monos[1], monos[2])
            assert psi(x) ^ psi(y) == psi(x ^ y)

    def test_bidegree_preserved(self):
        rng = random.Random(13)
        for _ in range(60):
            s = rng.randrange(1, 5)
            mono = tuple(rng.randrange(0, 6) for _ in range(s))
            image = psi(dp.element(mono))
            if image:
                assert la.bidegree(image) == la.Bidegree(s, sum(mono))

    def test_case_three_displayed_values(self):
        displays = {
            (1, 15, 3, 3, 2): [(2, 3, 3, 15, 1), (1, 4, 3, 15, 1), (1, 3, 4, 15, 1)],
            (1, 15, 3, 4, 1): [(1, 4, 3, 15, 1), (1, 3, 4, 15, 1), (1, 2, 5, 15, 1)],
            (1, 15, 5, 2, 1): [(1, 2, 5, 15, 1), (1, 1, 6, 15, 1)],
            (1, 15, 6, 1, 1): [(1, 1, 6, 15, 1)],
        }
        for mono, words in displays.items():
            assert psi(dp.element(mono)) == la.normalize(la.element(*words)), mono

    def test_primitive_images_are_cycles(self):
        for s, d in [(1, 6), (2, 5), (2, 9), (3, 7), (3, 10), (4, 8), (5, 9), (5, 14)]:
            for theta in dp.primitive_basis(s, d):
                image = psi(theta)
                assert homology.is_cycle(image), (s, d, sorted(theta)[:2])

    def test_rank_zero_monomial_rejected(self):
        with pytest.raises(ValueError):
            psi(frozenset({()}))


class TestSq0Family:
    def test_adams_family(self):
        h0 = catalog.entry("h0")
        for t in range(5):
            assert sq0_family(h0, t) == catalog.entry(f"h{t}").element

    def test_identity_case(self):
        c0 = catalog.entry("c0")
        assert sq0_family(c0, 0) == la.normalize(c0.element)

    def test_degree_doubling_family(self):
        d0 = catalog.entry("d0")
        image = sq0_family(d0, 1)
        assert la.bidegree(image) == la.Bidegree(4, 32)
        assert 4 + 32 == 2 ** 5 + 2 ** 2
        assert homology.is_cycle(image)

    def test_gamma_entry_rejected(self):
        with pytest.raises(ValueError):
            sq0_family(catalog.entry("u14"), 1)


class TestCatalog:
    def test_all_entries_load_with_declared_bidegrees(self):
        for name in catalog.names():
            e = catalog.entry(name)
            assert e.name == name
            assert e.element, name

    def test_ext_class_entries_are_cycles(self):
        for name in EXT_CLASS_NAMES:
            assert homology.is_cycle(catalog.entry(name).element), name

    def test_two_stored_degree17_representatives_are_homologous(self):
        equal, witness = homology.same_class(
            catalog.entry("e0_paper").element, catalog.entry("e0_lin").element
        )
        assert equal
        assert la.differential(witness) == la.normalize(
            catalog.entry("e0_paper").element ^ catalog.entry("e0_lin").element
        )

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.entry("nope")

    def test_bidegree_mismatch_detected_on_load(self, monkeypatch):
        monkeypatch.setattr(catalog, "_read", lambda name: "L[1,1]")
        catalog.entry.cache_clear()
        try:
            with pytest.raises(ValueError, match="declared bidegree"):
                catalog.entry("d0")
        finally:
            catalog.entry.cache_clear()


class TestVerifyDetection:
    def test_verified_run_has_all_checks(self):
        u14 = catalog.entry("u14")
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        report = verify_detection(u14, target, expected_dim=1, target_name="h0d0")
        assert report.verdict == "verified"
        assert report.failed_checks == ()
        assert report.primitive_holds
        assert report.cycle_ok
        assert report.same_class_ok
        assert report.target_nonzero
        assert report.ext_dim == 1
        assert la.differential(report.witness) == la.normalize(report.psi_image ^ target)

    def test_corrupted_input_falsifies_without_raising(self):
        u14 = catalog.entry("u14")
        mutated = gamma_entry("u14-broken", u14.element ^ {min(u14.element)}, 5, 14)
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        report = verify_detection(mutated, target, expected_dim=1)
        assert report.verdict == "falsified"
        assert "primitive" in report.failed_checks or "class-equality" in report.failed_checks

    def test_wrong_expected_dim_flags_ext_check(self):
        u14 = catalog.entry("u14")
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        report = verify_detection(u14, target, expected_dim=2)
        assert report.verdict == "falsified"
        assert report.failed_checks == ("ext-dimension",)

    def test_ext_computed_only_when_a_dimension_is_expected(self, monkeypatch):
        calls = []
        ext_dimension = homology.ext_dimension
        monkeypatch.setattr(homology, "ext_dimension",
                            lambda s, d: calls.append((s, d)) or ext_dimension(s, d))
        u14 = catalog.entry("u14")
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        report = verify_detection(u14, target)
        assert report.verdict == "verified"
        assert report.ext_dim is None
        assert calls == []
        assert verify_detection(u14, target, expected_dim=1).ext_dim == 1
        assert calls == [(5, 14)]

    def test_ext_computed_before_any_slice(self, monkeypatch):
        # the slices then read the rows Ext stored
        calls = []
        ext_dimension, slice_at = homology.ext_dimension, homology.slice_at
        monkeypatch.setattr(homology, "ext_dimension",
                            lambda s, d: calls.append("ext") or ext_dimension(s, d))
        monkeypatch.setattr(homology, "slice_at",
                            lambda s, d: calls.append("slice") or slice_at(s, d))
        u14 = catalog.entry("u14")
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        assert verify_detection(u14, target, expected_dim=1).verdict == "verified"
        assert calls[0] == "ext" and "slice" in calls

    def test_homogeneity_checked_once_per_element(self, monkeypatch):
        # is_cycle refuses a mixed element; its bidegree is then any word's
        checked = []
        bidegree = la.bidegree
        monkeypatch.setattr(la, "bidegree", lambda e: checked.append(e) or bidegree(e))
        u14 = catalog.entry("u14")
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        report = verify_detection(u14, target, expected_dim=1)
        assert report.verdict == "verified"
        assert checked.count(report.psi_image) == 1
        # is_cycle and then boundary_witness, which stands on its own
        assert checked.count(report.target) == 2

    def test_mixed_image_is_no_cycle(self):
        # psi(a(1,1,1,3,7)) is one word of degree 13
        u = gamma_entry("mixed", catalog.entry("u14").element | {(1, 1, 1, 3, 7)}, 5, 14)
        image = psi(u.element)
        with pytest.raises(ValueError, match=r"^element is not homogeneous$"):
            la.bidegree(image)
        report = verify_detection(u, la.product(catalog.entry("d0").element,
                                                catalog.entry("h0").element))
        assert not report.cycle_ok and report.same_class_ok is None
        assert "cycle" in report.failed_checks

    def test_zero_inputs_are_trivial(self):
        report = verify_detection(gamma_entry("zero", dp.ZERO, 5, 14), la.ZERO)
        assert report.verdict == "trivial"

    def test_boundary_target_flags_nonzero_check(self):
        u = gamma_entry("zero", dp.ZERO, 2, 1)
        report = verify_detection(u, la.element((1, 0)))
        assert report.verdict == "falsified"
        assert "target-nonzero" in report.failed_checks

    @pytest.mark.parametrize("name, factors", [
        ("u14", ("d0", "h0")), ("u20", ("e0_paper", "h2")), ("u24", ("c0", "h4", "h1")),
    ])
    def test_every_single_deletion_mutant_falsified(self, name, factors):
        u = catalog.entry(name)
        s, d = u.bidegree
        target = la.UNIT
        for f in factors:
            target = la.product(target, catalog.entry(f).element)
        assert verify_detection(u, target, expected_dim=1).verdict == "verified"
        # the duality oracle's images of every monomial under Sq^1, Sq^2, Sq^4, ...
        tables = [sq_right_dual_table(s, d, 1 << k) for k in range(d.bit_length() - 1)]
        for m in sorted(u.element):
            mutant = u.element - {m}
            report = verify_detection(gamma_entry(f"{name}-{m}", mutant, s, d), target,
                                      expected_dim=1)
            assert report.verdict == "falsified", m
            primitive = True
            for table in tables:
                image: set = set()
                for term in mutant:
                    image ^= table[term]
                primitive = primitive and not image
            assert ("primitive" in report.failed_checks) == (not primitive), m

    def test_warm_reports_equal_cold_ones(self):
        # the 87 inputs of a detect run: 3 certificates, 84 single-deletion mutants
        runs = []
        for cls, (name, factors, expected) in CLASSES.items():
            u = catalog.entry(name)
            target = la.UNIT
            for f in factors:
                target = la.product(target, catalog.entry(f).element)
            runs.append((u, target, expected, cls))
            runs += [(gamma_entry(f"{name}(custom)", u.element - {m}, *u.bidegree),
                      target, expected, cls) for m in sorted(u.element)]
        assert len(runs) == 87
        cold = []
        for u, target, expected, cls in runs:
            homology._word_differential.cache_clear()
            cold.append(verify_detection(u, target, expected_dim=expected, target_name=cls))
        warm = [verify_detection(u, target, expected_dim=expected, target_name=cls)
                for u, target, expected, cls in runs]
        assert [r.verdict for r in cold].count("verified") == 3
        for a, b in zip(cold, warm):
            # a report compares field by field
            assert a == b, a.input_name

    def test_lambda_entry_rejected(self):
        with pytest.raises(ValueError):
            verify_detection(catalog.entry("d0"), la.ZERO)


class TestTransferImage:
    def test_rank_one_degree_zero(self):
        dim, reps = transfer_image_dim(1, 0)
        assert dim == 1
        assert reps == [la.element((0,))]

    def test_contains_detected_class_at_5_14(self):
        dim, reps = transfer_image_dim(5, 14)
        assert dim == 1
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        equal, _ = homology.same_class(reps[0], target)
        assert equal

    def test_contains_detected_class_at_5_20(self):
        # the stem-20 claim: the image is spanned by h2*e0
        dim, reps = transfer_image_dim(5, 20)
        assert dim == 1
        target = la.product(catalog.entry("e0_paper").element, catalog.entry("h2").element)
        equal, _ = homology.same_class(reps[0], target)
        assert equal

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            transfer_image_dim(5, 100, max_basis=DEFAULT_MAX_BASIS)

    @pytest.mark.parametrize("s, d", [(0, 0), (0, 3), (-1, 3)])
    def test_s_below_one_refused(self, s, d):
        with pytest.raises(ValueError, match="^s must be at least 1$"):
            transfer_image_dim(s, d)

    def test_guard_can_be_lifted_only_explicitly(self):
        dim, _ = transfer_image_dim(2, 3, max_basis=None)
        assert dim >= 0

    def test_low_rank_image_fills_cohomology(self):
        # at ranks two and three the transfer is onto (Singer 1989 for
        # s = 2, Boardman 1993 for s = 3), so the image dimension must
        # equal the full dimension at every stem
        for s in (2, 3):
            for d in range(0, 41):
                dim, _ = transfer_image_dim(s, d)
                assert dim == homology.ext_dimension(s, d), (s, d)

    def test_builds_no_slice(self):
        # the image reads the stored boundary rows; only boundary_witness,
        # which names the words of its witnesses, needs a slice
        homology.slice_at.cache_clear()
        for s, d in ((5, 14), (4, 18)):
            transfer_image_dim(s, d)
            assert homology.slice_at.cache_info().currsize == 0, (s, d)

    @pytest.mark.parametrize("s, d, dim", [(3, 31, 2), (4, 18, 2), (5, 14, 1)])
    def test_representatives_are_independent_classes(self, s, d, dim):
        # checked by the reference differential and 0/1-list elimination,
        # which share no code with the package: each representative is a
        # cycle, and together they raise the rank of the boundaries by dim
        got, reps = transfer_image_dim(s, d)
        assert got == len(reps) == dim
        basis = admissible_words_brute(s, d)
        index = {w: i for i, w in enumerate(basis)}
        boundaries = image_rows(reference.differential,
                                admissible_words_brute(s - 1, d + 1), basis)
        for rep in reps:
            assert reference.differential(rep) == frozenset(), (s, d)
        rows = [sum(1 << index[w] for w in rep) for rep in reps]
        assert (rank_of_rows(boundaries + rows, len(basis))
                - rank_of_rows(boundaries, len(basis))) == dim


class TestFindPreimage:
    def test_detected_class_has_primitive_preimage(self):
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        theta = find_preimage(5, target)
        assert theta is not None
        assert dp.is_primitive(theta).holds
        equal, _ = homology.same_class(psi(theta), target)
        assert equal

    def test_target_moved_by_a_boundary_keeps_its_preimage(self):
        # the solve must use the boundary rows, not only the images
        target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
        sl = homology.slice_at(5, 14)
        boundary = next(d for d in map(la.differential, map(la.element, sl.prev_basis)) if d)
        moved = target ^ boundary
        theta = find_preimage(5, moved)
        assert theta is not None and dp.is_primitive(theta).holds
        assert homology.same_class(psi(theta), moved)[0]

    def test_boundary_target_yields_zero_element(self):
        assert find_preimage(2, la.element((1, 0))) == dp.ZERO
        assert find_preimage(3, la.ZERO) == dp.ZERO

    def test_nonzero_class_at_s0_refused(self):
        # the unit is the nonzero class at (0, 0): refused where a rank-0
        # primitive basis would be built
        with pytest.raises(ValueError, match="^s must be at least 1$"):
            find_preimage(0, la.UNIT)

    @pytest.mark.parametrize("s", [0, -3])
    def test_zero_target_below_s1_refused(self, s):
        # zero is a trivial class at every s, but s < 1 is refused first
        with pytest.raises(ValueError, match="^s must be at least 1$"):
            find_preimage(s, la.ZERO)

    def test_non_cycle_rejected(self):
        with pytest.raises(homology.NotACycleError):
            find_preimage(1, la.element((2,)))

    def test_undetected_class_has_none(self):
        sl = homology.slice_at(5, 9)
        rep = None
        for candidate in kernel_elements(la.differential, sl.basis, sl.next_basis):
            if homology.class_nonzero(candidate):
                rep = candidate
                break
        assert rep is not None
        assert find_preimage(5, rep) is None


class TestGuard:
    def test_cells_of_a_slice(self):
        assert cells(5, 14) == ((4, 15), (5, 14), (6, 13))

    def test_monomials_are_checked_before_words(self):
        # (7, 40) is over the cap both as monomials and as admissible words
        with pytest.raises(ResourceLimitError) as err:
            guard(DEFAULT_MAX_BASIS, words=[(7, 40)], monomials=[(7, 40)])
        assert str(err.value) == ("monomial basis at rank 7, degree 40 has "
                                  "9366819 elements (cap 200000)")
        with pytest.raises(ResourceLimitError) as err:
            guard(DEFAULT_MAX_BASIS, words=[(7, 40)])
        assert str(err.value) == "admissible basis at (7, 40) has more than 200000 words"

    def test_none_lifts_the_cap(self):
        guard(None, words=[(7, 40)], monomials=[(7, 40)])

    def test_refuses_exactly_the_counts_over_the_cap(self):
        # the shortcut for wide monomial bases agrees with the count itself
        for cap in (0, 1, 5, 17, 100):
            for s in range(1, 12):
                for d in range(12):
                    over = comb(d + s - 1, s - 1) > cap
                    try:
                        guard(cap, monomials=[(s, d)])
                    except ResourceLimitError:
                        assert over, (cap, s, d)
                    else:
                        assert not over, (cap, s, d)

    def test_steenrod_images_counted_after_the_domain_and_the_words(self):
        # primitive_basis numbers the images of (5, 14) under Sq^1, Sq^2
        # and Sq^4: 2,380 + 1,820 + 1,001 monomials, beside 3,060 in the
        # domain
        with pytest.raises(ResourceLimitError) as err:
            guard(5200, primitives=[(5, 14)])
        assert str(err.value) == ("Steenrod images at rank 5, degree 14 have 5201 "
                                  "monomials (cap 5200)")
        guard(5201, primitives=[(5, 14)])
        with pytest.raises(ResourceLimitError) as err:
            guard(3059, primitives=[(5, 14)])
        assert str(err.value) == ("monomial basis at rank 5, degree 14 has 3060 "
                                  "elements (cap 3059)")
        with pytest.raises(ResourceLimitError) as err:
            guard(5200, words=[(7, 40)], primitives=[(5, 14)])
        assert str(err.value) == "admissible basis at (7, 40) has more than 5200 words"
        guard(None, primitives=[(2, 100000), (3, 600)])

    def test_steenrod_images_refused_exactly_over_the_cap(self):
        for cap in (0, 1, 5, 17, 100):
            for s in range(1, 8):
                for d in range(12):
                    images = sum(len(dp.gamma_basis(s, d - i))
                                 for i in dp._generator_squares(d))
                    over = max(comb(d + s - 1, s - 1), images) > cap
                    try:
                        guard(cap, primitives=[(s, d)])
                    except ResourceLimitError:
                        assert over, (cap, s, d)
                    else:
                        assert not over, (cap, s, d)

    @pytest.mark.parametrize("call", [
        lambda cap: transfer_image_dim(5, 14, max_basis=cap),
        lambda cap: find_preimage(5, la.product(catalog.entry("d0").element,
                                                catalog.entry("h0").element),
                                  max_basis=cap),
    ], ids=["transfer_image_dim", "find_preimage"])
    def test_library_counts_the_steenrod_images(self, call):
        with pytest.raises(ResourceLimitError) as err:
            call(5200)
        assert str(err.value).startswith("Steenrod images at rank 5, degree 14 ")
        assert call(5201)

    def test_empty_cells_pass(self):
        guard(0, words=[(-1, 3), (10**7, -1)], monomials=[(0, 3), (1, -5), (-1, 3)])

    def test_words_longer_than_the_cap_refused(self):
        # a cap below the default still lets words of the default length pass
        guard(1, words=[(DEFAULT_MAX_BASIS, 0)])
        guard(DEFAULT_MAX_BASIS + 1, words=[(DEFAULT_MAX_BASIS + 1, 0)])
        for cap in (1, DEFAULT_MAX_BASIS):
            with pytest.raises(ResourceLimitError) as err:
                guard(cap, words=[(DEFAULT_MAX_BASIS + 1, 0)])
            assert str(err.value) == ("admissible words at (200001, 0) have 200001 "
                                      "letters (cap 200000)")
        with pytest.raises(ResourceLimitError):
            guard(DEFAULT_MAX_BASIS + 1, words=[(DEFAULT_MAX_BASIS + 2, 0)])

    def test_wide_monomial_basis_refused_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            guard(DEFAULT_MAX_BASIS, monomials=[(10**9, 10**9)])
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == ("monomial basis at rank 1000000000, degree "
                                  "1000000000 has more than 200000 elements "
                                  "(cap 200000)")

    @pytest.mark.parametrize("call", [
        lambda: transfer_image_dim(1, 10**9),
        lambda: find_preimage(1, la.element((10**9,))),
        lambda: find_preimage(2, la.element((0, 10**9))),
    ], ids=["transfer_image_dim", "find_preimage", "find_preimage_inadmissible"])
    def test_library_refuses_a_huge_admissible_basis_quickly(self, call):
        # each cell is one monomial, but a slice there holds more than
        # 200,000 admissible words; without the guard each runs for minutes
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            call()
        assert time.perf_counter() - start < 1.0
        assert str(err.value).startswith("admissible basis at (2, ")
        assert "force" not in str(err.value)

    def test_trivial_class_answered_before_the_monomial_count(self):
        # d(L[2]) = L[1,0] is a boundary at (2, 1); the zero element
        # answers it even with a cap that no monomial basis passes
        assert find_preimage(2, la.element((1, 0)), max_basis=1) == dp.ZERO
        # h1^2 is not a boundary: its cells pass a cap of 2, its three
        # monomials at (2, 2) do not
        h1 = catalog.entry("h1").element
        with pytest.raises(ResourceLimitError) as err:
            find_preimage(2, la.product(h1, h1), max_basis=2)
        assert str(err.value).startswith("monomial basis at rank 2, degree 2 has 3 ")
