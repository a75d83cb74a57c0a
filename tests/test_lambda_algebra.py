from __future__ import annotations

import random
import time

import pytest

from ltk import catalog
from ltk.lambda_algebra import (
    UNIT,
    ZERO,
    Bidegree,
    admissible_basis,
    admissible_count,
    bidegree,
    differential,
    element,
    is_admissible,
    is_homogeneous,
    monomial_bidegree,
    normalize,
    product,
    sq0,
)

from .oracles import adem_rhs, admissible_words_brute, generator_diff, normal_form


def random_word(rng: random.Random, max_len: int = 5, max_idx: int = 30) -> tuple[int, ...]:
    return tuple(rng.randrange(0, max_idx + 1) for _ in range(rng.randrange(0, max_len + 1)))


def random_admissible(rng: random.Random, max_len: int = 4, max_idx: int = 20) -> tuple[int, ...]:
    w = [rng.randrange(0, max_idx + 1)]
    for _ in range(rng.randrange(0, max_len)):
        w.append(rng.randrange(0, min(2 * w[-1], max_idx) + 1))
    return tuple(w)


def random_homogeneous(rng: random.Random, s: int, d: int, terms: int = 3):
    words = set()
    attempts = 0
    while len(words) < terms and attempts < 200:
        attempts += 1
        w = []
        left = d
        for k in range(s):
            t = left if k == s - 1 else rng.randrange(0, left + 1)
            w.append(t)
            left -= t
        words.add(tuple(w))
    return element(*words)


class TestElementConstruction:
    def test_mod2_cancellation(self):
        assert element((1, 1), (1, 1)) == ZERO
        assert element((1, 1), (1, 1), (1, 1)) == element((1, 1))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            element((1, -2))

    def test_bidegree_helpers(self):
        assert monomial_bidegree((3, 5)) == Bidegree(2, 8)
        assert bidegree(ZERO) is None
        assert bidegree(UNIT) == Bidegree(0, 0)
        assert is_homogeneous(element((1, 1), (2, 0)))
        assert not is_homogeneous(element((1,), (2,)))
        with pytest.raises(ValueError):
            bidegree(element((1,), (2,)))


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible((3, 5))
        assert not is_admissible((0, 2))
        assert is_admissible((7,))
        assert is_admissible(())

    def test_rewrite_output_is_admissible_and_left_index_grows(self):
        rng = random.Random(31)
        for _ in range(300):
            k = rng.randrange(0, 12)
            m = rng.randrange(2 * k + 1, 2 * k + 30)
            for a, b in normalize(element((k, m))):
                assert b <= 2 * a
                assert a > k
                assert a + b == k + m


class TestAdemExpansion:
    """An inadmissible pair rewrites in one step: every word of its
    expansion is an admissible pair, so normalize returns the expansion."""

    def test_examples(self):
        assert normalize(element((0, 1))) == ZERO
        assert normalize(element((2, 6))) == element((3, 5))
        assert normalize(element((0, 2))) == element((1, 1))

    def test_against_direct_summation(self):
        for k in range(0, 10):
            for m in range(2 * k + 1, 2 * k + 25):
                assert set(normalize(element((k, m)))) == adem_rhs(k, m), (k, m)


class TestNormalize:
    def test_examples(self):
        assert normalize(element((3, 5))) == element((3, 5))
        assert normalize(element((0, 2))) == element((1, 1))
        assert normalize(element((2, 6), (3, 5))) == ZERO

    def test_output_admissible_and_degree_preserved(self):
        rng = random.Random(41)
        for _ in range(200):
            w = random_word(rng, max_len=6, max_idx=40)
            e = element(w)
            n = normalize(e)
            for term in n:
                assert is_admissible(term)
                assert monomial_bidegree(term) == monomial_bidegree(w)

    def test_idempotent(self):
        rng = random.Random(43)
        for _ in range(120):
            e = element(*(random_word(rng) for _ in range(rng.randrange(1, 4))))
            n = normalize(e)
            assert normalize(n) == n

    def test_strategy_independent(self):
        rng = random.Random(47)
        fixed = [ZERO, UNIT] + [element((t,)) for t in range(10)]
        for e in fixed:
            assert normalize(e, "leftmost") == normalize(e, "rightmost") == e
        for _ in range(120):
            e = element(*(random_word(rng, max_len=5, max_idx=25)
                          for _ in range(rng.randrange(1, 4))))
            assert normalize(e, "leftmost") == normalize(e, "rightmost")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            normalize(element((0, 2)), "middle")

    def test_linear(self):
        rng = random.Random(53)
        for _ in range(60):
            x = element(*(random_word(rng) for _ in range(2)))
            y = element(*(random_word(rng) for _ in range(2)))
            assert normalize(x ^ y) == normalize(x) ^ normalize(y)


class TestAgainstNormalFormOracle:
    """normalize against tests.oracles.normal_form, which builds normal
    forms from the right and shares no code with the package."""

    def test_random_words_both_strategies(self):
        rng = random.Random(101)
        for _ in range(300):
            w = random_word(rng, max_len=6, max_idx=40)
            want = normal_form([w])
            assert normalize(element(w), "leftmost") == want, w
            assert normalize(element(w), "rightmost") == want, w

    def test_random_sums_both_strategies(self):
        rng = random.Random(103)
        for _ in range(120):
            words = [random_word(rng, max_len=6, max_idx=40)
                     for _ in range(rng.randrange(1, 5))]
            e = element(*words)
            want = normal_form(e)
            assert normalize(e, "leftmost") == want, words
            assert normalize(e, "rightmost") == want, words

    def test_product_and_differential_of_admissible_pairs(self):
        rng = random.Random(107)
        for _ in range(100):
            x, y = random_admissible(rng), random_admissible(rng)
            assert product(element(x), element(y)) == normal_form([x + y]), (x, y)
            raw = [x[:i] + pair + x[i + 1:]
                   for i, n in enumerate(x) for pair in generator_diff(n)]
            assert differential(element(x)) == normal_form(raw), x


class TestResumeIndex:
    """Rewriting the pair at j can make the pair at j - 1 or at j + 1
    violate; the next rewrite must find either one."""

    def test_violation_created_one_pair_left(self):
        # (0, 6) at j = 1 becomes (3, 3), (4, 2) or (5, 1); 3, 4 and 5 all exceed 2 * 1
        assert is_admissible((1, 0))
        assert all(a > 2 * 1 for a, _ in normalize(element((0, 6))))
        want = element((2, 3, 2), (3, 3, 1))
        assert normal_form([(1, 0, 6)]) == want
        assert normalize(element((1, 0, 6))) == want
        assert normalize(element((1, 0, 6)), "rightmost") == want

    def test_violation_created_one_pair_right(self):
        # (0, 3) at j = 0 becomes (2, 1), and 6 > 2 * 1 then violates
        assert is_admissible((3, 6))
        assert normalize(element((0, 3))) == element((2, 1))
        want = element((2, 3, 4), (2, 4, 3))
        assert normal_form([(0, 3, 6)]) == want
        assert normalize(element((0, 3, 6))) == want
        assert normalize(element((0, 3, 6)), "rightmost") == want

    def test_violations_left_and_right_of_a_rewrite_in_longer_words(self):
        for w in [(5, 1, 0, 6, 3), (2, 0, 3, 6, 1, 0, 6), (0, 3, 6, 0, 3, 6)]:
            want = normal_form([w])
            assert want, w
            assert normalize(element(w)) == want, w
            assert normalize(element(w), "rightmost") == want, w


def mixed_element(rng: random.Random):
    """A sum of up to two admissible words, up to two words drawn without
    regard to admissibility, and the unit or an admissible word ending in
    zeros."""
    words = [random_admissible(rng) for _ in range(rng.randrange(0, 3))]
    words += [random_word(rng, max_len=4, max_idx=20) for _ in range(rng.randrange(0, 3))]
    words.append(rng.choice([(), random_admissible(rng) + (0,) * rng.randrange(1, 3)]))
    return element(*words)


def oracle_differential(e):
    return normal_form([w[:i] + pair + w[i + 1:]
                        for w in e for i, n in enumerate(w) for pair in generator_diff(n)])


class TestClassifiedInputs:
    """product, differential and sq0 hand the words they make from
    admissible words to the rewriting kernel classified, and the others
    through normalize; both paths against tests.oracles.normal_form."""

    # d(lam_4) = lam_3 lam_0 + lam_2 lam_1: in (4, 3) both terms violate
    # right after the new pair, in (4, 2) only (3, 0, 2) does
    FIXED = [ZERO, UNIT, element((4, 0, 0)), element((2, 1, 0), (0, 0)),
             element((3, 0), (0, 3)), element((), (5, 2, 0, 0), (0, 6, 0)),
             element((2, 0), (0, 2)), element((4, 3)), element((4, 2), (6, 4, 3)),
             element((8, 4, 2, 0))]

    def test_product(self):
        rng = random.Random(109)
        pairs = [(x, y) for x in self.FIXED for y in self.FIXED]
        pairs += [(mixed_element(rng), mixed_element(rng)) for _ in range(150)]
        for x, y in pairs:
            assert product(x, y) == normal_form([u + v for u in x for v in y]), (x, y)

    def test_differential(self):
        rng = random.Random(113)
        for e in self.FIXED + [mixed_element(rng) for _ in range(200)]:
            assert differential(e) == oracle_differential(e), e

    def test_sq0(self):
        rng = random.Random(127)
        for e in self.FIXED + [mixed_element(rng) for _ in range(200)]:
            want = normal_form([tuple(2 * t + 1 for t in w) for w in e])
            assert sq0(e) == want, e

    def test_sq0_keeps_admissible_words_admissible(self):
        for s in range(0, 5):
            for d in range(0, 21):
                for w in admissible_words_brute(s, d):
                    image = tuple(2 * t + 1 for t in w)
                    assert all(b <= 2 * a for a, b in zip(image, image[1:])), w
                    assert sq0(element(w)) == element(image), w


class TestProduct:
    def test_unit_laws(self):
        x = element((0, 2), (4, 1))
        assert product(UNIT, x) == normalize(x)
        assert product(x, UNIT) == normalize(x)
        assert product(ZERO, x) == ZERO

    def test_matches_concatenation(self):
        x = element((1, 5))
        y = element((3, 3, 2))
        assert product(x, y) == normalize(element((1, 5, 3, 3, 2)))

    def test_associative(self):
        rng = random.Random(59)
        for _ in range(40):
            x, y, z = (element(random_word(rng, max_len=2, max_idx=12))
                       for _ in range(3))
            assert product(product(x, y), z) == product(x, product(y, z))


class TestDifferential:
    def test_generator_examples(self):
        assert differential(element((1,))) == ZERO
        assert differential(element((2,))) == element((1, 0))
        assert differential(element((0,))) == ZERO
        assert differential(UNIT) == ZERO

    def test_generators_against_direct_summation(self):
        for n in range(0, 41):
            got = differential(element((n,)))
            want = normalize(element(*generator_diff(n)))
            assert got == want, n

    def test_bidegree_shift(self):
        rng = random.Random(61)
        for _ in range(60):
            w = random_word(rng, max_len=4, max_idx=20)
            d = differential(element(w))
            if d:
                s0, d0 = monomial_bidegree(w)
                assert bidegree(d) == Bidegree(s0 + 1, d0 - 1)

    def test_square_zero(self):
        rng = random.Random(67)
        for _ in range(200):
            e = element(*(random_word(rng, max_len=5, max_idx=30)
                          for _ in range(rng.randrange(1, 3))))
            assert differential(differential(e)) == ZERO

    def test_well_defined_on_relations(self):
        rng = random.Random(71)
        for _ in range(150):
            w = random_word(rng, max_len=4, max_idx=25)
            e = element(w)
            assert differential(e) == differential(normalize(e))

    def test_leibniz(self):
        rng = random.Random(73)
        for _ in range(200):
            x = random_homogeneous(rng, rng.randrange(1, 4), rng.randrange(0, 16))
            y = random_homogeneous(rng, rng.randrange(1, 4), rng.randrange(0, 16))
            lhs = differential(product(x, y))
            rhs = product(differential(x), y) ^ product(x, differential(y))
            assert lhs == normalize(rhs)

    def test_catalog_cycle(self):
        assert differential(catalog.entry("d0").element) == ZERO


class TestSq0:
    def test_examples(self):
        assert sq0(element((0,))) == element((1,))
        assert sq0(UNIT) == UNIT
        assert sq0(catalog.entry("c0").element) == normalize(element((5, 7, 7)))

    def test_bidegree_law(self):
        rng = random.Random(79)
        for _ in range(60):
            w = random_word(rng, max_len=4, max_idx=15)
            s, d = monomial_bidegree(w)
            img = sq0(element(w))
            if img:
                assert bidegree(img) == Bidegree(s, 2 * d + s)

    def test_commutes_with_differential(self):
        rng = random.Random(83)
        for _ in range(200):
            e = element(*(random_word(rng, max_len=4, max_idx=15)
                          for _ in range(rng.randrange(1, 3))))
            assert sq0(differential(e)) == differential(sq0(e))

    def test_multiplicative(self):
        rng = random.Random(89)
        for _ in range(100):
            x = element(random_word(rng, max_len=3, max_idx=12))
            y = element(random_word(rng, max_len=3, max_idx=12))
            assert sq0(product(x, y)) == product(sq0(x), sq0(y))


class TestConcurrency:
    def test_parallel_normalize_and_slices_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        from ltk import homology

        rng = random.Random(97)
        jobs = [element(random_word(rng, max_len=5, max_idx=25)) for _ in range(60)]
        expected = [normalize(e) for e in jobs]
        keys = [(2, 7), (3, 9), (2, 7), (3, 9)] * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(normalize, jobs))
            slices = list(pool.map(lambda sd: homology.slice_at(*sd), keys))
        assert got == expected
        assert all(sl == homology.slice_at(*key) for key, sl in zip(keys, slices))


class TestAdmissibleBasis:
    def test_examples(self):
        assert admissible_basis(1, 9) == ((9,),)
        assert admissible_basis(2, 2) == ((1, 1), (2, 0))
        assert admissible_basis(0, 0) == ((),)
        assert admissible_basis(0, 5) == ()
        assert admissible_basis(4, 0) == ((0, 0, 0, 0),)
        assert admissible_basis(3, 2) == ((1, 1, 0), (2, 0, 0))

    def test_against_brute_force(self):
        # s > d covers the lengths made by padding shorter words with zeros
        for s in range(0, 9):
            for d in range(0, 15 if s <= 6 else 13):
                assert list(admissible_basis(s, d)) == admissible_words_brute(s, d), (s, d)

    def test_long_words_do_not_recurse_per_letter(self):
        assert admissible_basis(5000, 0) == ((0,) * 5000,)
        assert admissible_basis(5000, 2) == ((1, 1) + (0,) * 4998,
                                             (2,) + (0,) * 4999)

    def test_count_matches_enumeration(self):
        for s in range(0, 7):
            for d in range(0, 22):
                n = len(admissible_basis(s, d))
                assert admissible_count(s, d, 10 ** 9) == n, (s, d)
                assert admissible_count(s, d, n) == n
                if n:
                    assert admissible_count(s, d, n - 1) == n, (s, d)
        assert admissible_count(-1, 3, 10) == admissible_count(3, -1, 10) == 0

    def test_count_refuses_huge_bidegrees_quickly(self):
        # (7, 40) has 253,133 words; the others would take far longer
        for s, d in [(7, 40), (3, 10 ** 6), (4, 1023), (1000, 10 ** 6), (40, 40)]:
            start = time.perf_counter()
            assert admissible_count(s, d, 200_000) == 200_001, (s, d)
            assert time.perf_counter() - start < 1.0, (s, d)
        assert admissible_count(10 ** 6, 0, 10) == 1
        assert admissible_count(1, 10 ** 9, 10) == 1
        assert admissible_basis(1, 10 ** 9) == ((10 ** 9,),)

    def test_sorted_and_admissible(self):
        basis = admissible_basis(5, 24)
        assert list(basis) == sorted(basis)
        assert all(is_admissible(w) for w in basis)
        assert len(set(basis)) == len(basis)
