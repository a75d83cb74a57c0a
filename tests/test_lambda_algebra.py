from __future__ import annotations

import ast
import functools
import random
import time
from pathlib import Path

import pytest

from ltk import catalog, lambda_algebra
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
    monomial_bidegree,
    normalize,
    product,
    sq0,
)

from .oracles import REFERENCE, admissible_words_brute, reference


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
        assert bidegree(element((1, 1), (2, 0))) == Bidegree(2, 2)
        with pytest.raises(ValueError, match=r"^element is not homogeneous$"):
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
                assert set(normalize(element((k, m)))) == reference.relation(k, m), (k, m)


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

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    def test_admissible_input_returned_as_is(self, strategy):
        rng = random.Random(59)
        fixed = [ZERO, UNIT, element((3, 5)), element((8, 6, 4, 2), (12, 8, 0, 0))]
        for e in fixed + [element(*rng.sample(admissible_basis(4, 20), 5))
                          for _ in range(20)]:
            assert normalize(e, strategy) is e

    def test_unknown_strategy_rejected(self):
        # an admissible input too: the strategy is checked before it is returned
        for e in (element((0, 2)), element((3, 5))):
            with pytest.raises(ValueError):
                normalize(e, "middle")

    def test_linear(self):
        rng = random.Random(53)
        for _ in range(60):
            x = element(*(random_word(rng) for _ in range(2)))
            y = element(*(random_word(rng) for _ in range(2)))
            assert normalize(x ^ y) == normalize(x) ^ normalize(y)


class TestAgainstNormalFormOracle:
    """normalize against the benchmark's reference, perfbench/reference.py,
    which builds normal forms from the right and shares no code with the
    package."""

    def test_random_words_both_strategies(self):
        rng = random.Random(101)
        for _ in range(300):
            w = random_word(rng, max_len=6, max_idx=40)
            want = reference.normalize([w])
            assert normalize(element(w), "leftmost") == want, w
            assert normalize(element(w), "rightmost") == want, w

    def test_random_sums_both_strategies(self):
        rng = random.Random(103)
        for _ in range(120):
            words = [random_word(rng, max_len=6, max_idx=40)
                     for _ in range(rng.randrange(1, 5))]
            e = element(*words)
            want = reference.normalize(e)
            assert normalize(e, "leftmost") == want, words
            assert normalize(e, "rightmost") == want, words

    def test_product_and_differential_of_admissible_pairs(self):
        rng = random.Random(107)
        for _ in range(100):
            x, y = random_admissible(rng), random_admissible(rng)
            assert product(element(x), element(y)) == reference.normalize([x + y]), (x, y)
            assert differential(element(x)) == reference.differential([x]), x


def test_the_reference_shares_no_code_with_the_package():
    """The reference and the test oracles import nothing under src/ and
    nothing relative: one reference is worth trusting only while it
    shares no code with the package."""
    package = {path.name.partition(".")[0] for path in (REFERENCE.parents[1] / "src").iterdir()}
    assert "ltk" in package
    for path in (REFERENCE, Path(__file__).with_name("oracles.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not getattr(node, "level", 0), (path.name, node.lineno)
                assert not {n.partition(".")[0] for n in names} & package, (path.name, names)


class TestResumeIndex:
    """Rewriting the pair at j can make the pair at j - 1 or at j + 1
    violate; the next rewrite must find either one."""

    def test_violation_created_one_pair_left(self):
        # (0, 6) at j = 1 becomes (3, 3), (4, 2) or (5, 1); 3, 4 and 5 all exceed 2 * 1
        assert is_admissible((1, 0))
        assert all(a > 2 * 1 for a, _ in normalize(element((0, 6))))
        want = element((2, 3, 2), (3, 3, 1))
        assert reference.normalize([(1, 0, 6)]) == want
        assert normalize(element((1, 0, 6))) == want
        assert normalize(element((1, 0, 6)), "rightmost") == want

    def test_violation_created_one_pair_right(self):
        # (0, 3) at j = 0 becomes (2, 1), and 6 > 2 * 1 then violates
        assert is_admissible((3, 6))
        assert normalize(element((0, 3))) == element((2, 1))
        want = element((2, 3, 4), (2, 4, 3))
        assert reference.normalize([(0, 3, 6)]) == want
        assert normalize(element((0, 3, 6))) == want
        assert normalize(element((0, 3, 6)), "rightmost") == want

    def test_violations_left_and_right_of_a_rewrite_in_longer_words(self):
        for w in [(5, 1, 0, 6, 3), (2, 0, 3, 6, 1, 0, 6), (0, 3, 6, 0, 3, 6)]:
            want = reference.normalize([w])
            assert want, w
            assert normalize(element(w)) == want, w
            assert normalize(element(w), "rightmost") == want, w


class TestDeepRewriting:
    """Long inadmissible words that the command line's basis guard
    admits, whose rewriting runs six to ten rewrites deep.  The kernel
    rewrites one list in place; each entry to it must leave that list as
    it found it."""

    # (1,0,0,3,0,2,...) at (12, 12), (16, 16) and (20, 20), normal form
    # lambda_1^s; then words at (12, 22), (16, 21) and (20, 21) whose
    # normal forms have 6, 4 and 2 words
    WORDS = [(1, 0, 0, 3) + (0, 2) * 4, (1, 0, 0, 3) + (0, 2) * 6,
             (1, 0, 0, 3) + (0, 2) * 8, (0, 0, 4, 1, 1, 0, 9, 4, 0, 0, 3, 0),
             (1, 0, 6, 1, 0, 0, 6, 0, 2, 0, 2, 1, 1, 1, 0, 0),
             (1, 1, 0, 2, 2, 0, 2, 2, 0, 0, 3, 0, 0, 0, 5, 2, 1, 0, 0, 0)]

    @pytest.mark.parametrize("w", WORDS, ids=lambda w: f"{len(w)}-{sum(w)}")
    def test_normalize(self, w):
        want = reference.normalize([w])
        assert want
        assert normalize(element(w)) == want
        assert normalize(element(w), "rightmost") == want

    @pytest.mark.parametrize("w", WORDS, ids=lambda w: f"{len(w)}-{sum(w)}")
    def test_product_of_every_split(self, w):
        want = reference.normalize([w])
        for k in range(1, len(w)):
            assert product(element(w[:k]), element(w[k:])) == want, k
        # admissible factors, whose concatenations can violate only where they meet
        x, y = normalize(element(w[:6])), normalize(element(w[6:]))
        both = element(*(u + v for u in x for v in y))
        assert product(x, y) == normalize(both, "rightmost") == want

    @pytest.mark.parametrize("w", WORDS, ids=lambda w: f"{len(w)}-{sum(w)}")
    def test_differential(self, w):
        terms = [w[:i] + pair + w[i + 1:]
                 for i, n in enumerate(w) for pair in reference.generator_differential(n)]
        want = reference.differential(element(w))
        assert differential(element(w)) == want
        assert normalize(element(*terms), "rightmost") == want

    @pytest.mark.parametrize("w", WORDS, ids=lambda w: f"{len(w)}-{sum(w)}")
    def test_kernel_restores_its_word(self, w):
        i = next(i for i in range(len(w) - 1) if w[i + 1] > 2 * w[i])
        cur, done = list(w), set()
        lambda_algebra._rewrite(cur, i, i + 2, len(w) - 1, done)
        assert cur == list(w)
        assert frozenset(done) == reference.normalize([w])


def mixed_element(rng: random.Random):
    """A sum of up to two admissible words, up to two words drawn without
    regard to admissibility, and the unit or an admissible word ending in
    zeros."""
    words = [random_admissible(rng) for _ in range(rng.randrange(0, 3))]
    words += [random_word(rng, max_len=4, max_idx=20) for _ in range(rng.randrange(0, 3))]
    words.append(rng.choice([(), random_admissible(rng) + (0,) * rng.randrange(1, 3)]))
    return element(*words)


class TestClassifiedInputs:
    """product, differential and sq0 hand the words they make from
    admissible words to the rewriting kernel classified, and the others
    through normalize; both paths against the reference's normalize."""

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
            assert product(x, y) == reference.normalize([u + v for u in x for v in y]), (x, y)

    def test_differential(self):
        rng = random.Random(113)
        for e in self.FIXED + [mixed_element(rng) for _ in range(200)]:
            assert differential(e) == reference.differential(e), e

    def test_sq0(self):
        rng = random.Random(127)
        for e in self.FIXED + [mixed_element(rng) for _ in range(200)]:
            assert sq0(e) == reference.square(e), e

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
            want = normalize(element(*reference.generator_differential(n)))
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
        assert admissible_basis(1, 100) == ((100,),)
        assert admissible_basis(1, 0) == ((0,),)
        assert admissible_basis(2, 2) == ((1, 1), (2, 0))
        assert admissible_basis(0, 0) == ((),)
        assert admissible_basis(0, 5) == ()
        assert admissible_basis(4, 0) == ((0, 0, 0, 0),)
        assert admissible_basis(3, 2) == ((1, 1, 0), (2, 0, 0))

    def test_against_brute_force(self):
        # s > d covers the lengths made by padding shorter words with zeros;
        # s = 4..7 completes prefixes of one to four letters from the
        # cached three-letter tables
        for s in range(0, 9):
            for d in range(0, 17 if s <= 7 else 13):
                assert list(admissible_basis(s, d)) == admissible_words_brute(s, d), (s, d)

    def test_long_words_do_not_recurse_per_letter(self):
        assert admissible_basis(5000, 0) == ((0,) * 5000,)
        assert admissible_basis(5000, 2) == ((1, 1) + (0,) * 4998,
                                             (2,) + (0,) * 4999)

    def test_only_suffix_tables_are_cached(self, monkeypatch):
        # the bases a long basis is built from have at most three letters,
        # so the caches hold O(d^3) words and not the answer
        calls = []
        suffixes = functools.cache(admissible_basis)

        def recorded(s, d):
            calls.append((s, d))
            return suffixes(s, d)
        monkeypatch.setattr(lambda_algebra, "_suffixes", recorded)
        assert len(admissible_basis(6, 40)) == 65363
        assert calls and {s for s, _ in calls} <= {0, 1, 2, 3}
        # the suffix tables are the one basis memo: enumerated afresh, the
        # answer (6, 40) is cached nowhere
        assert not hasattr(admissible_basis, "cache_info")

    def test_count_matches_enumeration(self):
        for s in range(0, 7):
            for d in range(0, 22):
                n = len(admissible_basis(s, d))
                assert admissible_count(s, d, 10 ** 9) == n, (s, d)
                assert admissible_count(s, d, n) == n
                if n:
                    assert admissible_count(s, d, n - 1) == n, (s, d)
        assert admissible_count(-1, 3, 10) == admissible_count(3, -1, 10) == 0

    def test_count_against_the_reference(self):
        # the counter behind every guard, against the reference's count,
        # which shares no code with it, uncapped and capped just below
        for s in range(11):
            for d in range(41):
                n = reference.admissible_count(s, d)
                assert admissible_count(s, d, 10 ** 9) == n, (s, d)
                if n:
                    assert admissible_count(s, d, n - 1) == n, (s, d)

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
