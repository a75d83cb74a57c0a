"""Reference computations that share no code with the ltk package.

Everything here is written from the defining formulas, with other
algorithms than the package uses, so that a benchmark run can check the
package's answers without trusting it:

* Lambda normal forms by memoized left insertion into normal forms
  (the package sweeps whole words instead), and the differential by the
  Leibniz rule on generators;
* a memoized count of admissible words (the package enumerates them);
* primitivity of a divided-power element through the pairing with the
  polynomial algebra it is dual to (the package applies the squares).

Conventions follow the package: a word (a, b, ...) is admissible when
each letter is at most twice the letter to its left; elements are
frozensets of words (or of exponent tuples), addition is symmetric
difference.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb


def odd(n: int, k: int) -> bool:
    """Whether the binomial coefficient C(n, k) is odd (0 outside 0 <= k <= n)."""
    return 0 <= k <= n and comb(n, k) % 2 == 1


# --------------------------------------------------------------------------
# Lambda algebra

def relation(a: int, b: int) -> frozenset:
    """The defining relation for an inadmissible pair, b = 2a + 1 + n:

        lam_a lam_(2a+1+n) = sum_j C(n-j-1, j) lam_(a+n-j) lam_(2a+1+j).
    """
    n = b - 2 * a - 1
    return frozenset((a + n - j, 2 * a + 1 + j) for j in range(n + 1)
                     if odd(n - j - 1, j))


@lru_cache(maxsize=None)
def _prepend(a: int, tail: tuple) -> frozenset:
    """Normal form of the letter a followed by the admissible word tail."""
    if not tail or tail[0] <= 2 * a:
        return frozenset({(a,) + tail})
    out: set = set()
    for p, q in relation(a, tail[0]):
        for rest in _prepend(q, tail[1:]):
            out ^= _prepend(p, rest)
    return frozenset(out)


@lru_cache(maxsize=None)
def normal_form(word: tuple) -> frozenset:
    """Admissible normal form of one word, built from the right."""
    if len(word) <= 1:
        return frozenset({word})
    out: set = set()
    for tail in normal_form(word[1:]):
        out ^= _prepend(word[0], tail)
    return frozenset(out)


def element(words) -> frozenset:
    """The sum of the given words; a word given twice cancels."""
    out: set = set()
    for w in words:
        out ^= {tuple(w)}
    return frozenset(out)


def normalize(words) -> frozenset:
    out: set = set()
    for w in words:
        out ^= normal_form(tuple(w))
    return frozenset(out)


def generator_differential(n: int) -> frozenset:
    """d(lam_n) = sum_{j >= 1} C(n-j, j) lam_(n-j) lam_(j-1)."""
    return frozenset((n - j, j - 1) for j in range(1, n + 1) if odd(n - j, j))


def differential(words) -> frozenset:
    """The Leibniz rule over the letters of every word, then normal form."""
    raw: set = set()
    for w in words:
        w = tuple(w)
        for i, n in enumerate(w):
            for pair in generator_differential(n):
                raw ^= {w[:i] + pair + w[i + 1:]}
    return normalize(raw)


def concat(x, y) -> frozenset:
    """Normal form of the product x * y (concatenation of words)."""
    raw: set = set()
    for u in x:
        for v in y:
            raw ^= {tuple(u) + tuple(v)}
    return normalize(raw)


def square(words) -> frozenset:
    """Sq0 on words: every index t becomes 2t + 1, then normal form."""
    return normalize([tuple(2 * t + 1 for t in w) for w in words])


def is_admissible(word) -> bool:
    return all(b <= 2 * a for a, b in zip(word, word[1:]))


@lru_cache(maxsize=None)
def _count(s: int, d: int, cap: int) -> int:
    if s == 0:
        return 1 if d == 0 else 0
    return sum(_count(s - 1, d - t, min(2 * t, d - t)) for t in range(min(cap, d) + 1))


def admissible_count(s: int, d: int) -> int:
    """Number of admissible words of length s and degree d."""
    return _count(s, d, d)


def adams_h_pairs(stem: int) -> int:
    """Number of h_i h_j, i <= j, j != i + 1, in the given stem: Adams'
    basis of Ext in homological degree 2."""
    gens = [(1 << i) - 1 for i in range(stem.bit_length() + 2)]
    return sum(1 for i, a in enumerate(gens) for j, b in enumerate(gens)
               if i <= j and j != i + 1 and a + b == stem)


# --------------------------------------------------------------------------
# Divided powers, by duality with the polynomial algebra

def _compositions(total: int, bounds: tuple):
    """Tuples e with 0 <= e_j <= bounds[j] and sum(e) = total."""
    if not bounds:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _compositions(total - first, bounds[1:]):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _monomial_defect(m: tuple) -> frozenset:
    """Pairings of a^(m) with Sq^i x^b, for every positive i, that are odd.

    Sq^i x^b = sum_e prod_j C(b_j, e_j) x^(b+e) over sum(e) = i (Cartan
    formula, with Sq x = x + x^2); a^(m) pairs to 1 with x^m only, so it
    meets Sq^i x^b exactly when b = m - e.  Returns the set of (i, b)
    with an odd pairing.
    """
    out: set = set()
    degree = sum(m)
    for i in range(1, degree // 2 + 1):  # Sq^i x^b = 0 once i > deg b
        for e in _compositions(i, m):
            b = tuple(x - y for x, y in zip(m, e))
            if all(odd(bj, ej) for bj, ej in zip(b, e)):
                out ^= {(i, b)}
    return frozenset(out)


def primitivity_defect(element) -> frozenset:
    """The (i, b) where u pairs oddly with Sq^i x^b; u is annihilated by
    every positive square exactly when this set is empty."""
    out: set = set()
    for m in element:
        out ^= _monomial_defect(tuple(m))
    return frozenset(out)


def is_primitive(element) -> bool:
    return not primitivity_defect(element)


# --------------------------------------------------------------------------
# Element text (.f2elt), read and written without the package

_LAMBDA_TERM = re.compile(r"L\[([0-9,\s]*)\]")
_GAMMA_TERM = re.compile(r"a\(([0-9,\s]+)\)")


def _terms(pattern, text: str) -> frozenset:
    out: set = set()
    for body in pattern.findall(text):
        out ^= {tuple(int(x) for x in body.split(",") if x.strip())}
    return frozenset(out)


def parse_lambda(text: str) -> frozenset:
    return _terms(_LAMBDA_TERM, text)


def parse_gamma(text: str) -> frozenset:
    return _terms(_GAMMA_TERM, text)


def lambda_text(words) -> str:
    return " + ".join("L[" + ",".join(map(str, w)) + "]" for w in sorted(words)) or "0"


def gamma_text(monomials) -> str:
    return " + ".join("a(" + ",".join(map(str, m)) + ")" for m in sorted(monomials)) or "0"


def random_word(rng, length: int, degree: int) -> tuple:
    """A uniformly chosen composition of degree into length parts."""
    cuts = sorted(rng.randint(0, degree) for _ in range(length - 1))
    bounds = [0] + cuts + [degree]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))



def random_admissible(rng, s: int, d: int) -> tuple:
    """A uniformly chosen admissible word of length s and degree d."""
    word: tuple = ()
    cap = d
    for slots in range(s, 0, -1):
        weights = [_count(slots - 1, d - t, min(2 * t, d - t)) for t in range(min(cap, d) + 1)]
        t = rng.choices(range(len(weights)), weights)[0]
        word, d, cap = word + (t,), d - t, 2 * t
    return word
