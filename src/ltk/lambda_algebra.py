"""The bigraded mod-2 Lambda algebra.

Monomials are words in the generators, modeled as tuples of non-negative
indices; the empty tuple is the unit.  Elements are frozensets of words
(presence = coefficient 1), so addition is symmetric difference.

A word is admissible when every adjacent index pair (a, b) satisfies
b <= 2a.  The defining relations rewrite each violating pair

    lam_k lam_m  =  sum_j C(s-j-1, j) lam_{k+s-j} lam_{2k+1+j},
    m = 2k+s+1, s >= 0,

strictly increasing the left index.  A rewrite keeps a word's length and
degree and leaves the letters left of the pair alone, so it raises the
word in lexicographic order; there are finitely many words of one length
and degree, so every chain of rewrites ends, whichever violating pair is
chosen, in the admissible normal form.

normalize rewrites each word depth first and never collects the words in
between: by linearity mod 2 their sum rewrites to the same normal form
term by term.  Rewriting the leftmost violating pair i of a word changes
only the letters at i and i + 1, and raises the one at i.  So in each new
word every pair left of i - 1 is still admissible, pair i is admissible,
and the next leftmost violation is at i - 1, at i + 1 or at the first
violation right of i + 1 in the old word, which all the new words share.
The kernel, _rewrite, holds the word in one list and rewrites it in
place: it sets the two letters of each new pair, compares two pairs,
recurses at the new word's violation and restores the letters after.
The shared tail is scanned once per rewrite, and a tuple is built only
for each admissible word reached, none for the words in between.

Admissible input says where each word it makes can first violate, so
product and differential hand the kernel their words classified instead
of summing and scanning them, and sq0 of admissible words skips it:

- the concatenation of two admissible words can violate only at the
  pair where they meet;
- a Leibniz term head + (n-j, j-1) + tail of an admissible word
  head + (n,) + tail can violate only at the pair (j-1, tail[0]): the
  pair before stays admissible because n - j < n <= 2 head[-1], the new
  pair is admissible because 3j <= 2n + 1, and the tail was admissible;
- sq0 maps admissible words to admissible words, because b <= 2a gives
  2b + 1 <= 2(2a + 1).

homology.differential_rows, which builds the Ext rows, hands the kernel
only the terms d(lambda_n) T of a basis word n T: as for a Leibniz term
with no head, each can violate only at the pair (j-1, T[0]).

product, d and sq0 call normalize, the one entry to the normal form, on
their input: d and sq0 preserve the two-sided ideal the relations span.

admissible_basis, the one enumeration of a basis, enumerates only the
first s - 3 letters of each word (one when s = 3) and completes every
prefix with a slice of a cached basis of at most three letters.  Those
tables (_suffixes, the one basis memo) hold O(d^3) words up to degree d,
fewer than one five-letter basis of degree d (1,359 against 2,163 at
d = 24, 5,321 against 14,273 at d = 40); caching the suffixes of every
length would hold more words than the basis asked for, and caching the
answers would hold bases that no caller asks for twice.  For s > d the
basis is that of (d, d) padded with zeros.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional

from .f2core import binom_mod2

LambdaMonomial = tuple[int, ...]
LambdaElement = frozenset  # of LambdaMonomial

ZERO: LambdaElement = frozenset()
UNIT: LambdaElement = frozenset({()})


class Bidegree(NamedTuple):
    s: int  # homological length
    d: int  # internal degree


def element(*words: Iterable[int]) -> LambdaElement:
    """Build an element from words; repeated words cancel mod 2."""
    acc: set[LambdaMonomial] = set()
    for w in words:
        t = tuple(w)
        if any(i < 0 for i in t):
            raise ValueError(f"negative index in {t}")
        acc ^= {t}
    return frozenset(acc)


def monomial_bidegree(m: LambdaMonomial) -> Bidegree:
    return Bidegree(len(m), sum(m))


def bidegree(e: LambdaElement) -> Optional[Bidegree]:
    """The common bidegree of all terms, or None for the zero element."""
    degs = {(len(m), sum(m)) for m in e}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("element is not homogeneous")
    return Bidegree(*degs.pop())


def is_admissible(m: LambdaMonomial) -> bool:
    """True iff every adjacent pair (a, b) of indices satisfies b <= 2a."""
    bound = m[0] if m else 0  # the first letter passes its own test
    for b in m:
        if b > bound:
            return False
        bound = 2 * b
    return True


@functools.cache
def _pair_expansion(k: int, m: int) -> tuple[tuple[int, int], ...]:
    s = m - 2 * k - 1
    return tuple(
        (k + s - j, 2 * k + 1 + j)
        for j in range((s - 1) // 2 + 1)
        if binom_mod2(s - j - 1, j)
    )


def _first_bad(w: LambdaMonomial) -> Optional[int]:
    for i in range(len(w) - 1):
        if w[i + 1] > 2 * w[i]:
            return i
    return None


def _last_bad(w: LambdaMonomial) -> Optional[int]:
    for i in range(len(w) - 2, -1, -1):
        if w[i + 1] > 2 * w[i]:
            return i
    return None


def _rewrite(cur: list[int], i: int, f: int, last: int,
             done: set[LambdaMonomial]) -> None:
    """Rewrite the word cur, last index `last`, depth first, toggling the
    admissible words it reaches into done; cur is changed in place and
    restored before the return.

    Pair i is the word's violation to rewrite, its leftmost one.  Each
    word that a rewrite makes is classified as it is made: an admissible
    one toggles into done, any other is rewritten at its own leftmost
    violation, one level deeper.  Every pair from i + 2 up to f - 1 is
    known to be admissible, so the scan for the next violation right of
    i + 1 resumes at f (see the module docstring); f at or past last
    means there is none.
    """
    x, y = cur[i], cur[i + 1]
    while f < last and cur[f + 1] <= 2 * cur[f]:
        f += 1
    # f is the first violation right of pair i + 1, or last if none
    lo = 2 * cur[i - 1] if i else -1         # a new word violates at i - 1 if a > lo
    hi = cur[i + 2] if i + 1 < last else -1  # and at i + 1 if hi > 2b
    for a, b in _pair_expansion(x, y):
        cur[i], cur[i + 1] = a, b
        if i and a > lo:
            _rewrite(cur, i - 1, i + 1 if hi > 2 * b else f, last, done)
        elif hi > 2 * b:
            _rewrite(cur, i + 1, f if f > i + 3 else i + 3, last, done)
        elif f < last:
            _rewrite(cur, f, f + 2, last, done)
        else:
            word = tuple(cur)
            if word in done:
                done.discard(word)
            else:
                done.add(word)
    cur[i], cur[i + 1] = x, y


def normalize(e: LambdaElement, strategy: str = "leftmost") -> LambdaElement:
    """Admissible normal form of e under the defining relations.

    Admissible input is returned as it is: d, sq0 and products read the
    same on an element and on its normal form.  The strategy picks which
    violation each rewrite takes.  "leftmost", the canonical order,
    classifies each word by its leftmost violation and hands the rest to
    _rewrite, word by word.  "rightmost" rewrites the rightmost violation
    of each word depth first, scanning every word it makes; both reach
    the same normal form (see the module docstring).
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if all(map(is_admissible, e)):
        return e
    done: set[LambdaMonomial] = set()
    if strategy == "rightmost":
        words = list(e)
        while words:
            w = words.pop()
            i = _last_bad(w)
            if i is None:
                done ^= {w}
            else:
                head, tail = w[:i], w[i + 2:]
                words += [head + pair + tail for pair in _pair_expansion(w[i], w[i + 1])]
        return frozenset(done)
    for w in e:
        i = _first_bad(w)
        if i is None:
            done ^= {w}
        else:
            _rewrite(list(w), i, i + 2, len(w) - 1, done)
    return frozenset(done)


def product(e1: LambdaElement, e2: LambdaElement) -> LambdaElement:
    """Bilinear concatenation, normalized.

    Each factor passes through normalize first.  The concatenation of
    two admissible words can violate only at their junction, so it
    enters the rewriting classified.
    """
    e1, e2 = normalize(e1), normalize(e2)
    done: set[LambdaMonomial] = set()
    for w1 in e1:
        lo = 2 * w1[-1] if w1 else -1  # w2 violates at the junction if w2[0] > lo
        for w2 in e2:
            if w1 and w2 and w2[0] > lo:
                last = len(w1) + len(w2) - 1
                _rewrite([*w1, *w2], len(w1) - 1, last, last, done)
            elif (word := w1 + w2) in done:
                done.discard(word)
            else:
                done.add(word)
    return frozenset(done)


@functools.cache
def _generator_differential(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (n - j, j - 1) for j in range(1, n // 2 + 1) if binom_mod2(n - j, j)
    )


def _leibniz(w: LambdaMonomial, done: set[LambdaMonomial]) -> None:
    """Toggle each Leibniz term of d(w), w admissible, into done, through
    the kernel if it is not admissible.

    The term head + (n-j, j-1) + tail, with pair i the new one, can
    violate only at pair i + 1, that is when tail[0] > 2(j-1): pair i - 1
    stays admissible because n - j < n <= 2 head[-1], and (n-j, j-1) is
    admissible because j <= n / 2 gives 3j <= 2n + 1.  So no term is
    scanned.  Every term has last index len(w).
    """
    last = len(w)
    for i, n in enumerate(w):
        pairs = _generator_differential(n)
        if not pairs:
            continue
        head, tail = w[:i], w[i + 1:]
        hi = tail[0] if tail else -1  # a term violates at i + 1 if hi > 2b
        for pair in pairs:
            if hi > 2 * pair[1]:
                _rewrite([*head, *pair, *tail], i + 1, last, last, done)
            elif (word := head + pair + tail) in done:
                done.discard(word)
            else:
                done.add(word)


def differential(e: LambdaElement) -> LambdaElement:
    """The differential, extended to words by the mod-2 Leibniz rule.

    Sends bidegree (s, d) to (s+1, d-1); squares to zero.  Each word's
    Leibniz terms enter the rewriting classified (see _leibniz).  The
    element passes through normalize first.
    """
    done: set[LambdaMonomial] = set()
    for w in normalize(e):
        _leibniz(w, done)
    return frozenset(done)


def sq0(e: LambdaElement) -> LambdaElement:
    """The squaring endomorphism: every index t becomes 2t + 1.

    Sends bidegree (s, d) to (s, 2d + s); commutes with the differential
    and with products.  It keeps admissible words admissible (b <= 2a
    gives 2b + 1 <= 2(2a + 1)) and is injective on words, so the image
    of normalize(e) needs no rewriting.
    """
    return frozenset(tuple(2 * t + 1 for t in w) for w in normalize(e))


def _least_first(slots: int, remaining: int) -> int:
    """The smallest first letter of an admissible word of `slots` letters
    and degree `remaining`: a first letter t reaches at most t + 2t + 4t
    + ... = t * (2^slots - 1)."""
    return -(-remaining // ((1 << slots) - 1))


def admissible_basis(s: int, d: int) -> tuple[LambdaMonomial, ...]:
    """All admissible words of length s and degree d, in ascending lex
    order, enumerated afresh: the answer is not cached.

    A word of degree d has at most d nonzero letters, all before its
    zeros, so for s > d the basis is that of (d, d) padded with zeros.
    Two-letter bases are listed directly, several times faster than the
    enumerator builds them.  Otherwise the first s - k letters are
    enumerated, k = min(s - 1, 3), and each prefix ending in t is
    completed by the words of the basis (k, r) whose first letter is at
    most 2t: a leading slice of it, since the basis is sorted.  At s = 1,
    k = 0 and the one letter d is completed by the empty word of (0, 0).
    Those bases of at most three letters are the only ones cached, in
    _suffixes.
    """
    if s < 0 or d < 0:
        raise ValueError("bidegree components must be non-negative")
    if s == 0:
        return () if d else ((),)
    if s > d:
        pad = (0,) * (s - d)
        return tuple(w + pad for w in admissible_basis(d, d))
    if s == 2:
        # any first letter t >= d / 3 leaves an admissible last letter
        return tuple((t, d - t) for t in range(_least_first(2, d), d + 1))
    k = min(s - 1, 3)

    def extend(prefix: LambdaMonomial, cap: int, remaining: int, slots: int,
               out: list[LambdaMonomial]) -> None:
        # slots: prefix letters still to choose
        for t in range(_least_first(slots + k, remaining), min(cap, remaining) + 1):
            if slots > 1:
                extend(prefix + (t,), 2 * t, remaining - t, slots - 1, out)
            else:
                suffixes = _suffixes(k, remaining - t)
                # the words that start above 2t are those from (2t + 1,) on
                end = bisect_left(suffixes, (2 * t + 1,))
                out.extend(map((prefix + (t,)).__add__, suffixes[:end]))

    words: list[LambdaMonomial] = []
    extend((), d, d, s - k, words)
    return tuple(words)


# the bases of at most three letters that admissible_basis completes
# prefixes with, the one basis memo
_suffixes = functools.cache(admissible_basis)


@functools.cache
def _count_words(slots: int, remaining: int, top: int, cap: int) -> int:
    """Admissible words of `slots` >= 1 letters and degree `remaining`
    whose first letter is at most `top`; cap + 1 stands for any count
    above cap."""
    lo, hi = _least_first(slots, remaining), min(top, remaining)
    if slots == 1:
        return int(lo <= hi)
    if slots == 2:
        return min(max(0, hi - lo + 1), cap + 1)
    total = 0
    for t in range(lo, hi + 1):
        total += _count_words(slots - 1, remaining - t, 2 * t, cap)
        if total > cap:
            return cap + 1
    return total


def admissible_count(s: int, d: int, cap: int) -> int:
    """The size of admissible_basis(s, d), or cap + 1 if it exceeds cap.

    Nothing is enumerated, so a bidegree too large to enumerate is
    refused in milliseconds.  Zero for a negative component.
    """
    if s < 0 or d < 0:
        return 0
    if d == 0:
        return 1  # the word of s zeros
    # a word of degree d has at most d nonzero letters, all before its zeros
    s = min(s, d)
    count = 0
    # zeros appended to a shorter word keep it admissible, so the count
    # grows with s: a cheap count at a shorter length can refuse first
    for k in range(1, s + 1):
        count = _count_words(k, d, d, cap)
        if count > cap:
            break
    return count
