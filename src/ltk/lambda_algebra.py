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
The kernel, _rewrite, compares two pairs per new word and scans that
shared tail once.

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

differential_rows differentiates basis words one at a time through the
same Leibniz step and kernel, reusing one stack and one result set, and
turns each differential straight into a bit row over the codomain basis.

Input that is not admissible is normalized first: the relations span a
two-sided ideal that d and sq0 preserve, so the answer is the same.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple, Optional

from .f2core import binom_mod2

LambdaMonomial = tuple[int, ...]
LambdaElement = frozenset  # of LambdaMonomial

# the rewriting kernel's work list: (word, violation i, scan resume f)
_Stack = list[tuple[LambdaMonomial, int, int]]

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
    degs = {monomial_bidegree(m) for m in e}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"element is not homogeneous: bidegrees {sorted(degs)}")
    return degs.pop()


def is_homogeneous(e: LambdaElement) -> bool:
    return len({monomial_bidegree(m) for m in e}) <= 1


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


def _rewrite(stack: _Stack, done: set[LambdaMonomial], last: int) -> None:
    """Rewrite every (word, i, f) entry of the stack depth first, toggling
    the admissible words it reaches into done.

    Every word on the stack has last index `last`, and so has every word
    a rewrite makes from it.  Pair i is the entry's violation to rewrite,
    its leftmost one.  Each word that a rewrite makes is classified as it
    is made: an admissible one toggles into done, any other is pushed
    with its own leftmost violation.  Every pair from i + 2 up to f - 1
    is known to be admissible, so the scan for the next violation right
    of i + 1 resumes at f (see the module docstring); f at or past last
    means there is none.
    """
    push = stack.append
    while stack:
        w, i, f = stack.pop()
        head, tail = w[:i], w[i + 2:]
        pairs = _pair_expansion(w[i], w[i + 1])
        while f < last and w[f + 1] <= 2 * w[f]:
            f += 1
        # f is the first violation right of pair i + 1, or last if none
        lo = 2 * w[i - 1] if i else -1  # a new word violates at i - 1 if a > lo
        hi = w[i + 2] if tail else -1   # and at i + 1 if hi > 2b
        for pair in pairs:
            a, b = pair
            word = head + pair + tail
            if i and a > lo:
                push((word, i - 1, i + 1 if hi > 2 * b else f))
            elif hi > 2 * b:
                push((word, i + 1, f if f > i + 3 else i + 3))
            elif f < last:
                push((word, f, f + 2))
            elif word in done:
                done.discard(word)
            else:
                done.add(word)


def normalize(e: LambdaElement, strategy: str = "leftmost") -> LambdaElement:
    """Admissible normal form of e under the defining relations.

    The strategy picks which violation each rewrite takes.  "leftmost",
    the canonical order, classifies each word by its leftmost violation
    and hands the rest to _rewrite, one word length at a time.
    "rightmost" rewrites the rightmost violation of each word depth
    first, scanning every word it makes; both reach the same normal form
    (see the module docstring).
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
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
    stacks: defaultdict[int, _Stack] = defaultdict(list)
    for w in e:
        i = _first_bad(w)
        if i is None:
            done ^= {w}
        else:
            stacks[len(w) - 1].append((w, i, i + 2))
    for last, stack in stacks.items():
        _rewrite(stack, done, last)
    return frozenset(done)


def _admissible_form(e: LambdaElement) -> LambdaElement:
    """e itself if all its words are admissible, else its normal form.

    The relations span a two-sided ideal that the differential and sq0
    preserve, so d, sq0 and products read the same on e and on its
    normal form."""
    return e if all(map(is_admissible, e)) else normalize(e)


def product(e1: LambdaElement, e2: LambdaElement) -> LambdaElement:
    """Bilinear concatenation, normalized.

    A factor that is not admissible is normalized first.  The
    concatenation of two admissible words can violate only at their
    junction, so it enters the rewriting classified.
    """
    e1, e2 = _admissible_form(e1), _admissible_form(e2)
    done: set[LambdaMonomial] = set()
    stacks: defaultdict[int, _Stack] = defaultdict(list)
    for w1 in e1:
        lo = 2 * w1[-1] if w1 else -1  # w2 violates at the junction if w2[0] > lo
        for w2 in e2:
            word = w1 + w2
            if w1 and w2 and w2[0] > lo:
                last = len(word) - 1
                stacks[last].append((word, len(w1) - 1, last))
            elif word in done:
                done.discard(word)
            else:
                done.add(word)
    for last, stack in stacks.items():
        _rewrite(stack, done, last)
    return frozenset(done)


@functools.cache
def _generator_differential(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (n - j, j - 1) for j in range(1, n // 2 + 1) if binom_mod2(n - j, j)
    )


def _leibniz(w: LambdaMonomial, stack: _Stack, done: set[LambdaMonomial]) -> None:
    """Push each Leibniz term of d(w), w admissible, onto the stack with
    its violation, or toggle it into done if it is admissible.

    The term head + (n-j, j-1) + tail, with pair i the new one, can
    violate only at pair i + 1, that is when tail[0] > 2(j-1): pair i - 1
    stays admissible because n - j < n <= 2 head[-1], and (n-j, j-1) is
    admissible because j <= n / 2 gives 3j <= 2n + 1.  So no term is
    scanned.  Every term has last index len(w).
    """
    push = stack.append
    last = len(w)
    for i, n in enumerate(w):
        pairs = _generator_differential(n)
        if not pairs:
            continue
        head, tail = w[:i], w[i + 1:]
        hi = tail[0] if tail else -1  # a term violates at i + 1 if hi > 2b
        for pair in pairs:
            word = head + pair + tail
            if hi > 2 * pair[1]:
                push((word, i + 1, last))
            elif word in done:
                done.discard(word)
            else:
                done.add(word)


def differential(e: LambdaElement) -> LambdaElement:
    """The differential, extended to words by the mod-2 Leibniz rule.

    Sends bidegree (s, d) to (s+1, d-1); squares to zero.  Each word's
    Leibniz terms enter the rewriting classified (see _leibniz).  An
    element that is not admissible is normalized first.
    """
    done: set[LambdaMonomial] = set()
    stacks: defaultdict[int, _Stack] = defaultdict(list)
    for w in _admissible_form(e):
        _leibniz(w, stacks[len(w)], done)
    for last, stack in stacks.items():
        _rewrite(stack, done, last)
    return frozenset(done)


def differential_rows(domain: Iterable[LambdaMonomial],
                      codomain: tuple[LambdaMonomial, ...]) -> Iterator[int]:
    """The differential of each admissible word of domain, in order, as a
    bit row: bit i stands for codomain[i], which must hold every word
    the differentials reach.  One done set and one stack serve every
    word, and no element is built."""
    index = {w: i for i, w in enumerate(codomain)}
    done: set[LambdaMonomial] = set()
    stack: _Stack = []
    for w in domain:
        _leibniz(w, stack, done)
        _rewrite(stack, done, len(w))
        bits = 0
        for t in done:
            bits |= 1 << index[t]
        done.clear()
        yield bits


def sq0(e: LambdaElement) -> LambdaElement:
    """The squaring endomorphism: every index t becomes 2t + 1.

    Sends bidegree (s, d) to (s, 2d + s); commutes with the differential
    and with products.  It keeps admissible words admissible (b <= 2a
    gives 2b + 1 <= 2(2a + 1)) and is injective on words, so the image
    of the normal form of e needs no rewriting.
    """
    return frozenset(tuple(2 * t + 1 for t in w) for w in _admissible_form(e))


def _least_first(slots: int, remaining: int) -> int:
    """The smallest first letter of an admissible word of `slots` letters
    and degree `remaining`: a first letter t reaches at most t + 2t + 4t
    + ... = t * (2^slots - 1)."""
    return -(-remaining // ((1 << slots) - 1))


@functools.cache
def admissible_basis(s: int, d: int) -> tuple[LambdaMonomial, ...]:
    """All admissible words of length s and degree d, in ascending lex order."""
    if s < 0 or d < 0:
        raise ValueError("bidegree components must be non-negative")

    def extend(prefix: tuple[int, ...], cap: Optional[int], remaining: int,
               slots: int, out: list[LambdaMonomial]) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(prefix + pad)
            return
        hi = remaining if cap is None else min(cap, remaining)
        if slots == 2:
            # any first letter t >= remaining / 3 leaves an admissible last letter
            out += [prefix + (t, remaining - t) + pad
                    for t in range(_least_first(2, remaining), hi + 1)]
        else:
            for t in range(_least_first(slots, remaining), hi + 1):
                extend(prefix + (t,), 2 * t, remaining - t, slots - 1, out)

    # a word of degree d has at most d nonzero letters, all before its
    # zeros: enumerate min(s, d) letters and pad, recursing at most d deep
    pad = (0,) * max(s - d, 0)
    words: list[LambdaMonomial] = []
    extend((), None, d, s - len(pad), words)
    return tuple(words)


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
