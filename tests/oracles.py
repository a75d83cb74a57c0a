"""Independent oracles shared by the test modules.

The Lambda reference (normal forms, the defining relation, the
differential, admissible counts, binomial parities) is the benchmark's,
perfbench/reference.py, loaded here once by file path as `reference`:
tests and benchmark trust one implementation.  This module keeps what
the reference lacks: brute enumerations, the right Steenrod action by
polynomial duality, and linear algebra on 0/1 lists.  Like the
reference, it shares no code with the package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

# catalog names whose payloads represent cohomology classes (and so must
# be cycles)
EXT_CLASS_NAMES = (
    "h0", "h1", "h2", "h3", "h4", "c0", "d0", "e0_paper", "e0_lin", "g1",
)


def compositions(s: int, d: int):
    """Every length-s tuple of total degree d: words without the
    admissibility filter, or exponent tuples."""
    if s == 0:
        if d == 0:
            yield ()
        return
    for head in range(d + 1):
        for tail in compositions(s - 1, d - head):
            yield (head,) + tail


def admissible_words_brute(s: int, d: int) -> list[tuple[int, ...]]:
    return sorted(
        w for w in compositions(s, d)
        if all(b <= 2 * a for a, b in zip(w, w[1:]))
    )


# --- polynomial-side oracle for the right Steenrod action -----------------
#
# The degree-d part of the divided power algebra is dual to degree-d
# polynomials; the right action on homology is dual to the left action
# Sq^i(x^a) = C(a, i) x^(a+i) extended by the Cartan formula.  So
# <(e)Sq^i, x^A> = <e, Sq^i(x^A)>.

def poly_sq_monomial(exps: tuple[int, ...], i: int) -> set[tuple[int, ...]]:
    """Sq^i of a polynomial monomial, as a parity set of exponent tuples."""
    states = {((), i)}
    for a in exps:
        nxt = set()
        for partial, rem in states:
            for ia in range(rem + 1):
                if reference.odd(a, ia):
                    nxt ^= {(partial + (a + ia,), rem - ia)}
        states = nxt
    return {partial for partial, rem in states if rem == 0}


def sq_right_dual_oracle(e: frozenset, i: int) -> frozenset:
    """(e)Sq^i of a homogeneous e, through the duality: a is a term
    exactly when Sq^i(x^a) has an odd number of terms in e."""
    if not e:
        return frozenset()
    m = next(iter(e))
    return frozenset(a for a in compositions(len(m), sum(m) - i)
                     if len(poly_sq_monomial(a, i) & e) % 2)


def sq_right_dual_table(rank: int, degree: int, i: int) -> dict:
    """(m)Sq^i for every monomial m of the given rank and degree at once,
    through the same duality: a is a term of (m)Sq^i exactly when m is a
    term of Sq^i(x^a)."""
    table = {tuple(m): set() for m in compositions(rank, degree)}
    for a in compositions(rank, degree - i):
        for m in poly_sq_monomial(tuple(a), i):
            table[m].add(tuple(a))
    return {m: frozenset(img) for m, img in table.items()}


def psi_rank2_oracle(t1: int, t2: int) -> set[tuple[int, int]]:
    """Raw two-letter words of the transfer image of a^(t1) a^(t2).

    Peeling the first exponent: sum over i >= 0 of the second exponent
    lowered by i, followed by the peeled letter t1 + i.
    """
    return {(t2 - i, t1 + i) for i in range(t2 // 2 + 1) if reference.odd(t2 - i, i)}


def divided_multiply(m1: tuple[int, ...], m2: tuple[int, ...]) -> frozenset:
    """Product of two same-rank divided-power monomials:
    a^(i) a^(j) = C(i+j, i) a^(i+j) in each coordinate."""
    if len(m1) != len(m2):
        raise ValueError("rank mismatch")
    if any(not reference.odd(a + b, a) for a, b in zip(m1, m2)):
        return frozenset()
    return frozenset({tuple(a + b for a, b in zip(m1, m2))})


# --- GF(2) linear algebra on 0/1 lists -------------------------------------
#
# A linear map is given by its image rows: rows[j] is the bit-packed image
# of the j-th domain vector.  The helpers unpack to lists of 0/1 and share
# no code with ltk.f2core.

def _pack(v: list[int]) -> int:
    return sum(bit << i for i, bit in enumerate(v))


def apply_rows(rows: list[int], x: int) -> int:
    """The image of x: the sum of rows[j] over the bits j of x."""
    acc = 0
    for j, row in enumerate(rows):
        if (x >> j) & 1:
            acc ^= row
    return acc


def mat_vec(rows: list[int], x: int) -> int:
    """M x over GF(2), where rows[i] is row i of M (bit j = column j)."""
    return _pack([bin(row & x).count("1") % 2 for row in rows])


def compose(first: list[int], then: list[int]) -> list[int]:
    """Image rows of `then` after `first`."""
    return [apply_rows(then, image) for image in first]


def kernel_basis(rows: list[int], width: int) -> list[int]:
    """The free-column kernel basis of the map with these image rows.

    Reduced row echelon form of the matrix whose column j is rows[j];
    each free column f gives the kernel vector with bit f set and its
    other bits on pivot columns.
    """
    n = len(rows)
    mat = [[(rows[j] >> i) & 1 for j in range(n)] for i in range(width)]
    pivots = []
    r = 0
    for c in range(n):
        pick = next((i for i in range(r, width) if mat[i][c]), None)
        if pick is None:
            continue
        mat[r], mat[pick] = mat[pick], mat[r]
        for i in range(width):
            if i != r and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = 1
        for k, p in enumerate(pivots):
            v[p] = mat[k][f]
        out.append(_pack(v))
    return out


def rank_of_rows(rows: list[int], width: int) -> int:
    """Rank by rank-nullity on the free-column kernel."""
    return len(rows) - len(kernel_basis(rows, width))


def image_rows(diff, domain, codomain) -> list[int]:
    """diff of each domain word, as a bit row over codomain."""
    index = {w: i for i, w in enumerate(codomain)}
    rows = []
    for w in domain:
        bits = 0
        for t in diff(frozenset({w})):
            bits |= 1 << index[t]
        rows.append(bits)
    return rows


def kernel_elements(diff, domain, codomain) -> list[frozenset]:
    """The free-column kernel basis of diff on domain, as elements."""
    kernel = kernel_basis(image_rows(diff, domain, codomain), len(codomain))
    return [frozenset(w for i, w in enumerate(domain) if (v >> i) & 1) for v in kernel]


def brute_kernel_basis(rows: list[int]) -> list[int]:
    """The free-column kernel basis found by trying every combination.

    Column f is free iff some kernel vector has top bit f; its basis
    vector is the kernel vector with top bit f whose other bits avoid
    the free columns.
    """
    n = len(rows)
    kernel = [x for x in range(1, 1 << n) if apply_rows(rows, x) == 0]
    free = {x.bit_length() - 1 for x in kernel}
    free_mask = sum(1 << f for f in free)
    return [next(x for x in kernel
                 if x.bit_length() - 1 == f and not (x ^ (1 << f)) & free_mask)
            for f in sorted(free)]
