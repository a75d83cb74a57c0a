"""The chain-level representation of the rank-s algebraic transfer and
the end-to-end detection verifier.

psi sends a rank-s divided power monomial into the Lambda algebra by
peeling off the a_1 exponent t:

    psi(a^(t))          = lam_t
    psi(a^(t) . tail)   = sum_{j >= t} psi(tail Sq^(j-t)) lam_j,

which lands in bidegree (s, degree).  The peeled generator contributes
the rightmost letter, matching the composition order of the word
grammar here; classical tables written in the opposite reading order
describe the same elements with reversed index strings.  On elements
annihilated by all positive-degree squares the image is a cycle, and
its cohomology class is the transfer of the input's class;
verify_detection certifies one such detection with explicit,
re-checked witnesses.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Iterable, NamedTuple, Optional

from . import divided_power as dp
from . import f2core, homology
from . import lambda_algebra as la
from .catalog import GAMMA, CatalogEntry
from .divided_power import GammaElement, GammaMonomial, PrimitivityEvidence
from .lambda_algebra import LambdaElement

DEFAULT_MAX_BASIS = 200_000


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed the configured basis cap."""


def cells(s: int, d: int) -> tuple[tuple[int, int], ...]:
    """The bidegrees whose admissible bases a slice or an Ext dimension
    at (s, d) reads: its own and the two that d maps into and out of."""
    return (s - 1, d + 1), (s, d), (s + 1, d - 1)


def guard(max_basis: Optional[int], words: Iterable[tuple[int, int]] = (),
          monomials: Iterable[tuple[int, int]] = (),
          primitives: Iterable[tuple[int, int]] = ()) -> None:
    """Refuse a basis over max_basis before anything is enumerated: the
    divided-power monomials at each (rank, degree) in monomials and in
    primitives, then the admissible words at each (s, d) in words, then,
    for each cell in primitives, the image monomials that primitive_basis
    numbers: those at (rank, degree - i), for each generator square Sq^i
    of the degree.  A cell with a negative component, or of rank below 1,
    is empty.  Words longer than the larger of max_basis and
    DEFAULT_MAX_BASIS are refused however few they are: their letters
    fill memory as words do.  None lifts the cap."""
    if max_basis is None:
        return
    primitives = set(primitives)
    for s, d in sorted(primitives.union(monomials)):
        if s < 1 or d < 0:
            continue
        # C(n, k) >= 2^k when n >= 2k, so a wide basis is over the cap
        wide = min(s - 1, d) >= max_basis.bit_length()
        size = f"more than {max_basis}" if wide else comb(d + s - 1, s - 1)
        if wide or size > max_basis:
            raise ResourceLimitError(f"monomial basis at rank {s}, degree {d} "
                                     f"has {size} elements (cap {max_basis})")
    letters = max(max_basis, DEFAULT_MAX_BASIS)
    for s, d in sorted(set(words)):
        if d >= 0 and s > letters:
            raise ResourceLimitError(f"admissible words at ({s}, {d}) have {s} "
                                     f"letters (cap {letters})")
        if la.admissible_count(s, d, max_basis) > max_basis:
            raise ResourceLimitError(f"admissible basis at ({s}, {d}) has more "
                                     f"than {max_basis} words")
    for s, d in sorted(primitives):
        if s < 1 or d < 0:
            continue
        # each term is at most the domain's count, which passed above
        size = sum(comb(d - i + s - 1, s - 1) for i in dp._generator_squares(d))
        if size > max_basis:
            raise ResourceLimitError(f"Steenrod images at rank {s}, degree {d} "
                                     f"have {size} monomials (cap {max_basis})")


@functools.cache
def _psi_monomial(m: GammaMonomial) -> LambdaElement:
    if len(m) == 1:
        return frozenset({(m[0],)})
    t, tail = m[0], m[1:]
    acc: set = set()
    # instability bounds the sum: squares above half the tail degree act
    # as zero; one fold of the tail gives its image under all the others
    for i, moved in enumerate(dp._sq_fold(tail, tuple(range(sum(tail) // 2 + 1)))):
        if not moved:
            continue
        part: set = set()
        for pm in moved:
            part ^= _psi_monomial(pm)
        acc ^= la.product(frozenset(part), frozenset({(t + i,)}))
    return frozenset(acc)


def psi(e: GammaElement) -> LambdaElement:
    """Image of a rank-s element in the Lambda algebra, normalized."""
    acc: set = set()
    for m in e:
        if len(m) < 1:
            raise ValueError("rank must be at least 1")
        acc ^= _psi_monomial(m)
    return frozenset(acc)


def sq0_family(base: CatalogEntry, t: int) -> LambdaElement:
    """t-fold application of the squaring endomorphism to a catalog class."""
    if base.kind != "lambda":
        raise ValueError("squaring families are defined on lambda-kind entries")
    if t < 0:
        raise ValueError("t must be non-negative")
    e = la.normalize(base.element)
    for _ in range(t):
        e = la.sq0(e)
    return e


class DetectionReport(NamedTuple):
    """Machine-checkable certificate for one detection run; immutable,
    and equal to another report iff every field is."""

    input_name: str
    bidegree: tuple[int, int]
    primitive_holds: bool
    primitive_checked: tuple[tuple[int, GammaElement], ...]
    psi_image: LambdaElement
    cycle_ok: bool
    target_name: str
    target: LambdaElement
    target_nonzero: Optional[bool]
    same_class_ok: Optional[bool]
    witness: Optional[LambdaElement]
    ext_dim: Optional[int]
    expected_dim: Optional[int]
    verdict: str  # "verified" | "falsified" | "trivial"
    failed_checks: tuple[str, ...]


def _is_cycle(e: LambdaElement) -> bool:
    """homology.is_cycle, with an element that is not homogeneous, which
    it refuses, counted as no cycle."""
    try:
        return homology.is_cycle(e)
    except ValueError:
        return False


def verify_detection(u: CatalogEntry, target: LambdaElement,
                     expected_dim: Optional[int] = None,
                     target_name: str = "") -> DetectionReport:
    """Run the full detection pipeline and aggregate a verdict.

    Every sub-check that fails is recorded in the report rather than
    raised, so a corrupted input yields a falsified certificate.  Ext at
    (s, d) is computed, and compared, only when expected_dim is given.
    """
    if u.kind != GAMMA:
        raise ValueError("detection inputs are gamma-kind entries")
    target = la.normalize(target)
    s, d = u.bidegree

    if not u.element and not target:
        return DetectionReport(
            input_name=u.name, bidegree=(s, d), primitive_holds=True,
            primitive_checked=(), psi_image=la.ZERO, cycle_ok=True,
            target_name=target_name, target=la.ZERO, target_nonzero=None,
            same_class_ok=None, witness=la.ZERO, ext_dim=None,
            expected_dim=expected_dim, verdict="trivial", failed_checks=(),
        )

    try:
        evidence = dp.is_primitive(u.element)
    except ValueError:
        evidence = PrimitivityEvidence(False, ())
    image = psi(u.element)
    # before any slice: the slices then read the rows Ext stored
    ext_dim = None if expected_dim is None else homology.ext_dimension(s, d)
    cycle_ok = _is_cycle(image)
    target_is_cycle = _is_cycle(target)
    # the target is a normalized cycle already: class_nonzero would
    # check both again
    target_nonzero = (homology.boundary_witness(target) is None
                      if target_is_cycle else None)

    same: Optional[bool] = None
    witness: Optional[LambdaElement] = None
    # a cycle is homogeneous, so any one word gives its bidegree
    if (cycle_ok and target_is_cycle
            and (not image or not target
                 or la.monomial_bidegree(next(iter(image)))
                 == la.monomial_bidegree(next(iter(target))))):
        # what same_class(image, target) returns, without checking again
        # that both are normalized cycles of one bidegree
        witness = homology.boundary_witness(image ^ target)
        same = witness is not None

    # the verdict's sub-checks, in the order a falsified report names them
    fails = tuple(name for name, ok in (
        ("primitive", evidence.holds),
        ("cycle", cycle_ok),
        ("target-cycle", target_is_cycle),
        ("target-nonzero", target_nonzero is not False),
        ("class-equality", bool(same)),
        ("ext-dimension", ext_dim == expected_dim),
    ) if not ok)

    return DetectionReport(
        input_name=u.name,
        bidegree=(s, d),
        primitive_holds=evidence.holds,
        primitive_checked=evidence.checked,
        psi_image=image,
        cycle_ok=cycle_ok,
        target_name=target_name,
        target=target,
        target_nonzero=target_nonzero,
        same_class_ok=same,
        witness=witness,
        ext_dim=ext_dim,
        expected_dim=expected_dim,
        verdict="verified" if not fails else "falsified",
        failed_checks=fails,
    )


def transfer_image_dim(s: int, d: int, max_basis: Optional[int] = DEFAULT_MAX_BASIS
                       ) -> tuple[int, list[LambdaElement]]:
    """Dimension of the transfer image inside the cohomology at (s, d),
    with spanning cycle representatives."""
    if s < 1:
        raise ValueError("s must be at least 1")
    guard(max_basis, words=cells(s, d), primitives=[(s, d)])
    images = [psi(p) for p in dp.primitive_basis(s, d)]
    sl = homology.slice_at(s, d)
    span = sl.boundaries.copy()
    reps = [image for image in images if span.add(homology.row(image, sl.basis))[0]]
    return len(reps), reps


def find_preimage(s: int, target: LambdaElement,
                  max_basis: Optional[int] = DEFAULT_MAX_BASIS) -> Optional[GammaElement]:
    """A primitive element whose image is homologous to the target cycle,
    or None if no such element exists."""
    if s < 1:
        raise ValueError("s must be at least 1")
    # each raw word is counted before normalize rewrites it
    guard(max_basis, words=[c for w in target for c in cells(len(w), sum(w))])
    target = la.normalize(target)
    if not homology.is_cycle(target):
        raise homology.NotACycleError("target is not a cycle")
    if target and (length := la.bidegree(target).s) != s:
        raise ValueError(f"target words have length {length}, but s = {s}")
    # a trivial class is hit by the zero element; prefer that canonical answer
    if homology.boundary_witness(target) is not None:
        return dp.ZERO
    _, d = la.bidegree(target)
    guard(max_basis, primitives=[(s, d)])
    prims = dp.primitive_basis(s, d)
    images = [psi(p) for p in prims]
    sl = homology.slice_at(s, d)
    # only the primitive images are tagged, so the target's tag names the
    # images whose sum differs from the target by a boundary
    span = f2core.Span()
    for i, image in enumerate(images):
        span.add(homology.row(image, sl.basis), 1 << i)
    for row in homology.differential_rows(s - 1, d + 1):
        span.add(row)
    residual, x = span.reduce(homology.row(target, sl.basis))
    if residual:
        return None
    preimage: set = set()
    for i in f2core.set_bits(x):
        preimage ^= prims[i]
    result = frozenset(preimage)
    equal, _ = homology.same_class(psi(result), target)
    if not equal:
        raise AssertionError("solved preimage failed re-verification")
    return result
