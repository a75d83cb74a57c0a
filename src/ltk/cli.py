"""Command-line front end.

Exit codes: 0 = verified/computed, 1 = a mathematical check failed,
2 = usage or resource error.  Results go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Sequence

from . import catalog, divided_power as dp, elements_io, homology
from . import lambda_algebra as la
from . import transfer

OK, FALSIFIED, USAGE = 0, 1, 2

# verify --class choices: detection input, target factors (in composition
# order, so the degree-1 class sits rightmost), expected Ext dimension
CLASSES = {
    "h0d0": ("u14", ("d0", "h0"), 1),
    "h2e0": ("u20", ("e0_paper", "h2"), 1),
    "h1h4c0": ("u24", ("c0", "h4", "h1"), 1),
}


@functools.cache
def _class_target(cls: str) -> la.LambdaElement:
    """The product of the class's catalog factors, built once per class."""
    target = la.UNIT
    for f in CLASSES[cls][1]:
        target = la.product(target, catalog.entry(f).element)
    return target


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ltk",
        description="Exact Lambda algebra computations and transfer detection certificates.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str, handler, *, s=False, deg=False, rank=False,
            infile=False, force=False) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        if s:
            sp.add_argument("--s", type=int, required=True, help="homological length")
        if deg:
            sp.add_argument("--deg", type=int, required=True, help="internal degree")
        if rank:
            sp.add_argument("--rank", type=int, help="number of generators")
        if infile:
            sp.add_argument("--in", dest="path", required=(name != "verify"),
                            help="input .f2elt file")
        if force:
            sp.add_argument("--force", action="store_true",
                            help="lift the basis-size resource guard")
        sp.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
        return sp

    add("normalize", "rewrite a Lambda element to its admissible form",
        _cmd_normalize, infile=True, force=True)
    add("diff", "differential of a Lambda element", _cmd_diff,
        infile=True, force=True)
    add("basis", "admissible basis of a bidegree", _cmd_basis,
        s=True, deg=True, force=True)
    add("homology", "cohomology dimension at a bidegree", _cmd_homology,
        s=True, deg=True, force=True)
    add("sq0", "apply the squaring endomorphism", _cmd_sq0, infile=True, force=True)
    sp = add("steenrod", "right action of a Steenrod square", _cmd_steenrod,
             rank=True, infile=True)
    sp.add_argument("--deg", type=int, required=True, help="degree of the square")
    add("primitive-check", "test annihilation by all positive squares",
        _cmd_primitive_check, rank=True, infile=True)
    sp = add("primitive-basis", "basis of the primitive subspace",
             _cmd_primitive_basis, deg=True, force=True)
    sp.add_argument("--rank", type=int, required=True, help="number of generators")
    add("psi", "chain-level transfer of a divided-power element", _cmd_psi,
        rank=True, infile=True)
    sp = add("verify", "certify one detection end to end", _cmd_verify, infile=True)
    sp.add_argument("--class", dest="cls", choices=sorted(CLASSES), required=True)
    add("transfer-image", "dimension of the transfer image at a bidegree",
        _cmd_transfer_image, s=True, deg=True, force=True)
    add("find-preimage", "search for a primitive preimage of a cycle",
        _cmd_find_preimage, s=True, infile=True, force=True)
    return p


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_lambda(args: argparse.Namespace) -> la.LambdaElement:
    return elements_io.parse_lambda(_read_file(args.path))


def _load_gamma(args: argparse.Namespace) -> dp.GammaElement:
    """The input element, once the monomial basis at each (rank, degree)
    of its terms is within the cap.  A huge exponent would keep the
    Steenrod fold and psi's rewriting busy for ages, so it is refused
    before either."""
    e = elements_io.parse_gamma(_read_file(args.path), args.rank)
    transfer.guard(args.max_basis, monomials=[(len(m), sum(m)) for m in e])
    return e


def _emit_json(**fields) -> None:
    print(json.dumps({"schema": elements_io.SCHEMA_VERSION, **fields}))


def _emit_element(args: argparse.Namespace, e: la.LambdaElement,
                  kind: str = "lambda") -> None:
    body = (elements_io.serialize_lambda(e) if kind == "lambda"
            else elements_io.serialize_gamma(e))
    if args.fmt == "json":
        _emit_json(element=body)
    else:
        print(body)


def _emit_basis(args: argparse.Namespace, basis: Sequence, serialize: Callable) -> None:
    """Each member of basis through serialize, one per line or in one JSON
    list; text is written as it is serialized, so no list of lines is held."""
    bodies = map(serialize, basis)
    if args.fmt == "json":
        _emit_json(count=len(basis), basis=list(bodies))
    else:
        sys.stdout.writelines(b + "\n" for b in bodies)
        print(f"count = {len(basis)}", file=sys.stderr)


def _load_rewritten(args: argparse.Namespace) -> la.LambdaElement:
    """The input element, once the admissible basis at each inadmissible
    word's bidegree is within the cap.  normalize and sq0 rewrite only
    those words (sq0 takes the image of the normal form)."""
    e = _load_lambda(args)
    transfer.guard(args.max_basis,
                   words=[(len(w), sum(w)) for w in e if not la.is_admissible(w)])
    return e


def _cmd_normalize(args: argparse.Namespace) -> int:
    _emit_element(args, la.normalize(_load_rewritten(args)))
    return OK


def _cmd_diff(args: argparse.Namespace) -> int:
    e = _load_lambda(args)
    # d rewrites each inadmissible word in its own (s, d), as normalize
    # does, then lands in (s + 1, d - 1)
    transfer.guard(args.max_basis,
                   words=[(len(w) + 1, sum(w) - 1) for w in e]
                   + [(len(w), sum(w)) for w in e if not la.is_admissible(w)])
    _emit_element(args, la.differential(e))
    return OK


def _cmd_sq0(args: argparse.Namespace) -> int:
    _emit_element(args, la.sq0(_load_rewritten(args)))
    return OK


def _cmd_basis(args: argparse.Namespace) -> int:
    transfer.guard(args.max_basis, words=[(args.s, args.deg)])
    _emit_basis(args, la.admissible_basis(args.s, args.deg), elements_io.serialize_word)
    return OK


def _cmd_homology(args: argparse.Namespace) -> int:
    transfer.guard(args.max_basis, words=transfer.cells(args.s, args.deg))
    dim = homology.ext_dimension(args.s, args.deg)
    if args.fmt == "json":
        _emit_json(s=args.s, deg=args.deg, dim=dim)
    else:
        print(f"dim = {dim}")
    return OK


def _cmd_steenrod(args: argparse.Namespace) -> int:
    if args.deg < 0:
        raise ValueError("--deg must be non-negative")
    _emit_element(args, dp.sq_right(_load_gamma(args), args.deg), kind="gamma")
    return OK


def _cmd_primitive_check(args: argparse.Namespace) -> int:
    evidence = dp.is_primitive(_load_gamma(args))
    if args.fmt == "json":
        _emit_json(primitive=evidence.holds,
                   checked=[{"sq": i, "image": elements_io.serialize_gamma(img)}
                            for i, img in evidence.checked])
    else:
        for i, img in evidence.checked:
            print(f"Sq^{i} -> {elements_io.serialize_gamma(img)}")
        print("primitive" if evidence.holds else "not primitive")
    return OK if evidence.holds else FALSIFIED


def _cmd_primitive_basis(args: argparse.Namespace) -> int:
    transfer.guard(args.max_basis, primitives=[(args.rank, args.deg)])
    basis = dp.primitive_basis(args.rank, args.deg)
    _emit_basis(args, basis, elements_io.serialize_gamma)
    return OK


def _cmd_psi(args: argparse.Namespace) -> int:
    _emit_element(args, transfer.psi(_load_gamma(args)))
    return OK


def _cmd_verify(args: argparse.Namespace) -> int:
    u_name, _, expected = CLASSES[args.cls]
    if args.path is not None:
        s, stored_d = catalog.entry(u_name).bidegree
        e = elements_io.parse_gamma(_read_file(args.path), s)
        degrees = {sum(m) for m in e}
        d = next(iter(degrees)) if len(degrees) == 1 else stored_d
        # verify_detection computes Ext at the input's own bidegree, and
        # psi of each term at that term's degree
        transfer.guard(args.max_basis,
                       words=[*transfer.cells(s, d), *((s, t) for t in degrees)])
        u = catalog.CatalogEntry(f"{u_name}(custom)", catalog.GAMMA, (s, d), e)
    else:
        u = catalog.entry(u_name)
    report = transfer.verify_detection(u, _class_target(args.cls), expected_dim=expected,
                                       target_name=args.cls)
    print(elements_io.emit_report(report, args.fmt))
    if report.verdict == "falsified":
        print(f"failed: {', '.join(report.failed_checks)}", file=sys.stderr)
        return FALSIFIED
    return OK


def _cmd_transfer_image(args: argparse.Namespace) -> int:
    dim, reps = transfer.transfer_image_dim(args.s, args.deg, max_basis=args.max_basis)
    bodies = [elements_io.serialize_lambda(r) for r in reps]
    if args.fmt == "json":
        _emit_json(s=args.s, deg=args.deg, dim=dim, representatives=bodies)
    else:
        print(f"dim = {dim}")
        for b in bodies:
            print(b)
    return OK


def _cmd_find_preimage(args: argparse.Namespace) -> int:
    # find_preimage normalizes the target and checks that it is a cycle
    preimage = transfer.find_preimage(args.s, _load_lambda(args),
                                      max_basis=args.max_basis)
    # find_preimage answers a trivial class, and only that, with zero
    trivial = preimage is not None and not preimage
    if args.fmt == "json":
        _emit_json(found=preimage is not None,
                   preimage=None if preimage is None
                   else elements_io.serialize_gamma(preimage),
                   target_class_trivial=trivial)
    else:
        if preimage is None:
            print("no primitive preimage exists")
        else:
            print(elements_io.serialize_gamma(preimage))
            if trivial:
                print("note: target class is zero; preimage is trivial",
                      file=sys.stderr)
    return OK if preimage is not None else FALSIFIED


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/diagnostics
        return USAGE if exc.code not in (0, None) else OK
    args.max_basis = (None if getattr(args, "force", False)
                      else transfer.DEFAULT_MAX_BASIS)
    try:
        return args.handler(args)
    except transfer.ResourceLimitError as exc:
        hint = "; pass --force to proceed" if "force" in args else ""
        print(f"resource limit: {exc}{hint}", file=sys.stderr)
        return USAGE
    except (MemoryError, RecursionError) as exc:
        # the interpreter ran out, not the cap: --force cannot help
        limit = "out of memory" if isinstance(exc, MemoryError) else "recursion too deep"
        print(f"resource limit: {limit}", file=sys.stderr)
        return USAGE
    except (elements_io.ParseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
