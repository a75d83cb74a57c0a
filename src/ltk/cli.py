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
from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class CommandConfig:
    subcommand: str
    s: Optional[int] = None
    deg: Optional[int] = None
    rank: Optional[int] = None
    fmt: str = "text"
    path: Optional[str] = None
    cls: Optional[str] = None
    force: bool = False
    max_basis: Optional[int] = transfer.DEFAULT_MAX_BASIS


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ltk",
        description="Exact Lambda algebra computations and transfer detection certificates.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str, *, s=False, deg=False, rank=False,
            infile=False, force=False) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
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
        infile=True, force=True)
    add("diff", "differential of a Lambda element", infile=True, force=True)
    add("basis", "admissible basis of a bidegree", s=True, deg=True, force=True)
    add("homology", "cohomology dimension at a bidegree", s=True, deg=True,
        force=True)
    add("sq0", "apply the squaring endomorphism", infile=True, force=True)
    sp = add("steenrod", "right action of a Steenrod square", rank=True, infile=True)
    sp.add_argument("--deg", type=int, required=True, help="degree of the square")
    add("primitive-check", "test annihilation by all positive squares",
        rank=True, infile=True)
    add("primitive-basis", "basis of the primitive subspace", deg=True, force=True)
    sub.choices["primitive-basis"].add_argument(
        "--rank", type=int, required=True, help="number of generators")
    add("psi", "chain-level transfer of a divided-power element",
        rank=True, infile=True)
    sp = add("verify", "certify one detection end to end", infile=True)
    sp.add_argument("--class", dest="cls", choices=sorted(CLASSES), required=True)
    add("transfer-image", "dimension of the transfer image at a bidegree",
        s=True, deg=True, force=True)
    add("find-preimage", "search for a primitive preimage of a cycle",
        s=True, infile=True, force=True)
    return p


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_lambda(cfg: CommandConfig) -> la.LambdaElement:
    return elements_io.parse_lambda(_read_file(cfg.path))


def _load_gamma(cfg: CommandConfig) -> dp.GammaElement:
    doc = elements_io.parse_document(_read_file(cfg.path), kind="gamma",
                                     rank=cfg.rank)
    return doc.element


def _emit_json(**fields) -> None:
    print(json.dumps({"schema": elements_io.SCHEMA_VERSION, **fields}))


def _emit_element(cfg: CommandConfig, e: la.LambdaElement, kind: str = "lambda") -> None:
    body = (elements_io.serialize_lambda(e) if kind == "lambda"
            else elements_io.serialize_gamma(e))
    if cfg.fmt == "json":
        _emit_json(element=body)
    else:
        print(body)


def _emit_basis(cfg: CommandConfig, bodies: list[str]) -> None:
    if cfg.fmt == "json":
        _emit_json(count=len(bodies), basis=bodies)
    else:
        for b in bodies:
            print(b)
        print(f"count = {len(bodies)}", file=sys.stderr)


def _load_guarded(cfg: CommandConfig, bidegrees) -> la.LambdaElement:
    """The input element, once the admissible basis at each bidegree that
    bidegrees(e) names is within the cap.  A word with a huge letter has
    a huge basis, so it is refused before any rewriting."""
    e = _load_lambda(cfg)
    _guard_words(cfg, *sorted(bidegrees(e)))
    return e


def _rewritten(e: la.LambdaElement) -> set[tuple[int, int]]:
    """The bidegrees of e's inadmissible words.  normalize and sq0 rewrite
    only these (sq0 takes the image of the normal form), so admissible
    input is never refused."""
    return {(len(w), sum(w)) for w in e if not la.is_admissible(w)}


def _cmd_normalize(cfg: CommandConfig) -> int:
    _emit_element(cfg, la.normalize(_load_guarded(cfg, _rewritten)))
    return OK


def _cmd_diff(cfg: CommandConfig) -> int:
    # d of any word, admissible or not, lands in (s + 1, d - 1)
    e = _load_guarded(cfg, lambda e: {(len(w) + 1, sum(w) - 1) for w in e})
    _emit_element(cfg, la.differential(e))
    return OK


def _cmd_sq0(cfg: CommandConfig) -> int:
    _emit_element(cfg, la.sq0(_load_guarded(cfg, _rewritten)))
    return OK


def _guard_words(cfg: CommandConfig, *bidegrees: tuple[int, int]) -> None:
    """Refuse, before enumerating anything, admissible bases over the cap."""
    if cfg.max_basis is None:
        return
    for s, d in bidegrees:
        if la.admissible_count(s, d, cfg.max_basis) > cfg.max_basis:
            raise transfer.ResourceLimitError(
                f"admissible basis at ({s}, {d}) has more than {cfg.max_basis} "
                f"words; pass --force to proceed"
            )


def _cmd_basis(cfg: CommandConfig) -> int:
    _guard_words(cfg, (cfg.s, cfg.deg))
    words = la.admissible_basis(cfg.s, cfg.deg)
    _emit_basis(cfg, [elements_io.serialize_lambda(frozenset({w})) for w in words])
    return OK


def _cmd_homology(cfg: CommandConfig) -> int:
    # ext_dimension differentiates (s-1, d+1) and (s, d) into (s+1, d-1)
    _guard_words(cfg, (cfg.s - 1, cfg.deg + 1), (cfg.s, cfg.deg),
                 (cfg.s + 1, cfg.deg - 1))
    dim = homology.ext_dimension(cfg.s, cfg.deg)
    if cfg.fmt == "json":
        _emit_json(s=cfg.s, deg=cfg.deg, dim=dim)
    else:
        print(f"dim = {dim}")
    return OK


def _cmd_steenrod(cfg: CommandConfig) -> int:
    if cfg.deg < 0:
        raise ValueError("--deg must be non-negative")
    _emit_element(cfg, dp.sq_right(_load_gamma(cfg), cfg.deg), kind="gamma")
    return OK


def _cmd_primitive_check(cfg: CommandConfig) -> int:
    evidence = dp.is_primitive(_load_gamma(cfg))
    if cfg.fmt == "json":
        _emit_json(primitive=evidence.holds,
                   checked=[{"sq": i, "image": elements_io.serialize_gamma(img)}
                            for i, img in evidence.checked])
    else:
        for i, img in evidence.checked:
            print(f"Sq^{i} -> {elements_io.serialize_gamma(img)}")
        print("primitive" if evidence.holds else "not primitive")
    return OK if evidence.holds else FALSIFIED


def _cmd_primitive_basis(cfg: CommandConfig) -> int:
    transfer._guard_basis(cfg.rank, cfg.deg, cfg.max_basis)
    basis = dp.primitive_basis(cfg.rank, cfg.deg)
    _emit_basis(cfg, [elements_io.serialize_gamma(e) for e in basis])
    return OK


def _cmd_psi(cfg: CommandConfig) -> int:
    _emit_element(cfg, transfer.psi(_load_gamma(cfg)))
    return OK


def _cmd_verify(cfg: CommandConfig) -> int:
    u_name, factors, expected = CLASSES[cfg.cls]
    if cfg.path is not None:
        s, stored_d = catalog.entry(u_name).bidegree
        e = elements_io.parse_gamma(_read_file(cfg.path), s)
        degrees = {sum(m) for m in e}
        d = degrees.pop() if len(degrees) == 1 else stored_d
        u = catalog.CatalogEntry(f"{u_name}(custom)", catalog.GAMMA, (s, d), e)
    else:
        u = catalog.entry(u_name)
    target = la.UNIT
    for f in factors:
        target = la.product(target, catalog.entry(f).element)
    report = transfer.verify_detection(u, target, expected_dim=expected,
                                       target_name=cfg.cls)
    print(elements_io.emit_report(report, cfg.fmt))
    if report.verdict == "falsified":
        print(f"failed: {', '.join(report.failed_checks)}", file=sys.stderr)
        return FALSIFIED
    return OK


def _cmd_transfer_image(cfg: CommandConfig) -> int:
    dim, reps = transfer.transfer_image_dim(cfg.s, cfg.deg, max_basis=cfg.max_basis)
    bodies = [elements_io.serialize_lambda(r) for r in reps]
    if cfg.fmt == "json":
        _emit_json(s=cfg.s, deg=cfg.deg, dim=dim, representatives=bodies)
    else:
        print(f"dim = {dim}")
        for b in bodies:
            print(b)
    return OK


def _cmd_find_preimage(cfg: CommandConfig) -> int:
    target = la.normalize(_load_lambda(cfg))
    # find_preimage validates that the target is a cycle
    preimage = transfer.find_preimage(cfg.s, target, max_basis=cfg.max_basis)
    # find_preimage answers a trivial class, and only that, with zero
    trivial = preimage is not None and not preimage
    if cfg.fmt == "json":
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


_HANDLERS = {
    "normalize": _cmd_normalize,
    "diff": _cmd_diff,
    "basis": _cmd_basis,
    "homology": _cmd_homology,
    "sq0": _cmd_sq0,
    "steenrod": _cmd_steenrod,
    "primitive-check": _cmd_primitive_check,
    "primitive-basis": _cmd_primitive_basis,
    "psi": _cmd_psi,
    "verify": _cmd_verify,
    "transfer-image": _cmd_transfer_image,
    "find-preimage": _cmd_find_preimage,
}


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/diagnostics
        return USAGE if exc.code not in (0, None) else OK
    cfg = CommandConfig(
        subcommand=args.subcommand,
        s=getattr(args, "s", None),
        deg=getattr(args, "deg", None),
        rank=getattr(args, "rank", None),
        fmt=getattr(args, "fmt", "text"),
        path=getattr(args, "path", None),
        cls=getattr(args, "cls", None),
        force=getattr(args, "force", False),
        max_basis=None if getattr(args, "force", False) else transfer.DEFAULT_MAX_BASIS,
    )
    try:
        return _HANDLERS[cfg.subcommand](cfg)
    except transfer.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return USAGE
    except (elements_io.ParseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
