"""Bit-exact textual grammar for elements, and the report formats.

    element     := "0" | term ("+" term)*
    lambda term := "L[" int ("," int)* "]" | "L[]"
    gamma term  := "a(" int ("," int)* ")"
    int         := [0-9]+

Whitespace is insignificant between tokens.  Coefficients are never
written: a term's presence means coefficient 1, and repeated terms
cancel.  Serialization is canonical, so equal elements always produce
byte-identical text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import divided_power as dp
from . import lambda_algebra as la

if TYPE_CHECKING:
    from .transfer import DetectionReport

SCHEMA_VERSION = 2
FILE_EXTENSION = ".f2elt"


class ParseError(ValueError):
    """Syntax error in element text, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_ws(self) -> None:
        while self.peek() and self.peek() in " \t\r\n":
            self.advance()

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            found = repr(self.peek()) if self.peek() else "end of input"
            raise self.error(f"expected {ch!r}, found {found}")
        self.advance()

    def scan_int(self) -> int:
        self.skip_ws()
        if self.peek() == "-":
            raise self.error("negative index rejected")
        # ASCII digits only: str.isdigit also accepts '²' and '٣'
        if not "0" <= self.peek() <= "9":
            found = repr(self.peek()) if self.peek() else "end of input"
            raise self.error(f"expected integer, found {found}")
        digits = ""
        while "0" <= self.peek() <= "9":
            digits += self.advance()
        return int(digits)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def _parse_terms(sc: _Scanner, head: str, open_ch: str, close_ch: str,
                 allow_empty: bool) -> list[tuple[int, ...]]:
    terms: list[tuple[int, ...]] = []
    while True:
        sc.skip_ws()
        sc.expect(head)
        sc.skip_ws()
        sc.expect(open_ch)
        sc.skip_ws()
        indices: list[int] = []
        if sc.peek() == close_ch and allow_empty:
            sc.advance()
        else:
            indices.append(sc.scan_int())
            sc.skip_ws()
            while sc.peek() == ",":
                sc.advance()
                indices.append(sc.scan_int())
                sc.skip_ws()
            sc.expect(close_ch)
        terms.append(tuple(indices))
        sc.skip_ws()
        if sc.at_end():
            return terms
        sc.expect("+")


def _parse(text: str, head: str, open_ch: str, close_ch: str,
           allow_empty: bool) -> frozenset:
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "0":
        sc.advance()
        sc.skip_ws()
        if not sc.at_end():
            raise sc.error("trailing input after zero element")
        return frozenset()
    if sc.at_end():
        raise sc.error("empty input")
    acc: set[tuple[int, ...]] = set()
    for t in _parse_terms(sc, head, open_ch, close_ch, allow_empty):
        acc ^= {t}
    return frozenset(acc)


def parse_lambda(text: str) -> la.LambdaElement:
    """Parse a Lambda element; duplicate terms cancel mod 2."""
    return _parse(text, "L", "[", "]", allow_empty=True)


def parse_gamma(text: str, rank: int) -> dp.GammaElement:
    """Parse a divided-power element whose terms must have the given arity."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    e = _parse(text, "a", "(", ")", allow_empty=False)
    for m in e:
        if len(m) != rank:
            raise ParseError(
                f"term has arity {len(m)}, expected {rank}", 1, 1
            )
    return e


def serialize_lambda(e: la.LambdaElement) -> str:
    if not e:
        return "0"
    return " + ".join("L[" + ",".join(map(str, w)) + "]" for w in sorted(e))


def serialize_gamma(e: dp.GammaElement) -> str:
    if not e:
        return "0"
    return " + ".join(
        "a(" + ",".join(map(str, m)) + ")" for m in sorted(e, reverse=True)
    )


@dataclass(frozen=True)
class ElementDocument:
    """A parsed element file: its kind, rank (gamma only), canonical body."""

    kind: str  # "lambda" | "gamma"
    rank: Optional[int]
    body: str
    element: frozenset


def parse_document(text: str, kind: Optional[str] = None,
                   rank: Optional[int] = None) -> ElementDocument:
    """Parse element text, sniffing the kind from the first term if needed.

    A bare "0" is only accepted when the kind is supplied by the caller.
    """
    stripped = text.strip()
    if kind is None:
        if stripped.startswith("L"):
            kind = "lambda"
        elif stripped.startswith("a"):
            kind = "gamma"
        else:
            raise ParseError("cannot infer element kind", 1, 1)
    if kind == "lambda":
        e = parse_lambda(text)
        return ElementDocument("lambda", None, serialize_lambda(e), e)
    if kind == "gamma":
        if rank is None:
            probe = _parse(text, "a", "(", ")", allow_empty=False)
            ranks = {len(m) for m in probe}
            if not ranks:
                raise ParseError("cannot infer the rank of a zero element; "
                                 "pass the rank explicitly", 1, 1)
            if len(ranks) > 1:
                raise ParseError("terms of mixed arity", 1, 1)
            rank = ranks.pop()
        e = parse_gamma(text, rank)
        return ElementDocument("gamma", rank, serialize_gamma(e), e)
    raise ValueError(f"unknown kind {kind!r}")


def _report_dict(r: "DetectionReport") -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "input": r.input_name,
        "bidegree": list(r.bidegree),
        "primitive": {
            "holds": r.primitive_holds,
            "checked": [
                {"sq": i, "image": serialize_gamma(img)}
                for i, img in r.primitive_checked
            ],
        },
        "psi_image": serialize_lambda(r.psi_image),
        "is_cycle": r.cycle_ok,
        "target": {
            "name": r.target_name,
            "element": serialize_lambda(r.target),
            "nonzero": r.target_nonzero,
        },
        "same_class_ok": r.same_class_ok,
        "witness": None if r.witness is None else serialize_lambda(r.witness),
        "ext_dim": {"computed": r.ext_dim, "expected": r.expected_dim},
        "verdict": r.verdict,
        "failed_checks": list(r.failed_checks),
    }


def emit_report(r: "DetectionReport", format: str = "text") -> str:
    """Render a detection report as human-readable text or JSON."""
    if format == "json":
        return json.dumps(_report_dict(r), indent=2)
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    yes_no = {True: "yes", False: "NO", None: "n/a"}
    lines = [
        f"input:          {r.input_name}  bidegree (s, d) = {r.bidegree}",
        f"primitive:      {yes_no[r.primitive_holds]}",
    ]
    for i, img in r.primitive_checked:
        lines.append(f"                Sq^{i} -> {serialize_gamma(img)}")
    lines += [
        f"psi image:      {serialize_lambda(r.psi_image)}",
        f"cycle:          {yes_no[r.cycle_ok]}",
        f"target:         {r.target_name or '(unnamed)'} = {serialize_lambda(r.target)}",
        f"target nonzero: {yes_no[r.target_nonzero]}",
        f"same class:     {yes_no[r.same_class_ok]}",
        f"witness:        {'none' if r.witness is None else serialize_lambda(r.witness)}",
        f"ext dimension:  {r.ext_dim}"
        + ("" if r.expected_dim is None else f" (expected {r.expected_dim})"),
        f"verdict:        {r.verdict}",
    ]
    if r.failed_checks:
        lines.append(f"failed checks:  {', '.join(r.failed_checks)}")
    return "\n".join(lines)
