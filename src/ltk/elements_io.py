"""Bit-exact textual grammar for elements, and the report formats.

    element     := "0" | term ("+" term)*
    lambda term := "L[" int ("," int)* "]" | "L[]"
    gamma term  := "a(" int ("," int)* ")"
    int         := [0-9]+      (at most MAX_DIGITS digits)

Whitespace, exactly the characters space, tab, carriage return and line
feed, is insignificant between tokens; any other character, such as a
vertical tab, a form feed or a Unicode space, is an error, and so is a
digit other than the ASCII 0-9.  Coefficients are never written: a
term's presence means coefficient 1, and repeated terms cancel.
Serialization is canonical, so equal elements always produce
byte-identical text.

The parser matches one compiled pattern per term, `L[...]` or `a(...)`,
at the offset where the term starts, and reads the indices off the
match.  Only when a term fails to match does _diagnose walk it again,
piece by piece with the same piece patterns, to name what was expected
and what was found; the line and column of a ParseError are computed
from that offset then, and never on the way.

There is one reader per kind.  parse_lambda reads a Lambda element.
parse_gamma reads a divided-power element of a given rank, or, given
none, of the one rank its terms share.  parse_document picks between
them by the first term's head.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, NamedTuple, NoReturn, Optional

from . import divided_power as dp
from . import lambda_algebra as la

if TYPE_CHECKING:
    from .transfer import DetectionReport

SCHEMA_VERSION = 2
# the most digits an index may have: int() refuses longer digit strings
# by default, and the grammar refuses them on every interpreter
MAX_DIGITS = 4300


class ParseError(ValueError):
    """Syntax error in element text, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _TermKind(NamedTuple):
    """One term kind of the grammar and its compiled term pattern."""

    head: str
    open: str
    close: str
    allow_empty: bool
    term: re.Pattern


# the grammar's pieces; the term patterns and _diagnose are built from them
_SPACE = r"[ \t\r\n]*"  # not \s: it also matches '\x0b', '\x0c' and Unicode spaces
_INT = f"[0-9]{{1,{MAX_DIGITS}}}"  # not \d: it also matches '٣' and other Unicode digits
_SPACE_RE = re.compile(_SPACE)
_INT_RE = re.compile(_INT)


def _term_kind(head: str, open_ch: str, close_ch: str,
               allow_empty: bool) -> _TermKind:
    # group 1: the indices, commas and spaces between the brackets
    indices = f"({_INT}(?:{_SPACE},{_SPACE}{_INT})*){_SPACE}"
    if allow_empty:
        indices = f"(?:{indices})?"
    term = re.compile(_SPACE + re.escape(head) + _SPACE + re.escape(open_ch)
                      + _SPACE + indices + re.escape(close_ch) + _SPACE)
    return _TermKind(head, open_ch, close_ch, allow_empty, term)


_LAMBDA = _term_kind("L", "[", "]", allow_empty=True)
_GAMMA = _term_kind("a", "(", ")", allow_empty=False)


def _error(message: str, text: str, pos: int) -> ParseError:
    """A ParseError at the 1-based line and column of offset pos."""
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


def _found(text: str, pos: int) -> str:
    return repr(text[pos]) if pos < len(text) else "end of input"


def _diagnose(text: str, pos: int, kind: _TermKind) -> NoReturn:
    """Raise the ParseError for the term (and the '+' after it) that
    starts at pos, found by matching the grammar's pieces one by one."""

    def skip(at: int) -> int:
        return _SPACE_RE.match(text, at).end()

    def expect(token: str, at: int) -> int:
        if not text.startswith(token, at):
            raise _error(f"expected {token!r}, found {_found(text, at)}", text, at)
        return at + 1

    def integer(at: int) -> int:
        at = skip(at)
        digits = _INT_RE.match(text, at)
        if digits is None:
            if text.startswith("-", at):
                raise _error("negative index rejected", text, at)
            raise _error(f"expected integer, found {_found(text, at)}", text, at)
        if _INT_RE.match(text, digits.end()):
            raise _error(f"integer has more than {MAX_DIGITS} digits", text, at)
        return skip(digits.end())

    pos = skip(expect(kind.head, skip(pos)))
    pos = skip(expect(kind.open, pos))
    if not (kind.allow_empty and text.startswith(kind.close, pos)):
        pos = integer(pos)
        while text.startswith(",", pos):
            pos = integer(pos + 1)
    pos = skip(expect(kind.close, pos))
    if pos < len(text):
        expect("+", pos)
    raise AssertionError(f"the term pattern refused a well-formed term at {pos}")


def _parse(text: str, kind: _TermKind) -> frozenset:
    pos = _SPACE_RE.match(text).end()
    if text.startswith("0", pos):
        pos = _SPACE_RE.match(text, pos + 1).end()
        if pos < len(text):
            raise _error("trailing input after zero element", text, pos)
        return frozenset()
    if pos == len(text):
        raise _error("empty input", text, pos)
    term, end = kind.term.match, len(text)
    acc: set[tuple[int, ...]] = set()
    while True:
        match = term(text, pos)
        if match is None:
            _diagnose(text, pos, kind)
        indices = match.group(1)
        t = tuple(map(int, indices.split(","))) if indices else ()
        if t in acc:  # repeated terms cancel mod 2
            acc.remove(t)
        else:
            acc.add(t)
        if match.end() == end:
            return frozenset(acc)
        if text[match.end()] != "+":
            _diagnose(text, pos, kind)
        pos = match.end() + 1


def parse_lambda(text: str) -> la.LambdaElement:
    """Parse a Lambda element; duplicate terms cancel mod 2."""
    return _parse(text, _LAMBDA)


def parse_gamma(text: str, rank: Optional[int] = None) -> dp.GammaElement:
    """Parse a divided-power element whose terms must have the given
    arity or, without a rank, one arity they all share; a zero element
    has none to share."""
    if rank is not None and rank < 1:
        raise ValueError("rank must be at least 1")
    e = _parse(text, _GAMMA)
    if rank is None:
        ranks = {len(m) for m in e}
        if not ranks:
            raise ParseError("cannot infer the rank of a zero element; "
                             "pass the rank explicitly", 1, 1)
        if len(ranks) > 1:
            raise ParseError("terms of mixed arity", 1, 1)
        return e
    for m in e:
        if len(m) != rank:
            raise ParseError(
                f"term has arity {len(m)}, expected {rank}", 1, 1
            )
    return e


def serialize_word(w: la.LambdaMonomial) -> str:
    return "L[" + ",".join(map(str, w)) + "]"


def serialize_lambda(e: la.LambdaElement) -> str:
    if not e:
        return "0"
    return " + ".join(map(serialize_word, sorted(e)))


def serialize_gamma(e: dp.GammaElement) -> str:
    if not e:
        return "0"
    return " + ".join(
        "a(" + ",".join(map(str, m)) + ")" for m in sorted(e, reverse=True)
    )


def parse_document(text: str) -> frozenset:
    """Parse element text of the kind its first term names: a Lambda
    element, or a divided-power element of the rank its terms share.
    A bare "0" names no kind and is refused."""
    stripped = text.lstrip()
    if stripped.startswith("L"):
        return parse_lambda(text)
    if stripped.startswith("a"):
        return parse_gamma(text)
    raise ParseError("cannot infer element kind", 1, 1)


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
