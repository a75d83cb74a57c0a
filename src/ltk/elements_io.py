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

The parser accepts a whole element when one match of a compiled pattern
of the grammar, a sum of terms `L[...]` or `a(...)`, reaches the end of
the text, and then reads the index lists of its terms with one findall.
The pattern matches whole terms, each followed by a '+' or by the end,
so a match that stops short stops where the first refused term starts.
Only then does _diagnose walk the text from there, piece by piece with
the same piece patterns, to name what was expected and what was found;
the line and column of a ParseError are computed from that offset then,
and never on the way.

There is one reader per kind.  parse_lambda reads a Lambda element.
parse_gamma reads a divided-power element of a given rank, or, given
none, of the one rank its terms share.  parse_document picks between
them by the first term's head.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii
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
    """One term kind of the grammar, the compiled pattern of a sum of
    such terms, and the pattern that reads the index list of each term
    of a sum that pattern has accepted."""

    head: str
    open: str
    close: str
    allow_empty: bool
    terms: re.Pattern
    indices: re.Pattern


# the grammar's pieces; the term patterns and _diagnose are built from them
_SPACE = r"[ \t\r\n]*"  # not \s: it also matches '\x0b', '\x0c' and Unicode spaces
_INT = f"[0-9]{{1,{MAX_DIGITS}}}"  # not \d: it also matches '٣' and other Unicode digits
_SPACE_RE = re.compile(_SPACE)
_INT_RE = re.compile(_INT)


def _term_kind(head: str, open_ch: str, close_ch: str,
               allow_empty: bool) -> _TermKind:
    indices = f"{_INT}(?:{_SPACE},{_SPACE}{_INT})*{_SPACE}"
    if allow_empty:
        indices = f"(?:{indices})?"
    open_re, close_re = re.escape(open_ch), re.escape(close_ch)
    term = (_SPACE + re.escape(head) + _SPACE + open_re + _SPACE + indices
            + close_re + _SPACE)
    # each term is followed by a '+' and another term, or ends the text;
    # in accepted text, the brackets hold the indices, commas and spaces
    return _TermKind(head, open_ch, close_ch, allow_empty,
                     re.compile(rf"(?:{term}(?:\+(?!\Z)|\Z))+"),
                     re.compile(f"{open_re}{_SPACE}([^{close_re}]*){close_re}"))


_LAMBDA = _term_kind("L", "[", "]", allow_empty=True)
_GAMMA = _term_kind("a", "(", ")", allow_empty=False)


def _error(message: str, text: str, pos: int) -> ParseError:
    """A ParseError at the 1-based line and column of offset pos."""
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


def _found(text: str, pos: int) -> str:
    return repr(text[pos]) if pos < len(text) else "end of input"


def _diagnose(text: str, pos: int, kind: _TermKind) -> NoReturn:
    """Raise the ParseError for the terms, and the '+' between them, from
    pos on, found by matching the grammar's pieces one by one."""

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

    while True:
        pos = skip(expect(kind.head, skip(pos)))
        pos = skip(expect(kind.open, pos))
        if not (kind.allow_empty and text.startswith(kind.close, pos)):
            pos = integer(pos)
            while text.startswith(",", pos):
                pos = integer(pos + 1)
        pos = skip(expect(kind.close, pos))
        if pos == len(text):
            raise AssertionError("the sum pattern refused a well-formed element")
        pos = expect("+", pos)


def _parse(text: str, kind: _TermKind) -> frozenset:
    pos = _SPACE_RE.match(text).end()
    if text.startswith("0", pos):
        pos = _SPACE_RE.match(text, pos + 1).end()
        if pos < len(text):
            raise _error("trailing input after zero element", text, pos)
        return frozenset()
    if pos == len(text):
        raise _error("empty input", text, pos)
    whole = kind.terms.match(text, pos)
    if whole is None or whole.end() < len(text):
        # the terms matched are whole, each followed by a '+': the next
        # term, or the text after it, is refused
        _diagnose(text, whole.end() if whole else pos, kind)
    acc: set[tuple[int, ...]] = set()
    for indices in kind.indices.findall(text, pos):
        t = tuple(map(int, indices.split(","))) if indices else ()
        if t in acc:  # repeated terms cancel mod 2
            acc.remove(t)
        else:
            acc.add(t)
    return frozenset(acc)


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


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _write_json(v, level: int, out: list[str]) -> None:
    """Append v to out as json.dumps(v, indent=2) writes it.  The stdlib
    encoder runs in pure Python when it indents; this one dispatches on
    type() and knows only the types a report holds."""
    t = type(v)
    if t is str:
        out.append(encode_basestring_ascii(v))
    elif t is int:
        out.append(repr(v))
    elif t is bool or v is None:
        out.append(_JSON_CONSTANTS[v])
    elif t is dict or t is list:
        if not v:
            out.append("{}" if t is dict else "[]")
            return
        newline = "\n" + "  " * (level + 1)
        out.append("{" if t is dict else "[")
        for k, item in enumerate(v.items() if t is dict else v):
            out.append("," + newline if k else newline)
            if t is dict:
                key, item = item
                out.append(encode_basestring_ascii(key) + ": ")
            _write_json(item, level + 1, out)
        out.append("\n" + "  " * level + ("}" if t is dict else "]"))
    else:
        raise TypeError(f"{t.__name__} is not written in a report")


def emit_report(r: "DetectionReport", format: str = "text") -> str:
    """Render a detection report as human-readable text or JSON."""
    if format == "json":
        out: list[str] = []
        _write_json(_report_dict(r), 0, out)
        return "".join(out)
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
