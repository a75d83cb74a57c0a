"""Named generators, detection candidates, and stored boundary witnesses.

The elements themselves live in data files under catalog_data/ in the
.f2elt grammar, so a transcription fix never requires touching code.
Entries are validated against their declared bidegree on load; deeper
claims about them (being cycles, being primitive) are treated as claims
to verify, not as ground truth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from . import elements_io

LAMBDA = "lambda"
GAMMA = "gamma"

# name -> (kind, homological length / rank, internal degree)
_INDEX: dict[str, tuple[str, int, int]] = {
    "h0": (LAMBDA, 1, 0),
    "h1": (LAMBDA, 1, 1),
    "h2": (LAMBDA, 1, 3),
    "h3": (LAMBDA, 1, 7),
    "h4": (LAMBDA, 1, 15),
    "c0": (LAMBDA, 3, 8),
    "d0": (LAMBDA, 4, 14),
    "e0_paper": (LAMBDA, 4, 17),
    "e0_lin": (LAMBDA, 4, 17),
    "g1": (LAMBDA, 4, 20),
    "witness_i": (LAMBDA, 4, 15),
    "witness_ii": (LAMBDA, 4, 21),
    "u14": (GAMMA, 5, 14),
    "u20": (GAMMA, 5, 20),
    "u24": (GAMMA, 5, 24),
}

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "lambda" | "gamma"
    bidegree: tuple[int, int]  # (length s | rank, internal degree d)
    element: frozenset


def names() -> tuple[str, ...]:
    return tuple(_INDEX)


def _read(name: str) -> str:
    path = resources.files("ltk").joinpath("catalog_data", f"{name}.f2elt")
    return path.read_text(encoding="utf-8")


@functools.cache
def entry(name: str) -> CatalogEntry:
    """Load one catalog entry, checking it against its declared bidegree."""
    if name not in _INDEX:
        raise KeyError(f"no catalog entry named {name!r}")
    kind, s, d = _INDEX[name]
    text = _read(name)
    if kind == LAMBDA:
        e = elements_io.parse_lambda(text)
        lengths = {len(w) for w in e}
        degrees = {sum(w) for w in e}
    else:
        e = elements_io.parse_gamma(text, rank=s)
        lengths = {len(m) for m in e}
        degrees = {sum(m) for m in e}
    if lengths != {s} or degrees != {d}:
        raise ValueError(
            f"catalog entry {name!r} does not match its declared bidegree ({s}, {d})"
        )
    return CatalogEntry(name, kind, (s, d), e)
