"""The three workloads: their inputs, made from a seed, and their checks.

A workload is a list of jobs; each job is one fresh interpreter running
a list of operations (see child.py for the operation kinds and for
``repeat``).  Besides what the child needs, an operation may carry what
the benchmark needs:

* ``check``  -- which check its output must pass, and the data for it;
* ``timed``  -- False for an operation that is run and checked but left
  out of wall_s: it fills the caches that the timed operations reuse.

`check(op, output)` returns None for a correct output and a one-line
description of the first problem otherwise.  Every check is computed
with reference.py or from a published property, never from a stored
copy of the package's output.
"""

from __future__ import annotations

import json
import os
import random

import reference as ref

# verify --class: detection input, target factors in composition order
CLASSES = {
    "h0d0": ("u14", ("d0", "h0")),
    "h2e0": ("u20", ("e0_paper", "h2")),
    "h1h4c0": ("u24", ("c0", "h4", "h1")),
}
# Ext^(5, stem) is one-dimensional at stems 14, 20 and 24 (published chart)
PUBLISHED_EXT = 1
CHART_T = 21  # chart cells s + d <= CHART_T: 253 cells, a few seconds
ALGEBRA_OPS = 1200
ALGEBRA_SHAPES = [(s, d) for s in (2, 3) for d in range(16, 31, 2)]
ALGEBRA_BASIS_GRID = [(s, d) for s in range(1, 7) for d in range(20)]


def catalog_text(root: str, name: str) -> str:
    path = os.path.join(root, "src", "ltk", "catalog_data", f"{name}.f2elt")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _report(output: dict, code: int):
    """The JSON report on stdout, or a problem if the exit code is wrong."""
    if output["code"] != code:
        return None, f"exit code {output['code']}, expected {code}: {output['stderr'][-200:]}"
    try:
        return json.loads(output["stdout"]), None
    except ValueError:
        return None, "stdout is not one JSON document"


# --------------------------------------------------------------------------
# detect

def detect(root: str, seed: int, tmp: str) -> list:
    """One interpreter.  It first certifies the three genuine inputs (cold:
    this builds the slices; checked, not timed), then runs passes of the
    same warm operations until its deadline: each certificate again and
    every single-deletion mutant of each input, in seeded order."""
    rng = random.Random(seed)
    cold, warm = [], []
    for cls, (u_name, factors) in CLASSES.items():
        u = ref.parse_gamma(catalog_text(root, u_name))
        target = frozenset({()})
        for f in factors:
            target = ref.concat(target, ref.parse_lambda(catalog_text(root, f)))
        certificate = {"kind": "cli", "argv": ["verify", "--class", cls, "--format", "json"],
                       "check": "certificate", "u": sorted(u), "target": sorted(target)}
        cold.append(dict(certificate, timed=False))
        warm.append(dict(certificate, repeat=True))
        for i, m in enumerate(sorted(u)):
            path = os.path.join(tmp, f"{cls}_minus_{i}.f2elt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(ref.gamma_text(u - {m}))
            warm.append({"kind": "cli", "check": "mutant", "u": sorted(u), "removed": list(m),
                         "argv": ["verify", "--class", cls, "--in", path, "--format", "json"],
                         "repeat": True})
    rng.shuffle(cold)
    rng.shuffle(warm)
    return [cold + warm]


def check_certificate(op, output):
    report, problem = _report(output, 0)
    if problem:
        return problem
    if report["verdict"] != "verified":
        return f"verdict {report['verdict']}"
    if report["ext_dim"]["computed"] != PUBLISHED_EXT:
        return f"Ext dimension {report['ext_dim']['computed']}, published {PUBLISHED_EXT}"
    if not (report["primitive"]["holds"] and report["is_cycle"] and report["target"]["nonzero"]):
        return "a sub-check of the verified certificate is false"
    if not ref.is_primitive({tuple(m) for m in op["u"]}):
        return "the input is not primitive by polynomial duality"
    psi = ref.parse_lambda(report["psi_image"])
    target = ref.parse_lambda(report["target"]["element"])
    if target != {tuple(w) for w in op["target"]}:
        return "target differs from the product of its catalog factors"
    if ref.differential(psi):
        return "psi image is not a cycle"
    witness = ref.parse_lambda(report["witness"] or "")
    if ref.differential(witness) != ref.normalize(psi ^ target):
        return "d(witness) != psi image + target"
    return None


def check_mutant(op, output):
    report, problem = _report(output, 1)
    if problem:
        return problem
    if report["verdict"] != "falsified":
        return f"mutant reported {report['verdict']}"
    failed = [line[len("failed: "):].split(", ") for line in output["stderr"].splitlines()
              if line.startswith("failed: ")]
    if not failed:
        return "no failing check named"
    u = {tuple(m) for m in op["u"]}
    # primitivity is linear: with u primitive, u - m is primitive iff a^(m) is
    not_primitive = bool(ref.primitivity_defect(u) ^ ref.primitivity_defect({tuple(op["removed"])}))
    if ("primitive" in failed[0]) != not_primitive:
        return f"failed checks {failed[0]} disagree with the primitivity reference"
    return None


# --------------------------------------------------------------------------
# chart

def chart(root: str, seed: int, tmp: str) -> list:
    """One interpreter computes Ext at every cell with s + d <= CHART_T, one
    operation per topological degree t = s + d, in seeded order."""
    order = list(range(CHART_T + 1))
    random.Random(seed).shuffle(order)
    return [[{"kind": "chart", "t": t, "check": "chart"}
             for t in order]]


def check_chart(op, output):
    t, dims = op["t"], output["dims"]
    if len(dims) != t + 1 or min(dims) < 0:
        return f"malformed dimensions at t = {t}"
    euler_chains = sum((-1) ** s * ref.admissible_count(s, t - s) for s in range(t + 1))
    euler_ext = sum((-1) ** s * dim for s, dim in enumerate(dims))
    if euler_chains != euler_ext:
        return f"Euler characteristic at t = {t}: chains {euler_chains}, Ext {euler_ext}"
    if dims[t] != 1:
        return f"ext({t}, 0) = {dims[t]}, h0^{t} spans it"
    if t >= 1 and dims[0] != 0:
        return f"ext(0, {t}) = {dims[0]}"
    if t >= 1 and dims[1] != (1 if (t & (t - 1)) == 0 else 0):
        return f"ext(1, {t - 1}) = {dims[1]}: nonzero exactly at stems 2^i - 1"
    if t >= 2 and dims[2] != ref.adams_h_pairs(t - 2):
        return f"ext(2, {t - 2}) = {dims[2]}, Adams' h_i h_j count is {ref.adams_h_pairs(t - 2)}"
    return None


# --------------------------------------------------------------------------
# algebra

def algebra(root: str, seed: int, tmp: str) -> list:
    """One interpreter enumerates the admissible bases of a fixed grid of
    bidegrees, once each, in seeded order.  It then puts ALGEBRA_OPS pairs
    of seeded random elements through the Lambda algebra, in passes until
    its deadline.  Each element is a sum of three uniformly drawn
    admissible words of a shape (length, degree) taken in turn from
    ALGEBRA_SHAPES, so the cost of a pass barely depends on the seed."""
    rng = random.Random(seed)
    grid = list(ALGEBRA_BASIS_GRID)
    rng.shuffle(grid)

    def element(shape):
        return [list(ref.random_admissible(rng, *shape)) for _ in range(3)]

    n = len(ALGEBRA_SHAPES)
    return [[{"kind": "basis", "basis": list(bidegree), "check": "basis"} for bidegree in grid]
            + [{"kind": "algebra", "x": element(ALGEBRA_SHAPES[i % n]),
                "y": element(ALGEBRA_SHAPES[(7 * i + 3) % n]),
                "check": "algebra", "repeat": True} for i in range(ALGEBRA_OPS)]]


def check_algebra(op, output):
    x, y = ref.element(op["x"]), ref.element(op["y"])
    expected = {"xy": ref.concat(x, y), "dx": ref.differential(x), "sx": ref.square(x)}
    for key, value in expected.items():
        if frozenset(tuple(w) for w in output[key]) != value:
            return f"{key} differs from the reference"
    for name, holds in output["properties"].items():
        if not holds:
            return f"property fails: {name}"
    if len(output["properties"]) != 7:
        return "properties missing"
    return None


def check_basis(op, output):
    s, d = op["basis"]
    basis = [tuple(w) for w in output["basis"]]
    if (len(basis) != ref.admissible_count(s, d) or basis != sorted(set(basis))
            or not all(len(w) == s and sum(w) == d and ref.is_admissible(w) for w in basis)):
        return f"admissible basis at ({s}, {d}) is wrong"
    return None


WORKLOADS = {"detect": detect, "chart": chart, "algebra": algebra}
CHECKS = {
    "certificate": check_certificate, "mutant": check_mutant, "chart": check_chart,
    "algebra": check_algebra, "basis": check_basis,
}


def check(op: dict, result: dict):
    """None if the operation ran and its output is correct, else the problem."""
    if result.get("error"):
        return result["error"]
    try:
        return CHECKS[op["check"]](op, result["out"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
