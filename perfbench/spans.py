"""Spans around the calls between ltk's modules, recorded from outside.

`Tracer.install` replaces module attributes (and two methods) through
which the package calls itself with wrappers that record one span per
call: name, start, end, parent span and operation id.  Calls inside a
module go through the module's globals, which are the same attributes,
so nested calls nest their spans too.  Spans stay in memory until the
child process writes them out; `layer_metrics` turns one round of spans
into the per-layer metrics.
"""

from __future__ import annotations

import time
from collections import defaultdict

# module -> attributes wrapped; "Class.method" wraps a method on the class
TRACED = {
    "f2core": ("rank", "solve", "BitMatrix.transpose"),
    "lambda_algebra": ("normalize", "product", "differential", "sq0", "admissible_basis"),
    "homology": ("slice_at", "ext_dimension", "boundary_witness", "is_cycle",
                 "same_class", "class_nonzero"),
    "divided_power": ("is_primitive", "sq_right"),
    "transfer": ("psi", "verify_detection"),
    "catalog": ("entry",),
    "elements_io": ("parse_lambda", "parse_gamma", "parse_document",
                    "serialize_lambda", "serialize_gamma", "emit_report"),
    "cli": ("run",),
}

# span name -> per-layer time metric its self time adds to
TIME_METRIC = {
    "f2core.rank": "f2core.rank_s",
    "f2core.solve": "f2core.solve_s",
    "f2core.BitMatrix.transpose": "f2core.transpose_s",
    "lambda_algebra.normalize": "lambda_algebra.normalize_s",
    "lambda_algebra.product": "lambda_algebra.product_s",
    "lambda_algebra.differential": "lambda_algebra.differential_s",
    "lambda_algebra.sq0": "lambda_algebra.sq0_s",
    "lambda_algebra.admissible_basis": "lambda_algebra.admissible_basis_s",
    "homology.slice_at": "homology.slice_at_s",
    "homology.ext_dimension": "homology.ext_dimension_s",
    "homology.boundary_witness": "homology.boundary_witness_s",
    "divided_power.is_primitive": "divided_power.is_primitive_s",
    "divided_power.sq_right": "divided_power.sq_right_s",
    "transfer.psi": "transfer.psi_s",
    "transfer.verify_detection": "transfer.verify_detection_s",
    "catalog.entry": "catalog.entry_s",
    "elements_io.parse_lambda": "elements_io.parse_s",
    "elements_io.parse_gamma": "elements_io.parse_s",
    "elements_io.parse_document": "elements_io.parse_s",
    "elements_io.serialize_lambda": "elements_io.serialize_s",
    "elements_io.serialize_gamma": "elements_io.serialize_s",
    "elements_io.emit_report": "elements_io.emit_report_s",
}

COUNT_METRICS = (
    "f2core.calls", "f2core.matrix_bits", "lambda_algebra.normalize_calls",
    "lambda_algebra.basis_words", "homology.slices_built", "homology.slice_words",
    "homology.boundary_witness_calls", "transfer.psi_calls", "transfer.psi_terms",
)

SELF_METRICS = tuple(f"{module}.self_s" for module in TRACED)

# every per-layer metric and its unit, in report order
PER_LAYER = (
    [(name, "s") for name in dict.fromkeys(TIME_METRIC.values())]
    + [(name, "bits" if name.endswith("_bits") else "count") for name in COUNT_METRICS]
    + [(name, "s") for name in SELF_METRICS]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.unattributed_s", "s"), ("trace.spans", "count")]
)


def _f2core(args, result, seen):
    yield "f2core.calls", 1
    # every wrapped f2core call takes a BitMatrix first
    yield "f2core.matrix_bits", args[0].rows * args[0].cols


def _first(name, args, seen) -> bool:
    """Whether this call's arguments are new; the package caches the others."""
    key = (name, args)
    if key in seen:
        return False
    seen.add(key)
    return True


def _admissible_basis(args, result, seen):
    if _first("admissible_basis", args, seen):
        yield "lambda_algebra.basis_words", len(result)


def _slice_at(args, result, seen):
    if _first("slice_at", args, seen):
        yield "homology.slices_built", 1
        yield "homology.slice_words", (len(result.basis) + len(result.prev_basis)
                                       + len(result.next_basis))


def _psi(args, result, seen):
    yield "transfer.psi_calls", 1
    yield "transfer.psi_terms", len(result)


# span name -> counts recorded where the call returns: (args, result, seen)
# -> (metric, increment) pairs; `seen` holds what _first has met so far
COUNTERS = {
    **{f"f2core.{attr}": _f2core for attr in TRACED["f2core"]},
    "lambda_algebra.normalize": lambda args, result, seen: [("lambda_algebra.normalize_calls", 1)],
    "lambda_algebra.admissible_basis": _admissible_basis,
    "homology.slice_at": _slice_at,
    "homology.boundary_witness": lambda args, result, seen: [("homology.boundary_witness_calls", 1)],
    "transfer.psi": _psi,
}


class Tracer:
    """Records spans in memory; `op` is the id of the running operation."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: dict = defaultdict(int)  # (op id, metric) -> count
        self.op = -1
        self._stack = [-1]
        self._seen: set = set()  # (name, args) of cached calls met so far

    def install(self, package) -> None:
        for module_name, attrs in TRACED.items():
            module = getattr(package, module_name)
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                setattr(target, leaf, self._wrap(f"{module_name}.{attr}", getattr(target, leaf)))

    def _wrap(self, name, fn):
        spans, stack, counts, seen = self.spans, self._stack, self.counts, self._seen
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self.op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for metric, n in counter(args, result, seen):
                    counts[(self.op, metric)] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": [[op, metric, n] for (op, metric), n in self.counts.items()]}


def layer_metrics(recorded: list, counts: list, ops: set, op_time: float) -> dict:
    """Per-layer metrics of the spans and counts that belong to `ops`.

    A span's self time is its duration minus its children's; the time of
    the operations that no top-level span covers is reported as
    `trace.unattributed_s`, so the module self times and it sum to
    `trace.wall_s`.
    """
    out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER}
    child_time = defaultdict(float)
    top_level = 0.0
    kept = [(i, s) for i, s in enumerate(recorded) if s[4] in ops]
    for _, (name, start, end, parent, _) in kept:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            top_level += end - start
    for i, (name, start, end, _, _) in kept:
        self_time = end - start - child_time[i]
        out[name.split(".")[0] + ".self_s"] += self_time
        if name in TIME_METRIC:
            out[TIME_METRIC[name]] += self_time
    for op, metric, n in counts:
        if op in ops:
            out[metric] += n
    out["trace.wall_s"] = op_time
    out["trace.unattributed_s"] = op_time - top_level
    out["trace.spans"] = len(kept)
    return out
