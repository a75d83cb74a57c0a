"""The benchmark's tracer, perfbench/spans.py, wraps package attributes
by name and reads fields of their results.  These tests pin what it
needs, so that removing code from the package cannot silently break
`perfbench/run.py --trace 1`.  They read perfbench/ and change nothing
there: the tracer is loaded, never installed."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltk
import ltk.cli  # noqa: F401  (the package does not import its front end)
from ltk import f2core, homology
from ltk import lambda_algebra as la

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    for module_name, attrs in spans.TRACED.items():
        for attr in attrs:
            target = getattr(ltk, module_name)
            for part in attr.split("."):  # "Class.method" names a method
                target = getattr(target, part)
            assert callable(target), f"{module_name}.{attr}"


def test_slice_counter_reads_a_slice(spans):
    counter = spans.COUNTERS["homology.slice_at"]
    counts = dict(counter((3, 4), homology.slice_at(3, 4), set()))
    words = sum(len(la.admissible_basis(s, d)) for s, d in ((2, 5), (3, 4), (4, 3)))
    assert counts == {"homology.slices_built": 1, "homology.slice_words": words}


def test_f2core_counters_run_on_each_traced_call(spans):
    # each wrapped call must run, and its counter read its matrix argument
    m = f2core.BitMatrix(3, 4, (0b0011, 0b0110, 0b0101))
    calls = {
        "f2core.rank": ((m,), f2core.rank(m)),
        "f2core.solve": ((m, 0b101), f2core.solve(m, 0b101)),
        "f2core.BitMatrix.transpose": ((m,), m.transpose()),
    }
    assert set(calls) == {f"f2core.{attr}" for attr in spans.TRACED["f2core"]}
    for name, (args, result) in calls.items():
        counts = dict(spans.COUNTERS[name](args, result, set()))
        assert counts == {"f2core.calls": 1, "f2core.matrix_bits": 3 * 4}, name


def test_installed_tracer_records_spans_and_counts():
    # installing rewrites module and class attributes, so it runs in a
    # fresh interpreter; BitMatrix is a NamedTuple, its method replaced
    # on the class
    probe = f"""
import importlib.util, json, ltk, ltk.cli
spec = importlib.util.spec_from_file_location("perfbench_spans", {str(SPANS)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install(ltk)
tracer.op = 0
ltk.f2core.BitMatrix(2, 3, (1, 6)).transpose()
ltk.homology.slice_at(2, 5)
print(json.dumps(tracer.dump()))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(ltk.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    dump = json.loads(done.stdout)
    names = {span[0] for span in dump["spans"]}
    assert {"f2core.BitMatrix.transpose", "homology.slice_at",
            "lambda_algebra.admissible_basis"} <= names
    counts = {metric: n for _, metric, n in dump["counts"]}
    assert counts["f2core.matrix_bits"] == 2 * 3
    assert counts["homology.slices_built"] == 1
