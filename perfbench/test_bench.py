"""Tests of the benchmark itself: a wrong answer must count as a failed
operation, and the reference computations and span accounting must hold.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of a source checkout; a few tests run the package
from ./src to obtain genuine outputs, which they then corrupt.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def ltk_package():
    import ltk
    import ltk.cli  # noqa: F401

    return ltk


def text_output(code: int, report: dict, stderr: str = "") -> dict:
    return {"code": code, "stdout": json.dumps(report), "stderr": stderr}


class ReferenceTest(unittest.TestCase):
    def test_relations_and_differential(self):
        self.assertEqual(ref.normalize([(0, 1)]), frozenset())  # lam_0 lam_1 = 0
        self.assertEqual(ref.normal_form((1, 3)), frozenset())  # lam_1 lam_3 = 0
        self.assertEqual(ref.normal_form((1, 4)), frozenset({(2, 3)}))
        self.assertEqual(ref.generator_differential(2), frozenset({(1, 0)}))
        rng = random.Random(5)
        for _ in range(50):
            x = {ref.random_word(rng, rng.randint(1, 3), rng.randint(0, 12)) for _ in range(2)}
            self.assertEqual(ref.differential(ref.differential(x)), frozenset())

    def test_admissible_count_matches_enumeration(self):
        for s in range(5):
            for d in range(12):
                words = [w for w in _all_words(s, d) if ref.is_admissible(w)]
                self.assertEqual(ref.admissible_count(s, d), len(words), (s, d))

    def test_primitivity_by_duality(self):
        self.assertTrue(ref.is_primitive({(3,)}))       # Sq^1 a^(3) = C(2, 1) a^(2) = 0
        self.assertFalse(ref.is_primitive({(2,)}))      # Sq^1 a^(2) = a^(1)
        self.assertTrue(ref.is_primitive({(1, 0), (0, 1)}))
        self.assertTrue(ref.is_primitive({(1, 1)}))       # Cartan: both terms vanish
        self.assertFalse(ref.is_primitive({(2, 0), (1, 1)}))

    def test_adams_count(self):
        self.assertEqual([ref.adams_h_pairs(n) for n in (0, 1, 2, 3, 4, 6, 14)],
                         [1, 0, 1, 1, 0, 1, 1])


def _all_words(s, d):
    if s == 0:
        if d == 0:
            yield ()
        return
    for t in range(d + 1):
        for rest in _all_words(s - 1, d - t):
            yield (t,) + rest


class WrongAnswerTest(unittest.TestCase):
    """Genuine outputs pass; each corrupted one is named as a problem."""

    def test_flipped_ext_dimension(self):
        ltk = ltk_package()
        for t in (5, 9):
            op = {"kind": "chart", "t": t, "check": "chart"}
            out = child.run_chart(ltk, op, [])
            self.assertIsNone(workloads.check(op, {"out": out, "error": None}))
            for s in range(t + 1):
                wrong = {"dims": list(out["dims"])}
                wrong["dims"][s] ^= 1
                self.assertIsNotNone(workloads.check(op, {"out": wrong, "error": None}), (t, s))

    def _detect_ops(self):
        with tempfile.TemporaryDirectory() as tmp:
            jobs = workloads.detect(ROOT, 1, tmp)
            cold = next(op for op in jobs[0] if op["argv"][2] == "h0d0" and not op.get("repeat"))
            mutant = next(op for op in jobs[0] if op["argv"][2] == "h0d0" and "--in" in op["argv"])
            ltk = ltk_package()
            return [(op, child.run_cli(ltk, op, [])) for op in (cold, mutant)]

    def test_mutant_reported_verified(self):
        _, (mutant, out) = self._detect_ops()
        self.assertIsNone(workloads.check(mutant, {"out": out, "error": None}))
        report = json.loads(out["stdout"])
        report["verdict"] = "verified"
        self.assertIsNotNone(workloads.check(mutant, {"out": text_output(0, report), "error": None}))
        self.assertIsNotNone(workloads.check(mutant, {"out": text_output(1, report, out["stderr"]),
                                                      "error": None}))
        unnamed = dict(out, stderr="")
        self.assertIsNotNone(workloads.check(mutant, {"out": unnamed, "error": None}))
        misnamed = dict(out, stderr="failed: class-equality\n")
        self.assertIn("primitivity reference",
                      workloads.check(mutant, {"out": misnamed, "error": None}))

    def test_certificate_with_a_wrong_witness(self):
        (cert, out), _ = self._detect_ops()
        self.assertIsNone(workloads.check(cert, {"out": out, "error": None}))
        report = json.loads(out["stdout"])
        witness = ref.parse_lambda(report["witness"])
        report["witness"] = ref.lambda_text(witness ^ {(7, 3, 3, 2)})
        self.assertIn("witness", workloads.check(cert, {"out": text_output(0, report),
                                                        "error": None}))
        report = json.loads(out["stdout"])
        report["ext_dim"]["computed"] = 2
        self.assertIn("Ext dimension", workloads.check(cert, {"out": text_output(0, report),
                                                              "error": None}))

    def test_algebra_reference_and_properties(self):
        ops = workloads.algebra(ROOT, 3, None)[0]
        ltk = ltk_package()
        op = next(op for op in ops if op["kind"] == "algebra")
        out = json.loads(json.dumps(child._jsonable(child.algebra_report(
            child.run_algebra(ltk, op, [])))))
        self.assertIsNone(workloads.check(op, {"out": out, "error": None}))
        wrong = dict(out, dx=out["dx"] + [[0, 0]])
        self.assertIn("reference", workloads.check(op, {"out": wrong, "error": None}))
        wrong = dict(out, properties=dict(out["properties"], **{"Leibniz rule": False}))
        self.assertIn("Leibniz", workloads.check(op, {"out": wrong, "error": None}))
        op = next(op for op in ops if op["kind"] == "basis" and op["basis"] == [3, 10])
        out = json.loads(json.dumps(child._jsonable(child.run_basis(ltk, op, []))))
        self.assertIsNone(workloads.check(op, {"out": out, "error": None}))
        wrong = dict(out, basis=out["basis"][:-1])
        self.assertIn("basis", workloads.check(op, {"out": wrong, "error": None}))

    def test_errors_and_malformed_outputs_fail(self):
        op = {"check": "chart", "t": 3}
        self.assertIsNotNone(workloads.check(op, {"out": None, "error": "ValueError: x"}))
        self.assertIsNotNone(workloads.check(op, {"out": {}, "error": None}))


class _StubRun:
    """Stands in for run.Run: hands out prepared results instead of processes."""

    def __init__(self, results):
        self.results = results

    def job(self, ops, traced, index, deadline=None):
        results = self.results[index]
        if results is None:
            return None, None, None, "crashed"
        return results, {"maxrss_kb": 20480, "reference_s": 0.004}, None, None


class CountingTest(unittest.TestCase):
    def test_wrong_answers_and_crashes_count_as_failed(self):
        ops = [{"kind": "chart", "t": t, "check": "chart"}
               for t in (0, 1, 2)]
        good = [{"op": t, "s": 0.1, "parts": [0.1], "out": {"dims": d}, "error": None}
                for t, d in enumerate(([1], [0, 1], [0, 1, 1]))]
        wrong = [dict(good[0]), dict(good[1]), dict(good[2], out={"dims": [0, 1, 0]})]
        round_ = run.run_round(_StubRun([good, wrong, None]), [ops, ops, ops], False, {})
        self.assertEqual(round_["attempted"], 9)
        self.assertEqual(round_["failed"], 1 + 3)
        self.assertAlmostEqual(round_["wall"], 0.6)

    def test_fastest_total_takes_each_part_at_its_best(self):
        ops = [{"kind": "chart", "t": 1, "check": "chart", "timed": False},
               {"kind": "chart", "t": 1, "check": "chart", "repeat": True},
               {"kind": "chart", "t": 1, "check": "chart", "repeat": True}]

        def result(op, parts):
            return {"op": op, "s": sum(parts), "parts": parts, "out": {"dims": [0, 1]},
                    "error": None}

        rounds = [run.run_round(_StubRun([[result(0, [0.01])] + [
                      result(op, parts) for op, parts in zip((1, 2) * len(passes), passes)]]),
                                [ops], False, {})
                  for passes in (([0.3, 0.1], [0.5, 0.6], [0.4, 0.7], [0.9, 0.2]),
                                 ([0.2, 0.4], [0.6, 0.3]))]
        self.assertEqual([r["attempted"] for r in rounds], [5, 3])
        # operation 1: parts 0.2 and 0.1 (passes of both rounds); operation 2: 0.5 and 0.2
        self.assertAlmostEqual(run.fastest_total(rounds), 0.2 + 0.1 + 0.5 + 0.2)

    def test_run_order_accepts_only_whole_passes(self):
        ops = [{}, {"repeat": True}, {"repeat": True}]
        self.assertEqual(run.run_order(ops, 5), [0, 1, 2, 1, 2])
        self.assertIsNone(run.run_order(ops, 4))
        self.assertIsNone(run.run_order(ops, 1))
        self.assertEqual(run.run_order([{}, {}], 2), [0, 1])
        self.assertIsNone(run.run_order([{}, {}], 3))

    def test_a_repeated_wrong_output_stays_failed(self):
        ops = [{"kind": "chart", "t": 2, "check": "chart"}]
        wrong = [{"op": 0, "s": 0.1, "parts": [0.1], "out": {"dims": [0, 0, 1]}, "error": None}]
        verdicts = {}
        for _ in range(3):
            self.assertEqual(run.run_round(_StubRun([wrong]), [ops], False, verdicts)["failed"], 1)


class SpanAccountingTest(unittest.TestCase):
    def test_self_times_and_unattributed_sum_to_wall(self):
        recorded = [
            ["cli.run", 0.0, 10.0, -1, 0],
            ["transfer.verify_detection", 1.0, 9.0, 0, 0],
            ["f2core.rank", 2.0, 5.0, 1, 0],
            ["f2core.BitMatrix.transpose", 5.0, 6.0, 1, 0],
            ["homology.ext_dimension", 12.0, 13.0, -1, 1],
            ["f2core.rank", 0.0, 100.0, -1, 7],  # another operation: left out
        ]
        counts = [[0, "f2core.calls", 2], [7, "f2core.calls", 1]]
        m = spans.layer_metrics(recorded, counts, {0, 1}, 14.0)
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["transfer.verify_detection_s"], 4.0)
        self.assertEqual(m["f2core.rank_s"], 3.0)
        self.assertEqual(m["f2core.transpose_s"], 1.0)
        self.assertEqual(m["f2core.self_s"], 4.0)
        self.assertEqual(m["f2core.calls"], 2)
        self.assertEqual(m["trace.unattributed_s"], 3.0)
        self.assertEqual(m["trace.spans"], 5)
        self_total = sum(m[name] for name in spans.SELF_METRICS)
        self.assertEqual(self_total + m["trace.unattributed_s"], m["trace.wall_s"])

    def test_tracer_nests_spans_through_module_globals(self):
        ltk = ltk_package()
        tracer = spans.Tracer()
        saved = {(module, attr): _lookup(ltk, module, attr)
                 for module, attrs in spans.TRACED.items() for attr in attrs}
        ltk.homology.ext_dimension.cache_clear()
        ltk.homology.slice_at.cache_clear()
        try:
            tracer.install(ltk)
            tracer.op = 0
            ltk.homology.ext_dimension(3, 4)
        finally:
            for (module, attr), fn in saved.items():
                owner, _, leaf = attr.rpartition(".")
                target = getattr(getattr(ltk, module), owner) if owner else getattr(ltk, module)
                setattr(target, leaf, fn)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[0], "homology.ext_dimension")
        self.assertIn("homology.slice_at", names)
        self.assertIn("lambda_algebra.normalize", names)
        parents = {s[0]: s[3] for s in tracer.spans}
        self.assertEqual(parents["homology.slice_at"], 0)


def _lookup(ltk, module, attr):
    owner, _, leaf = attr.rpartition(".")
    target = getattr(getattr(ltk, module), owner) if owner else getattr(ltk, module)
    return target.__dict__[leaf] if owner else getattr(target, leaf)


if __name__ == "__main__":
    unittest.main()
