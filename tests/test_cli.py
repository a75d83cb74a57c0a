from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltk import catalog, cli, elements_io, homology, transfer
from ltk import divided_power as dp
from ltk.cli import FALSIFIED, OK, USAGE, _parser, run
from ltk.lambda_algebra import product

from . import cli_diff
from .oracles import reference


@pytest.fixture()
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestElementCommands:
    def test_diff_two_letter_example(self, capture, tmp_path):
        path = write(tmp_path, "lambda2.f2elt", "L[2]")
        code, out, _ = capture("diff", "--in", path)
        assert code == OK
        assert out.strip() == "L[1,0]"

    def test_normalize(self, capture, tmp_path):
        path = write(tmp_path, "e.f2elt", "L[0,2]")
        code, out, _ = capture("normalize", "--in", path)
        assert code == OK
        assert out.strip() == "L[1,1]"

    def test_sq0(self, capture, tmp_path):
        path = write(tmp_path, "e.f2elt", "L[0]")
        code, out, _ = capture("sq0", "--in", path)
        assert code == OK
        assert out.strip() == "L[1]"

    def test_json_format(self, capture, tmp_path):
        path = write(tmp_path, "e.f2elt", "L[0,2]")
        code, out, _ = capture("normalize", "--in", path, "--format", "json")
        assert code == OK
        assert json.loads(out) == {"schema": 2, "element": "L[1,1]"}

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
    def test_normalize_deep_words(self, capture, tmp_path, fmt):
        # cli_diff's long words, rewritten up to ten rewrites deep, pass
        # the basis guard and are answered
        path = write(tmp_path, "deep.f2elt", cli_diff.DEEP)
        code, out, err = capture("normalize", "--in", path, *fmt)
        assert code == OK and err == ""
        text = json.loads(out)["element"] if fmt else out.strip()
        want = reference.normalize(elements_io.parse_lambda(cli_diff.DEEP))
        assert elements_io.parse_lambda(text) == want

    def test_steenrod(self, capture, tmp_path):
        path = write(tmp_path, "g.f2elt", "a(2)")
        code, out, _ = capture("steenrod", "--in", path, "--deg", "1")
        assert code == OK
        assert out.strip() == "a(1)"


class TestBasisAndHomology:
    def test_basis(self, capture):
        code, out, err = capture("basis", "--s", "2", "--deg", "2")
        assert code == OK
        assert out.splitlines() == ["L[1,1]", "L[2,0]"]
        assert "count = 2" in err

    def test_homology_dim(self, capture):
        code, out, _ = capture("homology", "--s", "5", "--deg", "14")
        assert code == OK
        assert out.strip() == "dim = 1"

    def test_homology_json(self, capture):
        code, out, _ = capture("homology", "--s", "1", "--deg", "2", "--format", "json")
        assert code == OK
        assert json.loads(out) == {"schema": 2, "s": 1, "deg": 2, "dim": 0}

    @pytest.mark.parametrize("command, deg, expected", [
        ("basis", "0", "L[" + ",".join(["0"] * 5000) + "]\n"),
        ("homology", "1", "dim = 0\n"),
    ], ids=["basis", "homology"])
    def test_very_long_words_computed_quickly(self, capture, command, deg, expected):
        start = time.perf_counter()
        code, out, _ = capture(command, "--s", "5000", "--deg", deg)
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (OK, expected)


class TestPrimitiveCommands:
    def test_primitive_check_pass(self, capture, tmp_path):
        path = write(tmp_path, "u24.f2elt",
                     elements_io.serialize_gamma(catalog.entry("u24").element))
        code, out, _ = capture("primitive-check", "--in", path)
        assert code == OK
        assert out.strip().endswith("primitive")

    def test_primitive_check_fail(self, capture, tmp_path):
        path = write(tmp_path, "bad.f2elt", "a(2)")
        code, out, _ = capture("primitive-check", "--in", path)
        assert code == FALSIFIED
        assert "not primitive" in out

    def test_primitive_basis(self, capture):
        code, out, err = capture("primitive-basis", "--rank", "1", "--deg", "3")
        assert code == OK
        assert out.strip() == "a(3)"
        assert "count = 1" in err

    def test_psi(self, capture, tmp_path):
        path = write(tmp_path, "g.f2elt", "a(3)")
        code, out, _ = capture("psi", "--in", path)
        assert code == OK
        assert out.strip() == "L[3]"


class TestVerify:
    def test_all_three_classes_verify(self, capture):
        for cls in ("h0d0", "h2e0", "h1h4c0"):
            code, out, _ = capture("verify", "--class", cls)
            assert code == OK, cls
            assert "verdict:        verified" in out

    def test_verify_json(self, capture):
        code, out, _ = capture("verify", "--class", "h0d0", "--format", "json")
        assert code == OK
        data = json.loads(out)
        assert data["verdict"] == "verified"
        assert data["target"]["name"] == "h0d0"

    def test_verify_deterministic(self, capture):
        _, out1, _ = capture("verify", "--class", "h0d0")
        _, out2, _ = capture("verify", "--class", "h0d0")
        assert out1 == out2

    def test_verify_custom_input_falsified(self, capture, tmp_path):
        u14 = catalog.entry("u14").element
        mutated = u14 ^ {min(u14)}
        path = write(tmp_path, "mut.f2elt", elements_io.serialize_gamma(mutated))
        code, out, err = capture("verify", "--class", "h0d0", "--in", path)
        assert code == FALSIFIED
        assert "falsified" in out
        assert "failed:" in err

    @pytest.mark.parametrize("case", ["mutant", "wrong-degree"])
    def test_verify_json_names_the_failed_checks(self, capture, tmp_path, case):
        u14 = catalog.entry("u14").element
        text = {"mutant": elements_io.serialize_gamma(u14 ^ {min(u14)}),
                "wrong-degree": "a(0,6,5,1,1)"}[case]
        path = write(tmp_path, "mut.f2elt", text)
        code, _, err = capture("verify", "--class", "h0d0", "--in", path)
        assert code == FALSIFIED
        code, out, json_err = capture("verify", "--class", "h0d0", "--in", path,
                                      "--format", "json")
        assert code == FALSIFIED
        assert json_err == err
        data = json.loads(out)
        assert data["failed_checks"]
        assert err == f"failed: {', '.join(data['failed_checks'])}\n"

    # input text, target (a class, or an element), expected Ext dimension,
    # and the failed checks in the order every output names them
    VERDICT_ORDER_CASES = {
        "non-primitive mutant": ("mutant", "h0d0", 1, ("primitive",)),
        "mixed degrees": ("a(0,6,5,2,1) + a(0,6,5,1,1)", "h0d0", 1,
                          ("primitive", "cycle", "class-equality")),
        "target not a cycle": ("u14", ((2,),), 1, ("target-cycle", "class-equality")),
        "target a boundary": ("u14", ((1, 0),), 1,
                              ("target-nonzero", "class-equality")),
        "class in another bidegree": ("u14", "h2e0", 1, ("class-equality",)),
        "expected dimension 2": ("u14", "h0d0", 2, ("ext-dimension",)),
        "mutant, non-cycle target, dimension 2": (
            "mutant", ((2,),), 2,
            ("primitive", "target-cycle", "class-equality", "ext-dimension")),
        "mixed degrees, boundary target, dimension 2": (
            "a(0,6,5,2,1) + a(0,6,5,1,1)", ((1, 0),), 2,
            ("primitive", "cycle", "target-nonzero", "class-equality",
             "ext-dimension")),
    }

    @pytest.mark.parametrize("case", VERDICT_ORDER_CASES)
    def test_every_output_names_the_failed_checks_in_one_order(
            self, capture, tmp_path, monkeypatch, case):
        text, target, expected_dim, failed = self.VERDICT_ORDER_CASES[case]
        u14 = catalog.entry("u14").element
        text = {"mutant": elements_io.serialize_gamma(u14 - {min(u14)}),
                "u14": elements_io.serialize_gamma(u14)}.get(text, text)
        target = (cli._class_target(target) if isinstance(target, str)
                  else frozenset(target))
        e = elements_io.parse_gamma(text, 5)
        degrees = {sum(m) for m in e}
        d = degrees.pop() if len(degrees) == 1 else 14
        report = transfer.verify_detection(
            catalog.CatalogEntry("u14(custom)", catalog.GAMMA, (5, d), e),
            target, expected_dim=expected_dim, target_name="h0d0")
        assert report.failed_checks == failed
        assert json.loads(elements_io.emit_report(report, "json"))["failed_checks"] \
            == list(failed)
        assert elements_io.emit_report(report, "text").splitlines()[-1] \
            == f"failed checks:  {', '.join(failed)}"
        # the command line, given the same input, target and dimension
        monkeypatch.setattr(cli, "_class_target", lambda cls: target)
        monkeypatch.setitem(cli.CLASSES, "h0d0", ("u14", (), expected_dim))
        path = write(tmp_path, "in.f2elt", text)
        for fmt in ("text", "json"):
            code, out, err = capture("verify", "--class", "h0d0", "--in", path,
                                     "--format", fmt)
            assert code == FALSIFIED
            assert out == elements_io.emit_report(report, fmt) + "\n"
            assert err == f"failed: {', '.join(failed)}\n"

    def test_mixed_image_names_cycle_in_every_output(self, capture, tmp_path):
        # psi(a(1,1,1,3,7)) is one word of degree 13, the image of u14 of 14
        u14 = catalog.entry("u14").element
        text = elements_io.serialize_gamma(u14 | {(1, 1, 1, 3, 7)})
        path = write(tmp_path, "mixed_image.f2elt", text)
        failed = ("primitive", "cycle", "class-equality")
        code, out, err = capture("verify", "--class", "h0d0", "--in", path)
        assert code == FALSIFIED
        assert out.splitlines()[-1] == f"failed checks:  {', '.join(failed)}"
        assert err == f"failed: {', '.join(failed)}\n"
        code, out, json_err = capture("verify", "--class", "h0d0", "--in", path,
                                      "--format", "json")
        assert code == FALSIFIED
        assert json.loads(out)["failed_checks"] == list(failed)
        assert json_err == err

    def test_verify_custom_input_wrong_degree(self, capture, tmp_path):
        path = write(tmp_path, "short.f2elt", "a(0,6,5,1,1)")
        code, out, err = capture("verify", "--class", "h0d0", "--in", path)
        assert code == FALSIFIED
        assert "class-equality" in err

    def test_verify_custom_zero_input(self, capture, tmp_path):
        path = write(tmp_path, "zero.f2elt", "0")
        code, _, err = capture("verify", "--class", "h0d0", "--in", path)
        assert code == FALSIFIED
        assert "class-equality" in err

    def test_verify_custom_input_wrong_arity(self, capture, tmp_path):
        path = write(tmp_path, "arity.f2elt", "a(1,2,3)")
        code, _, err = capture("verify", "--class", "h0d0", "--in", path)
        assert code == USAGE
        assert "arity" in err

    @pytest.mark.parametrize("text", ["a(60,0,0,0,0)", "a(120,0,0,0,0)"])
    def test_verify_custom_input_over_the_basis_cap_refused_quickly(
            self, capture, tmp_path, text):
        # Ext at the input's bidegree (5, 60) or (5, 120) needs a basis of
        # more than 200,000 words; without the guard each runs for minutes
        path = write(tmp_path, "big.f2elt", text)
        start = time.perf_counter()
        code, out, err = capture("verify", "--class", "h0d0", "--in", path)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (USAGE, "")
        assert err.startswith("resource limit: admissible basis at (")
        assert "--force" not in err


class TestTransferCommands:
    def test_transfer_image_rank_one(self, capture):
        code, out, _ = capture("transfer-image", "--s", "1", "--deg", "0")
        assert code == OK
        lines = out.splitlines()
        assert lines[0] == "dim = 1"
        assert lines[1] == "L[0]"

    def test_find_preimage_of_boundary(self, capture, tmp_path):
        path = write(tmp_path, "b.f2elt", "L[1,0]")
        code, out, err = capture("find-preimage", "--s", "2", "--in", path)
        assert code == OK
        assert out.strip() == "0"
        assert "trivial" in err

    def test_find_preimage_of_zero(self, capture, tmp_path):
        path = write(tmp_path, "z.f2elt", "0")
        code, out, err = capture("find-preimage", "--s", "2", "--in", path)
        assert code == OK
        assert out.strip() == "0"
        assert "trivial" in err

    def test_find_preimage_of_a_class_outside_the_image(self, capture, tmp_path):
        # g1 is a nonzero class at (4,20) that Tr_4 does not reach
        path = write(tmp_path, "g1.f2elt",
                      elements_io.serialize_lambda(catalog.entry("g1").element))
        assert capture("find-preimage", "--s", "4", "--in", path) == (
            FALSIFIED, "no primitive preimage exists\n", "")
        code, out, err = capture("find-preimage", "--s", "4", "--in", path,
                                 "--format", "json")
        assert (code, err) == (FALSIFIED, "")
        assert json.loads(out) == {"schema": 2, "found": False, "preimage": None,
                                   "target_class_trivial": False}

    def test_find_preimage_non_cycle_is_usage_error(self, capture, tmp_path):
        path = write(tmp_path, "nc.f2elt", "L[2]")
        code, _, err = capture("find-preimage", "--s", "1", "--in", path)
        assert code == USAGE
        assert "cycle" in err

    @pytest.mark.parametrize("s", ["4", "6"])
    def test_find_preimage_length_mismatch(self, capture, tmp_path, s):
        target = elements_io.serialize_lambda(
            product(catalog.entry("d0").element, catalog.entry("h0").element))
        path = write(tmp_path, "h0d0.f2elt", target)
        code, out, err = capture("find-preimage", "--s", s, "--in", path)
        assert code == USAGE
        assert out == ""
        assert err == f"error: target words have length 5, but s = {s}\n"

    def test_find_preimage_asks_boundary_witness_twice(self, capture, tmp_path,
                                                       monkeypatch):
        # once whether the target class is trivial, once to re-check the
        # preimage; the command reuses the first answer
        calls = []
        witness = homology.boundary_witness

        def counted(r):
            calls.append(r)
            return witness(r)

        monkeypatch.setattr(homology, "boundary_witness", counted)
        target = elements_io.serialize_lambda(
            product(catalog.entry("d0").element, catalog.entry("h0").element))
        path = write(tmp_path, "h0d0.f2elt", target)
        code, out, err = capture("find-preimage", "--s", "5", "--in", path)
        assert code == OK
        assert out.strip() not in ("", "0")
        assert "trivial" not in err
        assert len(calls) == 2

    def test_resource_guard_exit_code(self, capture):
        code, _, err = capture("transfer-image", "--s", "5", "--deg", "100")
        assert code == USAGE
        assert "resource limit" in err

    @pytest.mark.parametrize("command", ["basis", "homology"])
    def test_lambda_basis_guard_refuses_quickly(self, capture, command):
        # (7, 40) has 253,133 admissible words
        start = time.perf_counter()
        code, out, err = capture(command, "--s", "7", "--deg", "40")
        assert time.perf_counter() - start < 1.0
        assert code == USAGE
        assert out == ""
        assert err.startswith("resource limit: admissible basis at (")
        assert "--force" in err

    @pytest.mark.parametrize("command", ["basis", "homology"])
    def test_force_accepted_by_parser(self, command):
        args = _parser().parse_args([command, "--s", "7", "--deg", "40", "--force"])
        assert args.force


class TestElementGuard:
    @pytest.mark.parametrize("command", ["normalize", "diff", "sq0"])
    def test_huge_letter_refused_quickly(self, capture, tmp_path, command):
        # without the guard, each of these runs for minutes
        path = write(tmp_path, "huge.f2elt", "L[0,1000000000]")
        start = time.perf_counter()
        code, out, err = capture(command, "--in", path)
        assert time.perf_counter() - start < 1.0
        assert code == USAGE
        assert out == ""
        assert err.startswith("resource limit: admissible basis at (")
        assert "--force" in err

    @pytest.mark.parametrize("command, text, bidegree", [
        ("normalize", "L[0,400000]", "(2, 400000)"),
        ("diff", "L[400000]", "(2, 399999)"),
        ("sq0", "L[0,400000]", "(2, 400000)"),
    ], ids=["normalize", "diff", "sq0"])
    def test_force_lifts_the_guard(self, capture, tmp_path, command, text, bidegree):
        # each bidegree has more than 200,000 admissible words
        path = write(tmp_path, "e.f2elt", text)
        code, out, err = capture(command, "--in", path)
        assert code == USAGE
        assert err.startswith(f"resource limit: admissible basis at {bidegree} ")
        code, out, err = capture(command, "--in", path, "--force")
        assert code == OK
        assert out.startswith("L[") and err == ""

    def test_diff_guards_the_words_it_rewrites(self, capture, tmp_path):
        # over the cap at (22, 22), where d rewrites the word, not at (23, 21)
        path = write(tmp_path, "long.f2elt", cli_diff.LONG)
        refused = capture("diff", "--in", path)
        assert refused == capture("normalize", "--in", path)
        assert refused[:2] == (USAGE, "")
        assert refused[2].startswith("resource limit: admissible basis at (22, 22) ")
        assert capture("diff", "--in", path, "--force") == (OK, "0\n", "")

    @pytest.mark.parametrize("command, text, expected", [
        ("normalize", "L[1000000000,1000000000]", "L[1000000000,1000000000]\n"),
        ("sq0", "L[8,4,2,1,1,1,0]", "L[17,9,5,3,3,3,1]\n"),
    ], ids=["normalize", "sq0"])
    def test_admissible_input_is_not_refused(self, capture, tmp_path, command,
                                             text, expected):
        # nothing is rewritten, although the basis at (2, 2000000000) and
        # at sq0's output bidegree (7, 41) are far over the cap
        path = write(tmp_path, "e.f2elt", text)
        assert capture(command, "--in", path) == (OK, expected, "")

    def test_guard_counts_every_bidegree_of_the_input(self, capture, tmp_path):
        path = write(tmp_path, "e.f2elt", "L[0,2] + L[0,400000]")
        code, _, err = capture("normalize", "--in", path)
        assert code == USAGE
        assert "(2, 400000)" in err


GAMMA_COMMANDS = [["psi", "--rank", "5"], ["primitive-check", "--rank", "5"],
                  ["steenrod", "--rank", "5", "--deg", "1"]]


class TestGammaGuard:
    """psi, primitive-check and steenrod refuse an input whose monomial
    basis at its (rank, degree) is over the cap, before any folding."""

    @pytest.mark.parametrize("argv", GAMMA_COMMANDS, ids=lambda argv: argv[0])
    def test_huge_exponent_refused_quickly(self, capture, tmp_path, argv):
        # without the guard, each of these runs for minutes
        path = write(tmp_path, "huge.f2elt", "a(1000000000,0,0,0,0)")
        start = time.perf_counter()
        code, out, err = capture(*argv, "--in", path)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (USAGE, "")
        assert err.startswith(
            "resource limit: monomial basis at rank 5, degree 1000000000 has ")
        assert "force" not in err

    def test_guard_counts_every_degree_of_the_input(self, capture, tmp_path):
        path = write(tmp_path, "e.f2elt", "a(1,0) + a(0,400000)")
        code, _, err = capture("psi", "--in", path)
        assert code == USAGE
        assert "rank 2, degree 400000 " in err

    @pytest.mark.parametrize("name", ["u14", "u20", "u24"])
    @pytest.mark.parametrize("argv", GAMMA_COMMANDS, ids=lambda argv: argv[0])
    def test_catalog_inputs_answer_as_the_library(self, capture, tmp_path, argv, name):
        e = catalog.entry(name).element
        path = write(tmp_path, "u.f2elt", elements_io.serialize_gamma(e))
        if argv[0] == "psi":
            want = elements_io.serialize_lambda(transfer.psi(e)) + "\n"
        elif argv[0] == "steenrod":
            want = elements_io.serialize_gamma(dp.sq_right(e, 1)) + "\n"
        else:
            want = "".join(f"Sq^{i} -> {elements_io.serialize_gamma(image)}\n"
                           for i, image in dp.is_primitive(e).checked) + "primitive\n"
        assert capture(*argv, "--in", path) == (OK, want, "")


class TestInterpreterLimits:
    """Input that the guard passes but the interpreter cannot hold exits 2
    with one line, and no --force hint: the cap did not refuse it."""

    @pytest.mark.parametrize("argv, text", [
        (["psi"], "a(" + ",".join(["0"] * 500) + ")"),
        (["primitive-basis", "--rank", "2000", "--deg", "0"], None),
        (["transfer-image", "--s", "2000", "--deg", "0"], None),
    ], ids=["psi", "primitive-basis", "transfer-image"])
    def test_deep_recursion_is_a_resource_error(self, capture, tmp_path, argv, text):
        if text is not None:
            argv = [*argv, "--in", write(tmp_path, "deep.f2elt", text)]
        start = time.perf_counter()
        got = capture(*argv)
        assert time.perf_counter() - start < 1.0
        assert got == (USAGE, "", "resource limit: recursion too deep\n")

    def test_memory_error_is_a_resource_error(self, capture, monkeypatch):
        def exhausted(s, d):
            raise MemoryError
        monkeypatch.setattr(cli.la, "admissible_basis", exhausted)
        assert capture("basis", "--s", "3", "--deg", "7") == (
            USAGE, "", "resource limit: out of memory\n")


class TestUsageErrors:
    def test_unknown_subcommand(self, capture):
        code, _, _ = capture("frobnicate")
        assert code == USAGE

    def test_missing_file(self, capture, tmp_path):
        code, _, err = capture("diff", "--in", str(tmp_path / "absent.f2elt"))
        assert code == USAGE
        assert "error" in err

    def test_parse_error_is_usage(self, capture, tmp_path):
        path = write(tmp_path, "bad.f2elt", "L[1,]")
        code, _, err = capture("diff", "--in", path)
        assert code == USAGE

    def test_overlong_integer_is_a_positioned_parse_error(self, capture, tmp_path):
        path = write(tmp_path, "long.f2elt", "L[1] +\n  L[" + "7" * 5000 + "]")
        code, out, err = capture("normalize", "--in", path)
        assert code == USAGE
        assert out == ""
        assert err == "error: integer has more than 4300 digits (line 2, column 5)\n"

    def test_bad_class(self, capture):
        code, _, _ = capture("verify", "--class", "h9z9")
        assert code == USAGE


class TestConsecutiveRuns:
    def test_json_then_text(self, capture):
        code, out, _ = capture("homology", "--s", "5", "--deg", "14", "--format", "json")
        assert code == OK
        assert json.loads(out) == {"schema": 2, "s": 5, "deg": 14, "dim": 1}
        code, out, _ = capture("homology", "--s", "5", "--deg", "14")
        assert code == OK
        assert out == "dim = 1\n"

    def test_usage_error_then_valid_call(self, capture):
        code, out, err = capture("homology", "--s", "5")
        assert code == USAGE
        assert "--deg" in err
        code, out, err = capture("basis", "--s", "2", "--deg", "2")
        assert (code, out, err) == (OK, "L[1,1]\nL[2,0]\n", "count = 2\n")

    def test_verify_commands_of_cli_diff_repeat_byte_for_byte(self, capture, tmp_path,
                                                               monkeypatch):
        # the first run of each command starts from empty memos: the word
        # differentials of is_cycle and the class targets
        cli_diff.write_inputs(os.path.dirname(os.path.dirname(cli.__file__)), tmp_path)
        monkeypatch.chdir(tmp_path)
        commands = [cmd for cmd in cli_diff.COMMANDS if cmd[:1] == ["verify"]]
        assert len(commands) == 19
        for cmd in commands:
            homology._word_differential.cache_clear()
            cli._class_target.cache_clear()
            assert capture(*cmd) == capture(*cmd), cmd


class TestCliDiff:
    def test_a_timeout_is_reported_as_differing(self, capsys, monkeypatch):
        # a command that hangs on one side must not abort the comparison
        def hung(argv, **kwargs):
            raise subprocess.TimeoutExpired(argv, kwargs["timeout"])
        monkeypatch.setattr(cli_diff.subprocess, "run", hung)
        monkeypatch.setattr(cli_diff, "COMMANDS", [["basis", "--s", "1", "--deg", "0"]])
        src = os.path.dirname(os.path.dirname(cli.__file__))
        assert cli_diff.main([src, src]) == 1
        out = capsys.readouterr().out
        assert "DIFFERS: ltk basis --s 1 --deg 0\n" in out
        assert f"  old timed out after {cli_diff.TIMEOUT_S} s\n" in out
        assert "1 commands, 1 differ\n" in out

    def test_startup_counts_modules_and_reports_a_failing_tree(self, tmp_path,
                                                               monkeypatch):
        monkeypatch.setattr(cli_diff, "STARTUPS", 1)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        # tmp_path holds no ltk package, so its interpreter fails
        (modules, seconds), broken = cli_diff.startup([src, str(tmp_path)])
        assert modules > 0 and seconds > 0
        assert broken is None
        assert cli_diff._startup_text(broken) == "failed"

    def test_code_lines_skip_blanks_comments_and_docstrings(self, tmp_path):
        (tmp_path / "ltk").mkdir()
        (tmp_path / "ltk" / "a.py").write_text(
            '"""A module docstring\nover two lines."""\n'
            "\n"
            "# a comment\n"
            "X = 1  # a trailing comment\n"
            'Y = """a string\nover two lines"""\n'
            "\n"
            "\n"
            "class C:\n"
            '    """A class docstring."""\n'
            "    def f(self):\n"
            "        '''A method docstring.'''\n"
            "        return X\n", encoding="utf-8")
        assert cli_diff._lines(str(tmp_path)) == 14
        # X, the two lines of Y, class, def and return
        assert cli_diff._code_lines(str(tmp_path)) == 6


# the flags each subcommand takes besides --format
FLAGS = {
    "normalize": ("--in", "--force"),
    "diff": ("--in", "--force"),
    "basis": ("--s", "--deg", "--force"),
    "homology": ("--s", "--deg", "--force"),
    "sq0": ("--in", "--force"),
    "steenrod": ("--rank", "--in", "--deg"),
    "primitive-check": ("--rank", "--in"),
    "primitive-basis": ("--deg", "--rank", "--force"),
    "psi": ("--rank", "--in"),
    "verify": ("--in", "--class"),
    "transfer-image": ("--s", "--deg", "--force"),
    "find-preimage": ("--s", "--in", "--force"),
}
FUZZ_FILES = {
    "u14.f2elt": elements_io.serialize_gamma(catalog.entry("u14").element),
    "h0.f2elt": elements_io.serialize_lambda(catalog.entry("h0").element),
    "malformed.f2elt": "L[1,",
    "zero.f2elt": "0",
    "mixed.f2elt": "a(1,2) + a(1,2,3)",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def _words(fuzz_dir, flag):
    """The argv words of one flag with a drawn value."""
    ints = st.integers(-2, 8).map(str)
    value = {
        "--s": ints, "--deg": ints, "--rank": ints,
        "--in": st.sampled_from([*FUZZ_FILES, "absent.f2elt"]).map(
            lambda name: str(fuzz_dir / name)),
        "--format": st.sampled_from(["text", "json", "xml"]),
        "--class": st.sampled_from(["h0d0", "h2e0", "h1h4c0", "h9z9"]),
    }.get(flag)
    return st.just([flag]) if value is None else value.map(lambda v: [flag, v])


class TestArgvFuzz:
    @settings(max_examples=1000, deadline=None, database=None)
    @given(data=st.data())
    def test_exit_code_is_0_1_or_2(self, fuzz_dir, data):
        # each of the command's own flags, most of the time, so that many
        # runs get past the parser to a handler; now and then a flag the
        # command does not take
        command = data.draw(st.sampled_from(sorted(FLAGS)))
        argv = [command]
        for flag in (*FLAGS[command], "--format"):
            if data.draw(st.sampled_from([True, True, True, False])):
                argv += data.draw(_words(fuzz_dir, flag))
        stray = data.draw(st.sampled_from(
            [None] * 4 + ["--s", "--deg", "--rank", "--in", "--force", "--class"]))
        if stray is not None:
            argv += data.draw(_words(fuzz_dir, stray))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        assert code in (OK, FALSIFIED, USAGE), argv


# one over-cap call per subcommand: its argv, and its input file's text
OVER_CAP = {
    "normalize": ([], "L[0,400000]"),
    "diff": ([], "L[400000]"),
    "basis": (["--s", "7", "--deg", "40"], None),
    "homology": (["--s", "7", "--deg", "40"], None),
    "sq0": ([], "L[0,400000]"),
    "steenrod": (["--deg", "1"], "a(1000000000,0,0,0,0)"),
    "primitive-check": ([], "a(1000000000,0,0,0,0)"),
    "primitive-basis": (["--rank", "7", "--deg", "40"], None),
    "psi": ([], "a(1000000000,0,0,0,0)"),
    "verify": (["--class", "h0d0"], "a(60,0,0,0,0)"),
    "transfer-image": (["--s", "5", "--deg", "100"], None),
    "find-preimage": (["--s", "2"], "L[0,1000000000]"),
}


class TestOneGuard:
    """Every subcommand refuses an oversized basis with one message; the
    --force hint is added exactly where the command takes --force."""

    def test_every_subcommand_is_covered(self):
        assert sorted(OVER_CAP) == sorted(FLAGS)

    @pytest.mark.parametrize("command", sorted(OVER_CAP))
    def test_refusal_names_force_exactly_when_the_command_takes_it(
            self, capture, tmp_path, command):
        argv, text = OVER_CAP[command]
        if text is not None:
            argv = [*argv, "--in", write(tmp_path, "big.f2elt", text)]
        start = time.perf_counter()
        code, out, err = capture(command, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (USAGE, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        hinted = err.endswith("; pass --force to proceed\n")
        assert hinted == ("--force" in FLAGS[command])
        assert hinted or "force" not in err

    @pytest.mark.parametrize("argv, text, bidegree", [
        (["transfer-image", "--s", "1", "--deg", "1000000000"], None, "(2, 999999999)"),
        (["find-preimage", "--s", "1"], "L[1000000000]", "(2, 999999999)"),
        (["find-preimage", "--s", "2"], "L[0,1000000000]", "(2, 1000000000)"),
        (["verify", "--class", "h0d0"], "a(0,0,0,0,1000000000) + a(14,0,0,0,0)",
         "(5, 1000000000)"),
    ], ids=["transfer-image", "find-preimage-1", "find-preimage-2", "verify-mixed"])
    def test_huge_cell_refused_quickly(self, capture, tmp_path, argv, text, bidegree):
        # one monomial, or one word, but a slice there is far over the
        # cap; without the guard each of these runs for minutes
        if text is not None:
            argv = [*argv, "--in", write(tmp_path, "big.f2elt", text)]
        start = time.perf_counter()
        code, out, err = capture(*argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (USAGE, "")
        assert err.startswith(f"resource limit: admissible basis at {bidegree} ")

    def test_wide_monomial_basis_refused_quickly(self, capture):
        start = time.perf_counter()
        code, out, err = capture("primitive-basis", "--rank", "1000000000",
                                 "--deg", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (USAGE, "")
        assert err == ("resource limit: monomial basis at rank 1000000000, degree "
                       "1000000000 has more than 200000 elements (cap 200000); "
                       "pass --force to proceed\n")

    @pytest.mark.parametrize("argv, count", [
        (["primitive-basis", "--rank", "2", "--deg", "100000"],
         "rank 2, degree 100000 have 1534481"),
        (["primitive-basis", "--rank", "3", "--deg", "600"],
         "rank 3, degree 600 have 1364433"),
        (["transfer-image", "--s", "5", "--deg", "34"],
         "rank 5, degree 34 have 206046"),
    ], ids=["primitive-basis-2", "primitive-basis-3", "transfer-image"])
    def test_steenrod_images_refused_quickly(self, capture, argv, count):
        # the domain passes the cap, but primitive_basis numbers the images
        # under every generator square too; without the count the first
        # runs for minutes and the second fills memory
        start = time.perf_counter()
        got = capture(*argv)
        assert time.perf_counter() - start < 1.0
        assert got == (USAGE, "", f"resource limit: Steenrod images at {count} "
                                  "monomials (cap 200000); pass --force to proceed\n")

    @pytest.mark.parametrize("argv, code, want", [
        (["primitive-check"], FALSIFIED, "not primitive\n"),
        (["steenrod", "--deg", "1"], OK, "a(999999999)\n"),
        (["psi"], OK, "L[1000000000]\n"),
    ], ids=["primitive-check", "steenrod", "psi"])
    def test_rank_one_huge_exponent_answers_quickly(self, capture, tmp_path, argv,
                                                    code, want):
        path = write(tmp_path, "a.f2elt", "a(1000000000)")
        start = time.perf_counter()
        got, out, err = capture(*argv, "--in", path)
        assert time.perf_counter() - start < 1.0
        assert got == code
        assert out.endswith(want) and err == ""

    def test_rank_one_huge_primitive_basis_answers_quickly(self, capture):
        start = time.perf_counter()
        got = capture("primitive-basis", "--rank", "1", "--deg", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert got == (OK, "", "count = 0\n")

    @pytest.mark.parametrize("argv, refused", [
        (["basis", "--s", "10000000", "--deg", "0"], "(10000000, 0) have 10000000"),
        (["homology", "--s", "10000000", "--deg", "1"], "(9999999, 2) have 9999999"),
    ], ids=["basis", "homology"])
    def test_word_longer_than_the_cap_refused_quickly(self, capture, argv, refused):
        # one word, but its letters alone take hundreds of megabytes
        start = time.perf_counter()
        got = capture(*argv)
        assert time.perf_counter() - start < 1.0
        assert got == (USAGE, "", f"resource limit: admissible words at {refused} "
                                  "letters (cap 200000); pass --force to proceed\n")

    def test_word_as_long_as_the_cap_answered(self, capture):
        got = capture("basis", "--s", "200000", "--deg", "0")
        assert got == (OK, "L[" + ",".join(["0"] * 200000) + "]\n", "count = 1\n")

    @pytest.mark.parametrize("argv, text, error", [
        (["primitive-basis", "--rank", "0", "--deg", "3"], None, "rank must be at least 1"),
        (["primitive-basis", "--rank", "1", "--deg", "-5"], None,
         "degree must be non-negative"),
        (["transfer-image", "--s", "0", "--deg", "0"], None, "s must be at least 1"),
        (["transfer-image", "--s", "-1", "--deg", "3"], None, "s must be at least 1"),
        (["find-preimage", "--s", "0"], "L[]", "s must be at least 1"),
        # zero is a trivial class at every s, but s < 1 is refused first
        (["find-preimage", "--s", "0"], "0", "s must be at least 1"),
        (["find-preimage", "--s", "-3"], "0", "s must be at least 1"),
    ], ids=["primitive-basis-rank", "primitive-basis-deg", "transfer-image-s0",
            "transfer-image-negative", "find-preimage", "find-preimage-zero-s0",
            "find-preimage-zero-negative"])
    def test_empty_monomial_cell_refused_by_the_command(self, capture, tmp_path, argv,
                                                        text, error):
        # the guard counts the cell as empty; the function that would build
        # the basis names the fault in the command's own terms
        if text is not None:
            argv = [*argv, "--in", write(tmp_path, "unit.f2elt", text)]
        assert capture(*argv) == (USAGE, "", f"error: {error}\n")
