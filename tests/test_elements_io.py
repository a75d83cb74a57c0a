from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltk import catalog
from ltk import divided_power as dp
from ltk import lambda_algebra as la
from ltk.elements_io import (
    ParseError,
    emit_report,
    parse_document,
    parse_gamma,
    parse_lambda,
    serialize_gamma,
    serialize_lambda,
)
from ltk.transfer import verify_detection

D0_TEXT = "L[6,2,3,3] + L[4,4,3,3] + L[2,4,5,3] + L[1,5,1,7]"


class TestParseLambda:
    def test_catalog_style_sum(self):
        e = parse_lambda(D0_TEXT)
        assert e == catalog.entry("d0").element

    def test_zero(self):
        assert parse_lambda("0") == la.ZERO
        assert parse_lambda("  0\n") == la.ZERO

    def test_duplicates_cancel(self):
        assert parse_lambda("L[1,1] + L[1,1]") == la.ZERO
        assert parse_lambda("L[2] + L[1] + L[2]") == la.element((1,))

    def test_unit_word(self):
        assert parse_lambda("L[]") == la.UNIT

    def test_whitespace_insensitive(self):
        a = parse_lambda("L[ 3 , 5 ]\n +\n L[2,\t6]")
        b = parse_lambda("L[3,5]+L[2,6]")
        assert a == b

    def test_negative_index_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_lambda("L[3,-1]")

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # '²', Arabic-Indic 3
    def test_non_ascii_digit_rejected(self, digit):
        # str.isdigit accepts both; the grammar's int is [0-9]+
        with pytest.raises(ParseError) as err:
            parse_lambda(f"L[{digit}]")
        assert str(err.value) == (f"expected integer, found {digit!r} "
                                  f"(line 1, column 3)")

    @pytest.mark.parametrize("space", ["\x0b", "\x0c", "\u00a0", "\u2003"])
    def test_only_ascii_space_tab_cr_lf_between_tokens(self, space):
        # \s would accept all four; the grammar's whitespace is [ \t\r\n]
        for text, column in ((f"L[1]{space}+ L[2]", 5), (f"L[1,{space}2]", 5),
                             (f"{space}L[1]", 1), (f"L{space}[1]", 2),
                             (f"L[1] +{space}L[2]", 7), (f"0{space}", 2)):
            with pytest.raises(ParseError) as err:
                parse_lambda(text)
            assert (err.value.line, err.value.column) == (1, column), text
        with pytest.raises(ParseError):
            parse_gamma(f"a(1,{space}2)", 2)
        assert parse_lambda("\tL [ 1 ,\r\n2 ]\n+ L[]\r\n") == la.element((1, 2), ())

    def test_overlong_integer_rejected_with_position(self):
        # int() refuses more than 4300 digits with a bare ValueError
        with pytest.raises(ParseError) as err:
            parse_lambda("L[" + "1" * 5000 + "]")
        assert str(err.value) == "integer has more than 4300 digits (line 1, column 3)"
        with pytest.raises(ParseError) as err:
            parse_gamma("a(1,2) +\n  a(3, " + "7" * 4301 + ")", 2)
        assert (err.value.line, err.value.column) == (2, 8)
        assert parse_lambda("L[" + "9" * 4300 + "]") == la.element((10 ** 4300 - 1,))

    # messages and positions of the character-at-a-time scanner this
    # parser replaced, recorded from it
    @pytest.mark.parametrize("kind, text, message", [
        ("lambda", "L[1,2", "expected ']', found end of input (line 1, column 6)"),
        ("lambda", "L[3,-1]", "negative index rejected (line 1, column 5)"),
        ("lambda", "L[1] L[2]", "expected '+', found 'L' (line 1, column 6)"),
        ("lambda", "0 + L[1]", "trailing input after zero element (line 1, column 3)"),
        ("lambda", "", "empty input (line 1, column 1)"),
        ("lambda", " \n\t", "empty input (line 2, column 2)"),
        ("lambda", "L[3,5] +\nL[2 6]", "expected ']', found '6' (line 2, column 5)"),
        ("lambda", "L[1] +", "expected 'L', found end of input (line 1, column 7)"),
        ("lambda", "L[1] +\n\n   x", "expected 'L', found 'x' (line 3, column 4)"),
        ("lambda", "L(1)", "expected '[', found '(' (line 1, column 2)"),
        ("lambda", "L[,1]", "expected integer, found ',' (line 1, column 3)"),
        ("lambda", "L[1,]", "expected integer, found ']' (line 1, column 5)"),
        ("lambda", "L[1]]", "expected '+', found ']' (line 1, column 5)"),
        ("lambda", "\tL [1 ,\r\n 2 ] + M[3]", "expected 'L', found 'M' (line 2, column 8)"),
        ("lambda", "a(1,2)", "expected 'L', found 'a' (line 1, column 1)"),
        ("lambda", "L[1]\n+ L[2,\n-3]", "negative index rejected (line 3, column 1)"),
        ("gamma", "a()", "expected integer, found ')' (line 1, column 3)"),
        ("gamma", "a(1,2,3,4)", "term has arity 4, expected 5 (line 1, column 1)"),
        ("gamma", "a(1,2,3,4,5) + a(1,2,3,4)", "term has arity 4, expected 5 (line 1, column 1)"),
        ("gamma", "a(1,2,3,4,5", "expected ')', found end of input (line 1, column 12)"),
        ("gamma", "L[1]", "expected 'a', found 'L' (line 1, column 1)"),
        ("gamma", "0 0", "trailing input after zero element (line 1, column 3)"),
        ("gamma", "a(1,2,3,4,5) +\r\na(1 2,3,4,5)", "expected ')', found '2' (line 2, column 5)"),
        ("doc", "0", "cannot infer element kind (line 1, column 1)"),
        ("doc", "x", "cannot infer element kind (line 1, column 1)"),
        ("doc", "a(1,2) + a(1,2,3)", "terms of mixed arity (line 1, column 1)"),
        ("doc", "a(1,2) + a(1,2)", "cannot infer the rank of a zero element; "
                                   "pass the rank explicitly (line 1, column 1)"),
        ("doc", "L[1] + a(1)", "expected 'L', found 'a' (line 1, column 8)"),
        ("doc", "a(1) + L[1]", "expected 'a', found 'L' (line 1, column 8)"),
    ])
    def test_messages_and_positions(self, kind, text, message):
        parse = {"lambda": parse_lambda, "gamma": lambda t: parse_gamma(t, 5),
                 "doc": parse_document}[kind]
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_lambda("L[3,5] +\nL[2 6]")
        assert err.value.line == 2
        assert err.value.column > 1

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_lambda("L[1] L[2]")
        with pytest.raises(ParseError):
            parse_lambda("0 + L[1]")
        with pytest.raises(ParseError):
            parse_lambda("")


class TestParseGamma:
    def test_catalog_monomial(self):
        assert parse_gamma("a(0,6,5,2,1)", 5) == dp.element((0, 6, 5, 2, 1))

    def test_u24_sum(self):
        text = "a(1,15,3,3,2) + a(1,15,3,4,1) + a(1,15,5,2,1) + a(1,15,6,1,1)"
        assert parse_gamma(text, 5) == catalog.entry("u24").element

    def test_zero(self):
        assert parse_gamma("0", 3) == dp.ZERO

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity"):
            parse_gamma("a(1,2,3)", 2)

    def test_empty_tuple_rejected(self):
        with pytest.raises(ParseError):
            parse_gamma("a()", 1)


class TestSerialization:
    def test_canonical_zero_and_unit(self):
        assert serialize_lambda(la.ZERO) == "0"
        assert serialize_lambda(la.UNIT) == "L[]"
        assert serialize_gamma(dp.ZERO) == "0"

    def test_lambda_sorted_ascending(self):
        e = la.element((2, 0), (1, 1))
        assert serialize_lambda(e) == "L[1,1] + L[2,0]"

    def test_gamma_sorted_descending(self):
        e = dp.element((0, 2), (2, 0), (1, 1))
        assert serialize_gamma(e) == "a(2,0) + a(1,1) + a(0,2)"

    def test_equal_elements_byte_identical(self):
        a = parse_lambda("L[1,5] + L[3,3]")
        b = parse_lambda("L[3,3] + L[1,5]")
        assert serialize_lambda(a) == serialize_lambda(b)

    def test_round_trip_random(self):
        rng = random.Random(29)
        for _ in range(100):
            words = [tuple(rng.randrange(0, 20) for _ in range(rng.randrange(0, 5)))
                     for _ in range(rng.randrange(0, 5))]
            e = la.element(*words)
            assert parse_lambda(serialize_lambda(e)) == e
        for _ in range(100):
            rank = rng.randrange(1, 6)
            monos = [tuple(rng.randrange(0, 9) for _ in range(rank))
                     for _ in range(rng.randrange(0, 5))]
            e = dp.element(*monos)
            if e:
                assert parse_gamma(serialize_gamma(e), rank) == e


class TestFuzzing:
    ILLEGAL = "%$!?;=*xB&#~"

    def test_single_illegal_character_always_rejected(self):
        docs = [D0_TEXT, "0", "L[]", "a(1,15,3,3,2) + a(1,15,3,4,1)"]
        for doc in docs:
            is_gamma = doc.startswith("a")
            for pos in range(len(doc) + 1):
                for ch in self.ILLEGAL:
                    broken = doc[:pos] + ch + doc[pos:]
                    with pytest.raises(ParseError):
                        if is_gamma:
                            parse_gamma(broken, 5)
                        else:
                            parse_lambda(broken)


# the grammar's characters plus ones it must refuse: non-ASCII digits
# ('²' and '٣' pass str.isdigit), a letter and a minus sign
FUZZ_ALPHABET = "La[](),+0123456789 \t\n-x\u00b2\u0663"
GRAMMAR_CHARS = set("La[](),+0123456789 \t\r\n")
FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=300)

lambda_elements = st.lists(st.lists(st.integers(0, 40), max_size=4),
                           max_size=4).map(lambda ws: la.element(*ws))
gamma_elements = st.lists(st.tuples(*[st.integers(0, 40)] * 5),
                          max_size=4).map(lambda ms: dp.element(*ms))


def _parse_all(text):
    """Run text through every parser; each must return or raise ParseError."""
    for parse in (parse_lambda, lambda t: parse_gamma(t, 5), parse_document):
        try:
            parse(text)
        except ParseError:
            continue
        # only the grammar's own ASCII characters can make up accepted text
        assert set(text) <= GRAMMAR_CHARS, text


class TestHypothesisFuzz:
    @FUZZ
    @given(st.text(alphabet=FUZZ_ALPHABET, max_size=30))
    def test_arbitrary_text(self, text):
        _parse_all(text)

    @FUZZ
    @given(st.one_of(lambda_elements.map(serialize_lambda),
                     gamma_elements.map(serialize_gamma)),
           st.data())
    def test_one_edit_of_valid_text(self, text, data):
        # valid text with one character inserted or replaced reaches deep
        # into the grammar, where arbitrary text rarely gets
        pos = data.draw(st.integers(0, len(text)))
        ch = data.draw(st.sampled_from(FUZZ_ALPHABET))
        cut = data.draw(st.integers(0, 1))
        _parse_all(text[:pos] + ch + text[pos + cut:])

    @FUZZ
    @given(lambda_elements, gamma_elements)
    def test_round_trip(self, e, g):
        assert parse_lambda(serialize_lambda(e)) == e
        assert parse_gamma(serialize_gamma(g), 5) == g
        # a nonzero element names its kind, and a gamma element its rank
        if e:
            assert parse_document(serialize_lambda(e)) == e
        if g:
            assert parse_document(serialize_gamma(g)) == g
            assert parse_gamma(serialize_gamma(g)) == g


class TestParseDocument:
    def test_kind_sniffing(self):
        assert parse_document(D0_TEXT) == parse_lambda(D0_TEXT)
        e = parse_document("a(1,2,3)")
        assert e == parse_gamma("a(1,2,3)", 3) == dp.element((1, 2, 3))
        assert {len(m) for m in e} == {3}

    def test_zero_needs_explicit_kind(self):
        with pytest.raises(ParseError):
            parse_document("0")
        with pytest.raises(ParseError):
            parse_gamma("0")
        assert parse_lambda("0") == la.ZERO

    def test_body_is_canonical(self):
        e = parse_document("L[3,3] + L[1,5]")
        assert serialize_lambda(e) == "L[1,5] + L[3,3]"

    def test_mixed_arity_rejected(self):
        with pytest.raises(ParseError):
            parse_document("a(1,2) + a(1,2,3)")


def make_verified_report():
    target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
    return verify_detection(catalog.entry("u14"), target, expected_dim=1,
                            target_name="h0d0")


def make_falsified_report():
    u14 = catalog.entry("u14")
    mutated = catalog.CatalogEntry("u14-broken", catalog.GAMMA, u14.bidegree,
                                   u14.element ^ {min(u14.element)})
    target = la.product(catalog.entry("d0").element, catalog.entry("h0").element)
    return verify_detection(mutated, target, expected_dim=1, target_name="h0d0")


class TestEmitReport:
    def test_verified_text(self):
        text = emit_report(make_verified_report(), "text")
        assert "verdict:        verified" in text
        assert "witness:        L[" in text

    def test_json_schema_fields(self):
        data = json.loads(emit_report(make_verified_report(), "json"))
        assert data["schema"] == 2
        assert set(data) == {"schema", "input", "bidegree", "primitive",
                             "psi_image", "is_cycle", "target",
                             "same_class_ok", "witness", "ext_dim", "verdict",
                             "failed_checks"}
        assert data["same_class_ok"] is True
        assert data["failed_checks"] == []
        assert data["verdict"] == "verified"
        assert data["input"] == "u14"
        assert data["bidegree"] == [5, 14]
        assert data["primitive"]["holds"] is True
        assert data["witness"].startswith("L[")
        assert data["ext_dim"] == {"computed": 1, "expected": 1}

    def test_falsified_names_failing_check(self):
        report = make_falsified_report()
        text = emit_report(report, "text")
        assert "verdict:        falsified" in text
        assert "failed checks:" in text
        assert "primitive" in text
        data = json.loads(emit_report(report, "json"))
        assert data["verdict"] == "falsified"
        assert data["primitive"]["holds"] is False
        assert data["failed_checks"] == list(report.failed_checks)
        assert "primitive" in data["failed_checks"]

    def test_trivial_verdict_on_zero_input(self):
        report = verify_detection(
            catalog.CatalogEntry("zero", catalog.GAMMA, (5, 14), dp.ZERO), la.ZERO
        )
        assert json.loads(emit_report(report, "json"))["verdict"] == "trivial"

    def test_deterministic(self):
        a = emit_report(make_verified_report(), "json")
        b = emit_report(make_verified_report(), "json")
        assert a == b

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(make_verified_report(), "xml")
