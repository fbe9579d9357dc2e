"""Parser and printer of the identity DSL."""

from fractions import Fraction

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from thetakit.identities.dsl import (
    DTHETA1,
    GAUSS4,
    PI_CONST,
    Identity,
    LinearForm,
    ParseError,
    Term,
    ThetaFactor,
    format_identity,
    format_linear_form,
    parse_identity,
    structurally_equal,
)


class TestParsing:
    def test_bilinear_example(self):
        text = (
            "t1(u|tau)*t2(v|tau) = t1(u+v|2tau)*t4(u-v|2tau)"
            " + t4(u+v|2tau)*t1(u-v|2tau)"
        )
        ident = parse_identity(text, "B.I.2")
        assert ident.id == "B.I.2"
        assert ident.variables == ("u", "v")
        assert len(ident.lhs) == 1 and len(ident.rhs) == 2
        first = ident.lhs[0]
        assert first.coefficient == 1
        assert first.factors[0] == ThetaFactor(1, LinearForm.make({"u": 1}), 1)
        assert ident.rhs[0].factors[0].tau_multiplier == 2
        assert ident.rhs[0].factors[0].argument == LinearForm.make({"u": 1, "v": 1})

    def test_constant_identity(self):
        ident = parse_identity("t1(0|tau) = 0")
        assert ident.variables == ()
        assert ident.lhs[0].factors[0].argument == LinearForm.make()
        assert ident.rhs == (Term(Fraction(0)),)

    def test_doubling_example(self):
        ident = parse_identity("t1(2u|2tau)*t4(0|2tau) = t1(u|tau)*t2(u|tau)")
        assert ident.variables == ("u",)
        assert ident.lhs[0].factors[0].argument == LinearForm.make({"u": 2})
        assert all(f.tau_multiplier == 2 for f in ident.lhs[0].factors)

    def test_unicode_minus(self):
        a = parse_identity("t1(u−v|tau) = t1(u-v|tau)")
        assert a.lhs == a.rhs

    def test_rational_coefficient_and_tau_terms(self):
        ident = parse_identity("1/2*t3(u+1/2+1/2tau|tau) = t2(u-3tau+2|2tau)")
        assert ident.lhs[0].coefficient == Fraction(1, 2)
        lf = ident.lhs[0].factors[0].argument
        assert lf.const == Fraction(1, 2) and lf.tau_coeff == Fraction(1, 2)
        rf = ident.rhs[0].factors[0].argument
        assert rf.const == 2 and rf.tau_coeff == -3

    def test_negative_leading_coefficient(self):
        ident = parse_identity("-1*t1(u|tau) = t1(-u|tau)")
        assert ident.lhs[0].coefficient == -1
        assert ident.rhs[0].factors[0].argument == LinearForm.make({"u": -1})

    def test_special_factors(self):
        ident = parse_identity("dt1(0) = pi*t2(0|tau)*t3(0|tau)*t4(0|tau)")
        assert ident.lhs[0].factors[0].index == DTHETA1
        assert ident.rhs[0].factors[0].index == PI_CONST
        g = parse_identity("t4(0|tau) = gauss4(0|tau)")
        assert g.rhs[0].factors[0].index == GAUSS4

    def test_variable_appearance_order(self):
        ident = parse_identity("t1(v+y|tau)*t2(u-x|tau) = t3(x|tau)*t4(u|tau)")
        assert ident.variables == ("v", "y", "u", "x")


class TestParseErrors:
    def test_unknown_theta_index(self):
        with pytest.raises(ParseError) as err:
            parse_identity("t5(u|tau) = t1(u|tau)")
        assert "unknown theta index" in str(err.value)
        assert err.value.position == 0

    def test_missing_close_paren(self):
        with pytest.raises(ParseError) as err:
            parse_identity("t1(u|tau = t2(v|tau)")
        assert "expected ')'" in str(err.value)
        assert err.value.position == 9

    def test_duplicate_equals(self):
        with pytest.raises(ParseError) as err:
            parse_identity("t1(u|tau) = t2(v|tau) = t3(u|tau)")
        assert "duplicate '='" in str(err.value)
        assert err.value.position == 22

    def test_missing_equals(self):
        with pytest.raises(ParseError) as err:
            parse_identity("t1(u|tau) + t2(v|tau)")
        assert "expected '='" in str(err.value)

    def test_fractional_variable_coefficient(self):
        with pytest.raises(ParseError) as err:
            parse_identity("t1(1/2u|tau) = 0")
        assert "integer" in str(err.value)

    def test_bad_modular_slot(self):
        with pytest.raises(ParseError):
            parse_identity("t1(u|3tau) = 0")
        with pytest.raises(ParseError):
            parse_identity("t1(u|sigma) = 0")

    def test_stray_character(self):
        with pytest.raises(ParseError) as err:
            parse_identity("t1(u|tau) = t2(v|tau) $")
        assert err.value.position == 22

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_identity("")


class TestPrinting:
    cases = [
        "t1(u|tau)*t2(v|tau) = t1(u+v|2tau)*t4(u-v|2tau) + t4(u+v|2tau)*t1(u-v|2tau)",
        "-2*t1(u|tau) = t2(-u+1/2|tau) - 3/4*t3(2u-1/2tau|2tau)",
        "dt1(0) = pi*t2(0|tau)*t3(0|tau)*t4(0|tau)",
        "t4(0|tau) = gauss4(0|tau)",
        "t1(0|tau) = 0",
        "2*t3(u|2tau)*t3(u|2tau) = t3(u|tau)*t3(0|tau) + t4(u|tau)*t4(0|tau)",
    ]

    @pytest.mark.parametrize("text", cases)
    def test_round_trip(self, text):
        ident = parse_identity(text, "X")
        printed = format_identity(ident)
        again = parse_identity(printed, "X")
        assert structurally_equal(ident, again)
        # printing is a fixed point
        assert format_identity(again) == printed

    def test_linear_form_rendering(self):
        lf = LinearForm.make({"u": -1, "v": 2}, Fraction(1, 2), Fraction(-3, 2))
        assert format_linear_form(lf) == "-u+2v+1/2-3/2tau"
        assert format_linear_form(LinearForm.make()) == "0"


@st.composite
def linear_forms(draw):
    names = draw(st.lists(st.sampled_from(["u", "v", "x", "y"]), unique=True, max_size=3))
    coeffs = {n: draw(st.integers(-3, 3)) for n in names}
    const = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 4])))
    tau_c = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2])))
    return LinearForm.make(coeffs, const, tau_c)


@st.composite
def identities(draw):
    def term():
        coeff = Fraction(draw(st.integers(-5, 5) .filter(lambda n: n != 0)), draw(st.sampled_from([1, 2])))
        factors = tuple(
            ThetaFactor(draw(st.sampled_from([1, 2, 3, 4])), draw(linear_forms()), draw(st.sampled_from([1, 2])))
            for _ in range(draw(st.integers(1, 3)))
        )
        return Term(coeff, factors)

    lhs = tuple(term() for _ in range(draw(st.integers(1, 3))))
    rhs = tuple(term() for _ in range(draw(st.integers(1, 3))))
    names = sorted({n for t in lhs + rhs for f in t.factors for n in f.argument.variables()})
    return Identity("H", lhs, rhs, tuple(names))


@hsettings(max_examples=80, deadline=None)
@given(identities())
def test_print_parse_round_trip_random(ident):
    printed = format_identity(ident)
    reparsed = parse_identity(printed, ident.id)
    assert reparsed.lhs == ident.lhs
    assert reparsed.rhs == ident.rhs
    assert set(reparsed.variables) == set(ident.variables)


@hsettings(max_examples=300, deadline=None)
@given(st.text(alphabet="t1234uvxy()|=+-*/ pi dgauss−.", max_size=30))
def test_parser_never_crashes(text):
    try:
        parse_identity(text)
    except ParseError:
        pass


def test_identities_parsed_twice_hash_and_compare_equal():
    import pickle

    text = "t1(u|tau)*t2(v|tau) = t1(u+v|2tau)*t4(u-v|2tau) + t4(u+v|2tau)*t1(u-v|2tau)"
    a = parse_identity(text, "B")
    b = parse_identity(text, "B")
    assert a is not b
    assert hash(a) == hash(b) == hash((a.id, a.lhs, a.rhs, a.variables))
    assert a == b and {a: 1}[b] == 1
    # the hash is cached on the first call, outside the fields
    assert hash(a) == hash(a)
    assert "_hash" not in repr(a) and repr(a) == repr(b)
    assert a != parse_identity(text, "C")
    # a pickle carries no hash: string hashes differ between processes
    c = pickle.loads(pickle.dumps(a))
    assert "_hash" not in vars(c) and c == a and hash(c) == hash(a)


class TestRepeatedFactors:
    """Each distinct factor text is parsed once per process; a repeat must
    still give what a first parse gives."""

    def test_variables_follow_the_identity_not_the_factor_seen_first(self):
        assert parse_identity("t1(y-x|tau) = t2(x|tau)*t3(y|tau)").variables == ("y", "x")
        again = parse_identity("t2(x|tau)*t1(y-x|tau) = t4(z+y|tau)")
        assert again.variables == ("x", "y", "z")
        assert again.lhs[0].factors[1] == ThetaFactor(1, LinearForm.make({"x": -1, "y": 1}), 1)

    def test_cancelling_variable_is_still_declared(self):
        for _ in range(2):
            ident = parse_identity("t1(u-u|tau) = t2(v|tau)")
            assert ident.variables == ("u", "v")
            assert ident.lhs[0].factors[0] == ThetaFactor(1, LinearForm.make(), 1)
        assert parse_identity("t3(v|tau)*t1(u-u|tau) = 0").variables == ("v", "u")

    @pytest.mark.parametrize(
        "text,position,message",
        [
            ("t1(u|tau)*t1(u|tau) = t2(u+|tau)", 27, "expected a linear-form atom, got '|'"),
            ("t1(u|tau)*t1(u|tau) = t1(u|tau)*t5(u|tau)", 32, "unknown theta index 't5'"),
            ("t1(u|tau) = t2(v|2tau)*t3(2u|3tau)", 29, "expected 'tau' or '2tau', got '3'"),
            ("t2(v|2tau)*t1(u|tau = t2(v|2tau)", 20, "expected ')', got '='"),
        ],
    )
    def test_error_in_a_later_factor_counts_from_the_start_of_the_text(self, text, position, message):
        parse_identity("t1(u|tau)*t2(v|2tau) = 0")
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                parse_identity(text)
            assert err.value.position == position
            assert err.value.reason == message

    def test_stray_character_is_reported_before_an_earlier_syntax_error(self):
        parse_identity("t1(u|tau) = 0")
        with pytest.raises(ParseError) as err:
            parse_identity("t5(u|tau) = t1(u|tau) $")
        assert err.value.position == 22
        assert "unexpected character '$'" in str(err.value)

    def test_unicode_minus_inside_a_repeated_factor(self):
        plain = parse_identity("t1(u-v|tau)*t1(u-v|tau) = 0").lhs[0].factors
        unicode = parse_identity("t1(u−v|tau)*t1(u−v|tau) = 0").lhs[0].factors
        assert plain == unicode == (ThetaFactor(1, LinearForm.make({"u": 1, "v": -1}), 1),) * 2


def test_catalog_parses_each_distinct_factor_text_once():
    import os
    import re
    import subprocess
    import sys

    import thetakit
    from thetakit.identities import catalog_tsv

    texts = [line.split("\t")[1] for line in catalog_tsv().splitlines()]
    # every factor but pi, read off the text without the parser
    factors = [m.group() for text in texts for m in re.finditer(r"[A-Za-z_]\w*\([^()]*\)", text)]
    assert (len(factors), len(set(factors))) == (1974, 84)  # 1,972 theta, dt1(0), gauss4(0|tau)
    src = os.path.dirname(os.path.dirname(os.path.abspath(thetakit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import thetakit\n"
        "from thetakit.identities import dsl\n"
        "thetakit.builtin_catalog()\n"
        "info = dsl._parse_factor.cache_info()\n"
        "print(info.misses, info.hits)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=60, capture_output=True, text=True
    ).stdout
    assert out.split() == [str(len(set(factors))), str(len(factors) - len(set(factors)))]
