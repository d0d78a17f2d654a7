"""Exact scalar arithmetic: field behavior, parsing, and formatting."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exacteig import (
    DivisionByZero,
    GaussianRational,
    Matrix,
    ParseError,
    Polynomial,
    Rational,
    Spectrum,
    Vector,
    format_rational,
    format_scalar,
    parse_scalar,
    to_scalar,
)

rationals = st.builds(Rational, st.integers(-30, 30), st.integers(1, 12))
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero_scalars = scalars.filter(lambda z: z != to_scalar(0))

ZERO = to_scalar(0)
ONE = to_scalar(1)


class TestParsing:
    @pytest.mark.parametrize("text,re_num,re_den,im_num,im_den", [
        ("0", 0, 1, 0, 1),
        ("7", 7, 1, 0, 1),
        ("-3", -3, 1, 0, 1),
        ("3/2", 3, 2, 0, 1),
        ("-5/4", -5, 4, 0, 1),
        ("i", 0, 1, 1, 1),
        ("-i", 0, 1, -1, 1),
        ("2i", 0, 1, 2, 1),
        ("1/3i", 0, 1, 1, 3),
        ("2+i", 2, 1, 1, 1),
        ("2-i", 2, 1, -1, 1),
        ("1-3/2i", 1, 1, -3, 2),
        ("-1/2+5/2i", -1, 2, 5, 2),
    ])
    def test_grammar(self, text, re_num, re_den, im_num, im_den):
        z = parse_scalar(text)
        assert z.re.numerator == re_num and z.re.denominator == re_den
        assert z.im.numerator == im_num and z.im.denominator == im_den

    @pytest.mark.parametrize("text", ["", "garbage!", "1+", "i2", "1//2",
                                      "2 + 3", "+-1", "1.5", "\u0663",
                                      "1+\u0663i", "\uff13/2"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            parse_scalar("1/0")

    def test_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="digit"):
            parse_scalar("1/" + "9" * 5000)

    def test_whitespace_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar(" 2+i ")

    @pytest.mark.parametrize("text", ["01", "-0", "2/4", "1/1", "0/5",
                                      "1/01", "0i", "-0i", "00i", "1+0i",
                                      "0+1i", "1i", "-1i", "2+1i"])
    def test_rejects_non_canonical(self, text):
        with pytest.raises(ParseError, match="non-canonical"):
            parse_scalar(text)


class TestFormatting:
    @pytest.mark.parametrize("text", [
        "0", "1", "-1", "7", "3/2", "-5/4", "i", "-i", "2i", "-2i",
        "1/3i", "2+i", "2-i", "1-3/2i", "-1/2+5/2i", "1+2i",
    ])
    def test_canonical_forms(self, text):
        assert format_scalar(parse_scalar(text)) == text

    def test_rational_format(self):
        assert format_rational(Rational(3, 2)) == "3/2"
        assert format_rational(Rational(-4, 2)) == "-2"

    @given(scalars)
    def test_round_trip(self, z):
        assert parse_scalar(format_scalar(z)) == z


class TestConversion:
    def test_from_int(self):
        assert to_scalar(2) == GaussianRational(Rational(2))

    def test_from_rational(self):
        assert to_scalar(Rational(3, 2)) == parse_scalar("3/2")

    def test_identity_on_scalar(self):
        z = parse_scalar("1+i")
        assert to_scalar(z) == z

    def test_int_equality_and_hash(self):
        assert to_scalar(2) == 2
        assert hash(to_scalar(2)) == hash(GaussianRational(Rational(2)))


class TestFieldLaws:
    @given(scalars, scalars)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(scalars, scalars)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(scalars, scalars, scalars)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(scalars, scalars, scalars)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars)
    def test_identities(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @given(nonzero_scalars)
    def test_multiplicative_inverse(self, a):
        assert a * (ONE / a) == ONE
        assert a / a == ONE

    @given(scalars)
    def test_negation(self, a):
        assert a + (-a) == ZERO

    @given(scalars, nonzero_scalars)
    def test_division_inverts_multiplication(self, a, b):
        assert (a * b) / b == a

    @given(scalars, scalars)
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(scalars)
    def test_norm_is_real(self, a):
        norm = a * a.conjugate()
        assert norm.im.numerator == 0
        assert norm.re.numerator >= 0

    @given(scalars)
    def test_power_matches_repeated_multiplication(self, a):
        assert a ** 0 == ONE
        assert a ** 1 == a
        assert a ** 3 == a * a * a

    @given(nonzero_scalars)
    def test_reflected_operators_and_unary_plus(self, a):
        # an int on the left, then the scalar itself
        assert 1 - a == ONE - a
        assert 1 / a == ONE / a
        assert +a is a

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE / ZERO

    def test_known_products(self):
        assert parse_scalar("1/2+i") * parse_scalar("1/2-i") == \
            parse_scalar("5/4")
        assert parse_scalar("2-i") * parse_scalar("2+i") == to_scalar(5)


class TestHashing:
    @given(scalars)
    def test_equal_values_hash_equal(self, a):
        clone = GaussianRational(a.re, a.im)
        assert clone == a and hash(clone) == hash(a)

    @given(scalars)
    def test_usable_in_sets(self, a):
        assert len({a, GaussianRational(a.re, a.im)}) == 1


wide_rationals = st.builds(Rational, st.integers(-10**30, 10**30),
                           st.integers(1, 10**20))
wide_scalars = st.builds(GaussianRational, wide_rationals, wide_rationals)


class TestHashContract:
    """Equal scalars hash equal whatever form they arrive in: canonical
    text, a real part, or a plain int."""

    @given(wide_scalars)
    def test_survives_text_round_trip(self, z):
        back = parse_scalar(format_scalar(z))
        assert back == z and hash(back) == hash(z)

    @given(wide_rationals)
    def test_real_scalar_is_its_real_part(self, r):
        z = GaussianRational(r)
        assert z == z.re and z.re == z and hash(z) == hash(z.re)

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**20))
    def test_integral_scalar_is_its_int(self, n, d):
        z = GaussianRational(Rational(n * d, d))
        assert z == n and n == z and hash(z) == hash(n)
        assert z.re == n and hash(z.re) == hash(n)


class TestExactnessBoundary:
    """Floats never enter exact arithmetic, and the text forms stay
    canonical, wherever a scalar comes in."""

    @pytest.mark.parametrize("build", [
        lambda: to_scalar(0.5),
        lambda: GaussianRational(0.5),
        lambda: GaussianRational(0, 0.5),
        lambda: Matrix([[1, 0.5], [0, 1]]),
        lambda: Vector([1, 0.5]),
        lambda: Polynomial([0.5, 1]),
        lambda: Spectrum([(0.5, 1)]),
    ], ids=["to_scalar", "real_part", "imag_part", "Matrix", "Vector",
            "Polynomial", "Spectrum"])
    def test_float_refused(self, build):
        with pytest.raises(TypeError):
            build()

    def test_float_arithmetic_refused(self):
        z = parse_scalar("1+i")
        with pytest.raises(TypeError):
            z + 0.5
        with pytest.raises(TypeError):
            z * 0.5

    @pytest.mark.parametrize("text,expected", [
        ("3/2-1/2i", "(3/2-1/2i)"), ("-3/2", "-3/2"), ("i", "(0+1i)"),
        ("-2i", "(0-2i)"),
    ])
    def test_repr(self, text, expected):
        assert repr(parse_scalar(text)) == expected

    def test_parts_are_fractions(self):
        z = parse_scalar("3/2-1/2i")
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert Rational is Fraction
