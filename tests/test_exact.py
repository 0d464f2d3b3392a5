import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Gauss, Root5, lift, lower, sign
from seprkit.exact import (
    GaussianRational,
    I,
    ScalarParseError,
    Sqrt5Rational,
    format_gaussian,
    format_rational,
    parse_gaussian_ratios,
    parse_rational,
    sign_of_real,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussianRational, rationals, rationals)
# the test oracles' own field (tests/conftest.py); seprkit's scalars are
# values without arithmetic
field_gaussians = st.builds(Gauss, rationals, rationals)


def test_basic_products():
    one_plus_i = Gauss(1, 1)
    one_minus_i = Gauss(1, -1)
    assert one_plus_i * one_minus_i == 2
    assert Gauss(0, 1) * -Gauss(0, 1) == 1
    assert Gauss(Fraction(1, 2)) + Fraction(1, 3) == Gauss(Fraction(5, 6))
    assert lower(lift(I)) == I and lower(Gauss(0, 1) - 1) == GaussianRational(-1, 1)


def test_conjugate_examples():
    assert GaussianRational(1, 2).conjugate() == GaussianRational(1, -2)
    assert GaussianRational(Fraction(3, 4)).conjugate() == GaussianRational(Fraction(3, 4))
    assert GaussianRational(0, -1).conjugate() == I


def test_sign_of_real():
    assert sign_of_real(Fraction(-47, 5)) == -1
    assert sign_of_real(0) == 0
    assert sign_of_real(Fraction(5, 6)) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Gauss(1) / Gauss(0)


@given(field_gaussians, field_gaussians)
def test_exact_division_roundtrip(a, b):
    if not b:
        return
    assert (a * b) / b == a


@given(gaussians)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a


@given(field_gaussians)
def test_norm_is_nonnegative_real(a):
    n = a * a.conj()
    assert n.b == 0
    assert n.a >= 0


@given(rationals)
def test_stored_reduced(q):
    # Fraction keeps lowest terms and a positive denominator by construction
    z = GaussianRational(q)
    assert z.re.denominator > 0
    again = Fraction(z.re.numerator, z.re.denominator)
    assert again == z.re


def test_rational_grammar_roundtrip():
    for text in ("0", "47", "-47/5", "1/2", "5/6", "-1"):
        assert format_rational(parse_rational(text)) == text


@pytest.mark.parametrize(
    "bad, offset",
    [("", 0), ("+3", 0), ("1.5", 1), ("1/0", 2), (" 1", 0), ("1/", 1), ("2/-3", 1), ("i", 0)],
)
def test_rational_grammar_rejects(bad, offset):
    with pytest.raises(ScalarParseError) as err:
        parse_rational(bad)
    assert err.value.offset == offset


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() reads any number of digits")
def test_rational_grammar_locates_over_long_digits():
    # more digits than int() converts is a grammar error at those digits
    big = "1" * (sys.get_int_max_str_digits() + 1)
    for text, offset in ((big, 0), (f"-{big}/3", 1), (f"-3/{big}", 3)):
        with pytest.raises(ScalarParseError) as err:
            parse_rational(text)
        assert err.value.offset == offset


def test_gaussian_pair_serialization():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert parse_gaussian_ratios(format_gaussian(z)) == ((1, 2), (-3, 4))
    with pytest.raises(ScalarParseError):
        parse_gaussian_ratios(["1"])
    with pytest.raises(ScalarParseError):
        parse_gaussian_ratios(["1", "x"])


def test_sqrt5_arithmetic():
    r = Root5(2, 1)  # 2 + sqrt(5)
    s = Root5(2, -1)  # 2 - sqrt(5)
    assert r * s == -1  # 4 - 5
    assert (r * r) / r == r
    assert r + s == 4
    assert r.conj() == r  # real value: complex conjugation fixes it
    assert -Sqrt5Rational(2, 1) == Sqrt5Rational(-2, -1)
    assert Sqrt5Rational(2, 1).conjugate() == Sqrt5Rational(2, 1)
    assert lower(lift(Sqrt5Rational(2, 1))) == Sqrt5Rational(2, 1)


def test_sqrt5_signs_certified():
    assert Sqrt5Rational(2, 1).sign() == 1
    assert Sqrt5Rational(2, -1).sign() == -1  # sqrt(5) > 2
    assert Sqrt5Rational(Fraction(-9, 4), 1).sign() == -1  # 81/16 > 5
    assert Sqrt5Rational(Fraction(-11, 5), 1).sign() == 1  # 121/25 < 5
    assert Sqrt5Rational(0, 0).sign() == 0
    assert Sqrt5Rational(0, -3).sign() == -1


def test_real_sign_dispatch():
    # the oracles' sign (tests/conftest.py) takes every real value kind
    assert sign(Fraction(-1, 7)) == -1
    assert sign(GaussianRational(3)) == 1
    assert sign(Sqrt5Rational(0, 1)) == 1
    with pytest.raises(ValueError):
        sign(I)


@given(rationals, rationals)
def test_sqrt5_sign_matches_oracle_field(a, b):
    # two independent sign decisions for a + b*sqrt(5)
    assert Sqrt5Rational(a, b).sign() == Root5(a, b).sign()
    with pytest.raises(ValueError):
        Gauss(a, b or 1).sign()  # a non-real value has no sign
