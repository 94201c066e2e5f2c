from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlines.scalars import (
    GaussianRational,
    coerce,
    format_scalar,
    parse_scalar,
    scalar_key,
    sign_positive,
)

fractions = st.fractions(max_denominator=50)
gaussians = st.builds(GaussianRational, fractions, fractions)


@settings(max_examples=200, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a


@settings(max_examples=100, deadline=None)
@given(gaussians)
def test_inverses(a):
    if a != 0:
        assert a * (GaussianRational(Fraction(1), Fraction(0)) / a) == 1
    assert a + (-a) == 0


@settings(max_examples=100, deadline=None)
@given(gaussians, st.integers(min_value=0, max_value=6))
def test_powers_match_repeated_multiplication(a, n):
    expected = GaussianRational(Fraction(1), Fraction(0))
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


def test_mixed_arithmetic_with_rationals():
    g = GaussianRational(Fraction(1, 2), Fraction(3))
    assert g + Fraction(1, 2) == GaussianRational(Fraction(1), Fraction(3))
    assert 2 * g == GaussianRational(Fraction(1), Fraction(6))
    assert Fraction(1) / GaussianRational(Fraction(0), Fraction(1)) == GaussianRational(
        Fraction(0), Fraction(-1)
    )


def test_format_rational():
    assert format_scalar(Fraction(3)) == "3/1"
    assert format_scalar(Fraction(-7, 2)) == "-7/2"


def test_format_gaussian():
    g = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert format_scalar(g) == "1/2-3/4*i"
    assert format_scalar(GaussianRational(Fraction(0), Fraction(1))) == "0/1+1/1*i"


@settings(max_examples=150, deadline=None)
@given(fractions)
def test_rational_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


@settings(max_examples=150, deadline=None)
@given(gaussians)
def test_gaussian_roundtrip(g):
    assert parse_scalar(format_scalar(g), "Qi") == g


def test_parse_plain_integer():
    assert parse_scalar("5") == Fraction(5)
    assert parse_scalar("-12") == Fraction(-12)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("1/2/3")
    with pytest.raises(ValueError):
        parse_scalar("x")


def test_coerce_gaussian_to_rational():
    assert coerce(GaussianRational(Fraction(2), Fraction(0)), "Q") == Fraction(2)
    with pytest.raises(ValueError):
        coerce(GaussianRational(Fraction(0), Fraction(1)), "Q")


def test_sign_convention():
    assert sign_positive(Fraction(1, 2))
    assert not sign_positive(Fraction(-3))
    assert sign_positive(GaussianRational(Fraction(0), Fraction(2)))
    assert not sign_positive(GaussianRational(Fraction(0), Fraction(-2)))
    assert not sign_positive(GaussianRational(Fraction(-1), Fraction(5)))


def test_canonical_sign_vector():
    # count_aps signs a difference vector by its first nonzero entry
    def canonical(vec):
        first = next(c for c in vec if c != 0)
        return vec if sign_positive(first) else tuple(-c for c in vec)

    vec = (Fraction(0), Fraction(-2), Fraction(5))
    assert canonical(vec) == (Fraction(0), Fraction(2), Fraction(-5))
    assert canonical((Fraction(1), Fraction(-1))) == (Fraction(1), Fraction(-1))
    g = (GaussianRational(Fraction(0), Fraction(-1)), Fraction(3))
    assert canonical(g) == (GaussianRational(Fraction(0), Fraction(1)), Fraction(-3))


def test_scalar_key_orders_by_real_then_imaginary():
    a = GaussianRational(Fraction(1), Fraction(-1))
    b = GaussianRational(Fraction(1), Fraction(2))
    c = GaussianRational(Fraction(0), Fraction(100))
    assert sorted([b, a, c], key=scalar_key) == [c, a, b]
