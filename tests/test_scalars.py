import copy
import pickle
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


# -- differential check of every operator against (re, im) Fraction pairs ----

operands = st.one_of(st.integers(-6, 6), fractions, gaussians)


def _pair(x):
    return (x.re, x.im) if isinstance(x, GaussianRational) else (Fraction(x), Fraction(0))


def _pair_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pair_div(a, b):
    nrm = b[0] * b[0] + b[1] * b[1]
    if nrm == 0:
        return None
    return ((a[0] * b[0] + a[1] * b[1]) / nrm, (a[1] * b[0] - a[0] * b[1]) / nrm)


def _pair_pow(a, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _pair_mul(out, a)
    return out if n >= 0 else _pair_div((Fraction(1), Fraction(0)), out)


def _assert_gaussian(x, want):
    assert type(x) is GaussianRational
    assert type(x.re) is type(x.im) is Fraction
    assert (x.re, x.im) == want


@settings(max_examples=400, deadline=None)
@given(gaussians, operands, st.booleans())
def test_operators_match_pair_reference(g, other, swap):
    a, b = (other, g) if swap else (g, other)
    pa, pb = _pair(a), _pair(b)
    _assert_gaussian(a + b, (pa[0] + pb[0], pa[1] + pb[1]))
    _assert_gaussian(a - b, (pa[0] - pb[0], pa[1] - pb[1]))
    _assert_gaussian(a * b, _pair_mul(pa, pb))
    want = _pair_div(pa, pb)
    if want is None:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        _assert_gaussian(a / b, want)
    _assert_gaussian(-g, (-g.re, -g.im))
    assert (a == b) is (pa == pb)
    assert (a != b) is (pa != pb)
    if pa == pb:
        assert hash(a) == hash(b)
    assert bool(g) is (_pair(g) != (0, 0))


@settings(max_examples=200, deadline=None)
@given(gaussians, st.integers(-4, 5))
def test_power_matches_pair_reference(g, n):
    want = _pair_pow(_pair(g), n) if g or n >= 0 else None
    if want is None:
        with pytest.raises(ZeroDivisionError):
            g**n
    else:
        _assert_gaussian(g**n, want)


@settings(max_examples=150, deadline=None)
@given(fractions)
def test_real_gaussian_hashes_like_its_rational(q):
    g = GaussianRational(q, 0)
    assert hash(g) == hash(q)
    assert g in {q} and q in {g}
    assert {q: "q"}[g] == "q" and {g: "g"}[q] == "g"
    assert len({q, g}) == 1
    if q.denominator == 1:
        assert q.numerator in {g} and g in {q.numerator}


@pytest.mark.parametrize("zero", [0, Fraction(0), GaussianRational(0, 0)])
def test_division_by_zero_raises(zero):
    for num in (GaussianRational(1, 2), Fraction(3), 1):
        if isinstance(num, GaussianRational) or isinstance(zero, GaussianRational):
            with pytest.raises(ZeroDivisionError):
                num / zero
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0, 0) ** -1


def test_gaussian_is_immutable():
    g = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        g.re = Fraction(5)
    with pytest.raises(AttributeError):
        g.im = Fraction(5)
    with pytest.raises(AttributeError):
        del g.re
    with pytest.raises(AttributeError):
        g.extra = 1
    assert (g.re, g.im) == (Fraction(1), Fraction(2))


def test_constructor_coerces_to_fractions():
    g = GaussianRational(1, "3/4")
    assert type(g.re) is type(g.im) is Fraction
    assert g == GaussianRational(Fraction(1), Fraction(3, 4))
    assert repr(g) == "GaussianRational(Fraction(1, 1), Fraction(3, 4))"


def test_gaussian_survives_copy_and_pickle():
    g = GaussianRational(Fraction(1, 2), Fraction(-3))
    for back in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(back) is GaussianRational and (back.re, back.im) == (g.re, g.im)
