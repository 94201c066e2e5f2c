"""Differential tests of `linalg.first_kernel_vector` and `linalg.integer_rank`
on integer images.

The routine finds the first RREF kernel vector of M = M_int * diag(s)^-1
from a pivot profile modulo a prime and an exact integer solve.  It is
checked here, by `format_scalar` bytes (so the scalar types too), against
`right_nullspace` of the field matrix: on Veronese matrices of Q and Q(i)
point sets, with the production primes and with small primes that force the
second-prime and the RREF fallbacks.
"""

import contextlib
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlines import linalg
from richlines.linalg import first_kernel_vector, integer_rank, right_nullspace, rref_rank
from richlines.pointsets import pointset_from
from richlines.scalars import FIELD_GAUSSIAN, FIELD_RATIONAL, GaussianRational, format_scalar
from richlines.veronese import integer_veronese, monomial_count, veronese_matrix

F = Fraction
G = GaussianRational
SMALL_PRIMES = [((5, 2), (13, 5)), ((13, 5), (17, 4)), ((17, 4), (5, 2))]


def _bytes(vec):
    return None if vec is None else [format_scalar(x) for x in vec]


def _reference(ps, deg):
    kernel = right_nullspace(veronese_matrix(ps, deg).row_list(), monomial_count(ps.dim, deg))
    return kernel[0] if kernel else None


def _fast(ps, deg):
    return first_kernel_vector(*integer_veronese(ps, deg), ps.field == FIELD_GAUSSIAN)


@st.composite
def veronese_inputs(draw):
    gaussian = draw(st.booleans())
    d = draw(st.integers(1, 4))
    deg = draw(st.integers(0, 3))

    def scalar(nonzero=False):
        re = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        im = F(draw(st.integers(-3, 3)), draw(st.integers(1, 2))) if gaussian else F(0)
        if nonzero and re == 0 and im == 0:
            re = F(1)
        return G(re, im) if gaussian else re

    shape = draw(st.sampled_from(["random", "zero-axis", "unisolvent"]))
    if shape == "unisolvent" and (deg + 1) ** d <= 64:
        # {0..deg}^d under a per-axis scaling: no nonzero polynomial of
        # degree <= deg vanishes on it, so the kernel is trivial
        scale = [scalar(nonzero=True) for _ in range(d)]
        pts = [tuple(c * s for c, s in zip(combo, scale))
               for combo in itertools.product(range(deg + 1), repeat=d)]
    else:
        pts = [tuple(scalar() for _ in range(d)) for _ in range(draw(st.integers(1, 10)))]
        if shape == "zero-axis":
            axis = draw(st.integers(0, d - 1))
            pts = [p[:axis] + (p[axis] * 0,) + p[axis + 1:] for p in pts]
    field = FIELD_GAUSSIAN if gaussian else FIELD_RATIONAL
    return pointset_from(list(dict.fromkeys(pts)), field), deg


@settings(max_examples=200, deadline=None)
@given(veronese_inputs())
def test_first_kernel_vector_matches_rref_bytes(case):
    ps, deg = case
    with _spied(linalg._PRIMES) as seen:
        got = _fast(ps, deg)
    assert _bytes(got) == _bytes(_reference(ps, deg))
    # the first 61-bit prime is lucky on inputs this small: no fallback ran
    assert seen == {"primes": [linalg._PRIMES[0][0]], "rref": 0}


@settings(max_examples=100, deadline=None)
@given(veronese_inputs(), st.sampled_from(SMALL_PRIMES))
def test_first_kernel_vector_survives_unlucky_primes(case, primes):
    ps, deg = case
    with mock.patch.object(linalg, "_PRIMES", primes):
        assert _bytes(_fast(ps, deg)) == _bytes(_reference(ps, deg))


@settings(max_examples=200, deadline=None)
@given(veronese_inputs())
def test_integer_rank_of_the_image_is_the_field_rank(case):
    # scaling a column by s^e != 0 keeps the rank, so M_int has the rank of M
    ps, deg = case
    rows, _ = integer_veronese(ps, deg)
    before = [list(r) for r in rows]
    assert integer_rank(rows, ps.field == FIELD_GAUSSIAN) == rref_rank(
        veronese_matrix(ps, deg).row_list()
    )
    assert rows == before


def test_integer_veronese_is_a_column_scaling():
    for field, pts in [
        (FIELD_RATIONAL, [(F(1, 2), F(-3)), (F(2, 3), F(0)), (F(-5, 6), F(1, 4))]),
        (FIELD_GAUSSIAN, [(G(F(1, 2), 1), G(0, F(-1, 3))), (G(2, 0), G(F(3, 4), F(1, 2)))]),
    ]:
        ps = pointset_from(pts, field)
        rows, scales = integer_veronese(ps, 3)
        M = veronese_matrix(ps, 3)
        for j, row in enumerate(rows):
            for k, (x, s) in enumerate(zip(row, scales)):
                if field == FIELD_GAUSSIAN:
                    x = G(*x)
                assert x == M.row(j)[k] * s


def _is_prime(n):
    """Miller-Rabin with the first 12 prime bases: exact for n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_primes_and_square_roots_of_minus_one():
    assert len(linalg._PRIMES) == 2
    for p, iota in linalg._PRIMES + tuple(q for pair in SMALL_PRIMES for q in pair):
        assert _is_prime(p) and p % 4 == 1
        assert iota * iota % p == p - 1
    assert all(p.bit_length() == 61 for p, _ in linalg._PRIMES)
    assert not _is_prime(2305843009213693921 * 5) and _is_prime(2**61 - 1)


@contextlib.contextmanager
def _spied(primes):
    """Patch the primes; record the prime of every pivot profile and every
    call of the RREF fallback."""
    seen = {"primes": [], "rref": 0}
    real_profile, real_rref = linalg._pivot_rows, linalg.right_nullspace

    def profile(a, cols, p):
        seen["primes"].append(p)
        return real_profile(a, cols, p)

    def rref_kernel(rows, cols):
        seen["rref"] += 1
        return real_rref(rows, cols)

    with mock.patch.object(linalg, "_PRIMES", primes), \
            mock.patch.object(linalg, "_pivot_rows", profile), \
            mock.patch.object(linalg, "right_nullspace", rref_kernel):
        yield seen


def _field(rows, scales, gaussian):
    if gaussian:
        return [[G(F(a, s), F(b, s)) for (a, b), s in zip(row, scales)] for row in rows]
    return [[F(x, s) for x, s in zip(row, scales)] for row in rows]


# Column 1 is 5 or 65 times an integer vector: dependent modulo 5 (and 13),
# independent over the field.
_UNLUCKY = [
    ([[1, 0], [0, 5]], [1, 2], False),
    ([[1, 0, 1], [0, 5, 5]], [3, 1, 2], False),
    ([[1, 0, 1], [0, 65, 65]], [1, 1, 1], False),
    ([[(1, 0), (0, 0), (1, 0)], [(0, 0), (0, 65), (0, 65)]], [1, 2, 1], True),
    ([[(1, 1), (0, 0)], [(0, 0), (65, 0)]], [2, 1], True),
]
_BIG = linalg._PRIMES[0]


@pytest.mark.parametrize("rows, scales, gaussian", _UNLUCKY)
def test_second_prime_fallback_runs_and_agrees(rows, scales, gaussian):
    with _spied(((5, 2), _BIG)) as seen:
        got = first_kernel_vector(rows, scales, gaussian)
    assert seen == {"primes": [5, _BIG[0]], "rref": 0}
    kernel = right_nullspace(_field(rows, scales, gaussian), len(scales))
    assert _bytes(got) == _bytes(kernel[0] if kernel else None)


@pytest.mark.parametrize("rows, scales, gaussian", _UNLUCKY[2:])
def test_rref_fallback_runs_and_agrees(rows, scales, gaussian):
    with _spied(((5, 2), (13, 5))) as seen:
        got = first_kernel_vector(rows, scales, gaussian)
    assert seen == {"primes": [5, 13], "rref": 1}
    kernel = right_nullspace(_field(rows, scales, gaussian), len(scales))
    assert _bytes(got) == _bytes(kernel[0] if kernel else None)


def test_unit_kernel_vector_keeps_rational_entries_over_gaussian():
    rows = [[(1, 2), (0, 0), (3, 0)], [(0, 1), (0, 0), (1, 1)]]
    got = first_kernel_vector(rows, [1, 1, 1], True)
    assert got == (0, 1, 0) and all(type(x) is Fraction for x in got)


def test_empty_and_columnless_inputs():
    assert _bytes(first_kernel_vector([], [1, 1, 1])) == ["1/1", "0/1", "0/1"]
    assert first_kernel_vector([[]], []) is None
