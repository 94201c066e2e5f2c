from fractions import Fraction
from random import Random

import pytest

from conftest import restrict_to_line
from richlines.pointsets import grid, pointset_from
from richlines.veronese import (
    Polynomial,
    monomial_basis,
    monomial_count,
    poly_from_coeff_vector,
    schwartz_zippel_count,
    veronese_matrix,
)

F = Fraction


def veronese_point(p, r):
    return veronese_matrix(pointset_from([p]), r).row(0)


def test_monomial_counts():
    assert monomial_count(2, 2) == 6
    assert monomial_count(3, 0) == 1
    assert monomial_count(1, 7) == 8
    assert monomial_count(3, 4) == 35


def test_basis_order_matches_standard_embedding():
    basis = monomial_basis(2, 2)
    assert basis.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_basis_starts_with_constant():
    for d, r in [(1, 3), (2, 4), (3, 2)]:
        assert monomial_basis(d, r).exponents[0] == (0,) * d


def test_veronese_point_quadratic():
    # (a1, a2) -> (1, a1, a2, a1^2, a1 a2, a2^2)
    v = veronese_point((F(2), F(3)), 2)
    assert v == (F(1), F(2), F(3), F(4), F(6), F(9))


def test_veronese_degree_zero():
    assert veronese_point((F(5), F(7), F(9)), 0) == (F(1),)


def test_veronese_matrix_shape_and_collinear_rank():
    ps = pointset_from([(F(t), F(3 * t - 1)) for t in range(4)])
    M = veronese_matrix(ps, 2)
    assert (M.rows, M.cols) == (4, 6)
    assert M.rank() == 3


def test_polynomial_eval_matches_inner_product():
    rng = Random(5)
    basis = monomial_basis(2, 3)
    for _ in range(20):
        vec = [F(rng.randint(-4, 4)) for _ in range(len(basis))]
        f = poly_from_coeff_vector(basis, vec)
        pt = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        phi = veronese_point(pt, 3)
        assert f.evaluate(pt) == sum(w * x for w, x in zip(vec, phi))


def test_polynomial_eval_examples():
    zero = Polynomial(2, {})
    assert zero.evaluate((F(11), F(-2))) == 0
    circle = Polynomial(2, {(2, 0): F(1), (0, 2): F(1), (0, 0): F(-25)})
    assert circle.evaluate((F(3), F(4))) == 0
    prod = Polynomial(2, {(1, 1): F(1)})
    assert prod.evaluate((F(2), F(3, 2))) == 3


def test_gradient_examples():
    circle = Polynomial(2, {(2, 0): F(1), (0, 2): F(1), (0, 0): F(-25)})
    gx, gy = circle.gradient()
    assert gx == Polynomial(2, {(1, 0): F(2)})
    assert gy == Polynomial(2, {(0, 1): F(2)})
    const = Polynomial(3, {(0, 0, 0): F(9)})
    assert all(g.is_zero() for g in const.gradient())


def test_gradient_exact_difference_quotient():
    # f = x1^2 x2 + 3 x1 - 2 at a = (1/2, 2/3): the forward quotient misses
    # the derivative by exactly x2 * eps (the second-order Taylor term)
    f = Polynomial(2, {(2, 1): F(1), (1, 0): F(3), (0, 0): F(-2)})
    a = (F(1, 2), F(2, 3))
    dfdx = f.partial(0)
    assert dfdx.evaluate(a) == F(2, 3) + 3
    for eps in (F(1, 10), F(1, 100), F(1, 1000)):
        quotient = (f.evaluate((a[0] + eps, a[1])) - f.evaluate(a)) / eps
        assert quotient - dfdx.evaluate(a) == F(2, 3) * eps


def test_homogeneous_part():
    circle = Polynomial(2, {(2, 0): F(1), (0, 2): F(1), (0, 0): F(-25)})
    top = circle.homogeneous_part()
    assert top == Polynomial(2, {(2, 0): F(1), (0, 2): F(1)})
    assert top.homogeneous_part() == top
    with pytest.raises(ValueError):
        Polynomial(2, {}).homogeneous_part()


def test_homogeneous_part_controls_leading_coefficient():
    # g(t) = f(a + t b) has degree deg(f) with leading coefficient top(b)
    f = Polynomial(2, {(1, 1): F(1), (1, 0): F(1), (0, 0): F(7)})
    a, b = (F(0), F(0)), (F(1), F(1))
    coeffs = restrict_to_line(f, a, b)
    assert coeffs == [F(7), F(1), F(1)]
    assert coeffs[-1] == f.homogeneous_part().evaluate(b)


def test_restrict_to_line_on_vanishing_line():
    f = Polynomial(2, {(1, 0): F(1), (0, 1): F(-1)})  # x1 - x2
    coeffs = restrict_to_line(f, (F(0), F(0)), (F(1), F(1)))
    assert all(c == 0 for c in coeffs)


def test_zero_count_diagonal():
    f = Polynomial(2, {(1, 0): F(1), (0, 1): F(-1)})
    assert schwartz_zippel_count(f, [F(1), F(2), F(3)]) == 3


def test_zero_count_no_rational_roots():
    f = Polynomial(1, {(2,): F(1), (0,): F(1)})  # x^2 + 1
    assert schwartz_zippel_count(f, [F(i) for i in range(-4, 5)]) == 0


def test_zero_count_homogeneous_slice():
    f = Polynomial(2, {(1, 0): F(1), (0, 1): F(-1)})
    count = schwartz_zippel_count(f, [F(i) for i in range(1, 6)], homogeneous_slice=True)
    assert count == 1  # only (1, 1)


def test_zero_count_rejects_bad_inputs():
    with pytest.raises(ValueError):
        schwartz_zippel_count(Polynomial(2, {}), [F(1)])
    inhomogeneous = Polynomial(2, {(1, 0): F(1), (0, 0): F(1)})
    with pytest.raises(ValueError):
        schwartz_zippel_count(inhomogeneous, [F(1)], homogeneous_slice=True)


def test_zero_count_random_bounds():
    rng = Random(9)
    for _ in range(40):
        d = rng.choice([2, 3])
        deg = rng.randint(1, 3)
        basis = monomial_basis(d, deg)
        terms = {}
        for exp in basis.exponents:
            c = rng.randint(-3, 3)
            if c and rng.random() < 0.6:
                terms[exp] = F(c)
        if not terms:
            continue
        f = Polynomial(d, terms)
        values = sorted({F(rng.randint(-4, 4)) for _ in range(rng.randint(2, 6))})
        count = schwartz_zippel_count(f, values)
        assert count <= f.degree() * len(values) ** (d - 1)


def test_kernel_iff_vanishing_polynomial():
    # forward: a kernel vector yields a polynomial vanishing on V
    ps = grid(2, 3)
    M = veronese_matrix(ps, 2)
    kernel = M.right_nullspace()
    for vec in kernel:
        f = poly_from_coeff_vector(monomial_basis(2, 2), vec)
        assert all(f.evaluate(p) == 0 for p in ps.points)
    # backward: points on a known curve force a nontrivial kernel
    curve = pointset_from([(F(x), F(x * x)) for x in range(-3, 4)])
    assert veronese_matrix(curve, 2).right_nullspace()
    # and no degree-1 polynomial vanishes on a full planar grid
    assert veronese_matrix(grid(2, 4), 1).right_nullspace() == []
