"""Monomial bases, Veronese matrices, sparse polynomials, zero counting.

The global monomial order is graded lexicographic: exponent vectors are
sorted by total degree, and inside a degree block by descending
lexicographic order, so in two variables the degree-2 basis reads
1, x1, x2, x1^2, x1*x2, x2^2.  Every coefficient vector in the package is
expressed in this order, which keeps extracted polynomials reproducible.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, prod

from .geometry import Point
from .linalg import Matrix, gaussian_mul, integer_vector
from .pointsets import PointSet
from .scalars import Scalar


def monomial_count(d: int, r: int) -> int:
    """Number of monomials of degree at most r in d variables: C(d+r, d)."""
    if d < 1 or r < 0:
        raise ValueError("need d >= 1 and r >= 0")
    return comb(d + r, d)


def _exponents_of_degree(d: int, total: int):
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponents_of_degree(d - 1, total - first):
            yield (first,) + rest


@dataclass(frozen=True)
class MonomialBasis:
    """Graded-lex list of exponent vectors of degree <= max_degree."""

    dim: int
    max_degree: int
    exponents: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.exponents)


def monomial_basis(d: int, r: int) -> MonomialBasis:
    exps = []
    for total in range(r + 1):
        exps.extend(_exponents_of_degree(d, total))
    basis = MonomialBasis(d, r, tuple(exps))
    assert len(basis) == monomial_count(d, r)
    return basis


def _eval_monomial(exp, powers):
    val = Fraction(1)
    for i, e in enumerate(exp):
        if e:
            val = val * powers[i][e]
    return val


def _coordinate_powers(p: Point, max_degree: int):
    powers = []
    for c in p:
        row = [Fraction(1)]
        for _ in range(max_degree):
            row.append(row[-1] * c)
        powers.append(row)
    return powers


def veronese_matrix(ps: PointSet, r: int) -> Matrix:
    """Row i is the degree-<=r monomial evaluation vector of point i."""
    basis = monomial_basis(ps.dim, r)
    rows = []
    for p in ps.points:
        powers = _coordinate_powers(p, r)
        rows.append([_eval_monomial(e, powers) for e in basis.exponents])
    return Matrix(rows)


def monomial_rows(points, exps, gaussian: bool = False):
    """The monomials `exps` (a graded-lex basis) at each integer point of
    `integer_image`'s form: ints, or (re, im) pairs of realified Q(i) points."""
    one, mul = ((1, 0), gaussian_mul) if gaussian else (1, operator.mul)
    top = sum(exps[-1])
    if gaussian:
        points = [zip(p[::2], p[1::2]) for p in points]
    rows = []
    for p in points:
        powers = [list(itertools.accumulate(itertools.repeat(c, top), mul, initial=one)) for c in p]
        rows.append([reduce(mul, (pw[k] for pw, k in zip(powers, e) if k), one) for e in exps])
    return rows


def integer_veronese(ps: PointSet, r: int):
    """veronese_matrix(ps, r) * diag(s^e) with its column scales s^e, where
    x_a -> s_a * x_a is `ps.integer_image`: ints, or (re, im) pairs over Q(i)."""
    ints, scales, gaussian = ps.integer_image
    exps = monomial_basis(ps.dim, r).exponents
    axis = scales[::2] if gaussian else scales
    return monomial_rows(ints, exps, gaussian), [prod(map(pow, axis, e)) for e in exps]


def cleared(f: "Polynomial", scales, gaussian: bool = False):
    """(exps, w, L): exps the graded-lex basis of degree deg f, and L > 0 least
    with every w_e = L * c_e / s^e a (Gaussian) integer for the scales s of
    an `integer_image`, so f(p) = (row . w) / L for the `monomial_rows` at s * p."""
    exps = monomial_basis(f.dim, f.degree()).exponents
    axis = scales[::2] if gaussian else scales
    vec = [f.terms.get(e, 0) * Fraction(1, prod(map(pow, axis, e))) for e in exps]
    return (exps, *integer_vector(vec, gaussian))


class Polynomial:
    """Sparse multivariate polynomial: exponent vector -> nonzero coefficient."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms):
        self.dim = dim
        clean = {}
        for exp, coef in dict(terms).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != dim or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            if coef != 0:
                clean[exp] = coef
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def evaluate(self, p: Point) -> Scalar:
        if len(p) != self.dim:
            raise ValueError("dimension mismatch")
        powers = _coordinate_powers(p, self.degree())
        return sum(
            (coef * _eval_monomial(exp, powers) for exp, coef in self.terms.items()),
            Fraction(0),
        )

    def partial(self, i: int) -> "Polynomial":
        out = {}
        for exp, coef in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = exp[:i] + (e - 1,) + exp[i + 1 :]
            out[new] = out.get(new, Fraction(0)) + coef * e
        return Polynomial(self.dim, out)

    def gradient(self) -> list["Polynomial"]:
        return [self.partial(i) for i in range(self.dim)]

    def homogeneous_part(self) -> "Polynomial":
        """Top-degree homogeneous component."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading part")
        top = self.degree()
        return Polynomial(
            self.dim, {e: c for e, c in self.terms.items() if sum(e) == top}
        )

    def sorted_terms(self):
        degree_then_revlex = lambda e: (sum(e), tuple(-x for x in e))
        return sorted(self.terms.items(), key=lambda kv: degree_then_revlex(kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for exp, coef in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e > 0
            )
            parts.append(f"({coef}){'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(parts) + ")"


def poly_from_coeff_vector(basis: MonomialBasis, vec) -> Polynomial:
    if len(vec) != len(basis):
        raise ValueError("coefficient vector does not match basis")
    return Polynomial(basis.dim, dict(zip(basis.exponents, vec)))


def schwartz_zippel_count(
    f: Polynomial, values, homogeneous_slice: bool = False
) -> int:
    """Exact zero count of f on S^d, or on {1} x S^(d-1) in slice mode.

    The classical bounds deg(f)*|S|^(d-1) (and deg(f)*|S|^(d-2) for the
    homogeneous slice) are enforced: a violation means broken arithmetic,
    so it raises.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    vals = list(dict.fromkeys(values))
    d = f.dim
    r = f.degree()
    s = len(vals)
    if homogeneous_slice:
        if not f.is_homogeneous():
            raise ValueError("slice mode needs a homogeneous polynomial")
        if d < 2:
            raise ValueError("slice mode needs d >= 2")
        count = sum(
            1
            for tail in itertools.product(vals, repeat=d - 1)
            if f.evaluate((Fraction(1),) + tail) == 0
        )
        bound = r * s ** (d - 2)
    else:
        count = sum(
            1 for p in itertools.product(vals, repeat=d) if f.evaluate(p) == 0
        )
        bound = r * s ** (d - 1)
    if count > bound:
        raise AssertionError(
            f"zero count {count} exceeds the degree bound {bound}; arithmetic bug"
        )
    return count
