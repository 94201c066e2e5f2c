"""Exact field elements: rationals and Gaussian rationals.

Plain rationals are ``fractions.Fraction``.  The Gaussian field Q(i) is the
slotted, immutable ``GaussianRational``, whose two parts are always
``Fraction``s.  Its operators take int, ``Fraction`` or ``GaussianRational``
operands on either side, so every algorithm in the package works over either
field by duck typing.  An operand is read as its (re, im) parts, never
wrapped, results are built without coercing their parts again, and an
operand with no imaginary part takes the rational shortcut.  Coordinates
never touch floating point.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

FIELD_RATIONAL = "Q"
FIELD_GAUSSIAN = "Qi"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GaussianRational:
    """Element of Q(i) stored as exact real and imaginary rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        _set_re(self, re if type(re) is Fraction else Fraction(re))
        _set_im(self, im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        ore, oim = _parts(other)
        if ore is None:
            return NotImplemented
        return _new(self.re + ore, self.im + oim if oim else self.im)

    __radd__ = __add__

    def __sub__(self, other):
        ore, oim = _parts(other)
        if ore is None:
            return NotImplemented
        return _new(self.re - ore, self.im - oim if oim else self.im)

    def __rsub__(self, other):
        ore, oim = _parts(other)
        if ore is None:
            return NotImplemented
        return _new(ore - self.re, oim - self.im if oim else -self.im)

    def __mul__(self, other):
        ore, oim = _parts(other)
        if ore is None:
            return NotImplemented
        re, im = self.re, self.im
        if not oim:
            return _new(re * ore, im * ore)
        if not im:
            return _new(re * ore, re * oim)
        return _new(re * ore - im * oim, re * oim + im * ore)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ore, oim = _parts(other)
        if ore is None:
            return NotImplemented
        return _quotient(self.re, self.im, ore, oim)

    def __rtruediv__(self, other):
        ore, oim = _parts(other)
        if ore is None:
            return NotImplemented
        return _quotient(ore, oim, self.re, self.im)

    def __neg__(self):
        return _new(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if not self.im:
            return _new(self.re**n, _ZERO)
        if n < 0:
            p = self ** (-n)
            return _quotient(_ONE, _ZERO, p.re, p.im)
        out = _new(_ONE, _ZERO)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        ore, oim = _parts(other)
        if ore is None:
            return NotImplemented
        return self.re == ore and self.im == oim

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _new(re: Fraction, im: Fraction) -> GaussianRational:
    """Build a GaussianRational from parts that are already Fractions."""
    g = object.__new__(GaussianRational)
    _set_re(g, re)
    _set_im(g, im)
    return g


def _parts(x):
    """(re, im) of an int, Fraction or GaussianRational; (None, None) otherwise."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    if isinstance(x, (int, Fraction)):
        return x, 0
    return None, None


def _quotient(are, aim, bre, bim) -> GaussianRational:
    """(are + aim*i) / (bre + bim*i); the parts of one side are Fractions."""
    if not bim:
        if not bre:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _new(are / bre, aim / bre)
    nrm = bre * bre + bim * bim
    return _new((are * bre + aim * bim) / nrm, (aim * bre - are * bim) / nrm)


Scalar = Fraction | GaussianRational

def field_of(x: Scalar) -> str:
    return FIELD_GAUSSIAN if isinstance(x, GaussianRational) else FIELD_RATIONAL


def coerce(x, field: str = FIELD_RATIONAL) -> Scalar:
    """Coerce an int/Fraction/GaussianRational/string into the given field."""
    if isinstance(x, str):
        return parse_scalar(x, field)
    if field == FIELD_GAUSSIAN:
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(Fraction(x), Fraction(0))
    if isinstance(x, GaussianRational):
        if x.im != 0:
            raise ValueError(f"cannot coerce {x!r} into the rational field")
        return x.re
    return Fraction(x)


def real_part(x: Scalar) -> Fraction:
    return x.re if isinstance(x, GaussianRational) else x


def imag_part(x: Scalar) -> Fraction:
    return x.im if isinstance(x, GaussianRational) else _ZERO


def scalar_key(x: Scalar) -> tuple[Fraction, Fraction]:
    """Total order key: real part first, imaginary part as tie break."""
    return (real_part(x), imag_part(x))


def sign_positive(x: Scalar) -> bool:
    """Sign convention used to canonicalize directions and differences.

    A nonzero scalar counts as positive when its real part is positive,
    or the real part is zero and the imaginary part is positive.
    """
    r, i = real_part(x), imag_part(x)
    return r > 0 or (r == 0 and i > 0)


# -- serialization -----------------------------------------------------------

_RAT_RE = _re.compile(r"^(-?\d+)(?:/(\d+))?$")
_GAUSS_RE = _re.compile(r"^(-?\d+)/(\d+)([+-]\d+)/(\d+)\*i$")


def format_scalar(x: Scalar) -> str:
    """Render a scalar as "p/q" or "p/q+r/s*i" (denominators always shown)."""
    if isinstance(x, GaussianRational):
        re_s = f"{x.re.numerator}/{x.re.denominator}"
        sign = "+" if x.im >= 0 else "-"
        im = abs(x.im)
        return f"{re_s}{sign}{im.numerator}/{im.denominator}*i"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _ratio(num: str, den: str | None, s: str) -> Fraction:
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator in scalar {s!r}")
    return Fraction(int(num), int(den or 1))


def parse_scalar(s: str, field: str = FIELD_RATIONAL) -> Scalar:
    s = s.strip()
    m = _GAUSS_RE.match(s)
    if m:
        re_p = _ratio(m.group(1), m.group(2), s)
        im_p = _ratio(m.group(3), m.group(4), s)
        g = GaussianRational(re_p, im_p)
        if field == FIELD_RATIONAL:
            return coerce(g, field)
        return g
    m = _RAT_RE.match(s)
    if m:
        return coerce(_ratio(m.group(1), m.group(2), s), field)
    raise ValueError(f"cannot parse scalar {s!r}")


def parse_scalar_lenient(s: str) -> Scalar:
    """Parse without a field tag: plain fractions stay rational, gaussian
    strings come back gaussian."""
    s = s.strip()
    if _RAT_RE.match(s):
        return parse_scalar(s, FIELD_RATIONAL)
    return parse_scalar(s, FIELD_GAUSSIAN)


def parse_point(coords, field: str) -> tuple[Scalar, ...]:
    """Decode a JSON point: a list of scalar strings or integers."""
    if not isinstance(coords, list):
        raise ValueError(f"a point must be a list of coordinates, got {type(coords).__name__}")
    return tuple(_parse_coordinate(c, field) for c in coords)


def _parse_coordinate(c, field: str) -> Scalar:
    if isinstance(c, str):
        return parse_scalar(c, field)
    if type(c) is int:
        return coerce(c, field)
    raise ValueError(f"a coordinate must be a scalar string or an integer, got {c!r}")
