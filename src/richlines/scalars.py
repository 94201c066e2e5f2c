"""Exact field elements: rationals and Gaussian rationals.

Plain rationals are ``fractions.Fraction``; the Gaussian field Q(i) gets a
small immutable wrapper with the same operator surface, so every algorithm
in the package works over either field by duck typing.  Coordinates never
touch floating point.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

FIELD_RATIONAL = "Q"
FIELD_GAUSSIAN = "Qi"


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i) stored as exact real and imaginary rationals."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational | None":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(Fraction(x), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nrm = o.re * o.re + o.im * o.im
        if nrm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / nrm,
            (self.im * o.re - self.re * o.im) / nrm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return GaussianRational(Fraction(1), Fraction(0)) / self ** (-n)
        out = GaussianRational(Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


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
    return x.im if isinstance(x, GaussianRational) else Fraction(0)


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
