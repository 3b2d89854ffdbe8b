"""Scalar backends.

Two arithmetic modes are used throughout the package:

* exact mode -- elements of the field Q(i), represented by
  :class:`GaussianRational` (a pair of ``fractions.Fraction``);
* float mode -- ordinary ``complex`` double precision.

Exact mode is mandatory wherever a criterion depends on testing a sum
for *exact* vanishing (root-system arithmetic, parameter vectors);
float mode is used for numeric realization and residual checks.
Matrices are numpy arrays: ``dtype=object`` filled with
:class:`GaussianRational` in exact mode, ``dtype=complex128`` in float
mode.  The two modes never mix silently: combining a
:class:`GaussianRational` with a float raises ``TypeError``.

An exact scalar, all whitespace removed, is RE, IMi or RE±IMi: RE and
IM are [+-]digits or [+-]digits/digits with a non-zero denominator, and
IM is signed after RE ("1/2-3/4 i", "+5", "-2i").  `parse_exact` builds
each part from the pattern's integer groups, as Fraction(int, int).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul

# RE[±IM i] or IM i; the groups are RE's numerator and denominator, IM's, IM-alone's
_RE_EXACT = re.compile(
    r"([+-]?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?i)?|([+-]?\d+)(?:/(\d+))?i")


class GaussianRational:
    """An element a + b*i of Q(i) with exact Fraction coordinates."""

    __slots__ = ("re", "im")

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        # Fractions are immutable, so they are kept, never copied
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
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
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus |z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def format_exact(x: GaussianRational) -> str:
    """Render as "a/b+c/d i"; the imaginary part is omitted when zero."""
    if x.im == 0:
        return str(x.re)
    sign = "+" if x.im >= 0 else "-"
    return f"{x.re}{sign}{abs(x.im)} i"


def parse_exact(text: str) -> GaussianRational:
    """Parse "a/b+c/d i" (either part optional) into Q(i); the grammar is
    in the module docstring."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty exact scalar")
    m = _RE_EXACT.fullmatch(s)
    if m is None:
        raise ValueError(f"cannot parse exact scalar {text!r}")
    rn, rd, imn, imd, jn, jd = m.groups()
    try:
        if rn is None:
            return GaussianRational(im=_fraction(jn, jd))
        if imn is None:
            return GaussianRational(_fraction(rn, rd))
        return GaussianRational(_fraction(rn, rd), _fraction(imn, imd))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in exact scalar {text!r}") from None


def _fraction(num: str, den: str | None) -> Fraction:
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def rationalize(x, max_denominator: int = 10**6) -> GaussianRational:
    """Nearest Q(i) point with bounded denominators.

    Only for explicit opt-in conversion of float data; criterion code
    never calls this implicitly.
    """
    z = complex(x)
    return GaussianRational(
        Fraction(z.real).limit_denominator(max_denominator),
        Fraction(z.imag).limit_denominator(max_denominator),
    )


def as_exact(x) -> GaussianRational:
    """Coerce ints, Fractions, strings and GaussianRationals; reject floats."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, str):
        return parse_exact(x)
    raise TypeError(f"not an exact scalar: {x!r} (floats must be rationalized explicitly)")


def as_complex(x) -> complex:
    """The float twin of `as_exact`: any scalar, exact or not, as a complex."""
    return x.to_complex() if isinstance(x, GaussianRational) else complex(x)


def as_double(x, name: str) -> complex:
    """`as_complex(x)` for a scalar the float commands need: one beyond
    the double range is a ValueError that names it as `name`."""
    try:
        return as_complex(x)
    except OverflowError:
        raise ValueError(f"{name} {x} lies beyond the double range") from None


def integerize(values):
    """(lcd, re, im): the least common denominator of the real and
    imaginary parts of exact `values` (floats are rejected), and the
    integer lists lcd * Re and lcd * Im in the order of `values`."""
    values = [as_exact(z) for z in values]
    lcd = math.lcm(*(x.denominator for z in values for x in (z.re, z.im)))
    real = [z.re.numerator * (lcd // z.re.denominator) for z in values]
    return lcd, real, [z.im.numerator * (lcd // z.im.denominator) for z in values]


def exact_dot(values, weights) -> GaussianRational:
    """sum_i values[i] * weights[i] for exact values and integer weights,
    as two integer dot products over the common denominator."""
    lcd, real, imag = integerize(values)
    return GaussianRational(
        Fraction(sum(map(mul, real, weights)), lcd), Fraction(sum(map(mul, imag, weights)), lcd))


def require_int(value, what: str, least: int) -> int:
    """`value` if it is an int of at least `least`; a bool, a float or a
    string is a ValueError naming `what`, never coerced."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")
    return value


def scalar_key(x):
    """Sort key ordering by (Re, Im); works in both modes."""
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    z = complex(x)
    return (z.real, z.imag)


def scalars_equal(a, b, exact: bool, rtol: float) -> bool:
    if exact:
        return as_exact(a) == as_exact(b)
    za, zb = complex(a), complex(b)
    return abs(za - zb) <= rtol * max(1.0, abs(za), abs(zb))
