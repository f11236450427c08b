"""Exact rational interval arithmetic, and its one outward-rounding module.

Everything certificate-grade in this package runs on closed intervals with
`fractions.Fraction` endpoints.  Interval operations return intervals that
contain the exact image set; because endpoint arithmetic is exact there is
no rounding step and hence no rounding-mode bookkeeping.  Roots are the one
exception: :func:`floor_root` takes exact integer n-th roots, with no
floating point, and :func:`root_enclosure` rounds each endpoint outward on
the dyadic grid finer than the one certificate width :data:`CERT_TOL`.

Rounding lives here too: :func:`dyadic_floor`, :func:`dyadic_ceil`,
:func:`slim` and :func:`slim_up` shorten large rational endpoints outward
before they are compared or printed, through the one integer floor
(:func:`_floor_dyadic`) that also rounds the evaluator's certified error
bounds up and :func:`p1cert.polybound.sup_abs`'s attained values down.
The one computation that rounds at every step, the Maclaurin envelope,
runs on the integer ball kernel of :mod:`p1cert.inner` and converts its
balls back to :class:`Interval` exactly, and the lower-wedge leaves are
enclosed on the grid 2^-:data:`SLIM_BITS` by the integer kernel of
:meth:`p1cert.functionals.PowerSum.enclosure`, so every certified
comparison stays an exact rational one.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Tuple

Rational = Fraction

_ZERO = Fraction(0)

#: Width of every root bracket inside a certificate.  Tight enough that
#: every stated margin (the smallest is ~3e-9) dwarfs the enclosure width.
CERT_TOL = Fraction(1, 10**24)

# pi truncated to 40 decimal places; the 41st digit is 6, so the truncation
# window [PI_LO, PI_LO + 10^-40] is a genuine enclosure.  The test suite
# re-derives this bracket from an arctangent series with explicit tail
# bounds, in pure rational arithmetic.
_PI_DIGITS = 31415926535897932384626433832795028841971
PI_LO = Fraction(_PI_DIGITS, 10**40)
PI_HI = Fraction(_PI_DIGITS + 1, 10**40)


def as_fraction(value) -> Fraction:
    """Exact rational from an int, Fraction, or 'num/den' string; floats
    are refused, since they would smuggle rounding into exact values."""
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} is not an exact value; "
            "use int, Fraction, or a 'num/den' string"
        )
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def as_integer(value) -> int:
    """Exact int from an int; floats, bools and every other type are
    refused, since truncating them would pass a wrong index as a valid one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{type(value).__name__} {value!r} is not an exact integer")
    return value


class Interval:
    """A closed interval [lo, hi] with exact rational endpoints.

    Supports +, -, *, /, integer powers, abs, and containment queries.
    Mixed arithmetic with ints/Fractions treats the scalar as a point
    interval.  Division requires the divisor to be bounded away from zero.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = as_fraction(lo)
        hi = as_fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    # -- queries ----------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, value) -> bool:
        value = as_fraction(value)
        return self.lo <= value <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def is_positive(self) -> bool:
        return self.lo > 0

    def is_nonnegative(self) -> bool:
        return self.lo >= 0

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return _ordered(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return _ordered(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other.lo == other.hi:  # scalar fast path
            c = other.lo
            if c >= 0:
                return _ordered(self.lo * c, self.hi * c)
            return _ordered(self.hi * c, self.lo * c)
        if self.lo >= 0 and other.lo >= 0:
            # both nonnegative: these are the least and greatest products
            return _ordered(self.lo * other.lo, self.hi * other.hi)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return _ordered(min(products), max(products))

    __rmul__ = __mul__

    def inverse(self) -> "Interval":
        if self.straddles_zero():
            raise ZeroDivisionError(f"interval {self} contains zero")
        return _ordered(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("interval powers must have int exponents; "
                            "use frac_pow for fractional powers")
        if n < 0:
            return (self ** (-n)).inverse()
        if n == 0:
            return Interval(1)
        if n % 2 == 1 or self.lo >= 0:
            return _ordered(self.lo**n, self.hi**n)
        if self.hi <= 0:
            return _ordered(self.hi**n, self.lo**n)
        # even power of a zero-straddling interval
        return _ordered(_ZERO, max(self.lo**n, self.hi**n))

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return _ordered(_ZERO, max(-self.lo, self.hi))

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __float__(self):
        return float(self.mid)

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self):
        return f"[{float(self.lo):.17g}, {float(self.hi):.17g}]"


def _ordered(lo: Fraction, hi: Fraction) -> Interval:
    """An Interval from Fraction endpoints whose order holds by
    construction (sums, products, min and max), without the public
    constructor's coercion and emptiness check."""
    iv = object.__new__(Interval)
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    return iv


def _coerce(value) -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval(value)


# -- outward dyadic rounding ------------------------------------------------

def _floor_dyadic(num: int, den: int, bits: int) -> Tuple[int, int]:
    """(m, e) with m 2^e the largest multiple of 2^e <= num/den, for
    den > 0 and e = len(num) - len(den) - bits, so about ``bits``
    significant bits of the ratio as given, reduced or not.
    :func:`dyadic_floor`, :func:`dyadic_ceil` and the evaluator's
    rounded-up error bounds take this floor, or the ceiling
    -floor(-num/den)."""
    e = num.bit_length() - den.bit_length() - bits
    if e >= 0:
        return num // (den << e), e
    return (num << -e) // den, e


def dyadic_floor(x: Fraction, bits: int) -> Fraction:
    """The largest dyadic of about ``bits`` significant bits <= x."""
    m, e = _floor_dyadic(x.numerator, x.denominator, bits)
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    """The smallest dyadic of about ``bits`` significant bits >= x."""
    return -dyadic_floor(-x, bits)


#: A rational is slimmed once its numerator and denominator together
#: exceed this many bits, and then rounded outward to ``SLIM_BITS``.
SLIM_THRESHOLD = 512
SLIM_BITS = 128


def _oversized(x: Fraction) -> bool:
    return (x.numerator.bit_length() + x.denominator.bit_length()
            > SLIM_THRESHOLD)


def slim_up(x: Fraction) -> Fraction:
    """Outward (upward) dyadic rounding applied only when the exact
    rational is too large to print comfortably; comparisons against the
    rounded value are conservative."""
    return dyadic_ceil(x, SLIM_BITS) if _oversized(x) else x


def slim(iv: Interval) -> Interval:
    """Outward rounding of both endpoints under the same size rule."""
    lo, hi = iv.lo, iv.hi
    if _oversized(lo):
        lo = dyadic_floor(lo, SLIM_BITS)
    if _oversized(hi):
        hi = dyadic_ceil(hi, SLIM_BITS)
    return Interval(lo, hi)


def pi_enclosure() -> Interval:
    """Enclosure of pi with width 1e-40."""
    return Interval(PI_LO, PI_HI)


def floor_root(m: int, n: int) -> int:
    """The exact floor of the n-th root of an int m >= 0: nested
    :func:`math.isqrt` when n is a power of two, else integer Newton."""
    if m < 0 or n < 1:
        raise ValueError(f"floor_root needs m >= 0 and n >= 1, got {m}, {n}")
    if n & (n - 1) == 0:
        while n > 1:
            m, n = math.isqrt(m), n >> 1
        return m
    if m < 2:
        return m
    # from 2^ceil(bits/n) > m^(1/n), Newton steps decrease strictly and
    # never pass below the floor root, so the first non-decrease ends it
    x = 1 << -(-m.bit_length() // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def grid_exponent(tol: Fraction = CERT_TOL) -> int:
    """The smallest integer k with 2^-k <= ``tol``: the exponent of the
    dyadic grid on which root brackets are rounded outward."""
    # the smallest k with 2^-k <= tol is this estimate or the next one
    k = tol.denominator.bit_length() - tol.numerator.bit_length()
    if Fraction(2) ** -k > tol:
        k += 1
    return k


def grid_root(num: int, den: int, n: int, k: int) -> tuple[int, int]:
    """The outward bracket [a 2^-k, b 2^-k] of the n-th root of
    num/den >= 0 on the grid 2^-k, as the pair (a, b).

    ``a`` is the floor root of floor(num/den 2^(nk)) and ``b`` the
    ceiling root of its ceiling, so b - a <= 1, and a root on the grid
    gives a == b.  One integer root serves both ends: when a^n is not
    exactly num/den 2^(nk), b is a + 1.
    """
    if k >= 0:
        q, rem = divmod(num << (n * k), den)
    else:
        q, rem = divmod(num, den << (-n * k))
    a = floor_root(q, n)
    return a, a + (rem != 0 or a ** n != q)


def root_enclosure(u, n: int, tol: Fraction = CERT_TOL) -> Interval:
    """Enclosure of the n-th root of a nonnegative interval or rational.

    The root map is monotone, so each endpoint is rounded outward by
    :func:`grid_root` on the grid 2^-k of :func:`grid_exponent`.  Each
    bracket is at most 2^-k wide (the result can be wider if the input
    interval is wide), and a root on the grid, such as (81/16)^(1/4),
    comes back as a point.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"root order must be a positive int, got {n!r}")
    u = _coerce(u)
    if u.lo < 0:
        raise ValueError(f"n-th root of interval {u} with negative part")
    if n == 1:
        return u
    k = grid_exponent(tol)
    lo, hi = grid_root(u.lo.numerator, u.lo.denominator, n, k)
    if u.hi != u.lo:
        hi = grid_root(u.hi.numerator, u.hi.denominator, n, k)[1]
    return Interval(lo, hi) * Fraction(2) ** -k


def sqrt_enclosure(u) -> Interval:
    return root_enclosure(u, 2)


def frac_pow(u, num: int, den: int) -> Interval:
    """Enclosure of u ** (num/den) for positive u (u >= 0 when num > 0).

    Computed as the num-th integer power of an n-th root enclosure; for
    negative ``num`` the positive power is inverted.
    """
    if not isinstance(num, int) or not isinstance(den, int) or den < 1:
        raise ValueError("frac_pow exponent must be int/positive-int")
    u = _coerce(u)
    if num == 0:
        return Interval(1)
    root = root_enclosure(u, den)
    return root**num


@functools.cache
def sqrt2_enclosure() -> Interval:
    return root_enclosure(2, 2)


@functools.cache
def stokes_modulus() -> Interval:
    """Enclosure of sqrt(6/(5*pi)), the modulus of the Stokes multiplier
    attached to the tritronquee's exponentially small corrections."""
    return sqrt_enclosure(Interval(6) / (5 * pi_enclosure()))


def truncation_window(printed: str) -> Interval:
    """The set of reals a truncated decimal string stands for.

    A value printed as ``0.91863`` (with further digits dropped, not
    rounded) lies in [0.91863, 0.91864).  We return the closed hull, which
    is what a containment check against an enclosure needs.
    """
    printed = printed.strip()
    if printed.startswith("-"):
        return -truncation_window(printed[1:])
    if "." not in printed:
        raise ValueError(f"expected a decimal string, got {printed!r}")
    digits = len(printed) - printed.index(".") - 1
    lo = Fraction(printed)
    return Interval(lo, lo + Fraction(1, 10**digits))


__all__ = [
    "Rational",
    "Interval",
    "as_fraction",
    "as_integer",
    "dyadic_floor",
    "dyadic_ceil",
    "slim",
    "slim_up",
    "CERT_TOL",
    "pi_enclosure",
    "floor_root",
    "grid_exponent",
    "grid_root",
    "root_enclosure",
    "sqrt_enclosure",
    "sqrt2_enclosure",
    "frac_pow",
    "stokes_modulus",
    "truncation_window",
]
