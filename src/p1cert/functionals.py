"""Weighted tail functionals and the exact value algebra they feed.

The four functionals map a decaying-exponential coefficient family

    P(eta) = sum over m of p_m * eta^(-m)        (eta = e^x)

to weighted l1 sums that bound radial-path integrals of x^(-j/2) P(e^x)
against bounded analytic prefactors:

    tail1_j[P] = 2/(j-2) * sum |p_m|              (j > 2, m >= 0)
    tail2_j[P] = sum 2/m * |p_m|                  (j > 0, m >= 1)
    tail3_j[P] = 2/(j-3) * sum |p_m|              (j > 3, m >= 0)
    tail4_j[P] = sum (j^2+2j-2)/(j(j-1)m) * |p_m| (j > 1, m >= 1)

Families carry a formal symbol S: entries are keyed (k, m) and stand
for coefficients of S^k e^(-m x).  The functionals therefore return
polynomials in |S| (:class:`SPoly`) rather than numbers.

The value algebra is exact: :class:`QSqrt2` is the field Q(sqrt(2))
with decidable signs, :class:`SPoly` are polynomials in |S| over it,
and :class:`PowerSum` are finite sums of SPoly-weighted powers rho^(-e)
with rational e; both are built on the sparse-sum core
:class:`p1cert.formal.MonomialSum`.  Numbers only appear when a
PowerSum is enclosed at one rho (:meth:`PowerSum.enclosure`), by an
outward integer kernel on the fixed-point grid 2^-SLIM_BITS: the floors
and ceilings of rho^(-e), |S|^k and sqrt(2) there bound every term, and
the sum becomes an :class:`~p1cert.numerics.Interval` with two dyadic
ends.  Equality and the signs that certify monotonicity stay exact.
A PowerSum whose exponents are all nonnegative and whose coefficients
are all nonnegative is mechanically certified nonincreasing in rho, so
its supremum over rho >= rho0 is its value at rho0.

Products need not be expanded to inherit that property.  Sums and
products of nonnegative nonincreasing functions, and of nonnegative
constants, are again nonnegative and nonincreasing (the closure lemma),
so an expression built by + and x from certified PowerSums is certified
as it stands; the lower-wedge certificate checks its small leaf
PowerSums this way and evaluates the expression by interval arithmetic.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping, Tuple, Union

from .formal import FormalSeries, MonomialSum
from .numerics import (
    SLIM_BITS,
    Interval,
    as_fraction,
    grid_root,
    stokes_modulus,
)

Scalar = Union[int, str, Fraction]
FamilyKey = Tuple[int, int]  # (k, m): coefficient of S^k e^(-m x)


# -- Q(sqrt(2)) ---------------------------------------------------------------

class QSqrt2:
    """Exact element a + b*sqrt(2) of the field Q(sqrt(2))."""

    __slots__ = ("a", "b")

    def __init__(self, a: Scalar = 0, b: Scalar = 0):
        object.__setattr__(self, "a", as_fraction(a))
        object.__setattr__(self, "b", as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt2 is immutable")

    # arithmetic; a rational operand pair (both b zero) skips the b parts
    def __add__(self, other):
        other = _coerce_q(other)
        if not (self.b or other.b):
            return _q(self.a + other.a)
        return _q(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return _q(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-_coerce_q(other))

    def __rsub__(self, other):
        return _coerce_q(other) + (-self)

    def __mul__(self, other):
        other = _coerce_q(other)
        if not (self.b or other.b):
            return _q(self.a * other.a)
        return _q(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    # order
    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        norm = a * a - 2 * b * b  # (a + b*sqrt2)(a - b*sqrt2)
        if a > 0:  # b < 0
            return 1 if norm > 0 else -1
        return 1 if norm < 0 else -1  # a < 0, b > 0

    def is_nonnegative(self) -> bool:
        return self.sign() >= 0

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other):
        try:
            other = _coerce_q(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # a rational equals QSqrt2(a, 0), so it must hash like a
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __repr__(self):
        if self.b == 0:
            return f"QSqrt2({self.a})"
        return f"QSqrt2({self.a}, {self.b})"


_ZERO = Fraction(0)


def _q(a: Fraction, b: Fraction = _ZERO) -> QSqrt2:
    """a + b sqrt(2) from Fraction parts, which are not coerced again."""
    q = object.__new__(QSqrt2)
    object.__setattr__(q, "a", a)
    object.__setattr__(q, "b", b)
    return q


def _coerce_q(value) -> QSqrt2:
    if isinstance(value, QSqrt2):
        return value
    return QSqrt2(as_fraction(value))


# -- polynomials in |S| --------------------------------------------------------

class SPoly(MonomialSum):
    """Polynomial in the nonnegative symbol |S| with QSqrt2 coefficients."""

    __slots__ = ()
    _UNIT = 0
    _coefficient = staticmethod(_coerce_q)

    @staticmethod
    def _key(k) -> int:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"|S| powers must be nonnegative ints, got {k!r}")
        return k

    @classmethod
    def s_power(cls, k: int, coeff: Union[Scalar, QSqrt2] = 1) -> "SPoly":
        return cls({k: coeff})

    def coefficient(self, k: int) -> QSqrt2:
        return self._terms.get(k, QSqrt2())

    def is_nonnegative(self) -> bool:
        """True when every coefficient is >= 0 (so the value is, too)."""
        return all(c.is_nonnegative() for c in self._terms.values())

    def __repr__(self):
        if not self._terms:
            return "SPoly(0)"
        bits = [f"{k}: {c!r}" for k, c in self.items()]
        return "SPoly({" + ", ".join(bits) + "})"


# -- the integer enclosure kernel ----------------------------------------------

#: The fixed-point grid 2^-B of :meth:`PowerSum.enclosure`.
_BITS = SLIM_BITS
_ONE = 1 << _BITS


@functools.lru_cache(maxsize=1024)
def _bracket(n: int, d: int, p: int, q: int) -> Tuple[int, int]:
    """The floor and ceiling of (n/d)^(p/q) 2^B, for d > 0 and n > 0
    (n >= 0 when p >= 0): one integer root on the grid 2^-B
    (:func:`~p1cert.numerics.grid_root`).  Keyed by plain ints, which
    hash in a fraction of the time a Fraction takes."""
    if p < 0:
        p, n, d = -p, d, n
    return grid_root(n ** p, d ** p, q, _BITS)


def _times(c: Fraction, y_lo: int, y_hi: int) -> Tuple[int, int]:
    """The floor of the least and the ceiling of the greatest c y over y
    in [y_lo, y_hi], for 0 <= y_lo <= y_hi."""
    n, d = c.numerator, c.denominator
    if n < 0:
        y_lo, y_hi = y_hi, y_lo
    return n * y_lo // d, -(-n * y_hi // d)


# -- sums of rho powers --------------------------------------------------------

class PowerSum(MonomialSum):
    """Finite sum over rational e of  SPoly_e * rho^(-e).

    Exponents may be any rationals; the nonincreasing-in-rho
    certification below additionally requires them nonnegative.
    """

    __slots__ = ()
    _UNIT = Fraction(0)
    _key = staticmethod(as_fraction)
    _coefficient = staticmethod(SPoly._coerce)

    # Rebound here so bench/tracer.py can hook them through vars(PowerSum).
    __mul__ = __rmul__ = MonomialSum.__mul__
    __pow__ = MonomialSum.__pow__

    @classmethod
    def monomial(cls, coeff: Union[Scalar, QSqrt2, SPoly], exponent: Scalar) -> "PowerSum":
        """coeff * rho^(-exponent)."""
        return cls({as_fraction(exponent): coeff})

    def coefficient(self, exponent: Scalar) -> SPoly:
        return self._terms.get(as_fraction(exponent), SPoly())

    def nonincreasing_in_rho(self) -> bool:
        """Mechanical certificate that the value cannot grow with rho >= 1.

        True when every exponent is >= 0 and every coefficient polynomial
        is (coefficientwise) nonnegative: each term c * rho^(-e) is then
        nonnegative and nonincreasing for rho >= 1, hence so is the sum,
        and the supremum over rho >= rho0 is attained at rho0.
        """
        return all(
            e >= 0 and c.is_nonnegative() for e, c in self._terms.items()
        )

    def enclosure(self, rho, s_abs: Interval | None = None) -> Interval:
        """Interval value at an exact rational rho > 0, with |S| in
        ``s_abs`` (an Interval >= 0 or a rational; by default
        :func:`~p1cert.numerics.stokes_modulus`).

        An outward integer kernel on the fixed-point grid 2^-B, B =
        :data:`~p1cert.numerics.SLIM_BITS`.  R = rho^(-e) 2^B, S =
        |S|^k 2^B and sqrt(2) 2^B are each bracketed by their floor and
        ceiling (:func:`_bracket`, cached, as they depend on rho and the
        ends of |S| alone), and so is W = (a + b sqrt(2)) 2^B.  Each
        term's product W S R is bounded at 2^-3B by the ends that its
        sign picks: S R >= 0, and W may have either sign.  The exact sum
        of those ends is rounded outward to 2^-B once, so the result has
        two dyadic ends.
        """
        rho = as_fraction(rho)
        if rho <= 0:
            raise ValueError(f"enclosure needs rho > 0, got {rho}")
        if s_abs is None:
            s_abs = stokes_modulus()
        elif not isinstance(s_abs, Interval):
            s_abs = Interval(s_abs)
        if s_abs.lo < 0:
            raise ValueError(f"|S| must be nonnegative, got {s_abs}")
        rho_n, rho_d = rho.numerator, rho.denominator
        (lo_n, lo_d), (hi_n, hi_d) = (s_abs.lo.as_integer_ratio(),
                                      s_abs.hi.as_integer_ratio())
        sqrt2_lo, sqrt2_hi = _bracket(2, 1, 1, 2)
        lo = hi = 0
        for e, poly in self._terms.items():
            r_lo, r_hi = _bracket(rho_n, rho_d, -e.numerator, e.denominator)
            for k, c in poly._terms.items():
                x_lo = _bracket(lo_n, lo_d, k, 1)[0] * r_lo
                x_hi = _bracket(hi_n, hi_d, k, 1)[1] * r_hi
                w_lo, w_hi = _times(c.a, _ONE, _ONE)
                if c.b:
                    b_lo, b_hi = _times(c.b, sqrt2_lo, sqrt2_hi)
                    w_lo, w_hi = w_lo + b_lo, w_hi + b_hi
                lo += w_lo * (x_lo if w_lo >= 0 else x_hi)
                hi += w_hi * (x_hi if w_hi >= 0 else x_lo)
        shift = 2 * _BITS
        return Interval(Fraction(lo >> shift, _ONE),
                        Fraction(-(-hi >> shift), _ONE))

    def __repr__(self):
        if not self._terms:
            return "PowerSum(0)"
        bits = [f"rho^(-{e}): {c!r}" for e, c in self.items()]
        return "PowerSum({" + ", ".join(bits) + "})"


# -- the weighted tail functionals ---------------------------------------------

def _family(entries: Mapping[FamilyKey, Scalar], m_min: int,
            name: str) -> dict[FamilyKey, Fraction]:
    """The nonzero entries as Fractions; ``name`` needs every m >= m_min."""
    out: dict[FamilyKey, Fraction] = {}
    for (k, m), c in entries.items():
        if not (isinstance(k, int) and isinstance(m, int)) or k < 0:
            raise ValueError(f"family keys are (S-power >= 0, integer m): {(k, m)!r}")
        c = as_fraction(c)
        if c != 0:
            out[(k, m)] = c
    for (_, m) in out:
        if m < m_min:
            raise ValueError(
                f"{name} needs every exponential order m >= {m_min}, found m = {m}")
    return out


def abs_sums_by_s_power(family: Mapping[FamilyKey, Fraction],
                        weight_of_m=lambda m: 1) -> SPoly:
    """sum over m of weight(m) * |p_{k,m}|, as a polynomial in |S|."""
    return SPoly((k, abs(c) * weight_of_m(m)) for (k, m), c in family.items())


def majorant(series: FormalSeries, shift: int = 0) -> PowerSum:
    """sum |c| |S|^k rho^(-(j - shift)/2) over the terms c S^k x^(-j/2)
    e^(-m x) of ``series``: a bound on |x^(shift/2) series| wherever
    |x| >= rho and Re x >= 0, which needs every m >= 0 and j >= shift."""
    families = {j: _family(series.x_slice(j), 0, "majorant")
                for j in series.j_values()}
    if families and min(families) < shift:
        raise ValueError(f"majorant needs every half-power j >= {shift}, "
                         f"found j = {min(families)}")
    return PowerSum({Fraction(j - shift, 2): abs_sums_by_s_power(family)
                     for j, family in families.items()})


def tail1(j: int, entries: Mapping[FamilyKey, Scalar]) -> SPoly:
    """2/(j-2) * sum |p_m| over the family; needs j > 2 and m >= 0."""
    if j <= 2:
        raise ValueError(f"tail1 needs j > 2, got j = {j}")
    family = _family(entries, 0, "tail1")
    w = Fraction(2, j - 2)
    return abs_sums_by_s_power(family, lambda m: w)


def tail2(j: int, entries: Mapping[FamilyKey, Scalar]) -> SPoly:
    """sum (2/m) |p_m| over the family; needs j > 0 and m >= 1."""
    if j <= 0:
        raise ValueError(f"tail2 needs j > 0, got j = {j}")
    family = _family(entries, 1, "tail2")
    return abs_sums_by_s_power(family, lambda m: Fraction(2, m))


def tail3(j: int, entries: Mapping[FamilyKey, Scalar]) -> SPoly:
    """2/(j-3) * sum |p_m| over the family; needs j > 3 and m >= 0."""
    if j <= 3:
        raise ValueError(f"tail3 needs j > 3, got j = {j}")
    family = _family(entries, 0, "tail3")
    w = Fraction(2, j - 3)
    return abs_sums_by_s_power(family, lambda m: w)


def tail4(j: int, entries: Mapping[FamilyKey, Scalar]) -> SPoly:
    """sum (j^2+2j-2)/(j(j-1)m) |p_m| over the family; needs j > 1, m >= 1."""
    if j <= 1:
        raise ValueError(f"tail4 needs j > 1, got j = {j}")
    family = _family(entries, 1, "tail4")
    w = Fraction(j * j + 2 * j - 2, j * (j - 1))
    return abs_sums_by_s_power(family, lambda m: w / m)


__all__ = [
    "QSqrt2",
    "SPoly",
    "PowerSum",
    "abs_sums_by_s_power",
    "majorant",
    "tail1",
    "tail2",
    "tail3",
    "tail4",
]
