"""Exact constants of the certified regions, each defined once.

The certificates (:mod:`p1cert.certificates`) prove that the solution's
correction to a closed form lies in a ball on a region of the outer frame
x = (e^(i pi/4)/30) (24 z)^(5/4); the evaluator (:mod:`p1cert.evaluator`)
labels a closed-form value rigorous on that region and takes that ball
as its error bound.  Both read the numbers that tie the two sides together
from the rows below, so a row moves the proof and the label at once.
:data:`CLOSED_FORMS` orders the rows: the first row that holds a point
wins.  A row's ``holds`` decides that for z = (zr + i zi) 2^-bits on
the integers zr and zi.

Standard library only: importing this module loads neither side, nor
mpmath; it takes one integer root from :mod:`p1cert.numerics`, which is
standard library only too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Dict, Tuple

from .numerics import grid_root


#: cos(pi/5) = (1 + sqrt 5)/4 and sin(pi/5) = sqrt(10 - 2 sqrt 5)/4 at 2^-96.
_COS, _SIN = ((1 << 96) + math.isqrt(5 << 192) >> 2,
              math.isqrt((10 << 192) - (math.isqrt(5 << 192) << 97)) >> 2)


@dataclass(frozen=True)
class Region:
    """A closed-form region: arg x from ``lowest`` pi to ``highest`` pi,
    unwrapped in (-pi, 3pi/2], and |x| at least a floor, whose exact
    fourth power is ``floor_fourth``.  ``name`` is the evaluator's token;
    ``adds_h0`` says whether the closed form's bracket (formal's
    ``outer_bracket``) adds the exponentially small quasi-solution h0(x)."""

    name: str
    lowest: Fraction
    highest: Fraction
    adds_h0: ClassVar[bool] = False
    #: How far outside the region ``holds`` admits a point.
    TOLERANCE: ClassVar[Fraction] = Fraction(0)
    #: Per precision, the least norm that ``holds`` admits.
    _least: Dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def least_norm(self, bits: int) -> int:
        """Once per precision, the least n = zr^2 + zi^2 with (576 n)^5 >=
        (30^4 f)^2 2^(10 bits), |x|^4 >= f = floor_fourth (1 - TOLERANCE)^4."""
        if bits not in self._least:
            f = self.floor_fourth * (1 - self.TOLERANCE) ** 4
            self._least[bits] = grid_root((30**4 * f.numerator) ** 2,
                                          576**5 * f.denominator ** 2,
                                          5, 2 * bits)[1]
        return self._least[bits]


@dataclass(frozen=True)
class Ray(Region):
    """The ray omega_I, arg x = pi/2, from the matching point outward.

    Its floor is |x0| = (24 ``z0_abs``)^(5/4)/30, the outer-frame image
    of the matching point's modulus |z0| = ``z0_abs``.  The ray
    certificate at rho = |x0| and ``eps`` puts the correction H in the
    ball ||H|| <= :attr:`ball`, in the weighted sup norm
    ||H|| = sup |x^(5/2) H(x)| over the ray, where ``h0_norm`` bounds
    ||H0||.
    """

    z0_abs: Fraction
    eps: Fraction
    h0_norm: Fraction
    #: arg x may miss pi/2 by this many radians while the miss times |x|
    #: is at most 1/2, and |x| fall short of the floor by this fraction.
    #: The 1/2 keeps Re x >= -1/2 and |xi| < 1, as the evaluator's layer
    #: sum and its rounding bound assume.  That is not a proof; a transfer
    #: term |y'| |z - z_ray| to the ray would make it one.
    TOLERANCE: ClassVar[Fraction] = Fraction(1, 10**9)

    @property
    def ball(self) -> Fraction:
        """(1 + eps) ||H0||, the radius of the certified ball."""
        return (1 + self.eps) * self.h0_norm

    @property
    def floor_fourth(self) -> Fraction:
        return (24 * self.z0_abs) ** 5 / 30 ** 4

    def holds(self, zr: int, zi: int, bits: int) -> bool:
        """Whether z lies within TOLERANCE of the ray arg z = pi/5, where
        zr, zi > 0.  The miss m of arg x, 5/4 of arg z's, is read as the
        sine a/|z|, a = Im(z e^(-i pi/5)) with e^(i pi/5) at 2^-96, and
        m |x| <= 1/2 as (m |x|)^8 <= 1/256, |x|^4 = (24 |z|)^5/30^4."""
        if zr <= 0 or zi <= 0:
            return False
        n, tol = zr * zr + zi * zi, self.TOLERANCE
        a2 = (zi * _COS - zr * _SIN) ** 2
        return (n >= self.least_norm(bits) and 25 * tol.denominator**2 * a2
                <= 16 * tol.numerator**2 * n << 192
                and 147456 * a2**4 * n <= 1 << 10 * bits + 768)


@dataclass(frozen=True)
class Wedge(Region):
    """The lower wedge omega_4, -pi/2 <= arg x <= -pi/4, |x| >= ``floor``.

    The certificate writes the correction as h0 + G/sqrt(x) and puts G in
    the ball of radius ``ball`` in the weighted sup norm
    sup |x^(5/2) G(x)| over the wedge.
    """

    floor: Fraction
    ball: Fraction
    adds_h0: ClassVar[bool] = True

    @property
    def floor_fourth(self) -> Fraction:
        return self.floor ** 4

    @staticmethod
    def within(zr: int, zi: int, least: int = 0) -> bool:
        """-3pi/5 <= arg z <= -2pi/5 and zr^2 + zi^2 >= ``least``, exactly:
        within -3pi/4 < arg z < -pi/4 (zi < 0, u = zr^2 < v = zi^2), that is
        Im(z^5) = zi (5 u^2 - 10 u v + v^2) <= 0, or 5 (v - u)^2 >= 4 v^2."""
        u, v = zr * zr, zi * zi
        return (zi < 0 and u < v and u + v >= least
                and 5 * (v - u) ** 2 >= 4 * v * v)

    def holds(self, zr: int, zi: int, bits: int) -> bool:
        """Whether z lies in the closed wedge, decided exactly."""
        return self.within(zr, zi, self.least_norm(bits))


def arg_z(arg_x: Fraction) -> Fraction:
    """arg z / pi where arg x = ``arg_x`` pi: arg x = pi/4 + 5 arg z/4."""
    return (arg_x - Fraction(1, 4)) * Fraction(4, 5)


#: The ray instance that hands initial data to the inner interval at
#: z0 = (17/10) e^(i pi/5), so |x0| = (204/5)^(5/4)/30.
OMEGA_I = Ray(name="omegaI", lowest=Fraction(1, 2), highest=Fraction(1, 2),
              z0_abs=Fraction(17, 10), eps=Fraction(1, 40),
              h0_norm=Fraction(784, 3125))

#: The lower wedge from rho = 3, with its radius-4 ball.
OMEGA_4 = Wedge(name="omega4", lowest=Fraction(-1, 2),
                highest=Fraction(-1, 4), floor=Fraction(3), ball=Fraction(4))

#: The closed-form rows in priority order.
CLOSED_FORMS: Tuple[Region, ...] = (OMEGA_I, OMEGA_4)

#: R0 of the Maclaurin envelope |c_k| < (k+1)/R0^(k+2) in the rotated
#: frame: the solution is analytic and bounded on the disk |t| < R0.
DISK_RADIUS = Fraction(37, 20)


__all__ = ["Region", "Ray", "Wedge", "arg_z", "OMEGA_I", "OMEGA_4",
           "CLOSED_FORMS", "DISK_RADIUS"]
