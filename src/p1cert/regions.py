"""Exact constants of the certified regions, each defined once.

The certificates (:mod:`p1cert.certificates`) prove that the solution's
correction to a closed form lies in a ball on a region of the outer frame
x = (e^(i pi/4)/30) (24 z)^(5/4); the evaluator (:mod:`p1cert.evaluator`)
labels a closed-form value rigorous on that region and takes that ball
as its error bound.  Both read the numbers that tie the two sides together
from the rows below, so a row moves the proof and the label at once.
:data:`CLOSED_FORMS` orders the rows: the first row that holds a point
wins.

Standard library only: importing this module loads neither side, nor
mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Tuple


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

    @property
    def ball(self) -> Fraction:
        """(1 + eps) ||H0||, the radius of the certified ball."""
        return (1 + self.eps) * self.h0_norm

    @property
    def floor_fourth(self) -> Fraction:
        return (24 * self.z0_abs) ** 5 / 30 ** 4


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
