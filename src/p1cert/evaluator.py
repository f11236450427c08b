"""Floating-point evaluation of the certified Painlevé I solution.

The certificate modules prove, in exact rational arithmetic, that a
distinguished solution of  y'' = 6 y^2 + z  (the tritronquée) exists and
is pole-free on a sector plus a disk.  This module *evaluates* that
solution numerically: coordinate-frame changes, asymptotic values with
rigorous error bounds where the certificates supply one, a high-order
adaptive Taylor integrator for the equation in the rotated frame

    g'' = 6 g^2 + t,        g(t) = e^(2*pi*i/5) * y(-t * e^(i*pi/5)),

and pole-distance estimation.

Everything here is arbitrary-precision arithmetic: mpmath floating point
(100-bit minimum working precision), and fixed point on Python integers
for the integrator's inner loop and the closed forms' Horner sums.  The
constants the frame changes and the asymptotic values share -- the roots
of unity, the modulus of the Stokes constant and the table of the
asymptotic regions, with their fixed-point layers -- are computed once per
working precision (:func:`_constants`), with the same expressions as on
first use, so they carry the same bits.  Apart from the asymptotic error
formulas and the enclosure windows at the origin -- which are certified
facts imported from the exact modules -- outputs are high-quality
numerical estimates, not proofs; the exact certificates never depend on
this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from mpmath import mp, mpc, mpf, workprec

from . import data, formal, inner
from .inner import Gaussian, taylor_fixed
from .numerics import _floor_dyadic
from .regions import CLOSED_FORMS, DISK_RADIUS, OMEGA_4
from .result import PreconditionError

Number = Union[int, float, Fraction, mpf, mpc, complex]

#: Default working precision (bits) for every routine in this module.
DEFAULT_PRECISION_BITS = 128

#: Hard minimum working precision; requests below this raise.
MIN_PRECISION_BITS = 100

#: Extra internal bits so that returned values are clean at the
#: requested precision.
GUARD_BITS = 32

#: Default accuracy target for :func:`integrate`.
DEFAULT_TOL = Fraction(1, 10**25)

#: A trajectory value of this magnitude is treated as a pole encounter.
BLOWUP_THRESHOLD = 10**8

#: Search horizon (in |t|) of :func:`pole_estimate`.
POLE_HORIZON = 10

#: Integrator tolerance of :func:`pole_estimate`.
_POLE_TOL = Fraction(1, 10**10)

#: Significant digits of the pole estimate in a past-the-pole warning.
_WARNING_DIGITS = 15

#: Taylor order window for the integrator.
MIN_ORDER, MAX_ORDER = 16, 64

_MAX_STEPS = 500_000

#: Asymptotic-region tokens accepted by :func:`asymptotic_y`: the names
#: of the closed-form rows of :mod:`p1cert.regions`, in priority order.
ASYMPTOTIC_REGIONS = tuple(row.name for row in CLOSED_FORMS)

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "MIN_PRECISION_BITS",
    "DEFAULT_TOL",
    "BLOWUP_THRESHOLD",
    "POLE_HORIZON",
    "MIN_ORDER",
    "MAX_ORDER",
    "ASYMPTOTIC_REGIONS",
    "PreconditionError",
    "PoleNotFoundError",
    "FramePoint",
    "IntegrationResult",
    "PoleEstimate",
    "PoleScan",
    "Evaluation",
    "frame_map",
    "g_from_y",
    "y_from_g",
    "h0_value",
    "asymptotic_y",
    "taylor_coeffs",
    "integrate",
    "pole_estimate",
    "pole_scan",
    "y_at_zero",
    "evaluate_point",
]


# --------------------------------------------------------------------------
# precision and coercion helpers
# --------------------------------------------------------------------------


def _require_bits(precision_bits: int) -> None:
    if not isinstance(precision_bits, int):
        raise TypeError(f"precision_bits must be an int, got {precision_bits!r}")
    if precision_bits < MIN_PRECISION_BITS:
        raise PreconditionError(
            f"working precision below the {MIN_PRECISION_BITS}-bit minimum: "
            f"{precision_bits}"
        )


def _to_mpf(value: Number) -> mpf:
    if isinstance(value, Fraction):
        return mpf(value.numerator) / mpf(value.denominator)
    if isinstance(value, (int, float, mpf)):
        return mpf(value)
    raise TypeError(f"cannot interpret {value!r} as a real number")


def _to_mpc(value: Number) -> mpc:
    if isinstance(value, mpc):
        return value
    if isinstance(value, complex):
        return mpc(value.real, value.imag)
    return mpc(_to_mpf(value))


def _finite_mpc(value: Number) -> mpc:
    """``value`` as an mpc at the working precision; raises unless finite."""
    w = _to_mpc(value)
    if not mp.isfinite(w):
        raise PreconditionError(f"the point must be finite, got {w}")
    return w


def _fixed(x: mpf, bits: int) -> int:
    sign, man, exp, _ = x._mpf_
    if sign:
        man = -man
    shift = exp + bits
    return man << shift if shift >= 0 else man >> -shift


def _to_fixed(x: mpc, bits: int) -> Gaussian:
    return _fixed(x.real, bits), _fixed(x.imag, bits)


def _real(x: int, bits: int) -> mpf:
    return mpf((x, -bits))


def _from_fixed(x: Gaussian, bits: int) -> mpc:
    return mpc(_real(x[0], bits), _real(x[1], bits))


def _fifth_root_of_unity_power(numerator: int, denominator: int = 5) -> mpc:
    """e^(i*pi*numerator/denominator) at the current working precision."""
    return _constants(mp.prec).roots[numerator, denominator]


@dataclass(frozen=True)
class _Constants:
    """The shared constants at one working precision."""

    #: e^(i*pi*n/d) keyed by (n, d): the eighth roots e^(+-i*pi/4) of the
    #: outer frame and every power of e^(i*pi/5) the rotations use.
    roots: Dict[Tuple[int, int], mpc]
    #: The rest are fixed point at 2^-prec.  cos(pi/4) = sin(pi/4), the
    #: parts of e^(i*pi/4) that turn (24 z)^(5/4)/30 into x
    #: (:func:`_outer_polar`):
    eighth: int
    #: Per row of :data:`ASYMPTOTIC_REGIONS`: the layers of its bracket,
    #: each the ascending coefficients of a polynomial in 1/x of
    #: sum_k xi^k L_k(1/x) (:func:`_layer_sum`), and its ball, rounded up.
    regions: Dict[str, Tuple[Tuple[Tuple[int, ...], ...], int]]
    #: |S| = sqrt(6/(5*pi)), the modulus of the Stokes constant S = i|S|.
    stokes_modulus: int
    #: The layers of h0 alone (:func:`_h0_layers`).
    h0_layers: Tuple[Tuple[int, ...], ...]


@functools.lru_cache(maxsize=16)
def _constants(prec: int) -> _Constants:
    """The shared constants at ``prec`` bits, computed once per precision
    (the 16 most recent precisions are kept)."""
    scale = 1 << prec

    def layers(series):
        return tuple(tuple(round(c * scale) for c in layer)
                     for layer in _h0_layers(series))

    bracket, h0 = formal.outer_bracket(), formal.h0_series()
    with workprec(prec):
        keys = [(n, 5) for n in range(-3, 4)] + [(1, 4), (-1, 4)]
        return _Constants(
            roots={(n, d): mp.expjpi(mpf(n) / d) for n, d in keys},
            eighth=math.isqrt(1 << 2 * prec - 1),
            # Per row of p1cert.regions: formal's bracket, plus h0 where
            # the row's kind adds it, and the ball rounded up.
            regions={
                row.name: (layers(bracket + h0 if row.adds_h0 else bracket),
                           math.ceil(row.ball * scale))
                for row in CLOSED_FORMS},
            stokes_modulus=_fixed(mp.sqrt(mpf(6) / (5 * mp.pi)), prec),
            h0_layers=layers(h0),
        )


# --------------------------------------------------------------------------
# coordinate frames
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FramePoint:
    """One evaluation point in all three coordinate frames.

    * ``z``  -- the frame of  y'' = 6 y^2 + z;
    * ``t``  -- the rotated frame  z = -t * e^(i*pi/5)  in which the
      certified disk is centred at t = 0 and the distinguished ray is
      the negative real axis;
    * ``x``  -- the outer frame  x = (e^(i*pi/4)/30) * (24 z)^(5/4)
      (principal branch), used by the asymptotic representations.
      ``None`` at the origin, where the branch point makes x undefined.
    """

    z: mpc
    t: mpc
    x: Optional[mpc]


def _x_of_z(z: mpc) -> mpc:
    return _fifth_root_of_unity_power(1, 4) / 30 * (24 * z) ** (mpf(5) / 4)


def _z_of_x(x: mpc) -> mpc:
    return (30 * x * _fifth_root_of_unity_power(-1, 4)) ** (mpf(4) / 5) / 24


def frame_map(
    value: Number,
    frame: str = "z",
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> FramePoint:
    """Map a point given in one frame to all three frames.

    ``frame`` names the frame of ``value``: ``"z"``, ``"t"`` or ``"x"``.
    The branch conventions are principal everywhere, so the z <-> x
    round trip is the identity exactly for arg z in (-4*pi/5, 4*pi/5];
    the z <-> t round trip is a rotation and holds for every z.
    The point must be finite, and x != 0 in the x frame.
    """
    _require_bits(precision_bits)
    if frame not in ("z", "t", "x"):
        raise ValueError(f"unknown frame {frame!r}; expected 'z', 't' or 'x'")
    with workprec(precision_bits + GUARD_BITS):
        w = _finite_mpc(value)
        if frame == "z":
            z = w
        elif frame == "t":
            z = -w * _fifth_root_of_unity_power(1)
        else:
            if w == 0:
                raise PreconditionError(
                    "the outer frame has a branch point at the origin; "
                    "x must be nonzero"
                )
            z = _z_of_x(w)
        t = -z * _fifth_root_of_unity_power(-1)
        x = None if z == 0 else _x_of_z(z)
        return FramePoint(z=z, t=t, x=x)


def g_from_y(
    y: Number,
    y_prime: Number,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Tuple[mpc, mpc]:
    """Rotate solution data (y, dy/dz) into the t frame (g, dg/dt)."""
    _require_bits(precision_bits)
    with workprec(precision_bits + GUARD_BITS):
        g = _fifth_root_of_unity_power(2) * _to_mpc(y)
        g_prime = -_fifth_root_of_unity_power(3) * _to_mpc(y_prime)
        return g, g_prime


def y_from_g(
    g: Number,
    g_prime: Number,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Tuple[mpc, mpc]:
    """Rotate t-frame data (g, dg/dt) back to (y, dy/dz)."""
    _require_bits(precision_bits)
    with workprec(precision_bits + GUARD_BITS):
        y = _fifth_root_of_unity_power(-2) * _to_mpc(g)
        y_prime = -_fifth_root_of_unity_power(-3) * _to_mpc(g_prime)
        return y, y_prime


# --------------------------------------------------------------------------
# asymptotic values with certified error bounds
# --------------------------------------------------------------------------


def _h0_layers(series: formal.FormalSeries) -> List[List[Fraction]]:
    """Group a series  sum c * xi^k * x^(-l)  into its layers P_k.

    ``series`` holds terms  c * S^k x^(-j/2) e^(-m*x)  that are monomials
    in  xi = S e^(-x)/sqrt(x)  and 1/x: k == m, j >= k and j - k even,
    with l = (j - k)/2.  Returns [P_0, P_1, ...], each P_k the ascending
    coefficients of its polynomial in 1/x, so the series is
    sum_k xi^k P_k(1/x).  Raises ValueError for any other term.
    """
    layers: List[List[Fraction]] = []
    for (k, j, m), coeff in series.items():
        if k != m or j < k or (j - k) % 2:
            raise ValueError(
                f"term S^{k} x^(-{j}/2) e^(-{m}x) is not a monomial in "
                "xi = S e^(-x)/sqrt(x) and 1/x"
            )
        while len(layers) <= k:
            layers.append([])
        layer = layers[k]
        power = (j - k) // 2
        layer.extend([Fraction(0)] * (power + 1 - len(layer)))
        layer[power] += coeff
    return layers


def _poly_fixed(coeffs: Sequence[int], u: Gaussian, bits: int) -> Gaussian:
    """sum c_l u^l for real ascending ``coeffs``, all at 2^-bits; 0 when
    there are none."""
    if not coeffs:
        return 0, 0
    ur, ui = u
    gr, gi = coeffs[-1], 0
    for c in coeffs[-2::-1]:
        gr, gi = ((gr * ur - gi * ui) >> bits) + c, (gr * ui + gi * ur) >> bits
    return gr, gi


def _sqrt(w: Gaussian, modulus: int, divisor: int, bits: int) -> Gaussian:
    """sqrt(w/divisor) on the principal branch, from w and modulus = |w|
    at 2^-bits, for a positive integer ``divisor``.

    The part of larger size is sqrt((|w| +- Re w)/(2 divisor)), the other
    Im w / (2 divisor * it), so that neither subtraction cancels.  On the
    negative real axis, the branch cut, the root is +i sqrt(|w|/divisor),
    as mpmath's.
    """
    wr, wi = w
    if wr >= 0:
        re = math.isqrt(((modulus + wr) << bits) // (2 * divisor))
        return re, (wi << bits) // (2 * divisor * re)
    im = math.isqrt(((modulus - wr) << bits) // (2 * divisor))
    return (abs(wi) << bits) // (2 * divisor * im), im if wi >= 0 else -im


def _layer_sum(layers: Sequence[Sequence[int]], x: Gaussian,
               bits: int) -> Gaussian:
    """sum_k xi^k L_k(1/x) at x, all at 2^-bits.

    ``layers`` are layers of :class:`_Constants`.  The sum is a nested
    Horner form on Gaussian integers, with 1/x = conj(x)/|x|^2 and

        xi = S e^(-x)/sqrt(x)
           = i|S| e^(-Re x) (cos Im x - i sin Im x) conj(sqrt x)/|x|,

    sqrt x the principal root (:func:`_sqrt`).  L_0 alone takes no
    mpmath call; a layer above it takes one real exp and one cos_sin.
    With |1/x| <= 1 and |xi| <= 1, as everywhere in the wedge, each stage
    rounds by at most one unit of 2^-bits.  Raises
    :class:`PreconditionError` when Re x < -bits, where xi would not fit
    fixed point.  Runs at the caller's working precision.
    """
    re_x, im_x = x
    norm = re_x * re_x + im_x * im_x
    u = (re_x << 2 * bits) // norm, (-im_x << 2 * bits) // norm
    *lower, top = layers
    total = _poly_fixed(top, u, bits)
    if lower:
        if re_x < -(bits << bits):
            raise PreconditionError(
                f"Re x = {mp.nstr(_real(re_x, bits), 12)} is below -{bits}, "
                "where xi = S e^(-x)/sqrt(x) leaves the fixed-point range")
        modulus = math.isqrt(norm)
        root_re, root_im = _sqrt(x, modulus, 1, bits)
        cos, sin = (_fixed(v, bits) for v in mp.cos_sin(_real(im_x, bits)))
        scale = (_constants(bits).stokes_modulus
                 * _fixed(mp.exp(_real(-re_x, bits)), bits))
        # (cos - i sin)(root_re - i root_im) = a - i b, and i(a - i b) is
        # b + i a; scale * (b + i a) is at 2^-4bits and |x| at 2^-bits.
        a = cos * root_re - sin * root_im
        b = cos * root_im + sin * root_re
        den = modulus << 2 * bits
        xi_re, xi_im = scale * b // den, scale * a // den
        for layer in reversed(lower):
            (tr, ti), (lr, li) = total, _poly_fixed(layer, u, bits)
            total = (((tr * xi_re - ti * xi_im) >> bits) + lr,
                     ((tr * xi_im + ti * xi_re) >> bits) + li)
    return total


def h0_value(x: Number, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpc:
    """Evaluate the exponentially small quasi-solution correction h0(x).

    h0 is a polynomial in  xi = S e^(-x)/sqrt(x)  whose coefficients are
    polynomials in 1/x.  Its layers P_k are grouped from the symbolically
    verified series once per precision -- the grouping checks that every
    term has that structure and raises otherwise -- and rounded to
    integers at 2^-prec, so this evaluation cannot drift from the table
    identities.  The value is the nested Horner form
    sum_k xi^k P_k(1/x)  on Gaussian integers at 2^-prec (prec the working
    precision, guard bits included), the kernel that the closed forms of
    :func:`asymptotic_y` and :func:`evaluate_point` share: from x at
    2^-prec, one real exp and one cos_sin, then integer products and
    square roots, sqrt x on mpmath's principal branch.  Its error is a
    few units of 2^-prec where |1/x| <= 1 and |xi| <= 1, as in the
    omega_4 wedge; it is absolute, so a value far below 2^-prec keeps no
    relative accuracy.  Raises :class:`PreconditionError` for
    |x| < 2^-prec or x reading 0 at 2^-prec, x = 0 included, and for
    Re x < -prec.
    """
    _require_bits(precision_bits)
    with workprec(precision_bits + GUARD_BITS):
        xv = _finite_mpc(x)
        bits = mp.prec
        x_fixed = _to_fixed(xv, bits)
        if x_fixed == (0, 0) or _fixed(abs(xv), bits) == 0:
            raise PreconditionError(
                f"h0 is undefined at x = 0 and out of fixed-point range for "
                f"|x| < 2^-{bits}")
        total = _layer_sum(_constants(bits).h0_layers, x_fixed, bits)
        return _from_fixed(total, bits)


@dataclass(frozen=True)
class Evaluation:
    """The solution at one point: what every point evaluation,
    :func:`y_at_zero`, :func:`asymptotic_y` and :func:`evaluate_point`,
    returns.

    ``rigorous`` is True exactly when ``error_bound`` is a certified
    radius (origin window or asymptotic ball); otherwise
    ``error_estimate`` is the integrator's heuristic sum of truncation
    tails and rounding bounds, and the value is a consistency estimate.
    """

    z: mpc
    y: Optional[mpc]
    y_prime: Optional[mpc]
    method: str
    rigorous: bool
    error_bound: Optional[mpf] = None
    slope_error_bound: Optional[mpf] = None
    error_estimate: Optional[mpf] = None
    warning: Optional[str] = None


def asymptotic_y(
    z: Number,
    region: str,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Evaluation:
    """Evaluate y(z) from a certified asymptotic representation.

    ``region`` names the row of :data:`p1cert.regions.CLOSED_FORMS`
    whose certificate supplies the error bound: the oscillatory ray
    ``"omegaI"``, value i*sqrt(z/6) * (1 - 4/(25 x^2)), or the lower wedge
    ``"omega4"``, which adds the exponentially small quasi-solution h0(x)
    inside the bracket.  The row's ball B bounds the correction in the
    weighted norm sup |x^(5/2) H(x)|, which gives the error
    |sqrt(z/6)| * B * |x|^(-3).

    Both come from z's integers at 2^-prec (:func:`_outer_polar`,
    :func:`_closed_form`): r = |z|, sqrt(z/6) and the outer image x by
    integer square roots, the bracket by the kernel of :func:`h0_value`,
    and its product with i*sqrt(z/6).  The result is the
    :class:`Evaluation` that :func:`evaluate_point` returns at z when it
    picks ``region``, method ``"asymptotic-<region>"``, with no slope.

    Raises :class:`PreconditionError`, stating the region, unless its
    row of :mod:`p1cert.regions` holds z: exactly in the wedge, and
    within :attr:`p1cert.regions.Ray.TOLERANCE` of the ray, which is not
    a proof.  The message gives |x| and arg x = pi/4 + 5 arg z/4,
    unwrapped, so 3pi/2 on the negative real axis.
    """
    _require_bits(precision_bits)
    if region not in ASYMPTOTIC_REGIONS:
        raise ValueError(
            f"unknown region {region!r}; expected one of {ASYMPTOTIC_REGIONS}"
        )
    with workprec(precision_bits + GUARD_BITS):
        zv = _finite_mpc(z)
        if zv == 0:
            raise PreconditionError("asymptotic representations require z != 0")
        bits = mp.prec
        z_fixed = _to_fixed(zv, bits)
        row = CLOSED_FORMS[ASYMPTOTIC_REGIONS.index(region)]
        if not row.holds(*z_fixed, bits):
            # z may read 0 at 2^-bits, where it has no x.
            radius = _outer_polar(z_fixed, bits)[3] if any(z_fixed) else 0
            angle = (_fixed(+mp.pi, bits) + 5 * _fixed(mp.arg(zv), bits)) // 4
            raise PreconditionError(
                f"{region} requires |x|^4 >= {row.floor_fourth} and "
                f"{row.lowest} <= arg x/pi <= {row.highest}; got |x| = "
                f"{mp.nstr(_real(radius, bits), 12)} and arg x = "
                f"{mp.nstr(_real(angle, bits), 12)}")
        return _closed_form(zv, z_fixed, region, bits)


def _outer_polar(z: Gaussian, bits: int) -> Tuple[int, Gaussian, Gaussian,
                                                   int]:
    """r = |z|, sqrt(z/6), the outer-frame image x of z and |x|, all at
    2^-bits from z at 2^-bits, z != 0, with no mpmath call.

    x = (e^(i*pi/4)/30) (24 z)^(5/4) = e^(i*pi/4) (4z/5) (24 z)^(1/4) on
    the principal branch, whose fourth root is the principal square root
    of sqrt(24 z) = 12 sqrt(z/6) (:func:`_sqrt`, twice).  |x| =
    (24 r)^(5/4)/30 comes from nested integer square roots of 24 r.
    """
    zr, zi = z
    r = math.isqrt(zr * zr + zi * zi)
    q = 24 * r
    half = math.isqrt(q << bits)  # |sqrt(24 z)|
    root = _sqrt(z, r, 6, bits)
    fr, fi = _sqrt((12 * root[0], 12 * root[1]), half, 1, bits)
    # 4 z (24 z)^(1/4) at 2^-2bits, times e^(i*pi/4) = cos(pi/4) (1 + i).
    p_re, p_im = 4 * (zr * fr - zi * fi), 4 * (zr * fi + zi * fr)
    eighth, den = _constants(bits).eighth, 5 << 2 * bits
    x = (p_re - p_im) * eighth // den, (p_re + p_im) * eighth // den
    radius = q * math.isqrt(half << bits) // (30 << bits)
    return r, root, x, radius


def _closed_form(z: mpc, z_fixed: Gaussian, region: str,
                 bits: int) -> Evaluation:
    """The value and certified error of ``region``'s closed form at z,
    read as ``z_fixed`` at 2^-bits, whose outer-frame image is known to
    lie in the region.

    The bracket 1 - 4/(25 x^2), plus h0(x) in the wedge, is one
    :func:`_layer_sum` at the x of :func:`_outer_polar`; it is multiplied
    by i*sqrt(z/6) on integers and converted back once.  The error is
    s * ball * |x|^(-3), s = sqrt(r/6) rounded up, plus a bound on the
    value's own rounding.  Runs at the caller's working precision.
    """
    r, (rr, ri), x, radius = _outer_polar(z_fixed, bits)
    layers, ball = _constants(bits).regions[region]
    br, bi = _layer_sum(layers, x, bits)
    value = (-((rr * bi + ri * br) >> bits), (rr * br - ri * bi) >> bits)
    one = 1 << bits
    s = math.isqrt(-(-(r << bits) // 6) - 1) + 1  # sqrt(r/6), rounded up
    cube = radius ** 3
    # The value's own rounding.  Horner and the products round by under a
    # unit of 2^-bits per stage and component.  r, |x| and sqrt(z/6) are
    # off by a few units, relative, and x, 1/x and sqrt x by at most 9:
    # x reads sqrt(z/6) (|z| >= 3/2 in both rows), its square root and
    # cos(pi/4).  So Im x is off by 8|x| + 1 units, and so are xi's phase
    # and, through Re x, its modulus, relative: with |xi| <= |S|/sqrt|x|
    # (Re x >= 0 in the wedge) xi moves by under 20 sqrt|x| units, and
    # the bracket by twice that.  The ray's bracket has no xi.
    # All of it stays below 32 (s + 1)(|x| + 8) units, which also covers
    # the few relative units by which rounding r moves the term itself.
    rounding = 32 * (s + one) * (radius + 8 * one) * cube
    # s * ball / |x|^3 and that rounding over one denominator.
    error = _ceil_mpf(((s * ball) << 4 * bits) + rounding,
                      cube << 3 * bits, bits)
    return Evaluation(z=z, y=_from_fixed(value, bits), y_prime=None,
                      method=f"asymptotic-{region}", rigorous=True,
                      error_bound=error)


def _ceil_mpf(num: int, den: int, bits: int) -> mpf:
    """num/den for positive ints with num/den < 2^(bits - 2), rounded up
    to an mpf of at most ``bits`` significant bits, so exact at any
    working precision of ``bits`` or more."""
    m, e = _floor_dyadic(-num, den, bits - 1)
    return mpf((-m, e))


# --------------------------------------------------------------------------
# Taylor coefficients
# --------------------------------------------------------------------------


def taylor_coeffs(
    value: Number,
    slope: Number,
    center: Number,
    count: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> List[mpc]:
    """Taylor coefficients of the solution of  g'' = 6 g^2 + t  at ``center``.

    Given g(center) = ``value`` and g'(center) = ``slope``, returns
    [c_0, ..., c_count] with g(center + s) = sum c_k s^k, by
    :func:`inner.maclaurin_extend`: the recurrence (k+1)(k+2) c_{k+2} =
    6 sum_j c_j c_{k-j} + f_k with the forcing f_0 = center, f_1 = 1.
    Requires ``count`` >= 2.  This is the floating-point reference for
    the integer kernel :func:`inner.taylor_fixed` and for the balls that
    :func:`inner.taylor_radii` makes of its coefficients.
    """
    _require_bits(precision_bits)
    if count < 2:
        raise PreconditionError(
            "count must be at least 2 (the first forced coefficient)"
        )
    with workprec(precision_bits + GUARD_BITS):
        return inner.maclaurin_extend(_to_mpc(value), _to_mpc(slope),
                                      _to_mpc(center), count)


# --------------------------------------------------------------------------
# fixed-point Taylor steps
# --------------------------------------------------------------------------
#
# The integrator holds complex numbers as Gaussian integers at 2^-bits and
# steps with the scaled series of :func:`inner.taylor_fixed`; |sigma| <= 1
# keeps each Horner rounding at one unit of 2^-bits.

#: Fraction bits of the kernel below the per-step budget eps >= 2^-prec:
#: a leg runs at 2^-bits with bits = min(prec, ceil(-log2 eps)) + this.
#: The top coefficient |b_n| is about eps * 0.8^n (eps * 2^-18 at order
#: 57) and the step is read from it, so it needs bits of its own below
#: eps; bits further down buy nothing, as each step truncates at eps.
_KERNEL_GUARD_BITS = 64


def _log2_abs(x: Gaussian, bits: int) -> float:
    """log2 |x| as a float; -inf at zero."""
    norm = x[0] * x[0] + x[1] * x[1]
    return 0.5 * math.log2(norm) - bits if norm else -math.inf


def _exp2_int(x: float) -> int:
    """2^x rounded down to an int with 53 significant bits."""
    whole = math.floor(x)
    mantissa = int(math.ldexp(2.0 ** (x - whole), 53))
    shift = whole - 53
    return mantissa << shift if shift >= 0 else mantissa >> -shift


def _horner_fixed(
    re: Sequence[int], im: Sequence[int], sigma: Gaussian, bits: int
) -> Tuple[Gaussian, Gaussian]:
    """G(sigma) and G'(sigma) of the scaled series, for |sigma| <= 1.

    A real series at a real sigma takes real Horner: the dropped terms are
    products with 0, so the results are the same integers.  That took the
    order-320 origin series from 187 to 129 us, and an order-30 step from
    14 to 9 us (2-core Xeon, Py 3.11).
    """
    xr, xi = sigma
    n = len(re) - 1
    if not xi and not any(im):
        g = re[n]
        d = n * g
        for k in range(n - 1, 0, -1):
            g = ((g * xr) >> bits) + re[k]
            d = ((d * xr) >> bits) + k * re[k]
        return (((g * xr) >> bits) + re[0], 0), (d, 0)
    gr, gi = re[n], im[n]
    dr, di = n * gr, n * gi
    for k in range(n - 1, 0, -1):
        gr, gi = (((gr * xr - gi * xi) >> bits) + re[k],
                  ((gr * xi + gi * xr) >> bits) + im[k])
        dr, di = (((dr * xr - di * xi) >> bits) + k * re[k],
                  ((dr * xi + di * xr) >> bits) + k * im[k])
    gr, gi = (((gr * xr - gi * xi) >> bits) + re[0],
              ((gr * xi + gi * xr) >> bits) + im[0])
    return (gr, gi), (dr, di)


# --------------------------------------------------------------------------
# adaptive Taylor integration of  g'' = 6 g^2 + t
# --------------------------------------------------------------------------


class PoleNotFoundError(RuntimeError):
    """No blowup was met within the search horizon.

    ``steps`` is the number of integrator steps taken along the ray, or
    None when not known.
    """

    def __init__(self, direction, horizon, steps: Optional[int] = None):
        self.direction = direction
        self.horizon = horizon
        self.steps = steps
        super().__init__(
            f"no pole within |t| <= {horizon} along direction {direction}"
        )


@dataclass(frozen=True)
class IntegrationResult:
    """Endpoint state of one integration run.

    ``t_end`` is where the run stopped: the target, unless |g| passed the
    run's threshold first (:data:`BLOWUP_THRESHOLD` for :func:`integrate`
    and :func:`evaluate_point`, 64 for :func:`pole_estimate`).  Then
    ``pole`` is the double-pole location estimate t + 2 g/g' at that
    point, from the local behaviour g ~ (t - t_p)^(-2), and the start of
    :func:`pole_estimate`'s Laurent fit; it is None when the run reached
    its target.
    ``error_estimate`` sums, over the steps, the truncation tail of the
    value, that of the slope times the rest of the leg, and a bound on
    the fixed-point kernel's rounding, :data:`_KERNEL_GUARD_BITS` bits
    below the per-step budget, and adds the rounding of the result to the
    working precision.  It leaves out how earlier errors grow along the
    path, so it is a heuristic accuracy indicator, not a certified bound.
    ``steps`` counts the steps taken and ``order`` is the Taylor order of
    the marching steps.  A run from :func:`integration_seed` (those of
    :func:`evaluate_point` and :func:`pole_estimate`) starts with one step
    of the cached Maclaurin series at the origin, of order
    :data:`ORIGIN_ORDER`: it counts as one step, and its terms enter
    ``error_estimate`` as a marching step's do.
    """

    value: mpc
    slope: mpc
    t_end: mpc
    steps: int
    order: int
    error_estimate: mpf
    pole: Optional[mpc] = None


#: Local truncation budget per step is
#:     eps = max(tol**_LOCAL_EXPONENT, 2**-prec),
#: with prec the working precision in force (guard bits included).  The
#: super-linear exponent makes the accumulated defect scale like
#: tol^(~2.4), so halving the tolerance reliably gains more than 4x; the
#: floor keeps a step from resolving digits that rounding discards.
#: The order depends on eps alone, so the order and the step read the
#: same number.  Below 2^_ORDER_SWITCH_LOG2 it is the order cheapest per
#: unit length at eps (Jorba & Zou, Experimental Math. 14 (2005)):
#: ceil(-ln(eps)/2) + 1, capped at MAX_ORDER; that is 30 at tol
#: 1e-10, 57 at the defaults and 64 at tol 1e-25 from 192 bits on.  At
#: or above it (tol >= 2^-32, coarse tolerances) the order is MIN_ORDER.
_LOCAL_EXPONENT = Fraction(5, 2)

#: log2 of the per-step budget below which the order grows with it:
#: 2^-(prec/2) at the default 160-bit working precision, and fixed, since
#: a switch that moved with the precision would keep tol 1e-10 at
#: MIN_ORDER, hundreds of steps a ray, from 192 bits on.
_ORDER_SWITCH_LOG2 = -80

_STEP_SAFETY = Fraction(4, 5)
_MAX_STEP = Fraction(3, 4)


def _log2_budget(tol: mpf) -> float:
    """log2 of the per-step budget max(tol^(5/2), 2^-prec) at mp.prec."""
    return max(float(_LOCAL_EXPONENT) * float(mp.log(tol, 2)), -mp.prec)


def _pick_order(tol: mpf) -> int:
    """The Taylor order for the per-step budget at ``tol`` and mp.prec.

    ceil(-ln(eps)/2) + 1 capped at MAX_ORDER while eps is below
    2^_ORDER_SWITCH_LOG2 (where it is at least 29, so above MIN_ORDER),
    MIN_ORDER otherwise; it never falls as the precision rises or the
    tolerance shrinks.
    """
    log_budget = _log2_budget(tol)
    if log_budget >= _ORDER_SWITCH_LOG2:
        return MIN_ORDER
    return min(MAX_ORDER, math.ceil(-log_budget * math.log(2) / 2) + 1)


def _top_nonzero(re: Sequence[int], im: Sequence[int]) -> List[int]:
    """The two largest k >= 2 with b_k != 0, largest first."""
    top: List[int] = []
    for k in range(len(re) - 1, 1, -1):
        if re[k] or im[k]:
            top.append(k)
            if len(top) == 2:
                break
    return top


def _kernel_bits(log_budget: float) -> Tuple[int, int]:
    """The bits of the per-step budget 2^log_budget at mp.prec, and the
    fraction bits of the kernel, :data:`_KERNEL_GUARD_BITS` more."""
    # At least -_ORDER_SWITCH_LOG2 bits, so that at coarse budgets the
    # dust and step-collapse thresholds of :func:`_integrate_leg` stay far
    # under real steps.
    budget_bits = min(mp.prec, max(math.ceil(-log_budget), -_ORDER_SWITCH_LOG2))
    return budget_bits, budget_bits + _KERNEL_GUARD_BITS


def _log_step(sizes: Sequence[Tuple[int, float]], e: int, log_room: float,
              log_cap: float) -> float:
    """log2 of the step: at most 2^log_cap, and so that
    |c_k| step^k <= 2^log_room for each (k, log2 |b_k|) in ``sizes``,
    c_k = b_k / rho^k with rho = 2^e, times :data:`_STEP_SAFETY`."""
    log_safety = math.log2(_STEP_SAFETY)
    return min([log_cap] + [log_safety + e + (log_room - log_b) / k
                            for k, log_b in sizes])


def _integrate_leg(
    g: mpc,
    g_prime: mpc,
    t_from: mpc,
    t_to: mpc,
    tol: mpf,
    order: int,
    series: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    threshold: int = BLOWUP_THRESHOLD,
) -> IntegrationResult:
    """March from t_from to t_to along the straight segment.

    Assumes an mpmath working precision is already in force.  The state
    (t, g, g') is carried in fixed point at the per-step budget (at most
    that precision) plus :data:`_KERNEL_GUARD_BITS` and rounded back to
    the working precision once, at the end.
    Each step's scale rho = 2^e comes from the previous step and grows,
    with the series rebuilt, when the step would exceed it.  Stops early,
    with the pole estimate, once |g| exceeds ``threshold``.

    ``series``, when given, is the scaled series of the solution at
    t_from with rho = 2, at the kernel's fraction bits
    (:func:`_origin_series`).  The first step evaluates it in place of a
    series of ``order``, as far as the same step rule allows without the
    :data:`_MAX_STEP` cap, and counts as one step.
    """
    # The fixed-point conversion would read inf and nan as 0.
    if not all(mp.isfinite(x) for x in (g, g_prime, t_from, t_to)):
        raise PreconditionError("integration needs finite data and endpoints")
    prec = mp.prec
    log_budget = _log2_budget(tol)
    budget_bits, bits = _kernel_bits(log_budget)
    log_max_step = math.log2(_MAX_STEP)
    # error_sum counts units of 2^error_exp, next to the per-step budget,
    # so that it stays a modest float at any precision.
    error_exp = math.floor(log_budget)
    unit = 2.0 ** (-bits - error_exp)
    value, slope = _to_fixed(g, bits), _to_fixed(g_prime, bits)
    t, target = _to_fixed(t_from, bits), _to_fixed(t_to, bits)
    span = (target[0] - t[0], target[1] - t[1])
    span2 = span[0] * span[0] + span[1] * span[1]
    if span2 == 0:
        return IntegrationResult(g, g_prime, t_to, 0, order, mpf(0))
    distance = math.isqrt(span2)
    direction = ((span[0] << bits) // distance, (span[1] << bits) // distance)
    # Once the remaining distance is pure accumulation dust, stop.
    dust2 = (distance >> (budget_bits - 8)) ** 2
    blowup2 = (threshold << bits) ** 2
    steps = 0
    error_sum = 0.0
    e = None
    while True:
        gap = (target[0] - t[0], target[1] - t[1])
        gap2 = gap[0] * gap[0] + gap[1] * gap[1]
        blown = value[0] * value[0] + value[1] * value[1] > blowup2
        if gap2 <= dust2 or blown:
            break
        if steps >= _MAX_STEPS:
            raise RuntimeError(
                f"integration exceeded {_MAX_STEPS} steps "
                f"(t = {_from_fixed(t, bits)}, target {t_to})"
            )
        log_remaining = 0.5 * math.log2(gap2) - bits
        log_room = log_budget + max(
            0.0, _log2_abs(value, bits), _log2_abs(slope, bits))
        if series is not None:
            re, im = series
            series, e = None, 1
            sizes = [(k, _log2_abs((re[k], im[k]), bits))
                     for k in _top_nonzero(re, im)]
            # Capped by rho, where |sigma| <= 1, not by _MAX_STEP.
            log_step = _log_step(sizes, e, log_room, min(log_remaining, e))
        else:
            log_cap = min(log_remaining, log_max_step)
            e_cap = math.ceil(log_cap)
            if e is None:
                e = e_cap
            while True:
                re, im = taylor_fixed(value, slope, t, order, e, bits)
                top = _top_nonzero(re, im)
                # A zero top coefficient below the largest admissible rho
                # may have underflowed: it bounds nothing until rho is that
                # large.
                if e < e_cap and (not top or top[0] < order):
                    e = e_cap
                    continue
                # Size the step so that |c_k| step^k <= eps * scale for
                # the last two nonzero coefficients.
                sizes = [(k, _log2_abs((re[k], im[k]), bits)) for k in top]
                log_step = _log_step(sizes, e, log_room, log_cap)
                if log_step <= e:
                    break
                e = math.ceil(log_step)
        if log_step < log_remaining - budget_bits // 2:
            raise RuntimeError(
                f"step size collapsed at t = {_from_fixed(t, bits)} "
                "without blowup"
            )
        if log_step >= log_remaining:
            delta = gap
            log_step = log_remaining
        else:
            length = _exp2_int(log_step + bits)
            delta = ((length * direction[0]) >> bits,
                     (length * direction[1]) >> bits)
        # Each top term truncates the value by |c_k| step^k and the slope
        # by k |c_k| step^(k-1); the slope's error moves the value over
        # the rest of the leg, ``ahead`` steps of this length.
        ahead = 2.0 ** (log_remaining - log_step) - 1
        for k, log_b in sizes:
            term = 2.0 ** (log_b + k * (log_step - e) - error_exp)
            error_sum += term * (1 + k * ahead)
        # Horner's and the recurrence's roundings: at most one unit of
        # 2^-bits per coefficient and per Horner stage, in each component.
        error_sum += 4 * len(re) * unit
        # Horner reads sigma = delta / rho exactly: delta shifted up for
        # rho <= 1, delta itself at 2^-(bits + e) for rho = 2^e > 1.
        if e <= 0:
            value, (sr, si) = _horner_fixed(
                re, im, (delta[0] << -e, delta[1] << -e), bits)
            slope = (sr << -e, si << -e)
        else:
            value, (sr, si) = _horner_fixed(re, im, delta, bits + e)
            slope = (sr >> e, si >> e)
            # Dividing G' by rho rounds the slope by a unit or less in
            # each component, and the value over the rest of the leg.
            error_sum += 2 * (1 + ahead * 2.0 ** log_step) * unit
        t = (t[0] + delta[0], t[1] + delta[1])
        steps += 1
        # At most 0: a marching step never exceeds _MAX_STEP < 1.
        e = min(math.ceil(log_step), 0)
    # Rounding the result to the working precision costs 2^-prec |g|.
    error_sum += 2.0 ** (_log2_abs(value, bits) - prec - error_exp)
    g, g_prime = _from_fixed(value, bits), _from_fixed(slope, bits)
    t_end, pole = t_to, None
    if blown:
        t_end = _from_fixed(t, bits)
        pole = t_end + 2 * g / g_prime
    return IntegrationResult(g, g_prime, t_end, steps, order,
                             mp.ldexp(mpf(error_sum), error_exp), pole)


def integrate(
    value: Number,
    slope: Number,
    t_start: Number,
    t_end: Number,
    tol: Number = DEFAULT_TOL,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> IntegrationResult:
    """Integrate  g'' = 6 g^2 + t  from t_start to t_end (straight path).

    Adaptive Taylor marching: at each state the local series is built and
    the step is sized from the growth of its top coefficients so that the
    local truncation stays below eps = max(tol**(5/2), 2**-prec), prec
    being the working precision ``precision_bits`` plus
    :data:`GUARD_BITS`.  The series order follows eps alone:
    ceil(-ln(eps)/2) + 1, capped at :data:`MAX_ORDER`, while
    eps < 2**-80 (57 at the defaults, 64 at the default tol from 192 bits
    on), and :data:`MIN_ORDER` at coarser budgets; it is reported as
    ``order``.  The steps run on a fixed-point kernel with
    :data:`_KERNEL_GUARD_BITS` bits below eps (224 bits at the defaults,
    148 at tol 1e-10, 272 at the default tol from 192 bits on, never
    fewer than 144), and the result is rounded to the working precision
    once, at the end.  A trajectory value exceeding
    :data:`BLOWUP_THRESHOLD` ends the run where it is: ``t_end`` is that
    point and ``pole`` the double-pole location estimate there.  Raises
    :class:`PreconditionError` for bad input and RuntimeError when the
    step size collapses or the run exceeds its step limit.
    """
    _require_bits(precision_bits)
    with workprec(precision_bits + GUARD_BITS):
        tol_m = _tolerance(tol)
        return _integrate_leg(
            _to_mpc(value), _to_mpc(slope), _to_mpc(t_start), _to_mpc(t_end),
            tol_m, _pick_order(tol_m),
        )


def _tolerance(tol: Number) -> mpf:
    """``tol`` at the working precision; raises unless in (0, 1)."""
    tol_m = _to_mpf(tol)
    if not 0 < tol_m < 1:
        raise PreconditionError(f"tolerance must be in (0, 1), got {tol!r}")
    return tol_m


#: Order of the cached Maclaurin series at the seed (:func:`_origin_series`),
#: whose one step starts every run from :func:`integration_seed`.  Its
#: reach, the length of that step, grows with the order, and the one-time
#: build like its square.  A sweep (2-core Xeon, Python 3.11; the five
#: disk and outer points of bench seed 7 at the defaults, orders
#: interleaved, best of 40; they took 23 ms before the cached step):
#:
#:     order                      192   256   320   400   480   640
#:     reach, default budget     1.05  1.22  1.33  1.43  1.50  1.59
#:     reach, pole's budget      1.38  1.50  1.57  1.63  1.67  1.72
#:     build at 224 bits (ms)     3.2   5.4   9.6  13.1  17.9  31.4
#:     five points (ms)          11.5   9.8   9.3   9.8   8.0   8.7
#:
#: Past 320 the gain is one disk cell falling inside the reach, bought
#: with twice the build that a one-shot ``eval`` pays in full.
ORIGIN_ORDER = 320


@functools.lru_cache(maxsize=16)
def _origin_series(bits: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The Maclaurin series of the solution through
    :func:`integration_seed` at t = 0, of order :data:`ORIGIN_ORDER` and
    scaled by rho = 2, as :func:`inner.taylor_fixed` makes it at 2^-bits:
    real and imaginary mantissas, built once per kernel width.  The seed
    is real, so every imaginary mantissa is 0."""
    value, slope = (math.floor(q * 2**bits) for q in integration_seed())
    re, im = taylor_fixed((value, 0), (slope, 0), (0, 0), ORIGIN_ORDER, 1,
                          bits)
    return tuple(re), tuple(im)


def _seed_series(tol: mpf) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """:func:`_origin_series` at the kernel width of a run at ``tol`` and
    the working precision in force."""
    return _origin_series(_kernel_bits(_log2_budget(tol))[1])


def _integrate_from_seed(t: mpc, tol: mpf,
                         threshold: int = BLOWUP_THRESHOLD) -> IntegrationResult:
    """:func:`integrate` from :func:`integration_seed` at t = 0 to ``t``,
    at the working precision in force, stopping once |g| exceeds
    ``threshold``.

    The first step evaluates the cached Maclaurin series at the origin
    (:func:`_seed_series`) as far as its reach, sized, bounded and counted
    in ``error_estimate`` as a marching step; the steps of
    :func:`integrate` cover whatever distance is left.  ``steps`` counts
    the cached step as one and ``order`` is the marching order.
    """
    g, g_prime = map(_to_mpc, integration_seed())
    return _integrate_leg(g, g_prime, mpc(0), t, tol, _pick_order(tol),
                          _seed_series(tol), threshold)


# --------------------------------------------------------------------------
# pole location
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleEstimate:
    """A refined double-pole location found along one ray from t = 0.

    ``location`` is the pole of the Laurent series fitted where the run
    stopped, at |g| = 64, and ``steps`` is the number of integrator steps
    taken along the ray to get there.
    """

    distance: mpf
    location: mpc
    direction: mpf
    steps: int


@dataclass(frozen=True)
class PoleScan:
    """The nearest pole from the origin: ``series_estimate``, read off the
    origin series of order ``series_order``, and ``best``, its refinement
    by one integration, ``gap`` apart."""

    best: PoleEstimate
    series_estimate: mpc
    series_order: int
    gap: mpf
    note: str


#: |g| at which :func:`pole_estimate`'s run stops and the Laurent fit
#: takes over, at |t - p| near 1/8.
_POLE_FIT_THRESHOLD = 64

#: Newton iterations the Laurent fit may take before it gives up.
_FIT_ITERATIONS = 8


def _gmul(x: Gaussian, y: Gaussian, bits: int) -> Gaussian:
    """x * y, all at 2^-bits."""
    return ((x[0] * y[0] - x[1] * y[1]) >> bits,
            (x[0] * y[1] + x[1] * y[0]) >> bits)


def _gdiv(x: Gaussian, y: Gaussian, bits: int) -> Gaussian:
    """x / y for y != 0, all at 2^-bits."""
    norm = y[0] * y[0] + y[1] * y[1]
    return (((x[0] * y[0] + x[1] * y[1]) << bits) // norm,
            ((x[1] * y[0] - x[0] * y[1]) << bits) // norm)


def _gsub(x: Gaussian, y: Gaussian) -> Gaussian:
    return x[0] - y[0], x[1] - y[1]


def _laurent_sum(coeffs: Tuple[Sequence[int], Sequence[int]], u: Gaussian,
                 w: Gaussian, bits: int) -> Tuple[Gaussian, Gaussian]:
    """sum_k c_k u^(k-2) and its derivative in u, for |u| <= 1 and
    w = 1/u, all at 2^-bits."""
    value, slope = _horner_fixed(*coeffs, u, bits)
    w2 = _gmul(w, w, bits)
    shifted = _gmul(value, w, bits)
    return (_gmul(value, w2, bits),
            _gmul(_gsub(slope, (2 * shifted[0], 2 * shifted[1])), w2, bits))


def _laurent_fit(run: IntegrationResult, tol: mpf) -> mpc:
    """The double pole p whose Laurent series g = sum_k a_k (t - p)^(k-2)
    (:func:`inner.laurent_fixed`) takes the run's end data (t, g, g').

    Newton's method on the series' two free constants (p, h), from
    p = t + 2 g/g' and h = 0, in fixed point at the run's kernel width.
    The series takes terms until the last two fall below the per-step
    budget eps.  The Jacobian comes from the derivatives of the
    coefficients in p and h; p also moves u = t - p, along which the
    series has the slope g' and, by the equation, g'' = 6 g^2 + t.
    Stops once a correction of p is below eps.  Raises RuntimeError if
    that takes more than :data:`_FIT_ITERATIONS` iterations, or if p
    moves 1/2 or more away from t, where the data no longer pin the pole
    (the run stops near 1/8 from it).  Runs at the working precision in
    force.
    """
    log_budget = _log2_budget(tol)
    bits = _kernel_bits(log_budget)[1]
    floor = _exp2_int(bits + log_budget)
    one = 1 << bits
    t, g, g_prime, p = (_to_fixed(x, bits) for x in (
        run.t_end, run.value, run.slope, run.pole))
    h = (0, 0)
    for _ in range(_FIT_ITERATIONS):
        u = _gsub(t, p)
        radius = math.isqrt(u[0] * u[0] + u[1] * u[1]) + 1
        if 2 * radius > one:
            break
        a, d, e = inner.laurent_fixed(p, h, radius, floor, bits)
        w = _gdiv((one, 0), u, bits)
        (value, slope), (d_value, d_slope), (e_value, e_slope) = (
            _laurent_sum(c, u, w, bits) for c in (a, d, e))
        square = _gmul(value, value, bits)
        curve = (6 * square[0] + t[0], 6 * square[1] + t[1])
        # d/dp = d/dp of the coefficients - d/du; d/dh of the coefficients.
        j11, j21 = _gsub(d_value, slope), _gsub(d_slope, curve)
        f1, f2 = _gsub(value, g), _gsub(slope, g_prime)
        det = _gsub(_gmul(j11, e_slope, bits), _gmul(e_value, j21, bits))
        dp = _gdiv(_gsub(_gmul(f1, e_slope, bits), _gmul(e_value, f2, bits)),
                   det, bits)
        dh = _gdiv(_gsub(_gmul(j11, f2, bits), _gmul(j21, f1, bits)),
                   det, bits)
        p, h = _gsub(p, dp), _gsub(h, dh)
        if abs(dp[0]) + abs(dp[1]) <= floor:
            return _from_fixed(p, bits)
    raise RuntimeError(
        f"the Laurent fit at t = {run.t_end} did not converge within "
        f"{_FIT_ITERATIONS} Newton iterations and |t - p| < 1/2")


def pole_estimate(
    direction: Number = 0,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> PoleEstimate:
    """Estimate the nearest pole of g along one ray from the origin.

    Integrates from :func:`integration_seed` outward along
    t = r * e^(i*direction)  at tolerance 1e-10 until |g| exceeds
    :data:`_POLE_FIT_THRESHOLD` (64), about 1/8 from the pole, and fits
    the pole's Laurent series, with its two free constants p and h, to
    the run's end data (:func:`_laurent_fit`).  On the real axis that
    takes 19 steps, where running on to :data:`BLOWUP_THRESHOLD` and
    reading t + 2 g/g' there took 74, and the fitted p lies within
    1.4e-22 of the origin series' Domb-Sykes estimate, against 3e-21 for
    that reading.  The run's first step is the cached Maclaurin series at
    the origin (1.57 long at the default precision), and ``steps`` counts
    it as one.  Raises :class:`PoleNotFoundError` if the trajectory stays
    bounded out to |t| = :data:`POLE_HORIZON`, and RuntimeError if the
    fit does not converge.
    """
    _require_bits(precision_bits)
    with workprec(precision_bits + GUARD_BITS):
        theta = _to_mpf(direction)
        target = POLE_HORIZON * mpc(mp.cos(theta), mp.sin(theta))
        tol = _to_mpf(_POLE_TOL)
        run = _integrate_from_seed(target, tol, _POLE_FIT_THRESHOLD)
        if run.pole is None:
            raise PoleNotFoundError(direction, POLE_HORIZON, run.steps)
        location = _laurent_fit(run, tol)
        return PoleEstimate(
            distance=abs(location),
            location=location,
            direction=theta,
            steps=run.steps,
        )


def pole_scan(precision_bits: int = DEFAULT_PRECISION_BITS) -> PoleScan:
    """Estimate the nearest pole of g from the origin.

    The estimate comes from the cached Maclaurin series at the seed
    (:func:`_origin_series`, at :func:`pole_estimate`'s tolerance) by the
    ratio of Domb and Sykes (Proc. R. Soc. A 240 (1957)).  A double pole
    at p, g ~ (t - p)^(-2), has the coefficients (k + 1) p^(-k-2), so the
    top two, of orders n - 1 and n, give p ~ (c_(n-1)/c_n)(n + 1)/n.
    The farther singularities, the edge poles at |t| = 4.28, enter the
    ratio like (|p|/4.28)^n, which at n = :data:`ORIGIN_ORDER` lies far
    below the fixed-point rounding of c_n.  The mantissas are exact
    integers, so the estimate is exact up to one division.  The seed is
    real, so are the coefficients and the estimate, and its direction,
    0 or pi, is the same at every precision.

    One :func:`pole_estimate` run along that direction refines the
    estimate; ``gap`` is the distance between the two.  Nothing forks.
    """
    _require_bits(precision_bits)
    with workprec(precision_bits + GUARD_BITS):
        re = _seed_series(_to_mpf(_POLE_TOL))[0]
        n = len(re) - 1
        # The series is scaled by rho = 2, so c_(n-1)/c_n = 2 re[n-1]/re[n].
        estimate = mpf(2 * (n + 1) * re[n - 1]) / (n * re[n])
        best = pole_estimate(mp.arg(estimate), precision_bits)
        return PoleScan(
            best=best,
            series_estimate=mpc(estimate),
            series_order=n,
            gap=abs(best.location - estimate),
            note=(
                "nearest singularity of the origin series, refined by one "
                "integration towards it; the location of the nearest pole is "
                "a numerical estimate, not a certified statement"
            ),
        )


# --------------------------------------------------------------------------
# origin data and high-level evaluation
# --------------------------------------------------------------------------


def integration_seed() -> Tuple[Fraction, Fraction]:
    """Exact origin data ``(g(0), g'(0))`` that :func:`evaluate_point`
    integrates from, and the start of the ``series`` coefficients and of
    the pole estimate.

    These are the centres of the certified origin windows, so the seed
    lies within 1/167 and 1/108 of the solution's own values.
    """
    return inner.CENTER_VALUE, inner.CENTER_SLOPE


#: Interior-certificate verdicts keyed by the SHA-256 of the
#: ``inner_ode.json`` bytes they were computed from, so a switched data
#: directory or an edited file is certified afresh.
_INNER_CERTIFIED: Dict[str, bool] = {}


def _inner_certified() -> bool:
    name = "inner_ode.json"
    digest = data.file_fingerprints((name,))[name]
    if digest not in _INNER_CERTIFIED:
        _INNER_CERTIFIED[digest] = all(c.passed for c in inner.certify())
    # A kept verdict was parsed from these same bytes.
    data.mark_parsed((name,))
    return _INNER_CERTIFIED[digest]


def y_at_zero(precision_bits: int = DEFAULT_PRECISION_BITS) -> Evaluation:
    """Certified enclosures of y(0) and y'(0), method
    ``"origin-enclosure"``.

    Requires the interior certificate to pass (it is run once per
    ``inner_ode.json`` content and cached).  Its exact conclusion is
    that g(0) and g'(0) lie within :data:`p1cert.inner.VALUE_WINDOW` and
    :data:`p1cert.inner.SLOPE_WINDOW` of the centres
    (:func:`p1cert.inner.origin_windows`), and the rotation between the
    frames keeps both radii.  The centres are rotated in floating point,
    so each radius is widened by a bound on that rounding and rounded up.
    """
    _require_bits(precision_bits)
    if not _inner_certified():
        raise PreconditionError(
            "the interior certificate failed; no enclosure at the origin"
        )
    with workprec(precision_bits + GUARD_BITS):
        bits = mp.prec
        y, y_prime = y_from_g(inner.CENTER_VALUE, inner.CENTER_SLOPE,
                              precision_bits)
        # The centres are below 1/3 in modulus.  The root of unity is off
        # by under 3 units of 2^-bits per part, reading a centre moves it
        # by under one unit, relative, and the product rounds each part
        # by half a unit: under 2 units per part, so under 8 in modulus.
        value_radius, slope_radius = (
            _ceil_mpf((w.numerator << bits) + 8 * w.denominator,
                      w.denominator << bits, bits)
            for w in (inner.VALUE_WINDOW, inner.SLOPE_WINDOW))
        return Evaluation(
            z=mpc(0),
            y=y,
            y_prime=y_prime,
            method="origin-enclosure",
            rigorous=True,
            error_bound=value_radius,
            slope_error_bound=slope_radius,
        )


def evaluate_point(
    z: Number,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tol: Number = DEFAULT_TOL,
) -> Evaluation:
    """Evaluate the solution at one point, choosing the best method.

    Preference order: the certified origin window at z = 0
    (:func:`y_at_zero`); a certified asymptotic representation when z
    lies in one of the asymptotic regions (:func:`asymptotic_y`);
    otherwise numerical integration in the t frame from the origin
    window centres (flagged non-rigorous).  A trajectory that blows up
    before reaching the target returns no value but carries the
    pole-location estimate in the warning.

    Away from the origin the rows' ``holds`` decide on z's integers at
    2^-prec.  A closed-form point goes on to its outer image x, the
    bracket and its product with i*sqrt(z/6), all from integer square
    roots as in :func:`asymptotic_y`, with no complex power, no arg z and
    no t.  An integration point turns z into t with one rotation.  The
    negative real axis, arg x = 3pi/2 unwrapped, is integration.

    Integration starts with one step of the Maclaurin series of order
    :data:`ORIGIN_ORDER` at the origin, built once per kernel width and
    cached.  At the defaults it reaches |t| = 1.33, so about half of the
    certified disk |t| < 37/20, by area, takes that one step; farther
    points march on from there as :func:`integrate` does.
    """
    _require_bits(precision_bits)
    with workprec(precision_bits + GUARD_BITS):
        zv = _finite_mpc(z)
        if zv == 0:
            return y_at_zero(precision_bits)
        bits = mp.prec
        z_fixed = zr, zi = _to_fixed(zv, bits)
        row = next((w for w in CLOSED_FORMS if w.holds(zr, zi, bits)), None)
        if row is not None:
            return _closed_form(zv, z_fixed, row.name, bits)
        t = -zv * _fifth_root_of_unity_power(-1)
        warning = None
        # |arg t| < pi/5 is -pi < arg z < -3pi/5, below the sector's lowest
        # edge: Re z, Im z < 0 and z outside the wedge.  |t| = |z| = r,
        # compared with the disk radius exactly.
        if (zr < 0 and zi < 0 and not OMEGA_4.within(zr, zi)
                and (zr * zr + zi * zi) * DISK_RADIUS.denominator ** 2
                > DISK_RADIUS.numerator ** 2 << 2 * bits):
            warning = (
                "target lies outside the certified disk in the only sector "
                "that can contain poles; treat the value as an estimate"
            )
        run = _integrate_from_seed(t, _tolerance(tol))
        if run.pole is not None:
            # A fixed digit count, with any part below that many digits of
            # |t_p| chopped, keeps rounding noise out of the text.
            estimate = mp.chop(run.pole, tol=mpf(10) ** -_WARNING_DIGITS)
            return Evaluation(
                z=zv,
                y=None,
                y_prime=None,
                method="integration",
                rigorous=False,
                warning=(
                    "trajectory blew up before reaching the target; "
                    f"double-pole estimate t_p ~= "
                    f"{mp.nstr(estimate, _WARNING_DIGITS)}"
                ),
            )
        y_val, y_slope = y_from_g(run.value, run.slope, precision_bits)
        # Reading z and turning it into t (one rotation) moves t by up to
        # 3 units of 2^-prec |t|, hence g by |g'| times that; turning g
        # back into y costs 2 units of 2^-prec |g|.
        error_estimate = run.error_estimate + mpf(2) ** -mp.prec * (
            3 * abs(t) * abs(run.slope) + 2 * abs(run.value)
        )
        return Evaluation(
            z=zv,
            y=y_val,
            y_prime=y_slope,
            method="integration",
            rigorous=False,
            error_estimate=error_estimate,
            warning=warning,
        )
