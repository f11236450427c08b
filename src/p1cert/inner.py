"""Certified contraction argument on the segment [-17/10, 0].

The disk part of the pole-free region is controlled by the initial value
problem ``g'' = 6*g**2 + t`` with data at ``t0 = -|z0| = -17/10`` (the ray
row :data:`p1cert.regions.OMEGA_I`) matched to the solution coming in from
the far field.  A degree-7 polynomial ``g0`` approximates the solution, a
pair ``(J1, J2)`` approximates a fundamental system of the linearization
``f'' = 12*g0*f``, and the difference ``delta = g - g0`` solves a
fixed-point equation

    delta = a1*J1 + a2*J2 - K[R] + K[A*delta' + B1*delta + 6*delta**2]

with ``K`` the Green's-function integral operators built from ``(J1, J2)``.
Everything quantitative reduces to a fixed list of sup-norm bounds for exact
polynomials (certified here by partitioned cubic-head enclosures), followed
by exact rational arithmetic: operator-norm products, a contraction factor,
ball invariance, and windows for the values of ``g`` and ``g'`` at ``t = 0``
that seed the disk's power series.  Its coefficients in ``t = center + s``
follow one recurrence, ``(k+1)(k+2) c_{k+2} = 6 sum_{j<=k} c_j c_{k-j} + f_k``
with the forcing ``f_0 = center``, ``f_1 = 1`` and ``f_k = 0`` after:
:func:`maclaurin_extend` for any element type, and its integer kernel
:func:`taylor_fixed`, whose ball radii :func:`taylor_radii` the integrator
and the disk certificate share.  The same equation at a double pole, with
``t = p + u`` split the same way, gives the Laurent coefficients of
:func:`laurent_fixed`, which the pole estimate fits.

All polynomials live in the shifted variable ``s = t - t0 in [0, -t0]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import List, Mapping, Sequence, Tuple

from . import data
from .numerics import Interval
from .polybound import (
    Poly,
    poly,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
    ratio_sup_bound,
    sup_abs_partition,
)
from .regions import OMEGA_I
from .result import CheckResult, check

# t0 = -|z0|: the segment starts at the rotated matching point, where the
# ray certificate hands over its data
T0 = -OMEGA_I.z0_abs
# g0(t0), g0'(t0): the ray certificate's rotated data at z0, handed over here
T0_VALUE = Fraction(-280, 519)
T0_SLOPE = Fraction(150, 1013)

# admissible window for the free constants multiplying J1, J2
ALPHA1 = Fraction(1, 290)
ALPHA2 = Fraction(1, 152)

# stated sup-norm targets on [t0, 0]
REMAINDER_BOUND = Fraction(1, 8619)      # |R|, R = 6*g0**2 + t - g0''
W_OFFSET_BOUND = Fraction(1, 500)        # |W - 1|, W the Wronskian of (J1, J2)
J1_BOUND = Fraction(6, 5)                # max(|J1|, |J1/W|)
J2_BOUND = Fraction(3, 7)                # max(|J2|, |J2/W|)
J1_PRIME_BOUND = Fraction(5, 2)
J2_PRIME_BOUND = Fraction(21, 20)
A_BOUND = Fraction(1, 1216)              # |(J2*J1'' - J1*J2'')/W|
B1_BOUND = Fraction(1, 492)              # |12*g0 + (J2''*J1' - J1''*J2')/W|
CORNER_BOUND = Fraction(1, 180)          # |a1*J1 + a2*J2| on the alpha box
CORNER_PRIME_BOUND = Fraction(1, 90)

# fixed-point data
BALL_RADIUS = Fraction(1, 158)           # in max(||delta||, ||delta'||/2)
CONTRACTION_BOUND = Fraction(1, 6)
DEFECT_VALUE_BOUND = Fraction(1, 1500)   # ||delta - a1*J1 - a2*J2||
DEFECT_SLOPE_BOUND = Fraction(1, 658)    # ||delta' - a1*J1' - a2*J2'||

# certified windows at t = 0 seeding the disk power series
CENTER_VALUE = Fraction(-87, 469)        # g(0) target
CENTER_SLOPE = Fraction(41, 134)         # g'(0) target
VALUE_WINDOW = Fraction(1, 167)
SLOPE_WINDOW = Fraction(1, 108)


def origin_windows(value_radius: Fraction = VALUE_WINDOW,
                   slope_radius: Fraction = SLOPE_WINDOW) -> List[Interval]:
    """Windows for Taylor coefficients c_0..c_3 at t = 0: g(0) and g'(0)
    within the given radii of the centres, c_2 and c_3 by
    :func:`maclaurin_extend` (whose ``c_0 * c_0`` is wider than ``c_0 ** 2``
    if c_0 straddles 0, still valid; the certified windows exclude 0)."""
    c0 = Interval(CENTER_VALUE - value_radius, CENTER_VALUE + value_radius)
    c1 = Interval(CENTER_SLOPE - slope_radius, CENTER_SLOPE + slope_radius)
    return maclaurin_extend(c0, c1, 0, 3)


# crude integral-operator norms: |kernel| <= sum of sup-norm products, times
# the interval length -t0
K1_BOUND = -T0 * (J2_BOUND * J1_BOUND + J1_BOUND * J2_BOUND)
K2_BOUND = -T0 * (J2_PRIME_BOUND * J1_BOUND + J1_PRIME_BOUND * J2_BOUND)


def defect_budget() -> Fraction:
    """Bound for ``||R| + |A*delta' + B1*delta + 6*delta**2||`` on the ball
    of radius :data:`BALL_RADIUS`."""
    return (
        REMAINDER_BOUND
        + 2 * A_BOUND * BALL_RADIUS
        + B1_BOUND * BALL_RADIUS
        + 6 * BALL_RADIUS * BALL_RADIUS
    )


def contraction_factor() -> Fraction:
    """Lipschitz constant of the fixed-point map on the ball of radius
    :data:`BALL_RADIUS`."""
    return max(K1_BOUND, K2_BOUND / 2) * (
        2 * A_BOUND + B1_BOUND + 12 * BALL_RADIUS
    )


@dataclass(frozen=True)
class InnerSystem:
    """Exact polynomials and certification partitions, in s = t - t0."""

    g0: Poly
    J1: Poly
    J2: Poly
    partitions: Mapping[str, List[Fraction]]

    @property
    def g0_prime(self) -> Poly:
        return poly_derivative(self.g0)

    @property
    def J1_prime(self) -> Poly:
        return poly_derivative(self.J1)

    @property
    def J2_prime(self) -> Poly:
        return poly_derivative(self.J2)

    @property
    def remainder(self) -> Poly:
        """R = 6*g0**2 + t - g0'' (t = s + t0); the defect of g0."""
        six_g0_sq = poly_scale(poly_mul(self.g0, self.g0), Fraction(6))
        t_poly = poly([T0, Fraction(1)])
        g0_pp = poly_derivative(self.g0_prime)
        return poly_sub(poly_add(six_g0_sq, t_poly), g0_pp)

    @property
    def wronskian(self) -> Poly:
        return poly_sub(
            poly_mul(self.J1, self.J2_prime), poly_mul(self.J2, self.J1_prime)
        )

    @property
    def wronskian_offset(self) -> Poly:
        return poly_sub(self.wronskian, poly([Fraction(1)]))

    @property
    def damping_numerator(self) -> Poly:
        """W * A where f'' + A f' + B f = 0 is satisfied by J1, J2."""
        j1_pp = poly_derivative(self.J1_prime)
        j2_pp = poly_derivative(self.J2_prime)
        return poly_sub(poly_mul(self.J2, j1_pp), poly_mul(self.J1, j2_pp))

    @property
    def restoring_numerator(self) -> Poly:
        """W * B1 where B1 = 12*g0 + B."""
        j1_pp = poly_derivative(self.J1_prime)
        j2_pp = poly_derivative(self.J2_prime)
        b_num = poly_sub(
            poly_mul(j2_pp, self.J1_prime), poly_mul(j1_pp, self.J2_prime)
        )
        twelve_g0_w = poly_scale(poly_mul(self.g0, self.wronskian), Fraction(12))
        return poly_add(twelve_g0_w, b_num)

    def corner(self, sign: int, derivative: bool = False) -> Poly:
        """ALPHA1*J1 + sign*ALPHA2*J2 (or the derivative combination)."""
        p1 = self.J1_prime if derivative else self.J1
        p2 = self.J2_prime if derivative else self.J2
        return poly_add(
            poly_scale(p1, ALPHA1), poly_scale(p2, sign * ALPHA2)
        )


def build_system() -> InnerSystem:
    """The polynomials and partitions of the data file ``inner_ode.json``;
    :class:`~p1cert.result.PreconditionError` when a polynomial is
    missing."""
    polys = data.inner_polynomials()
    missing = [name for name in ("g0", "J1", "J2") if name not in polys]
    if missing:
        raise data.malformed("inner_ode.json", f"no polynomial {missing}")
    return InnerSystem(
        g0=polys["g0"],
        J1=polys["J1"],
        J2=polys["J2"],
        partitions={name: [pt - T0 for pt in points]
                    for name, points in data.inner_partitions().items()},
    )


def certify() -> List[CheckResult]:
    """Run the full certified chain; every line is an exact comparison.

    A sup norm bounds a polynomial on the whole segment only if its
    partition spans it, so a partition that is missing or does not run
    from t0 to 0 raises :class:`~p1cert.result.PreconditionError`.
    """
    sys_ = build_system()
    parts = sys_.partitions
    results: List[CheckResult] = []

    def sup(p: Poly, partition: str):
        points = parts.get(partition, [])
        if points[:1] != [0] or points[-1:] != [-T0]:
            raise data.malformed(
                "inner_ode.json",
                f"partition {partition!r} does not run from t = {T0} to 0")
        return sup_abs_partition(p, points)

    # --- certified polynomial sup norms ------------------------------------
    r_sup = sup(sys_.remainder, "remainder")
    results.append(check("remainder_sup", r_sup.hi, REMAINDER_BOUND))

    w_off = sup(sys_.wronskian_offset, "W")
    results.append(check("wronskian_offset_sup", w_off.hi, W_OFFSET_BOUND))
    w_ok = w_off.hi < 1  # ratio bounds only meaningful then

    j1_sup = sup(sys_.J1, "J1")
    results.append(check("J1_sup", j1_sup.hi, J1_BOUND, "<="))
    j2_sup = sup(sys_.J2, "J2")
    results.append(check("J2_sup", j2_sup.hi, J2_BOUND, "<="))
    j1p_sup = sup(sys_.J1_prime, "J1_prime")
    results.append(check("J1_prime_sup", j1p_sup.hi, J1_PRIME_BOUND, "<="))
    j2p_sup = sup(sys_.J2_prime, "J2_prime")
    results.append(check("J2_prime_sup", j2p_sup.hi, J2_PRIME_BOUND, "<="))

    def ratio(numerator_sup: Fraction) -> Fraction:
        if not w_ok:
            # certification already failed at the Wronskian; report a value
            # that cannot pass so the failure stays visible downstream
            return Fraction(10**6)
        return ratio_sup_bound(numerator_sup, w_off.hi)

    for name, numerator, bound in (("J1", j1_sup, J1_BOUND),
                                   ("J2", j2_sup, J2_BOUND)):
        results.append(check(
            f"{name}_over_W_sup", ratio(numerator.hi), bound, "<=",
            note=f"shares the {bound} target with {name}_sup; this "
                 "quotient is the binding one"))

    a_sup = sup(sys_.damping_numerator, "A")
    results.append(check("damping_sup", ratio(a_sup.hi), A_BOUND))
    b1_sup = sup(sys_.restoring_numerator, "B1")
    results.append(check("restoring_sup", ratio(b1_sup.hi), B1_BOUND))

    # each corner's partition is named after its check
    for prime, bound in (("", CORNER_BOUND), ("prime_", CORNER_PRIME_BOUND)):
        for sign, side in ((+1, "plus"), (-1, "minus")):
            name = f"corner_{prime}{side}"
            corner = sys_.corner(sign, derivative=bool(prime))
            results.append(check(name, sup(corner, name).hi, bound))

    # --- exact fixed-point chain (inputs are the stated bounds above) ------
    beta = defect_budget()
    results.extend([
        check("integral_defect_value", K1_BOUND * beta, DEFECT_VALUE_BOUND,
              note="operator norm x defect budget"),
        check("integral_defect_slope", K2_BOUND * beta, DEFECT_SLOPE_BOUND,
              note="operator norm x defect budget"),
        check("contraction_factor", contraction_factor(), CONTRACTION_BOUND),
        check("ball_invariance_value", CORNER_BOUND + DEFECT_VALUE_BOUND,
              BALL_RADIUS, "<="),
        check("ball_invariance_slope",
              (CORNER_PRIME_BOUND + DEFECT_SLOPE_BOUND) / 2, BALL_RADIUS,
              "<="),
    ])

    # --- endpoint windows at t = 0 (s = -t0), all exact rationals ----------
    g0_end, g0p_end, j1_end, j2_end, j1p_end, j2p_end = (
        poly_eval(p, -T0) for p in (sys_.g0, sys_.g0_prime, sys_.J1,
                                    sys_.J2, sys_.J1_prime, sys_.J2_prime))
    value_window = (abs(g0_end - CENTER_VALUE) + ALPHA1 * abs(j1_end)
                    + ALPHA2 * abs(j2_end) + DEFECT_VALUE_BOUND)
    slope_window = (abs(g0p_end - CENTER_SLOPE) + ALPHA1 * abs(j1p_end)
                    + ALPHA2 * abs(j2p_end) + DEFECT_SLOPE_BOUND)
    results.extend([
        check("value_window", value_window, VALUE_WINDOW,
              note=f"|g(0) - ({CENTER_VALUE})| bound"),
        check("slope_window", slope_window, SLOPE_WINDOW,
              note=f"|g'(0) - {CENTER_SLOPE}| bound"),
    ])

    return results


def maclaurin_extend(value, slope, center, count: int) -> List:
    """c_0..c_count of ``g'' = 6*g**2 + t`` with ``g = value``, ``g' =
    slope`` at ``t = center``, by the module's one forced recurrence with
    ``+``, ``*`` and one division by the int (k+1)(k+2): on ``Fraction``,
    ``Interval`` and ``mpc`` alike.  Each symmetric pair is formed once
    and doubled, plus the middle square for even k: the full sum exactly,
    in interval arithmetic too."""
    coeffs, forcing = [value, slope], (center, 1)
    for k in range(count - 1):
        pairs = 0
        for j in range((k + 1) // 2):
            pairs = pairs + coeffs[j] * coeffs[k - j]
        conv = pairs + pairs
        if k % 2 == 0:
            conv = conv + coeffs[k // 2] * coeffs[k // 2]
        forced = 6 * conv + forcing[k] if k < 2 else 6 * conv
        coeffs.append(forced / ((k + 1) * (k + 2)))
    return coeffs


# --------------------------------------------------------------------------
# the integer Taylor kernel
# --------------------------------------------------------------------------
#
# A complex x is the Gaussian integer (floor(Re x 2^bits), floor(Im x 2^bits))
# at one exponent 2^-bits.  A step of length at most rho = 2^e works with
# G(sigma) = g(t + rho*sigma), whose b_k = c_k rho^k follow the module's
# recurrence scaled: b_{k+2} = rho^2 (6 sum_j b_j b_{k-j} + rho^k f_k) /
# ((k+1)(k+2)), a forcing of t at k = 0 and rho at k = 1.  Radii make them
# balls (van der Hoeven, "Ball arithmetic" (2010); Johansson, IEEE Trans.
# Comput. 66 (2017)) in the norm |Re| + |Im|, which is submultiplicative.

Gaussian = Tuple[int, int]


def taylor_fixed(
    value: Gaussian,
    slope: Gaussian,
    center: Gaussian,
    count: int,
    e: int,
    bits: int,
) -> Tuple[List[int], List[int]]:
    """Scaled coefficients b_0..b_count of  g'' = 6 g^2 + t  at ``center``.

    Everything is fixed point at 2^-bits and rho = 2^e; returns the real
    and the imaginary mantissas.  Requires ``count`` >= 1 and 2e < bits.
    Each coefficient is rounded down once.

    The one integer form of :func:`maclaurin_extend`, forcing included (at
    2^-2bits), run every integrator step; the Maclaurin envelope adds
    :func:`taylor_radii`.  A loop over a Gaussian-integer class was 1.1-2.2x
    slower, and a Gauss square bought nothing (2-core Xeon, Py 3.11).

    Real data (value, slope and centre with imaginary part 0, as on the
    real ray) take a real recurrence: the forcing is real too, so every
    b_k is real by induction, and the dropped terms are products with 0.
    The mantissas are the same integers, one Cauchy sum per k instead of
    four, and the imaginary ones are all 0.  At order 30 and 148 bits, a
    marching step's series took 47 us instead of 95 (2-core Xeon, Py
    3.11); complex data run the loop below unchanged.
    """
    (vr, vi), (sr, si), (tr, ti) = value, slope, center
    if e >= 0:
        b1r, b1i = sr << e, si << e
    else:
        b1r, b1i = sr >> -e, si >> -e
    forcing = ((tr << bits, ti << bits), (1 << (2 * bits + e), 0))
    # floor(x / (d 2^shift)) = floor(floor(x / 2^shift) / d): shift first.
    shift = bits - 2 * e
    if not (vi or si or ti):
        re = [vr, b1r]
        for k in range(count - 1):
            half = (k + 1) // 2
            acc = 2 * sum(map(mul, re[:half], re[k:k - half:-1]))
            if k % 2 == 0:
                acc += re[k // 2] * re[k // 2]
            fr = forcing[k][0] if k < 2 else 0
            re.append(((6 * acc + fr) >> shift) // ((k + 1) * (k + 2)))
        return re, [0] * len(re)
    re, im = [vr, b1r], [vi, b1i]
    for k in range(count - 1):
        # The Cauchy square is symmetric in j <-> k - j: sum each pair
        # once and add the middle square for even k.
        half = (k + 1) // 2
        ra, ia = re[:half], im[:half]
        rb, ib = re[k:k - half:-1], im[k:k - half:-1]
        acc_r = 2 * (sum(map(mul, ra, rb)) - sum(map(mul, ia, ib)))
        acc_i = 2 * (sum(map(mul, ra, ib)) + sum(map(mul, ia, rb)))
        if k % 2 == 0:
            mr, mi = re[k // 2], im[k // 2]
            acc_r += mr * mr - mi * mi
            acc_i += 2 * mr * mi
        fr, fi = forcing[k] if k < 2 else (0, 0)
        den = (k + 1) * (k + 2)
        re.append(((6 * acc_r + fr) >> shift) // den)
        im.append(((6 * acc_i + fi) >> shift) // den)
    return re, im


def taylor_radii(re: Sequence[int], im: Sequence[int], r0: int, r1: int,
                 e: int, bits: int) -> List[int]:
    """Radii r_0..r_count for the coefficients ``re, im`` that
    :func:`taylor_fixed` returns when its value and slope are known to
    within ``r0`` and ``r1`` units of 2^-bits (the centre exactly).

    The exact b_k lies within r_k units of (re_k, im_k) in |Re| + |Im|.
    Each Cauchy-square product of balls adds 2 sum_j |b_j| r_{k-j} +
    sum_j r_j r_{k-j}, with |b_j| <= |re_j| + |im_j|, and the kernel's one
    floor per component adds under 2 more; the forcing is exact.  The
    two sums are one convolution, sum_j (2 |b_j| + r_j) r_{k-j}, of the
    weights w_j = 2 (|re_j| + |im_j|) + r_j, kept beside the radii.
    """
    mag2 = [2 * (abs(x) + abs(y)) for x, y in zip(re, im)]
    # b_1 = slope * rho is exact for e >= 0 and floored once otherwise
    rad = [r0, r1 << e if e >= 0 else -(-r1 >> -e) + 2]
    weight = [m + r for m, r in zip(mag2, rad)]
    shift = bits - 2 * e
    for k in range(len(re) - 2):
        num = 6 * sum(map(mul, weight, rad[k::-1]))
        rad.append(-(-num // ((k + 1) * (k + 2) << shift)) + 2)
        weight.append(mag2[k + 2] + rad[k + 2])
    return rad


def laurent_fixed(
    pole: Gaussian,
    h: Gaussian,
    radius: int,
    floor: int,
    bits: int,
) -> Tuple[Tuple[List[int], List[int]], ...]:
    """Laurent coefficients of  g'' = 6 g^2 + t  at a double pole, and
    their derivatives in the pole and in the free constant.

    Near a double pole p, g = sum_k a_k u^(k-2) with u = t - p.  The
    module's recurrence, with the forcing split as t = p + u, reads

        (k-6)(k+1) a_k = 6 sum_{i=1}^{k-1} a_i a_{k-i} + [k=4] p + [k=5],

    so a_0 = 1, a_1 = a_2 = a_3 = 0, a_4 = -p/10 and a_5 = -1/6; at k = 6
    both sides vanish and a_6 = ``h`` is free.  Differentiating it gives
    d_k = da_k/dp, with (k-6)(k+1) d_k = 12 sum_i a_i d_{k-i} + [k=4] and
    d_6 = 0, and e_k = da_k/dh, the same without the forcing and e_6 = 1.

    Fixed point at 2^-bits in Gaussian mantissas, as in
    :func:`taylor_fixed`; each coefficient is rounded down once.  Terms
    are added until the last two, |a_k| ``radius``^(k-2) with |a_k| <=
    |Re| + |Im| and ``radius`` >= |u|, are below ``floor`` units.  A
    ``radius`` of at most 2^(bits-1) (|u| <= 1/2) ends that within
    ``bits`` terms, where radius^(k-2) vanishes in fixed point.  Returns
    (a, d, e), each as its real and imaginary mantissas; real p and h
    take real sums, and the imaginary mantissas are then all 0.
    """
    real = not (pole[1] or h[1])

    def dot(xr, xi, yr, yi):
        if real:
            return sum(map(mul, xr, yr)), 0
        return (sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
                sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)))

    one = 1 << bits
    # a, d and e, each as real and imaginary mantissas, through k = 3
    series = [([c, 0, 0, 0], [0] * 4) for c in (one, 0, 0)]
    # their forcing at 2^-2bits, and their values at k = 6
    forcing = {4: ((pole[0] << bits, pole[1] << bits), (one << bits, 0),
                   (0, 0)),
               5: ((one << bits, 0), (0, 0), (0, 0))}
    free = (h, (0, 0), (one, 0))
    power = radius  # radius^(k-2) at 2^-bits
    k, small = 3, 0
    # a_7 = 0, as each pair in its sum holds one of a_1..a_3; so the last
    # two terms are read from a_8 and a_9 on.
    while k < 9 or small < 2:
        k += 1
        ar, ai = series[0]
        # a_1..a_3 and d_1..d_3 vanish: only i = 4..k-4 contributes.
        rev_r, rev_i = ar[k - 4:3:-1], ai[k - 4:3:-1]
        for weight, (xr, xi), (fr, fi), at_six in zip(
                (6, 12, 12), series, forcing.get(k, ((0, 0),) * 3), free):
            if k == 6:
                cr, ci = at_six
            else:
                sr, si = dot(xr[4:k - 3], xi[4:k - 3], rev_r, rev_i)
                den = (k - 6) * (k + 1)
                cr = ((weight * sr + fr) >> bits) // den
                ci = ((weight * si + fi) >> bits) // den
            xr.append(cr)
            xi.append(ci)
        power = (power * radius) >> bits
        term = ((abs(ar[k]) + abs(ai[k])) * power) >> bits
        small = small + 1 if term < floor else 0
    return tuple(series)
