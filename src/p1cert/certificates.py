"""Certified inequality suites for the pole-free-region proof.

Each public ``check_*`` function re-derives one contraction-mapping (or
series-majorant) argument from shipped exact data and returns a
:class:`CertificateReport`: a named list of exact rational comparisons
whose joint truth is the certificate.  The regions, in the outer frame
coordinate x:

* ``check_omega_I``       — the positive imaginary-axis ray, |x| >= rho;
* ``check_z0_bounds``     — the matching point x0 = i(204/5)^(5/4)/30 where
                            the ray certificate hands initial data to the
                            inner-interval certificate;
* ``check_omega_12``      — the upper wedge arg x in [pi/4, pi/2] together
                            with the strip arg x in [-pi/4, pi/4],
                            Re x >= rho0/sqrt(2);
* ``check_omega_4``       — the lower wedge arg x in [-pi/2, -pi/4],
                            |x| >= rho >= 3, where the exponentially small
                            correction turns on;
* ``check_inner_interval``— the segment t in [-17/10, 0] of the rotated
                            frame (re-export of :mod:`p1cert.inner`);
* ``check_taylor_radius`` — the Maclaurin-envelope disk |t| < 37/20.

Everything compared here is an exact ``Fraction`` endpoint; the only
approximate objects are outward-rounded enclosures of square roots,
fractional powers, pi, and the modulus of the Stokes multiplier.

The thresholds that the evaluator's closed forms rely on -- the ray's
matching point, eps and ||H0||, the lower wedge's floor and ball, and the
disk radius R0 -- come from the rows of :mod:`p1cert.regions`, which the
evaluator reads too; :data:`REGION_STATEMENT` is formatted from them.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

from .data import (constant_catalog, expansion_tables, mark_parsed,
                   parsed_files, read_ahead, reference_values)
from .functionals import (PowerSum, QSqrt2, SPoly, abs_sums_by_s_power,
                          majorant, tail1, tail2, tail3, tail4)
from .numerics import (
    CERT_TOL,
    Interval,
    as_fraction,
    floor_root,
    frac_pow,
    slim,
    slim_up,
    sqrt2_enclosure,
    sqrt_enclosure,
    truncation_window,
)
from .result import CheckResult, PreconditionError, check
from .regions import CLOSED_FORMS, DISK_RADIUS, OMEGA_4, OMEGA_I, arg_z
from . import formal
from . import inner as inner_interval

#: Norm bound carried by the quasi-solution on the imaginary-axis ray:
#: sup of |x^(5/2) H0(x)| there.
H0_NORM = OMEGA_I.h0_norm


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    """A named bundle of certified comparisons with a joint verdict."""

    name: str
    inputs: Tuple[Tuple[str, str], ...]
    checks: Tuple[CheckResult, ...]
    narrative: str = ""
    verdict: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "verdict", all(c.passed for c in self.checks))

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _report(name: str, inputs: Mapping[str, object],
            checks: Sequence[CheckResult],
            narrative: str = "") -> CertificateReport:
    return CertificateReport(
        name=name,
        inputs=tuple((k, str(v)) for k, v in inputs.items()),
        checks=tuple(checks),
        narrative=narrative,
    )


def _window_overlap(name: str, enclosure: Interval, printed: str,
                    note: str = "") -> CheckResult:
    """The enclosure must intersect the truncation window of ``printed``.

    The printed value is a truncated decimal of the true quantity and the
    enclosure contains the true quantity, so disjointness proves an error.
    ``value`` is the (signed) gap between the two intervals; <= 0 means
    they intersect.
    """
    window = truncation_window(printed)
    gap = slim_up(max(enclosure.lo - window.hi, window.lo - enclosure.hi))
    detail = (f"enclosure [{float(enclosure.lo):.10f}, "
              f"{float(enclosure.hi):.10f}] vs printed {printed}")
    if note:
        detail = f"{note}; {detail}"
    return check(name, gap, Fraction(0), "<=", note=detail)


# ---------------------------------------------------------------------------
# The matching point x0
# ---------------------------------------------------------------------------

def x0_abs() -> Interval:
    """|x0| = (204/5)^(5/4) / 30, the outer-frame image of the matching
    point z0 = (17/10) e^(i pi/5) on the oscillatory ray."""
    return frac_pow(24 * OMEGA_I.z0_abs, 5, 4) * Fraction(1, 30)


def _times_pi(k: Fraction) -> str:
    """k pi as the reports print it: pi, pi/5, -3pi/5."""
    text = {1: "pi", -1: "-pi"}.get(k.numerator, f"{k.numerator}pi")
    return text if k.denominator == 1 else f"{text}/{k.denominator}"


#: The phase of the matching point z0 = |z0| e^(i pi/5): the ray's arg z.
_Z0_PHASE = f"e^(i {_times_pi(arg_z(OMEGA_I.lowest))})"


# ---------------------------------------------------------------------------
# Imaginary-axis ray certificate
# ---------------------------------------------------------------------------

def check_omega_I(rho: Union[Fraction, int, Interval],
                  eps: Fraction) -> CertificateReport:
    """Ball-invariance and contraction on the imaginary-axis ray.

    With ||H0|| <= 784/3125 in the weighted sup norm ||H|| =
    sup |x^(5/2) H(x)| over the ray |x| >= rho, the fixed-point map for
    the correction H is certified by

        (1+eps)/(14 rho) + (1+eps)^2 ||H0|| / (9 rho^2)  <=  eps
        1/(14 rho)       + 2 (1+eps) ||H0|| / (9 rho^2)  <   1

    giving a solution with ||H|| <= (1+eps) ||H0||.
    """
    rho_iv = rho if isinstance(rho, Interval) else Interval(as_fraction(rho))
    if not rho_iv.is_positive():
        raise PreconditionError(f"ray certificate needs rho > 0, got {rho}")
    eps = as_fraction(eps)
    one_eps = 1 + eps
    map_value, contraction = map(slim, _ray_sides(
        rho_iv.inverse(), (rho_iv ** 2).inverse(), one_eps))
    checks = [
        check("ray_ball_maps_into_itself", map_value.hi, eps, "<=",
              lo=map_value.lo,
              note="(1+eps)/(14 rho) + (1+eps)^2 |H0|/(9 rho^2) <= eps"),
        check("ray_contraction_below_one", contraction.hi, Fraction(1), "<",
              lo=contraction.lo,
              note="1/(14 rho) + 2(1+eps)|H0|/(9 rho^2) < 1"),
    ]
    return _report(
        f"omega_I(rho={_short(rho_iv)},eps={eps})",
        {"rho": _short(rho_iv), "eps": eps, "H0_norm": H0_NORM},
        checks,
        narrative=f"solution ball radius (1+eps)||H0|| = {one_eps * H0_NORM}",
    )


def _ray_sides(inv_rho: Interval, inv_rho2: Interval, one_eps: Fraction):
    """Left sides of :func:`check_omega_I`'s inequalities at 1/rho."""
    return (Fraction(one_eps, 14) * inv_rho
            + Fraction(one_eps ** 2 * H0_NORM, 9) * inv_rho2,
            Fraction(1, 14) * inv_rho
            + Fraction(2 * one_eps * H0_NORM, 9) * inv_rho2)


def _outer_source() -> Fraction:
    """c of the source c/x^4 of P-I at the outer bracket (formal)."""
    return -formal.outer_equation(formal.outer_bracket()).coefficient(0, 8, 0)


def _short(value: Union[Interval, Fraction]) -> str:
    if isinstance(value, Interval):
        if value.width == 0:
            return str(value.lo)
        return f"~{float(value.mid):.12f}"
    return str(value)


def check_z0_bounds() -> CertificateReport:
    """Hand-off bounds at the matching point z0 = (17/10) e^(i pi/5).

    Converts the ray certificate at rho = |x0|, eps = 1/40 into bounds on
    |y - y0|, |y' - y0'| at z0, encloses the exactly-real rotated values
    C1 (of y0) and C2 (of y0'), and certifies that the rotated-frame
    corrections stay inside the budgets alpha1 = 1/290, alpha2 = 1/152
    used by the inner-interval certificate.
    """
    eps, z0 = OMEGA_I.eps, OMEGA_I.z0_abs
    A = x0_abs()
    inv_A = A.inverse()
    inv_A2 = (A ** 2).inverse()

    one_eps = 1 + eps
    map_value, contraction = _ray_sides(inv_A, inv_A2, one_eps)
    h_norm = OMEGA_I.ball
    h_at = h_norm * frac_pow(A, -5, 2)
    inv_A72 = frac_pow(A, -7, 2)
    h_prime_at = (Fraction(h_norm, 14) * inv_A72
                  + Fraction(h_norm ** 2, 9) * frac_pow(A, -9, 2)
                  + _outer_source() * inv_A72)

    # |y - y0|(z0) <= sqrt(|z0| / (6 |x0|)) * |H(x0)|
    value_err = slim(sqrt_enclosure(z0 / 6 * inv_A) * h_at)
    # |y' - y0'|(z0) <= sqrt(|z0|/6) / (|z0| sqrt(|x0|))
    #                   * (|H(x0)|/8 + (5/4)|x0| |H'(x0)|)
    slope_pref = (sqrt_enclosure(z0 / 6) * (1 / z0)
                  * sqrt_enclosure(A).inverse())
    slope_err = slim(slope_pref * (Fraction(1, 8) * h_at
                                   + Fraction(5, 4) * A * h_prime_at))

    # Rotated asymptotic data at z0 (both exactly real): the bracket
    # B = 1 + b/x^2 and the slope's B + (5/2) x B' = 1 - 4b/x^2 at x0^2 = -A^2
    b = formal.outer_bracket().coefficient(0, 4, 0)
    c1 = slim(-(sqrt_enclosure(z0 / 6) * (1 - b * inv_A2)))
    c2 = slim(sqrt_enclosure(6 / z0) * (Fraction(1, 12) + b / 3 * inv_A2))
    # the matching errors' bounds; with the distance of C1, C2 from the
    # inner interval's data at t0 they must fit its alpha box
    value_bound, slope_bound = Fraction(3, 890), Fraction(29, 4468)
    t0_value, t0_slope = inner_interval.T0_VALUE, inner_interval.T0_SLOPE
    alpha1, alpha2 = inner_interval.ALPHA1, inner_interval.ALPHA2
    value_budget = slim(value_bound + abs(c1 - t0_value))
    slope_budget = slim(slope_bound + abs(c2 - t0_slope))

    checks = [
        check("ray_instance_maps_into_itself", map_value.hi, eps, "<=",
              lo=map_value.lo, note=f"the rho=|x0|, eps={eps} ray instance"),
        check("ray_instance_contraction", contraction.hi, Fraction(1), "<",
              lo=contraction.lo),
        _window_overlap("x0_modulus_reference", A, "3.437"),
        check("matching_error_value", value_err.hi, value_bound, "<=",
              lo=value_err.lo, note="|y - y0|(z0)"),
        check("matching_error_slope", slope_err.hi, slope_bound, "<=",
              lo=slope_err.lo, note="|y' - y0'|(z0)"),
        _window_overlap("C1_reference", c1, "-0.5394994",
                        note="rotated value of y0(z0)"),
        _window_overlap("C2_reference", c2, "0.148075",
                        note="rotated value of y0'(z0)"),
        check("value_correction_within_budget", value_budget.hi, alpha1,
              "<", lo=value_budget.lo,
              note=f"{value_bound} + |C1 + {-t0_value}| < alpha1 = {alpha1}"),
        check("slope_correction_within_budget", slope_budget.hi, alpha2,
              "<", lo=slope_budget.lo,
              note=f"{slope_bound} + |C2 - {t0_slope}| < alpha2 = {alpha2}"),
    ]
    return _report(
        "z0_bounds",
        {"z0": f"({z0}){_Z0_PHASE}", "rho": _short(A), "eps": eps},
        checks,
        narrative=(
            "certified |H(x0)| <= "
            f"{float(h_at.hi):.12f}, |H'(x0)| <= {float(h_prime_at.hi):.12f}"
        ),
    )


# ---------------------------------------------------------------------------
# Wedge certificate (upper wedge + strip): rigorous quadrature for the
# kernel constants, then the contraction inequalities.
# ---------------------------------------------------------------------------

#: Fractional bits of the wedge quadrature's fixed-point grid values.
QUADRATURE_BITS = 128
#: The wedge quadrature's grid: the midpoint rule on [-1, WEDGE_T] in
#: WEDGE_PANELS panels, and the tail beyond WEDGE_T.
WEDGE_T = 64
WEDGE_PANELS = 4096
#: eps of the wedge ball: the correction lies within (1 + eps) M.
WEDGE_EPS = Fraction(3, 2)


def _derivative_numerator(a: int, n: int) -> List[Fraction]:
    """The coefficients, lowest power first, of the polynomial Q_n with
    d^n/dp^n (1 + p^2)^(-a/4) = (1 + p^2)^(-a/4 - n) Q_n(p)."""
    q = [Fraction(1)]
    for k in range(n):
        # Q_{k+1} = Q_k' (1 + p^2) - 2 (a/4 + k) p Q_k
        nxt = [Fraction(0)] * (len(q) + 1)
        for i, c in enumerate(q):
            if i:
                nxt[i - 1] += i * c
                nxt[i + 1] += i * c
            nxt[i + 1] -= 2 * (Fraction(a, 4) + k) * c
        q = nxt
    return q


def _fourth_derivative_constant(a: int) -> Fraction:
    """K with |d^4/dp^4 (1 + p^2)^(-a/4)| <= K (1 + p^2)^(-(a+8)/4)."""
    # Q_4 is even, and |c0 + c2 p^2 + c4 p^4| <= K (1 + 2 p^2 + p^4)
    c0, _, c2, _, c4 = _derivative_numerator(a, 4)
    return max(abs(c0), abs(c2) / 2, abs(c4))


def _midpoint_sums(exps: Sequence[int], T: int, panels: int
                   ) -> Dict[int, Tuple[Interval, Interval, Fraction]]:
    """For each a of the ascending ``exps``, over the midpoints p of the
    panels of [-1, T], with u = 1 + p^2: enclosures of the sums of
    u^(-a/4) and of Q_2(p) u^(-(a+8)/4), and an upper end of the sum of
    u^(-(a+8)/4), on plain ints: one list over the midpoints per power.

    The midpoint p = -1 + (2i+1) h/2 is m/D with D = 2 panels and
    m = (2i+1)(T+1) - D, so u = (D^2 + m^2)/D^2 is exact for any panel
    count.  One exact integer fourth root gives g = floor(2^B u^(-1/4)),
    with B = ``QUADRATURE_BITS`` fractional bits; g <= 2^B since u >= 1.

    The powers are fixed-point floors at 2^-B along one fixed chain:
    q_1 = g, q_2 = floor(q_1 q_1 / 2^B) and q_n = floor(q_(n-2) q_2 /
    2^B), so q_n depends on g and n alone.  Write E_n = g^n / 2^((n-1)B),
    the exact power on the same scale, and e_n = E_n - q_n.  Then

        0 <= e_n <= n - 1.

    By induction: e_1 = 0, and if q = floor(q_k q_j / 2^B) with e_k and
    e_j in range, then E_(k+j) = E_k E_j / 2^B, and

        E_k E_j - q_k q_j = e_k E_j + e_j q_k <= (e_k + e_j) 2^B,

    since q_k <= E_k = 2^B (g/2^B)^k <= 2^B; the floor takes off less
    than one more unit, so 0 <= e_(k+j) < e_k + e_j + 1 <= k + j - 1.
    So q_n / 2^B is a lower end of (g/2^B)^n, and therefore of u^(-n/4),
    and (q_n + n - 1) / 2^B an upper end of (g/2^B)^n.

    The sums of q_a, of q_(a+8), and of the factors 4 D^2 Q_2(m/D) =
    (a^2+2a) m^2 - 2a D^2 times q_(a+8), split by the factor's sign, are
    lower ends.  Each upper end adds n - 1 units per panel, times the
    factor in the two Q_2 sums.  The ceiling of 2^B u^(-1/4) is at most
    g + 1, and (g + 1)^n <= g^n (1 + 2n/g) for n <= g (e^x <= 1 + 2x on
    [0, 1]), so each upper end is then multiplied by the one factor
    1 + 2n/g_min, where g_min is the smallest midpoint root.
    """
    B = QUADRATURE_BITS
    D = 2 * panels
    D2 = D * D
    top = D2 << 4 * B
    # m^2 at each midpoint, m = (2i+1)(T+1) - D, and a column of q_n over
    # the midpoints for each n of the chain of the parities of a and a + 8
    m2s = [m * m for m in range(T + 1 - D, 2 * panels * (T + 1) - D,
                                2 * (T + 1))]
    q = {1: [floor_root(top // (D2 + m2), 4) for m2 in m2s]}
    q[2] = [g * g >> B for g in q[1]]
    parities = {a & 1 for a in exps}
    for n in range(3, exps[-1] + 9):
        if n & 1 in parities:
            q[n] = [x * y >> B for x, y in zip(q[n - 2], q[2])]
    # the last midpoint, T - h/2, lies farthest from 0, since
    # T - h/2 >= |h/2 - 1| when h <= T + 1, so its root is the least
    g_min = q[1][-1]
    if exps[-1] + 8 > g_min:
        raise PreconditionError(
            f"T = {T} is too large for {B}-bit roots: the smallest root "
            f"{g_min} is below the power {exps[-1] + 8}")
    unit, curv_unit = 1 << B, 4 * D2 << B
    sums = {}
    for a in exps:
        n = a + 8
        up_a, up_n = 1 + Fraction(2 * a, g_min), 1 + Fraction(2 * n, g_min)
        values = sum(q[a])
        value = Interval(Fraction(values, unit),
                         up_a * Fraction(values + panels * (a - 1), unit))
        # 4 D^2 Q_2(m/D) = (a^2+2a) m^2 - 2a D^2 at each midpoint, and the
        # Q_2 sums of each sign, without and with the n - 1 units
        factors = [(a * a + 2 * a) * m2 - 2 * a * D2 for m2 in m2s]
        below = [(f, x) for f, x in zip(factors, q[n]) if f < 0]
        neg_sum = sum(f * x for f, x in below)
        neg_factor = sum(f for f, _ in below)
        pos_sum = sum(map(operator.mul, factors, q[n])) - neg_sum
        pos_factor = sum(factors) - neg_factor
        pos = Fraction(pos_sum, curv_unit)
        neg = Fraction(neg_sum, curv_unit)
        pos_up = pos + Fraction((n - 1) * pos_factor, curv_unit)
        neg_up = neg + Fraction((n - 1) * neg_factor, curv_unit)
        curvature = Interval(pos + up_n * neg_up, up_n * pos_up + neg)
        S = up_n * Fraction(sum(q[n]) + panels * (n - 1), unit)
        sums[a] = value, curvature, S
    return sums


def inverse_power_integral(alpha_quarters: Sequence[int], T: int,
                           panels: int) -> Tuple[Interval, ...]:
    """Enclosures of  integral_{-1}^{infinity} (1 + p^2)^(-a/4) dp,  one
    per entry a of ``alpha_quarters``, from one sweep of the grid.

    Taylor-corrected midpoint rule on [-1, T] in panels of width h: on
    the panel with midpoint m, Taylor's theorem with the Lagrange
    remainder gives

        integral = h f(m) + h^3/24 f''(m) + r,
        |r| <= h^5/1920 sup_panel |f''''|,

    since the odd terms cancel.  The derivatives of f = w^(-a/4),
    w = 1 + p^2, are f^(n) = w^(-a/4-n) Q_n(p) with Q_0 = 1 and
    Q_{n+1} = Q_n' w - 2(a/4 + n) p Q_n, so

        f''(p) = w^(-(a+8)/4) * ((a^2+2a)/4 * p^2 - a/2),

    and the even Q_4 = c0 + c2 p^2 + c4 p^4 gives |f''''| <= K
    w^(-(a+8)/4) with K = max(|c0|, |c2|/2, |c4|).  The weight
    w^(-(a+8)/4) is even and falls with |p|, so its sup over a panel in
    p >= 0 is its value at the panel's left end.  If the left neighbour
    lies in p >= 0 too, its midpoint lies between 0 and that end and
    bounds the sup; in p <= 0 the right neighbour serves alike.  Each
    side maps a panel to its neighbour nearer 0, so distinct panels use
    distinct midpoints, and the two sides use disjoint ones, in p > 0
    and in p < 0.  At most three panels are left over, and there the
    weight is at most 1: the one that holds p = 0 inside, the first
    panel in p >= 0 and the last in p <= 0.  So the remainders sum to at
    most h^5/1920 K (S + 3), with S an upper end of the sum of
    w^(-(a+8)/4) over the midpoints.  The tail beyond T is enclosed by
    [0, T^(1-a/2) * 2/(a-2)].  The three sums over the midpoints come
    from :func:`_midpoint_sums`.
    """
    if any(a <= 2 for a in alpha_quarters):
        raise PreconditionError("integral diverges unless a > 2")
    if T < 1 or panels < 1:
        raise PreconditionError("need T >= 1 and panels >= 1")
    h = Fraction(T + 1, panels)
    sums = _midpoint_sums(sorted(set(alpha_quarters)), T, panels)
    enclosures = []
    for a in alpha_quarters:
        value, curvature, S = sums[a]
        R = h ** 5 / 1920 * _fourth_derivative_constant(a) * (S + 3)
        # T^(1-a/2) = (sqrt T)^(2-a)
        tail_hi = Fraction(2, a - 2) * frac_pow(T, 2 - a, 2).hi
        enclosures.append(h * value + h ** 3 / 24 * curvature
                          + Interval(-R, R + tail_hi))
    return tuple(enclosures)


def wedge_kernel_constants() -> Dict[str, Interval]:
    """The three kernel constants of the wedge contraction argument."""
    i74, i94, i114 = inverse_power_integral((7, 9, 11), WEDGE_T,
                                            WEDGE_PANELS)
    M = Fraction(196, 625) * (frac_pow(2, 5, 4) * i74 + Fraction(2, 5))
    N = Fraction(1, 18) + frac_pow(2, 1, 4) * i114
    L = Fraction(1, 28) + frac_pow(2, -5, 4) * i94
    return {"M": slim(M), "N": slim(N), "L": slim(L)}


def check_omega_12() -> CertificateReport:
    """Contraction on the upper wedge and the adjacent strip.

    The integral-equation kernel there is controlled by three constants
    (quadratic-source M, linear-growth N, linear L), each a closed form in
    one quadrature integral_{-1}^{infty} (1+p^2)^(-alpha) dp.  At
    rho0 = |x0| the ball-invariance and contraction conditions

        L/rho0 (1+eps) + N M (1+eps)^2 / rho0^2  <=  eps
        L/rho0         + 2 N M (1+eps) / rho0^2  <   1

    certify the correction on both subregions, eps = ``WEDGE_EPS``, in
    the ball of radius (1 + eps) M; the vertical-contour variants of the
    source bounds are dominated by M and L.
    """
    eps = WEDGE_EPS
    constants = wedge_kernel_constants()
    M, N, L = constants["M"], constants["N"], constants["L"]
    # The contraction step consumes the certified constant bounds, not the
    # raw quadrature enclosures, so it stays valid verbatim whenever the
    # three constant checks pass.
    m_bound, n_bound, l_bound = (Fraction(32, 25), Fraction(203, 138),
                                 Fraction(3, 5))
    rho0 = x0_abs()
    inv_rho0 = rho0.inverse()
    inv_rho0_sq = (rho0 ** 2).inverse()
    map_value = slim(l_bound * inv_rho0 * (1 + eps)
                     + n_bound * inv_rho0_sq * m_bound * (1 + eps) ** 2)
    contraction = slim(l_bound * inv_rho0
                       + 2 * n_bound * inv_rho0_sq * m_bound * (1 + eps))
    sqrt2 = sqrt2_enclosure()
    vertical_quadratic = H0_NORM * sqrt2
    vertical_linear = Fraction(1, 14) * sqrt2
    checks = [
        check("wedge_quadratic_constant", M.hi, m_bound, "<=",
              lo=M.lo, note="M = (196/625)(2^(5/4) I_{7/4} + 2/5)"),
        check("wedge_linear_growth_constant", N.hi, n_bound, "<=",
              lo=N.lo, note="N = 1/18 + 2^(1/4) I_{11/4}"),
        check("wedge_linear_constant", L.hi, l_bound, "<=",
              lo=L.lo, note="L = 1/28 + 2^(-5/4) I_{9/4}"),
        check("vertical_quadratic_dominated", vertical_quadratic.hi, M.lo,
              "<", note=f"({H0_NORM}) sqrt(2) < M"),
        check("vertical_linear_dominated", vertical_linear.hi, L.lo, "<",
              note="sqrt(2)/14 < L"),
        check("wedge_ball_maps_into_itself", map_value.hi, eps, "<=",
              lo=map_value.lo,
              note="L(1+eps)/rho0 + N M (1+eps)^2/rho0^2 <= eps, with "
                   "M, N, L at their certified bounds"),
        check("wedge_contraction_below_one", contraction.hi, Fraction(1),
              "<", lo=contraction.lo,
              note="L/rho0 + 2 N M (1+eps)/rho0^2 < 1"),
        check("wedge_ball_radius", ((1 + eps) * M).hi,
              (1 + eps) * m_bound, "<=",
              note=f"solution ball radius ({1 + eps})M "
                   f"(<= {(1 + eps) * m_bound} follows from M)"),
    ]
    return _report(
        "omega_12",
        {"rho0": _short(rho0), "eps": eps, "T": WEDGE_T,
         "panels": WEDGE_PANELS},
        checks,
    )


# ---------------------------------------------------------------------------
# Lower-wedge certificate: tail-functional constants, the catalog
# cross-check, the rho=3 reference values, and the contraction targets.
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)


def route_constants() -> Dict[str, PowerSum]:
    """The eleven closed-form constants, recomputed from the shipped
    coefficient tables through the weighted tail functionals.

    These must agree *exactly* with the rows of the constant catalog;
    ``check_omega_4`` asserts that equality.
    """
    tables = expansion_tables()
    r, q, E = tables["r"], tables["q"], tables["E"]
    t, tt, ut, p = (tables["t"], tables["t_tilde"], tables["u_tilde"],
                    tables["p"])

    r7_tilde = dict(r[7])
    r7_tilde[(0, 0)] = r7_tilde.get((0, 0), Fraction(0)) + _outer_source()

    e_m = PowerSum({Fraction(j - 2, 2): tail2(j, E[j]) for j in range(5, 9)})
    m_q = PowerSum({Fraction(j - 7, 2): tail1(j, q[j - 5])
                    for j in range(10, 15)})
    m_lq = PowerSum({Fraction(j - 7, 2): tail3(j, q[j - 5])
                     for j in range(10, 15)})
    m_g1 = (PowerSum({Fraction(0): SPoly.constant(QSqrt2(0, H0_NORM))
                      + tail1(7, r[7]) + tail1(7, r7_tilde)})
            + PowerSum({Fraction(j - 7, 2): tail1(j, r[j]) * 2
                        for j in (8, 9)}))
    m_g2 = PowerSum({Fraction(j - 7, 2): tail1(j, r[j - 2]) for j in (7, 8)})
    m_g3 = m_g2 + PowerSum({Fraction(j - 5, 2): tail1(j, r[j])
                            for j in (5, 6)})
    m_g40 = PowerSum({Fraction(j - 5, 2): abs_sums_by_s_power(p[j])
                      for j in range(5, 9)})
    m_g41 = (PowerSum({Fraction(j - 7, 2): tail1(j, ut[j])
                       for j in range(7, 11)})
             + _z2_head_majorant()
             * PowerSum({Fraction(j - 7, 2): tail1(j, tt[j])
                         for j in (7, 8, 9)}))
    m_g5 = PowerSum({Fraction(j - 7, 2): tail3(j, r[j]) for j in (7, 8, 9)})
    m_g6 = PowerSum({Fraction(j - 7, 2): tail3(j, r[j - 2]) for j in (7, 8)})
    m_g7 = PowerSum({Fraction(j - 5, 2): tail4(j, t[j]) for j in (5, 6, 7)})
    return {
        "E_M": e_m, "M_q": m_q, "M_Lq": m_lq,
        "M_G1": m_g1, "M_G2": m_g2, "M_G3": m_g3,
        "M_G40": m_g40, "M_G41": m_g41,
        "M_G5": m_g5, "M_G6": m_g6, "M_G7": m_g7,
    }


def _z2_head_majorant() -> PowerSum:
    """Bound on the head e^(-2x) (z20 + z21) of the second-kind factor."""
    return majorant(formal.FormalSeries.term(1, m=2)
                    * (formal.z20_series() + formal.z21_series()))


def scalar_bounds() -> Dict[str, PowerSum]:
    """Division-free scalar bound functions of rho (coefficients in |S|):
    majorants of ring elements that the symbolic table suite checks."""
    return {"j_m": majorant(formal.small_j_series()),
            "J_M": majorant(formal.j_factorization()),
            "Y_1M": majorant(formal.y1_series()),
            "Y_1RM": majorant(formal.j_prefactor() * formal.small_j_series()),
            "Y_head": majorant(formal.y10_series() + formal.y11_series())}


def z2_remainder_division_free(j_m: PowerSum, e_m: PowerSum) -> PowerSum:
    """All of the |x z_{2,R}| bound except its two division terms, from
    the scalar bound ``j_m`` and the route constant ``e_m`` (E_M)."""
    explicit = majorant(formal.z2R0_series(), shift=2) + PowerSum({
        _HALF: (SPoly.s_power(1, QSqrt2(Fraction(7, 36), Fraction(7, 36)))
                + SPoly.s_power(3, Fraction(8, 27)))})
    u = PowerSum.monomial(1, _HALF) * j_m
    cubic_tail = (PowerSum.constant(SPoly.s_power(3, Fraction(4, 9))) * j_m
                  * (1 + u + u * u * Fraction(1, 3)))
    return explicit + e_m + cubic_tail


def _wedge_leaves(scalars: Mapping[str, PowerSum],
                  routes: Mapping[str, PowerSum]) -> Dict[str, PowerSum]:
    """Every input of the lower-wedge formulas, each a small PowerSum."""
    return {
        **scalars,
        **routes,
        "z_2R_free": z2_remainder_division_free(scalars["j_m"],
                                                routes["E_M"]),
        "z_2head": _z2_head_majorant(),
        "rho^-1/2": PowerSum.monomial(1, _HALF),
        "rho^-1": PowerSum.monomial(1, Fraction(1)),
        "|S|": PowerSum.constant(SPoly.s_power(1)),
        "sqrt2+1": PowerSum.constant(QSqrt2(1, 1)),
    }


class _Monotone:
    """Flag: the expression is nonnegative and nonincreasing in rho.

    Sums and products of nonnegative nonincreasing functions, and of
    nonnegative constants, are again nonnegative and nonincreasing (the
    closure lemma).  The flag therefore passes through +, x and
    nonnegative integer powers only; there is no - and no /.
    """

    __slots__ = ("ok",)

    def __init__(self, ok: bool):
        self.ok = ok

    def _join(self, other) -> "_Monotone":
        if not isinstance(other, _Monotone):
            other = _Monotone(as_fraction(other) >= 0)
        return _Monotone(self.ok and other.ok)

    __add__ = __radd__ = __mul__ = __rmul__ = _join

    def __pow__(self, n: int) -> "_Monotone":
        if not isinstance(n, int) or n < 0:
            raise ValueError(
                f"closure needs a nonnegative int power, got {n!r}")
        return self


def _geometric(c_hi: Fraction):
    """1/(1-u) <= 1 + u + u^2 + u^3 + c_hi u^4 whenever 1/(1-u) <= c_hi."""
    return lambda u: 1 + u + u ** 2 + u ** 3 + c_hi * u ** 4


def z2_remainder_majorant(v: Mapping, recip):
    """The |x z_{2,R}| bound: its division-free part plus the division
    terms 5 J_M^4/(1-u) + (2/3) rho^(-1/2) J_M^5/(1-u)^2, u = rho^(-1/2)
    J_M, with 1/(1-u) bounded by ``recip(u)``.  ``v`` maps leaf names to
    values of one type (see :func:`_lower_wedge`)."""
    big_j, inv_sqrt_rho = v["J_M"], v["rho^-1/2"]
    r = recip(inv_sqrt_rho * big_j)
    return v["z_2R_free"] + (5 * big_j ** 4 * r
                             + Fraction(2, 3) * inv_sqrt_rho * big_j ** 5
                             * r ** 2)


def _lower_wedge(v: Mapping, recip) -> Dict[str, object]:
    """``v`` and the lower-wedge formulas over it, written once: z_2RM,
    z_2M, the seven source bounds M_1..M_7, and the linear and quadratic
    operator bounds V_M, T_M.

    ``v`` maps each name of :func:`_wedge_leaves` to a value: an Interval
    at one rho, or a :class:`_Monotone` flag.  ``recip(u)`` bounds
    1/(1-u).  Leaves and nonnegative constants are combined by +, x and
    nonnegative integer powers only.
    """
    y1, y1r, inv_rho = v["Y_1M"], v["Y_1RM"], v["rho^-1"]
    z2r = z2_remainder_majorant(v, recip)
    z2 = v["z_2head"] + z2r * inv_rho
    s2 = v["|S|"] ** 2
    s2_524 = Fraction(5, 24) * s2
    sqrt2p1 = v["sqrt2+1"]
    return {
        **v,
        "z_2RM": z2r,
        "z_2M": z2,
        "M_1": y1 * y1 * z2 * v["M_G1"],
        "M_2": 2 * y1 * z2 * y1r * v["M_G2"],
        "M_3": y1 * z2r * v["Y_head"] * v["M_G3"],
        "M_4": y1 * (v["M_G40"] + v["M_G41"]),
        "M_5": s2_524 * y1 * y1 * v["M_G5"],
        "M_6": s2_524 * y1 * y1r * v["M_G6"],
        "M_7": s2_524 * y1 * v["M_G7"],
        "V_M": y1 * ((2 * z2 * v["M_q"] + s2_524 * v["M_Lq"])
                     + y1 * (sqrt2p1 * Fraction(1, 14) * inv_rho * z2
                             + Fraction(5, 288) * s2 * inv_rho)),
        "T_M": (y1 ** 2 * inv_rho ** 2
                * (sqrt2p1 * Fraction(1, 9) * z2
                   + Fraction(5, 192) * s2)),
    }


def _leaf_enclosures(rho: Fraction, leaves: Mapping[str, PowerSum]
                     ) -> Dict[str, Interval]:
    """Every wedge leaf enclosed at rho, each once."""
    return {name: ps.enclosure(rho) for name, ps in leaves.items()}


def _interval_recip(u: Interval) -> Interval:
    """1/(1-u) by interval division."""
    return (1 - u).inverse()


def _lower_wedge_rho(rho: Union[Fraction, int, str]) -> Fraction:
    """``rho`` as a Fraction, or :class:`PreconditionError` below 3: the
    lower-wedge certificate and its sector constants are stated for
    rho >= 3 only."""
    rho = as_fraction(rho)
    if rho < OMEGA_4.floor:
        raise PreconditionError(
            f"the lower-wedge certificate is stated for rho >= "
            f"{OMEGA_4.floor}, got rho = {rho}")
    return rho


def _sector_values(rho: Fraction, recip) -> Dict[str, Interval]:
    """The lower-wedge formulas at rho over the shipped leaves."""
    rho = _lower_wedge_rho(rho)
    leaves = _wedge_leaves(scalar_bounds(), route_constants())
    return _lower_wedge(_leaf_enclosures(rho, leaves), recip)


def sector_majorants(rho: Fraction, c_hi: Fraction) -> Dict[str, Interval]:
    """Enclosures at rho of the majorants of the catalogued quantities:
    the lower-wedge formulas with 1/(1-u) bounded by the geometric
    1 + u + u^2 + u^3 + c_hi u^4, valid whenever 1/(1-u) <= c_hi."""
    return _sector_values(rho, _geometric(c_hi))


def sector_point_values(rho: Fraction) -> Dict[str, Interval]:
    """Sharp enclosures of all catalogued quantities at one rho value,
    evaluating the two division terms by interval division."""
    return _sector_values(rho, _interval_recip)


def check_omega_4(rho: Union[Fraction, int, str] = OMEGA_4.floor
                  ) -> CertificateReport:
    """Ball-invariance and contraction in the lower wedge, |x| >= rho >= 3.

    Chain certified here: exact equality of the recomputed tail-functional
    constants with the shipped catalog; monotonicity in rho of every
    majorant; reference containment of the printed rho=3 values; the
    source-norm, linear and quadratic targets

        sum M_j <= 2,   V_M <= 9/40 < 1/4,   T_M <= 18/467 < 1/25;

    and the resulting fixed-point conditions on the radius-4 ball,
        2 + 4*(1/4) + 16*(1/25) < 4   and   1/4 + 2*4*(1/25) <= 3/4.

    Monotonicity is a closure argument: sums and products of nonnegative,
    nonincreasing functions of rho are again nonnegative and
    nonincreasing.  Every majorant is built by +, x and integer powers
    from leaves whose coefficients and exponents are nonnegative, with
    1/(1-u) replaced by the geometric bound 1 + u + u^2 + u^3 + c u^4
    (c = 1/(1-u(3))), so the value at rho bounds it on all of [rho, oo).
    """
    rho = _lower_wedge_rho(rho)
    anchor, ball = OMEGA_4.floor, OMEGA_4.ball
    checks: List[CheckResult] = []

    routes = route_constants()
    catalog = constant_catalog()
    for name in sorted(routes):
        same = routes[name] == catalog[name]
        checks.append(check(
            f"catalog_{name}", Fraction(0 if same else 1), Fraction(0), "==",
            note="tables -> tail functionals reproduce the catalog row "
                 "exactly"))

    leaves = _wedge_leaves(scalar_bounds(), routes)
    # the point values and the majorants read the same leaf enclosures,
    # and u is formed from them as in z2_remainder_majorant, so at the
    # anchor the geometric bound meets 1/(1-u) exactly
    at = _leaf_enclosures(rho, leaves)
    at_anchor = at if rho == anchor else _leaf_enclosures(
        anchor, {name: leaves[name] for name in ("rho^-1/2", "J_M")})
    u_hi = (at_anchor["rho^-1/2"] * at_anchor["J_M"]).hi
    checks.append(check(
        "division_terms_valid", slim_up(u_hi), Fraction(1), "<",
        note="rho^(-1/2) J_M < 1 at the anchor, so the geometric majorant "
             f"and interval division apply for all rho >= {anchor}"))
    if u_hi >= 1:
        raise PreconditionError(
            f"division terms need rho^(-1/2) J_M < 1; got {float(u_hi)}")
    c_hi = 1 / (1 - u_hi)

    flags = _lower_wedge(
        {name: _Monotone(ps.nonincreasing_in_rho())
         for name, ps in leaves.items()}, _geometric(c_hi))
    for name in ("M_1", "M_2", "M_3", "M_4", "M_5", "M_6", "M_7",
                 "V_M", "T_M", "z_2M"):
        checks.append(check(
            f"monotone_{name}", Fraction(0 if flags[name].ok else 1),
            Fraction(0), "==",
            note="nonnegative and nonincreasing by closure: leaves with "
                 "nonnegative coefficients and exponents, combined only "
                 "by +, x and integer powers"))

    if rho == anchor:
        points = _lower_wedge(at, _interval_recip)
        printed = reference_values()
        max_width = slim_up(max(points[name].width for name in printed))
        for name in sorted(printed):
            checks.append(_window_overlap(
                f"reference_{name}", points[name], printed[name]))
        checks.append(check(
            "reference_enclosure_width", max_width, Fraction(1, 10**4), "<",
            note="widest enclosure among the printed reference values"))

    majorants = _lower_wedge(at, _geometric(c_hi))
    # the fixed-point map on the ball of radius ``ball`` at the targets
    image = 2 + ball * Fraction(1, 4) + ball ** 2 * Fraction(1, 25)
    factor = Fraction(1, 4) + 2 * ball * Fraction(1, 25)
    m_sum = slim(sum((majorants[f"M_{i}"] for i in range(2, 8)),
                     majorants["M_1"]))
    v_m = slim(majorants["V_M"])
    t_m = slim(majorants["T_M"])
    checks.extend([
        check("source_norm_at_most_2", m_sum.hi, Fraction(2), "<=",
              lo=m_sum.lo, note="sum of the seven source bounds"),
        check("linear_bound", v_m.hi, Fraction(9, 40), "<=", lo=v_m.lo),
        check("linear_bound_quarter", Fraction(9, 40), Fraction(1, 4), "<"),
        check("quadratic_bound", t_m.hi, Fraction(18, 467), "<=", lo=t_m.lo),
        check("quadratic_bound_25th", Fraction(18, 467), Fraction(1, 25),
              "<"),
        check("ball_maps_into_itself", image, ball, "<",
              note=f"source 2 + linear {ball}/4 + quadratic {ball ** 2}/25 "
                   f"on the radius-{ball} ball"),
        check("contraction_factor", factor, Fraction(3, 4), "<=",
              note=f"1/4 + {2 * ball}/25 = {factor}"),
    ])
    return _report(
        "omega_4",
        {"rho": rho, "anchor": anchor},
        checks,
        narrative=(
            "identification of the selected solution with the tritronquee "
            "(the value of the exponential coefficient) is an assumption "
            "imported from the classical asymptotic theory, not checked "
            "here"
        ),
    )


# ---------------------------------------------------------------------------
# Inner-interval certificate (re-export as a report)
# ---------------------------------------------------------------------------

def check_inner_interval() -> CertificateReport:
    """The quasi-solution certificate on the segment t in [-17/10, 0]."""
    results = inner_interval.certify()
    return _report(
        "inner_interval",
        {"alpha1": inner_interval.ALPHA1, "alpha2": inner_interval.ALPHA2,
         "ball_radius": inner_interval.BALL_RADIUS},
        results,
        narrative=(
            "value/slope windows at t=0: "
            f"|g(0) + {-inner_interval.CENTER_VALUE}| < "
            f"{inner_interval.VALUE_WINDOW}, "
            f"|g'(0) - {inner_interval.CENTER_SLOPE}| < "
            f"{inner_interval.SLOPE_WINDOW}"
        ),
    )


# ---------------------------------------------------------------------------
# Maclaurin-envelope disk certificate
# ---------------------------------------------------------------------------

#: Fraction bits of the Maclaurin envelope's fixed-point run.
ENVELOPE_BITS = 64
#: The last Maclaurin coefficient the envelope's run encloses.
ENVELOPE_HORIZON = 256


def _maclaurin_run(horizon: int, eps: Fraction
                   ) -> Tuple[List[Interval], List[int], List[int]]:
    """The exact windows of c_0 and c_1, and the integer kernel's
    centres and radii of c_0..c_horizon, each c_k in units of
    2^-(``ENVELOPE_BITS`` + k), from the windows at rho = 2.  The
    window centres are the midpoints, and eps rounded up plus one unit
    covers both eps and the centres' floor."""
    bits, eps = ENVELOPE_BITS, as_fraction(eps)
    windows = inner_interval.origin_windows(eps, eps)[:2]
    value, slope = (math.floor(c.mid * 2 ** bits) for c in windows)
    radius = math.ceil(eps * 2 ** bits) + 1
    re, im = inner_interval.taylor_fixed(
        (value, 0), (slope, 0), (0, 0), horizon, 1, bits)
    return windows, re, inner_interval.taylor_radii(re, im, radius, radius,
                                                    1, bits)


def maclaurin_enclosures(horizon: int, eps: Fraction) -> List[Interval]:
    """c_0..c_horizon: the exact windows c_0, c_1, then the balls of
    :func:`_maclaurin_run` converted back to exact intervals."""
    windows, re, radii = _maclaurin_run(horizon, eps)
    bits = ENVELOPE_BITS
    return windows + [Interval(Fraction(m - r, 1 << (bits + k)),
                               Fraction(m + r, 1 << (bits + k)))
                      for k, (m, r) in enumerate(zip(re, radii)) if k >= 2]


def taylor_envelope_run(horizon: int, eps: Fraction) -> Tuple[Fraction, int]:
    """The enclosures of :func:`maclaurin_enclosures` against the
    envelope (k+1) (20/37)^(k+2); returns (max ratio, argmax k).

    The ratio |c_k| R0^(k+2)/(k+1) is compared as a numerator over a
    denominator, by cross-multiplying: |c_k| is the larger end of a
    window, or |m| + r over 2^(``ENVELOPE_BITS`` + k) for a ball m +- r.
    Only the maximum becomes a ``Fraction``."""
    windows, re, radii = _maclaurin_run(horizon, eps)
    bits = ENVELOPE_BITS
    mags = [(c.numerator, c.denominator)
            for c in (max(abs(w.lo), abs(w.hi)) for w in windows)]
    mags += [(abs(m) + r, 1 << (bits + k))
             for k, (m, r) in enumerate(zip(re, radii)) if k >= 2]
    worst_n, worst_d, worst_k = 0, 1, 0
    up, down = DISK_RADIUS.numerator ** 2, DISK_RADIUS.denominator ** 2
    for k, (num, den) in enumerate(mags):
        num, den = num * up, den * down * (k + 1)
        if num * worst_d > worst_n * den:
            worst_n, worst_d, worst_k = num, den, k
        up *= DISK_RADIUS.numerator
        down *= DISK_RADIUS.denominator
    return Fraction(worst_n, worst_d), worst_k


def check_taylor_radius() -> CertificateReport:
    """Maclaurin coefficients of the solution around t = 0 obey the
    envelope |c_k| < (k+1)/R0^(k+2) with R0 = 37/20, so the series
    converges and stays bounded on |t| < 37/20.

    Inputs are the certified value/slope windows at t = 0, widened to the
    larger of their radii, eps; c2 and c3 of :func:`inner.maclaurin_extend`
    are extremal at the window corners (the interior critical points sit
    at c0 = 0 or c1 = 0, which the windows exclude); base cases are exact
    rational comparisons; the induction step is the exact discrete
    identity sum (j+1)(k-j+1) = (k+1)(k+2)(k+3)/6; and a run of rigorous
    balls on the integer kernel re-confirms the envelope numerically up
    to ``ENVELOPE_HORIZON``.
    """
    eps = max(inner_interval.VALUE_WINDOW, inner_interval.SLOPE_WINDOW)
    inv = 1 / DISK_RADIUS
    c0, c1, c2, c3 = inner_interval.origin_windows(eps, eps)
    corners = [inner_interval.maclaurin_extend(v, w, 0, 3)[2:]
               for v in (c0.lo, c0.hi) for w in (c1.lo, c1.hi)]
    corners_match = all((min(vs), max(vs)) == (c.lo, c.hi)
                        for vs, c in zip(zip(*corners), (c2, c3)))

    run_worst, run_k = taylor_envelope_run(ENVELOPE_HORIZON, eps)

    checks = [
        check("c0_interior_excludes_zero", Fraction(0), -c0.hi, "<",
              note="window of -c0 stays positive (interior critical point "
                   "of c2 excluded)"),
        check("c0_magnitude_below_one_fifth", -c0.lo, Fraction(1, 5), "<"),
        check("c1_interior_excludes_zero", Fraction(0), c1.lo, "<",
              note="window of c1 stays positive (interior critical point "
                   "of c3 excluded)"),
        check("c1_below_six_nineteenths", c1.hi, Fraction(6, 19), "<"),
        check("c2_window_positive", Fraction(0), c2.lo, "<"),
        check("c2_window_below_eighth", c2.hi, Fraction(1, 8), "<",
              lo=c2.lo),
        check("c3_window_positive", Fraction(0), c3.lo, "<"),
        check("c3_window_below_fifteenth", c3.hi, Fraction(1, 15), "<",
              lo=c3.lo),
        check("window_extrema_at_corners",
              Fraction(0 if corners_match else 1), Fraction(0), "==",
              note="corner evaluation reproduces the interval endpoints"),
        check("envelope_base_k0", Fraction(1, 5), inv ** 2, "<",
              note="1/5 < 1/R0^2 = 400/1369"),
        check("envelope_base_k1", Fraction(6, 19), 2 * inv ** 3, "<",
              note="6/19 < 2/R0^3, i.e. 303918 < 304000"),
        check("envelope_base_k2", Fraction(1, 8), 3 * inv ** 4, "<"),
        check("envelope_base_k3", Fraction(1, 15), 4 * inv ** 5, "<"),
        check("majorant_recurrence_identity",
              formal.convolution_identity_defect(), Fraction(0), "==",
              note="sum_{j<=k}(j+1)(k-j+1) = (k+1)(k+2)(k+3)/6 for k<=64; "
                   "with it, the envelope propagates through the "
                   "recurrence with no loss"),
        check("envelope_numeric_run", slim_up(run_worst), Fraction(1), "<",
              note=f"max_k |c_k| R0^(k+2)/(k+1) over k <= {ENVELOPE_HORIZON}, "
                   f"attained at k = {run_k} (ball run of the integer "
                   f"Taylor kernel, {ENVELOPE_BITS} fraction bits)"),
    ]
    return _report(
        "taylor_radius",
        {"a": -inner_interval.CENTER_VALUE, "b": inner_interval.CENTER_SLOPE,
         "eps": eps, "R0": DISK_RADIUS, "horizon": ENVELOPE_HORIZON},
        checks,
        narrative=f"the solution is analytic and bounded on |t| < "
                  f"{DISK_RADIUS}",
    )


# ---------------------------------------------------------------------------
# Symbolic table suite as one report
# ---------------------------------------------------------------------------

def check_symbolic_tables() -> CertificateReport:
    """Exact ring identities tying the shipped tables to closed forms."""
    results = (formal.verify_r_table() + formal.verify_q_table()
               + formal.verify_E_table() + formal.verify_G04_tables()
               + formal.verify_auxiliary_identities())
    return _report("symbolic_tables", {}, results)


# ---------------------------------------------------------------------------
# Everything
# ---------------------------------------------------------------------------

def _region_statement() -> str:
    """The certified region and its assembly, stated from the rows: the
    certificates reach from the lowest edge of the closed-form rows up to
    the ray, and the reflection across the ray doubles that."""
    low = arg_z(min(row.lowest for row in CLOSED_FORMS))
    ray = arg_z(OMEGA_I.lowest)
    low, ray, top = (_times_pi(k) for k in (low, ray, 2 * ray - low))
    return (
        f"Certified region: {{z != 0: arg z in [{low}, {top}]}} union "
        f"{{|z| < {DISK_RADIUS}}}.  Assembly: the ray, wedge and lower-wedge "
        f"certificates cover the outer sector |z| >= {OMEGA_I.z0_abs} (they "
        f"certify arg z in [{low}, {ray}]; the reflection across the ray, "
        "y(z) = w^-2 conj(y(w conj(z))) with w = e^(2pi i/5), supplies "
        f"arg z in ({ray}, {top}], a reflection step taken as prose, not "
        f"machine-checked); the matching bounds at z0 = ({OMEGA_I.z0_abs}) "
        f"{_Z0_PHASE} hand certified initial data to the inner-interval "
        "certificate, which transports it along t in "
        f"[{inner_interval.T0}, 0]; the Maclaurin envelope then covers the "
        f"disk |z| < {DISK_RADIUS}.  The identification of the constructed "
        "solution with the tritronquee rests on classical asymptotic theory "
        "(assumption, reported not checked)."
    )


REGION_STATEMENT = _region_statement()


def ray_reports() -> List[CertificateReport]:
    """The ray at rho = 1 and at |x0|, and the matching bounds at z0."""
    return [check_omega_I(1, Fraction(3, 20)),
            check_omega_I(x0_abs(), OMEGA_I.eps),
            check_z0_bounds()]


def failure_summary(reports: Sequence[CertificateReport]) -> str:
    """'NOT CERTIFIED; failing: ...' naming each failed check by report."""
    return "NOT CERTIFIED; failing: " + ", ".join(
        f"{r.name}: {[c.name for c in r.failures()]}"
        for r in reports if not r.verdict)


#: The jobs of :func:`run_scope`: each maps rho to a list of reports, and
#: only ``omega4`` reads it.  A job looks its report function up when it
#: runs, so it calls whatever the module attribute holds at that time.
#: They are listed longest first.  Serial times in one process on a
#: 2-core Xeon (Python 3.11.7, mpmath 1.3.0, no gmpy2; medians of eleven
#: runs in each of five processes on a quiet host): omega12 13.6-14.3
#: ms, inner 10.5-11.2, omega4 4.9-5.3, radius 4.3-4.6, tables 2.7-2.9
#: and omegaI 1.0 ms.  On a loaded host, where every job took up to
#: twice as long, omega4 and radius were within noise of each other.
_JOBS: Dict[str, Callable[[Fraction], List[CertificateReport]]] = {
    "omega12": lambda rho: [check_omega_12()],
    "inner": lambda rho: [check_inner_interval()],
    "omega4": lambda rho: [check_omega_4(rho)],
    "radius": lambda rho: [check_taylor_radius()],
    "tables": lambda rho: [check_symbolic_tables()],
    "omegaI": lambda rho: ray_reports(),
}

#: The jobs each ``verify`` scope runs.  ``all`` runs every job in the
#: order of ``_JOBS``: the workers take them longest first, so on two
#: CPUs the two longest start at once, and the short ones fill in
#: behind whichever worker frees first.
SCOPES: Dict[str, Tuple[str, ...]] = {
    "all": tuple(_JOBS),
    **{scope: (scope,)
       for scope in ("omegaI", "omega12", "omega4", "inner", "radius")},
}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (at least 1)."""
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return len(mask) or os.cpu_count() or 1


def _run_job(job: str, rho: Fraction
             ) -> Tuple[List[CertificateReport], Tuple[str, ...]]:
    """In a forked worker: the reports of ``_JOBS[job]`` and the data
    files parsed so far."""
    return _JOBS[job](rho), parsed_files()


def _map_jobs(jobs: Sequence[str], rho: Fraction
              ) -> List[List[CertificateReport]]:
    """``[_JOBS[job](rho) for job in jobs]``, on one forked worker per
    usable CPU, up to one per job.

    The serial loop runs in this process when one worker would do, when
    the platform has no ``os.fork``, or when the process runs a second
    thread: a fork copies only the forking thread, and a lock another
    thread held stays held in the child.  Otherwise a fork-context
    :class:`~concurrent.futures.ProcessPoolExecutor` forks every worker
    before it starts a thread of its own, and this process only waits.
    Forking, not spawning, is what makes the split pay: the workers
    inherit the imported package and the data already read, where a
    spawned worker would import the package again, which takes about as
    long as the reports it would share.  Every data file is read before
    the workers fork, so each report parses the bytes that
    :func:`p1cert.data.file_fingerprints` digests in this process.  Only
    the job name and rho go out, and the reports come back, pickled, with
    the names of the files each worker parsed, which are recorded here.
    ``map`` yields the results in job order and raises the exception of
    the earliest failing job, as the serial loop would; an exception that
    cannot be rebuilt here breaks the pool, which raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.  After a
    refused fork the workers already forked are killed and the serial
    loop runs.  Every worker is joined before this returns or raises.
    """
    workers = min(len(jobs), _usable_cpus())
    if (workers <= 1 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [_JOBS[job](rho) for job in jobs]
    read_ahead()
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    try:
        try:
            # the first job submitted forks every worker
            results = pool.map(_run_job, jobs, [rho] * len(jobs))
        except OSError:
            # The pool has no thread yet to stop the workers it forked,
            # which would wait for jobs forever.
            for worker in multiprocessing.active_children():
                worker.kill()
                worker.join()
            return [_JOBS[job](rho) for job in jobs]
        parts = list(results)
    finally:
        pool.shutdown(cancel_futures=True)
    for _, names in parts:
        mark_parsed(names)
    return [reports for reports, _ in parts]


def run_scope(scope: str, rho: Union[Fraction, int, str] = OMEGA_4.floor
              ) -> Tuple[List[CertificateReport], str]:
    """Run the jobs of ``SCOPES[scope]``; returns (reports sorted by name,
    summary).

    The summary is :data:`REGION_STATEMENT` when every report of ``all``
    passes, says that the scope holds when every report of another scope
    passes, and is :func:`failure_summary` otherwise.  A scope with the
    lower wedge raises :class:`PreconditionError` for rho < 3 before any
    report runs.

    The jobs run side by side in forked workers (:func:`_map_jobs`), so
    a single-job scope never forks, and each report is the same whichever
    process makes it.  A fault in the data raises the exception of the
    earliest job that meets it, as the serial loop would.
    """
    jobs = SCOPES[scope]
    if "omega4" in jobs:
        rho = _lower_wedge_rho(rho)
    reports = sorted((r for part in _map_jobs(jobs, rho) for r in part),
                     key=lambda r: r.name)
    if not all(r.verdict for r in reports):
        return reports, failure_summary(reports)
    if scope == "all":
        return reports, REGION_STATEMENT
    return reports, f"scope '{scope}': every certified inequality holds"


def run_all(rho: Union[Fraction, int, str] = OMEGA_4.floor
            ) -> Tuple[List[CertificateReport], str]:
    """Every certificate: :func:`run_scope` of ``all``."""
    return run_scope("all", rho)


__all__ = [
    "CERT_TOL",
    "H0_NORM",
    "PreconditionError",
    "CertificateReport",
    "x0_abs",
    "check_omega_I",
    "check_z0_bounds",
    "inverse_power_integral",
    "wedge_kernel_constants",
    "check_omega_12",
    "route_constants",
    "scalar_bounds",
    "z2_remainder_division_free",
    "z2_remainder_majorant",
    "sector_majorants",
    "sector_point_values",
    "check_omega_4",
    "check_inner_interval",
    "check_taylor_radius",
    "maclaurin_enclosures",
    "taylor_envelope_run",
    "check_symbolic_tables",
    "REGION_STATEMENT",
    "ray_reports",
    "failure_summary",
    "SCOPES",
    "run_scope",
    "run_all",
]
