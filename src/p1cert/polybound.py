"""Certified supremum bounds for rational-coefficient polynomials.

Polynomials are plain coefficient sequences (index = power) over exact
rationals.  Every bound produced here is a true upper bound: the piece
estimator re-expands the polynomial at the midpoint of a piece, takes
the exact extremum of the modulus of the degree-<=3 head over the piece
(the head's critical points come from a quadratic whose discriminant is
exact, so the only outward rounding is a verified square-root
enclosure), and adds the l1 norm of the remaining terms scaled by
powers of the piece half-width.  An adaptive driver bisects pieces
until the bound is tight to a requested relative slack or a depth cap.

The bisection runs on plain Python ints.  :func:`sup_abs` clears the
polynomial's denominators once per call, and carries each piece as two
integer numerators over one dyadic denominator, d 2^j after j
bisections, so the polynomial's integers at depth j are those at depth
0 shifted left by j bits per power of the denominator.  The piece
estimator shifts them to the midpoint by integer Horner steps and
evaluates them at the piece ends, at the critical-point midpoints and
in the l1 tail, by integer Horner's rule.  Each critical-point
enclosure is a pair of integer numerators over one denominator, with
the square root bracketed by :func:`~p1cert.numerics.grid_root` on
``root_enclosure``'s grid, and its interval Horner bound runs on integer
numerators too.  Each piece's attained value and bound are
numerator/denominator pairs, compared by cross-multiplying; only the
two ends of the result become ``Fraction``s.  A piece's bound depends
on its rational ends, not on how they are written, so these are the
same exact rationals as a ``Fraction`` computation throughout, found
without a gcd per operation.  :func:`poly_mul` also convolves the
cleared integers and builds one ``Fraction`` per coefficient of the
product.

The returned object is an :class:`~p1cert.numerics.Interval` that
encloses the supremum itself: its ``lo`` is at most an attained value
of ``|P|`` (exact, or rounded down on the dyadic grid; so the true sup
is at least that), its ``hi`` is the certified upper bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .numerics import (SLIM_BITS, Interval, _floor_dyadic, as_fraction,
                       grid_exponent, grid_root)

Coefficient = Union[int, str, Fraction]
Poly = Sequence[Fraction]

_ZERO = Fraction(0)

_REL_SLACK = Fraction(1, 1000)
_MAX_DEPTH = 12


def poly(coeffs: Iterable[Coefficient]) -> list[Fraction]:
    """Exact coefficient list from ints, Fractions, or 'num/den' strings."""
    return [as_fraction(c) for c in coeffs]


# -- exact polynomial arithmetic ---------------------------------------------

def poly_add(p: Poly, q: Poly) -> list[Fraction]:
    out = []
    for k in range(max(len(p), len(q))):
        a = p[k] if k < len(p) else _ZERO
        b = q[k] if k < len(q) else _ZERO
        out.append(a + b)
    return out


def poly_neg(p: Poly) -> list[Fraction]:
    return [-c for c in p]


def poly_sub(p: Poly, q: Poly) -> list[Fraction]:
    return poly_add(p, poly_neg(q))


def poly_scale(p: Poly, c: Coefficient) -> list[Fraction]:
    c = as_fraction(c)
    return [c * a for a in p]


def poly_mul(p: Poly, q: Poly) -> list[Fraction]:
    """The product, convolved on the cleared integer coefficients."""
    if not p or not q:
        return []
    a, da = _cleared(p)
    b, db = _cleared(q)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    den = da * db
    return [Fraction(c, den) for c in out]


def poly_derivative(p: Poly) -> list[Fraction]:
    return [k * c for k, c in enumerate(p)][1:]


def poly_eval(p: Poly, x):
    """Horner evaluation; exact for rational x, outward for Interval x."""
    acc = x * 0  # zero of the argument's type
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _shift_int(b: list[int], c: int) -> list[int]:
    """Coefficients of B(c + w) for an integer polynomial B and integer
    c, by repeated synthetic division in place (exact)."""
    n = len(b)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[j] += c * b[j + 1]
    return b


def _cleared(p: Poly) -> tuple[list[int], int]:
    """Integers a_k = L p_k and L, the common denominator of the
    coefficients p_k; then sum a_k x^k = L P(x)."""
    # a list, not a generator: math.lcm(*generator) here kept about
    # 16 KB per certificate pass alive on CPython 3.11.7 (tracemalloc)
    den = math.lcm(*[c.denominator for c in p])
    return [c.numerator * (den // c.denominator) for c in p], den


def _horner(coeffs: Sequence[int], num: int, den: int) -> int:
    """den^(n-1) times sum c_k (num/den)^k over the n coefficients."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _value(coeffs: Sequence[int], x: int) -> int:
    """sum c_k x^k, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _both_signs(coeffs: Sequence[int], r: int) -> int:
    """max |sum c_k (+-r)^k| over both signs: the even part E and the odd
    part O, each one Horner in r^2, give E +- O, whose larger modulus
    is |E| + |O|."""
    r2 = r * r
    return abs(_value(coeffs[::2], r2)) + abs(r * _value(coeffs[1::2], r2))


# -- supremum bounds ----------------------------------------------------------

#: The exponent k of the grid 2^-k on which critical points' square
#: roots are bracketed, as in ``root_enclosure``.
_ROOT_GRID = grid_exponent()


def _interval_horner(coeffs: Sequence[int], lo: int, hi: int,
                     q: int) -> tuple[int, int, int]:
    """Interval Horner bound of sum c_k x^k over x in [lo/q, hi/q]: the
    ends (L, H) of the result over the denominator q^(n-1), returned as
    (L, H, q^(n-1)).  Stage j is exact over q^j, so L and H are the
    numerators of the same rationals as the Interval computation."""
    low = high = coeffs[-1]
    scale = 1
    for c in reversed(coeffs[:-1]):
        scale *= q
        products = (low * lo, low * hi, high * lo, high * hi)
        low = min(products) + c * scale
        high = max(products) + c * scale
    return low, high, scale


def _point(num: int, den: int) -> tuple[int, int, int]:
    """The point num/den as an enclosure (lo, hi, e) with e > 0."""
    return (num, num, den) if den > 0 else (-num, -num, -den)


def _piece_bound(b: list[int], K: int, cn: int, cd: int,
                 rn: int) -> tuple[int, int, int, int]:
    """(attained value, certified bound) for sup |P| on the piece with
    midpoint cn/cd and half-width rn/cd, where sum b_k w^k = K P(w/cd)
    and K, cd > 0: the two ends as (num, den, num, den)."""
    n = len(b)
    # Q(u) = P(c + u) = sum beta_k w^k / K in w = cd u; at u = +-r, w = +-rn
    beta = _shift_int(list(b), cn)
    head = beta[:4]
    attained = max(_both_signs(beta, rn), abs(beta[0]))
    tail = rn ** 4 * _value([abs(c) for c in beta[4:]], rn)
    endpoint = _both_signs(head, rn)

    # critical points of the head h_0 + h_1 u + h_2 u^2 + h_3 u^3, where
    # h_k = beta_k cd^k / K, as enclosures (lo, hi, e) of w: [lo/e, hi/e]
    b1, b2, b3 = (head + [0, 0, 0])[1:4]
    crit: list[tuple[int, int, int]] = []
    if b3 == 0:
        if b2 != 0:
            crit.append(_point(-b1, 2 * b2))
        # b2 == b3 == 0: the head is affine, endpoint candidates suffice
    else:
        disc = 4 * b2 * b2 - 12 * b1 * b3
        if disc == 0:
            crit.append(_point(-b2, 3 * b3))
        elif disc > 0:
            # u = (-2 h2 +- sqrt(cd^4 disc / K^2)) / (6 h3), with the root
            # bracketed by [s_lo, s_hi] 2^-k, is w = (c0 +- s K) / e
            k = _ROOT_GRID
            s_lo, s_hi = grid_root(cd ** 4 * disc, K * K, 2, k)
            c0 = (-2 * b2 * cd * cd) << k
            e = (6 * b3 * cd * cd) << k
            for w_lo, w_hi in ((c0 + s_lo * K, c0 + s_hi * K),
                               (c0 - s_hi * K, c0 - s_lo * K)):
                crit.append((w_lo, w_hi, e) if e > 0 else (-w_hi, -w_lo, -e))
    # the largest attained value and bound so far, as num/den pairs
    low_n, low_d = attained, K
    up_n, up_d = endpoint + tail, K
    for w_lo, w_hi, e in crit:
        edge = rn * e
        if w_hi < -edge or w_lo > edge:
            continue
        w_lo, w_hi = max(w_lo, -edge), min(w_hi, edge)
        # interval Horner in w = cd u: every step is the u-frame step
        # scaled by a positive constant, so the bound is the same
        h_lo, h_hi, scale = _interval_horner(head, w_lo, w_hi, e)
        # the upper end of |[h_lo, h_hi]| is max(-h_lo, h_hi)
        cand_n, cand_d = max(-h_lo, h_hi) + tail * scale, K * scale
        if cand_n * up_d > up_n * cand_d:
            up_n, up_d = cand_n, cand_d
        # |P| at the midpoint of the clamped enclosure is at most that
        # bound, so it can raise the attained value only if the bound does
        if cand_n * low_d <= low_n * cand_d:
            continue
        mid_n, mid_d = w_lo + w_hi, 2 * e
        g = math.gcd(mid_n, mid_d)
        mid_n, mid_d = mid_n // g, mid_d // g
        # |P| there, rounded down to SLIM_BITS significant bits: still at
        # most an attained value, without the K mid_d^(n-1) denominator.
        # The floor has SLIM_BITS or one more bits; a second floor makes
        # it SLIM_BITS, whatever the ratio's representation.
        m, x = _floor_dyadic(abs(_horner(beta, mid_n, mid_d)),
                             K * mid_d ** (n - 1), SLIM_BITS)
        if m >> SLIM_BITS:
            m, x = m >> 1, x + 1
        cand_n, cand_d = (m << x, 1) if x >= 0 else (m, 1 << -x)
        if cand_n * low_d > low_n * cand_d:
            low_n, low_d = cand_n, cand_d
    return low_n, low_d, up_n, up_d


def sup_abs(p: Poly, lo, hi) -> Interval:
    """Enclosure of sup over [lo, hi] of |P|.

    The result's ``hi`` is a certified upper bound; its ``lo`` is the
    largest |P| value seen, evaluated exactly at the ends of the pieces
    and rounded down to ``SLIM_BITS`` significant bits at a critical
    point's midpoint, so it is at most an attained value and the true
    supremum lies in the interval.  Pieces are bisected (up to ``_MAX_DEPTH`` times) until
    each one's bound is within ``_REL_SLACK`` of an attained value or
    cannot affect the global maximum.
    """
    pcoeffs = poly(p)
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if lo == hi:
        return Interval(abs(poly_eval(pcoeffs, lo)))
    if not pcoeffs:
        return Interval(_ZERO)

    # A piece j bisections deep has its ends over d 2^j, and its midpoint
    # and half-width over cd 2^j with cd = 2d.  There sum b_k w^k =
    # K 2^(j(n-1)) P(w/(cd 2^j)) with b_k = a_k cd^(n-1-k) 2^(j(n-1-k))
    # and K = L cd^(n-1), from the cleared a_k = L p_k.
    a, L = _cleared(pcoeffs)
    n = len(a)
    d = math.lcm(lo.denominator, hi.denominator)
    cd = 2 * d
    base = [c * cd ** (n - 1 - k) for k, c in enumerate(a)]
    K = L * cd ** (n - 1)
    # the bound and attained value are num/den pairs, compared by
    # cross-multiplying; slack_n/slack_d is 1 + _REL_SLACK
    slack = 1 + _REL_SLACK
    slack_n, slack_d = slack.numerator, slack.denominator
    best_n, best_d = 0, 1
    bound_n, bound_d = 0, 1
    pieces = [(lo.numerator * (d // lo.denominator),
               hi.numerator * (d // hi.denominator), 0)]
    while pieces:
        left, right, j = pieces.pop()
        low_n, low_d, up_n, up_d = _piece_bound(
            [c << j * (n - 1 - k) for k, c in enumerate(base)],
            K << j * (n - 1), left + right, cd << j, right - left)
        if low_n * best_d > best_n * low_d:
            best_n, best_d = low_n, low_d
        if (j >= _MAX_DEPTH
                or up_n * low_d * slack_d <= low_n * up_d * slack_n
                or up_n * best_d * slack_d <= best_n * up_d * slack_n):
            if up_n * bound_d > bound_n * up_d:
                bound_n, bound_d = up_n, up_d
            continue
        mid = left + right
        pieces.append((2 * left, mid, j + 1))
        pieces.append((mid, 2 * right, j + 1))
    return Interval(Fraction(best_n, best_d), Fraction(bound_n, bound_d))


def sup_abs_partition(p: Poly, breakpoints: Sequence) -> Interval:
    """Enclosure of sup |P| over [b0, bn], worked piece by piece.

    ``breakpoints`` is a strictly ascending rational sequence; each
    consecutive pair is bounded with :func:`sup_abs` and the maxima are
    combined.
    """
    bps = [as_fraction(b) for b in breakpoints]
    if len(bps) < 2:
        raise ValueError("a partition needs at least two breakpoints")
    for a, b in zip(bps, bps[1:]):
        if a >= b:
            raise ValueError(f"breakpoints must ascend strictly, got {a} >= {b}")
    lower = _ZERO
    upper = _ZERO
    for a, b in zip(bps, bps[1:]):
        piece = sup_abs(p, a, b)
        lower = max(lower, piece.lo)
        upper = max(upper, piece.hi)
    return Interval(lower, upper)


def ratio_sup_bound(numerator_sup, denominator_offset_sup) -> Fraction:
    """Upper bound for sup |N/D| given sup |N| and sup |D - 1| < 1.

    The denominator stays in [1 - d, 1 + d] with d = sup |D - 1| < 1, so
    it is positive and bounded below by 1 - d; either argument may be a
    Fraction or an Interval (whose upper end is used).
    """
    def _hi(v):
        return v.hi if isinstance(v, Interval) else as_fraction(v)

    n = _hi(numerator_sup)
    d = _hi(denominator_offset_sup)
    if d >= 1:
        raise ValueError(
            f"denominator offset bound {d} >= 1: no positive lower bound"
        )
    return n / (1 - d)


__all__ = [
    "Poly",
    "poly",
    "poly_add",
    "poly_neg",
    "poly_sub",
    "poly_scale",
    "poly_mul",
    "poly_derivative",
    "poly_eval",
    "sup_abs",
    "sup_abs_partition",
    "ratio_sup_bound",
]
