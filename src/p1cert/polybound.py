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

The piece estimator runs on plain Python ints: it clears the
denominators once per piece, writes the midpoint and the half-width over
one common denominator, shifts by integer Horner steps and evaluates the
polynomial at the piece ends and at the critical-point midpoints, and
the l1 tail, through one integer Horner each.  Each critical-point
enclosure is a pair of integer numerators over one denominator, with the
square root bracketed by :func:`~p1cert.numerics.grid_root` on
``root_enclosure``'s grid, and its interval Horner bound runs on integer
numerators too.  Only the two results are ``Fraction``s: they are the
same exact rationals as a ``Fraction`` computation throughout, found
without a gcd per operation.

The returned object is an :class:`~p1cert.numerics.Interval` that
encloses the supremum itself: its ``lo`` is an exactly attained value
of ``|P|`` (so the true sup is at least that), its ``hi`` is the
certified upper bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .numerics import Interval, as_fraction, grid_exponent, grid_root

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
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


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


def _cleared(p: Poly, cd: int) -> tuple[list[int], int]:
    """Integers b_k = L p_k cd^(n-1-k) and L, the common denominator of
    the n coefficients p_k; then sum b_k w^k = L cd^(n-1) P(w/cd)."""
    # a list, not a generator: math.lcm(*generator) here kept about
    # 16 KB per certificate pass alive on CPython 3.11.7 (tracemalloc)
    den = math.lcm(*[c.denominator for c in p])
    b = [0] * len(p)
    scale = 1
    for k in range(len(p) - 1, -1, -1):
        b[k] = p[k].numerator * (den // p[k].denominator) * scale
        scale *= cd
    return b, den


def _horner(coeffs: Sequence[int], num: int, den: int = 1) -> int:
    """den^(n-1) times sum c_k (num/den)^k over the n coefficients."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc


# -- supremum bounds ----------------------------------------------------------

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


def _piece_bound(p: Poly, lo: Fraction, hi: Fraction):
    """(attained value, certified bound) for sup |P| on one piece."""
    n = len(p)
    if n == 0:
        return _ZERO, _ZERO
    # midpoint cn/cd and half-width rn/cd over one denominator cd
    d = math.lcm(lo.denominator, hi.denominator)
    lo_n = lo.numerator * (d // lo.denominator)
    hi_n = hi.numerator * (d // hi.denominator)
    cn, cd, rn = lo_n + hi_n, 2 * d, hi_n - lo_n
    # Q(u) = P(c + u) = sum beta_k w^k / K in w = cd u; at u = +-r, w = +-rn
    beta, den = _cleared(p, cd)
    beta = _shift_int(beta, cn)
    K = den * cd ** (n - 1)
    head = beta[:4]
    attained = max(abs(_horner(beta, rn)), abs(_horner(beta, -rn)),
                   abs(beta[0]))
    tail = rn ** 4 * _horner([abs(c) for c in beta[4:]], rn)
    endpoint = max(abs(_horner(head, rn)), abs(_horner(head, -rn)))

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
            k = grid_exponent()
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
        # |P| at the midpoint of the clamped enclosure
        mid_n, mid_d = w_lo + w_hi, 2 * e
        g = math.gcd(mid_n, mid_d)
        mid_n, mid_d = mid_n // g, mid_d // g
        cand_n = abs(_horner(beta, mid_n, mid_d))
        cand_d = K * mid_d ** (n - 1)
        if cand_n * low_d > low_n * cand_d:
            low_n, low_d = cand_n, cand_d
    return Fraction(low_n, low_d), Fraction(up_n, up_d)


def sup_abs(p: Poly, lo, hi) -> Interval:
    """Enclosure of sup over [lo, hi] of |P|.

    The result's ``hi`` is a certified upper bound; its ``lo`` is the
    largest exactly evaluated |P| value seen, so the true supremum lies
    in the interval.  Pieces are bisected (up to ``_MAX_DEPTH`` times) until
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

    best_lower = _ZERO
    accepted: list[Fraction] = []
    pieces = [(lo, hi, _MAX_DEPTH)]
    while pieces:
        a, b, depth = pieces.pop()
        lower, upper = _piece_bound(pcoeffs, a, b)
        if lower > best_lower:
            best_lower = lower
        if (depth <= 0
                or upper <= lower * (1 + _REL_SLACK)
                or upper <= best_lower * (1 + _REL_SLACK)):
            accepted.append(upper)
            continue
        m = (a + b) / 2
        pieces.append((a, m, depth - 1))
        pieces.append((m, b, depth - 1))
    return Interval(best_lower, max(accepted))


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
