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

The returned object is an :class:`~p1cert.numerics.Interval` that
encloses the supremum itself: its ``lo`` is an exactly attained value
of ``|P|`` (so the true sup is at least that), its ``hi`` is the
certified upper bound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .numerics import Interval, as_fraction, root_enclosure

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


def taylor_shift(p: Poly, c: Coefficient) -> list[Fraction]:
    """Coefficients of P(c + u) as a polynomial in u (exact)."""
    c = as_fraction(c)
    q = [Fraction(a) for a in p]
    n = len(q)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            q[j] += c * q[j + 1]
    return q


# -- supremum bounds ----------------------------------------------------------

def _piece_bound(p: Poly, lo: Fraction, hi: Fraction):
    """(attained value, certified bound) for sup |P| on one piece."""
    mid = (lo + hi) / 2
    r = (hi - lo) / 2
    q = taylor_shift(p, mid)
    tail = sum((abs(c) * r**k for k, c in enumerate(q) if k >= 4), _ZERO)
    head = q[:4]
    lows = [abs(poly_eval(q, -r)), abs(poly_eval(q, r))]
    if q:
        lows.append(abs(q[0]))  # value at the midpoint
    cands = [abs(poly_eval(head, -r)), abs(poly_eval(head, r))]

    h1 = head[1] if len(head) > 1 else _ZERO
    h2 = head[2] if len(head) > 2 else _ZERO
    h3 = head[3] if len(head) > 3 else _ZERO
    crit: list[Interval] = []
    if h3 == 0:
        if h2 != 0:
            crit.append(Interval(-h1 / (2 * h2)))
        # h2 == h3 == 0: the head is affine, endpoint candidates suffice
    else:
        disc = 4 * h2 * h2 - 12 * h1 * h3
        if disc == 0:
            crit.append(Interval(-h2 / (3 * h3)))
        elif disc > 0:
            sq = root_enclosure(disc, 2)
            for sgn in (1, -1):
                crit.append((Interval(-2 * h2) + sgn * sq) / (6 * h3))
    for enclosure in crit:
        if enclosure.hi < -r or enclosure.lo > r:
            continue
        clamped = Interval(max(enclosure.lo, -r), min(enclosure.hi, r))
        cands.append(abs(poly_eval(head, clamped)).hi)
        lows.append(abs(poly_eval(q, clamped.mid)))

    return max(lows), max(cands) + tail


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
    "taylor_shift",
    "sup_abs",
    "sup_abs_partition",
    "ratio_sup_bound",
]
