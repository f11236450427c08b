"""Tests for certified polynomial supremum bounds.

The certification property is checked against exact rational sample
values (which are unconditional lower bounds for the sup), and the
tightness property against the attained-value lower end that sup_abs
itself returns.  Together these bracket the true supremum without any
floating-point oracle.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from p1cert import polybound
from p1cert.numerics import SLIM_BITS, Interval, root_enclosure
from p1cert.polybound import (
    _cleared,
    _shift_int,
    poly,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_sub,
    ratio_sup_bound,
    sup_abs,
    sup_abs_partition,
)

F = Fraction


class TestArithmetic:
    def test_poly_coerces_strings_and_ints(self):
        assert poly(["1/2", 3, F(1, 4)]) == [F(1, 2), F(3), F(1, 4)]

    def test_poly_rejects_floats(self):
        with pytest.raises(TypeError):
            poly([0.5])

    def test_eval_exact(self):
        # 2 - 3x + x^3 at 3/2: 2 - 9/2 + 27/8 = 7/8
        assert poly_eval(poly([2, -3, 0, 1]), F(3, 2)) == F(7, 8)

    def test_eval_empty_is_zero(self):
        assert poly_eval([], F(5)) == 0

    def test_eval_interval_outward(self):
        # x^2 - x on [0, 1]: true range [-1/4, 0]; Horner gives an enclosure
        result = poly_eval(poly([0, -1, 1]), Interval(0, 1))
        assert result.lo <= F(-1, 4) and result.hi >= 0

    def test_mul_known_product(self):
        assert poly_mul(poly([1, 1]), poly([1, -1])) == [F(1), F(0), F(-1)]

    def test_mul_empty(self):
        assert poly_mul([], poly([1, 2])) == []

    def test_add_sub_scale_neg(self):
        p = poly([1, 2])
        q = poly([0, 0, 3])
        assert poly_add(p, q) == [F(1), F(2), F(3)]
        assert poly_sub(q, p) == [F(-1), F(-2), F(3)]
        assert poly_scale(p, "1/2") == [F(1, 2), F(1)]
        assert poly_neg(p) == [F(-1), F(-2)]

    def test_derivative(self):
        assert poly_derivative(poly([5, -2, 0, 1])) == [F(-2), F(0), F(3)]
        assert poly_derivative(poly([7])) == []

    @settings(max_examples=150, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=7),
        c_num=st.integers(-12, 12),
        u_num=st.integers(-12, 12),
    )
    def test_taylor_shift_eval_consistency(self, coeffs, c_num, u_num):
        # _piece_bound's shift: sum b_k w^k = L 4^(n-1) P(w/4), shifted
        # by c_num, is L 4^(n-1) P(c + u) at w = 4u
        p = poly(coeffs)
        c = F(c_num, 4)
        u = F(u_num, 8)
        a, den = _cleared(p)
        b = [a_k * 4 ** (len(p) - 1 - k) for k, a_k in enumerate(a)]
        shifted = _shift_int(b, c_num)
        scale = den * 4 ** (len(p) - 1)
        assert poly_eval([F(b_k, scale) for b_k in shifted], 4 * u) \
            == poly_eval(p, c + u)


class TestSupAbs:
    def test_constant(self):
        assert sup_abs([F(-3, 7)], -1, 2) == Interval(F(3, 7))

    def test_linear_exact(self):
        assert sup_abs(poly([0, 1]), -2, 1) == Interval(2)

    def test_degenerate_interval(self):
        assert sup_abs(poly([1, 1]), F(1, 2), F(1, 2)) == Interval(F(3, 2))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            sup_abs(poly([1]), 1, 0)

    def test_interior_cubic_max(self):
        # x - x^3 on [-1, 1]: sup = 2/(3*sqrt(3)) = 0.3849001794...
        result = sup_abs(poly([0, 1, 0, -1]), -1, 1)
        assert result.hi >= F("0.3849001794")
        assert result.lo <= result.hi <= F("0.38530")
        assert result.lo >= F("0.38450")

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            sup_abs([0.5, 1.5], 0, 1)

    def test_quartic_needs_tail(self):
        # x^4 on [-1, 1]: head is 0, everything sits in the tail; refinement
        # must still converge to sup = 1
        result = sup_abs(poly([0, 0, 0, 0, 1]), -1, 1)
        assert 1 <= result.hi <= F(1002, 1000)
        assert result.lo == 1

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=8),
        a_num=st.integers(-8, 8),
        width_num=st.integers(1, 8),
        frac_num=st.integers(0, 1000),
    )
    def test_certifies_exact_samples(self, coeffs, a_num, width_num, frac_num):
        lo = F(a_num, 4)
        hi = lo + F(width_num, 4)
        x = lo + (hi - lo) * F(frac_num, 1000)
        result = sup_abs(coeffs, lo, hi)
        assert abs(poly_eval(poly(coeffs), x)) <= result.hi
        assert result.lo <= result.hi

    def test_tightness_on_attained_value(self):
        # the upper bound stays within the default relative slack of an
        # exactly attained |P| value for a smooth example
        p = poly([1, -3, 0, 2, 0, -1])  # 1 - 3x + 2x^3 - x^5
        result = sup_abs(p, -2, 1)
        assert result.hi <= result.lo * (1 + F(1, 1000))


def _round_down(v):
    """v >= 0 rounded down to SLIM_BITS significant bits."""
    if v == 0:
        return v
    k = v.numerator.bit_length() - v.denominator.bit_length()
    if v < F(2) ** k:
        k -= 1
    # now 2^k <= v < 2^(k+1)
    unit = F(2) ** (k + 1 - SLIM_BITS)
    return math.floor(v / unit) * unit


def _fraction_piece_bound(p, lo, hi):
    """The piece bound written in Fraction arithmetic throughout: the
    reference that the integer kernel must reproduce exactly.  |P| at a
    critical point's midpoint is rounded down to SLIM_BITS significant
    bits, as the kernel rounds it."""
    zero = F(0)
    mid = (lo + hi) / 2
    r = (hi - lo) / 2
    q = [F(a) for a in p]
    for i in range(len(q)):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += mid * q[j + 1]
    tail = sum((abs(c) * r**k for k, c in enumerate(q) if k >= 4), zero)
    head = q[:4]
    lows = [abs(poly_eval(q, -r)), abs(poly_eval(q, r))]
    if q:
        lows.append(abs(q[0]))
    cands = [abs(poly_eval(head, -r)), abs(poly_eval(head, r))]
    h1 = head[1] if len(head) > 1 else zero
    h2 = head[2] if len(head) > 2 else zero
    h3 = head[3] if len(head) > 3 else zero
    crit = []
    if h3 == 0:
        if h2 != 0:
            crit.append(Interval(-h1 / (2 * h2)))
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
        lows.append(_round_down(abs(poly_eval(q, clamped.mid))))
    return max(lows), max(cands) + tail


# the half-width of a piece centred at 0 whose end is the midpoint of the
# root enclosure of x - x^3's critical point 1/sqrt(3): each critical
# enclosure then straddles one end and is clamped there
_CLAMP_R = root_enclosure(12, 2).mid / 6

big_rationals = st.builds(
    F, st.integers(-2**250, 2**250), st.integers(1, 2**250))
piece_ends = st.fractions(min_value=-10, max_value=10,
                          max_denominator=10**12)


class TestPieceBound:
    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(big_rationals, max_size=25),
           ends=st.tuples(piece_ends, piece_ends).filter(
               lambda e: e[0] != e[1]))
    @example(coeffs=[F(0), F(1), F(0), F(-1)], ends=(F(-1), F(1)))
    @example(coeffs=[F(0), F(0), F(0), F(1)], ends=(F(-1), F(1, 2)))
    @example(coeffs=[F(1), F(-2), F(3)], ends=(F(0), F(1)))
    @example(coeffs=[F(2), F(-3)], ends=(F(-1, 3), F(5, 7)))
    @example(coeffs=[], ends=(F(0), F(1)))
    # critical-point corners: disc == 0 at u = 1/2, where |P| is largest,
    # b3 < 0 with two interior critical points, both critical enclosures
    # clamped at an end, both outside the piece, and b3 == 0 with b2 != 0
    @example(coeffs=[F(15, 8), F(3, 4), F(-3, 2), F(1), F(-1, 2)],
             ends=(F(-1), F(1)))
    @example(coeffs=[F(1, 3), F(2), F(-1, 2), F(-5, 7)],
             ends=(F(-2), F(3, 2)))
    @example(coeffs=[F(0), F(1), F(0), F(-1)], ends=(-_CLAMP_R, _CLAMP_R))
    @example(coeffs=[F(0), F(1), F(0), F(-1)], ends=(F(-1, 2), F(1, 2)))
    @example(coeffs=[F(1, 2), F(-1), F(3), F(0), F(0), F(1, 9)],
             ends=(F(-1), F(1)))
    def test_integer_kernel_equals_the_fraction_reference(self, coeffs,
                                                          ends):
        # at depth 0 sup_abs bounds the one piece [lo, hi] and returns
        # its attained value and bound
        lo, hi = sorted(ends)
        with mock.patch.object(polybound, "_MAX_DEPTH", 0):
            result = sup_abs(coeffs, lo, hi)
        assert result == Interval(*_fraction_piece_bound(coeffs, lo, hi))


def _fraction_sup_abs(p, lo, hi):
    """sup_abs's bisection loop in Fraction arithmetic, on the Fraction
    piece bound: the reference that the integer loop must reproduce."""
    best_lower = F(0)
    accepted = []
    pieces = [(lo, hi, polybound._MAX_DEPTH)]
    while pieces:
        a, b, depth = pieces.pop()
        lower, upper = _fraction_piece_bound(p, a, b)
        best_lower = max(best_lower, lower)
        if (depth <= 0
                or upper <= lower * (1 + polybound._REL_SLACK)
                or upper <= best_lower * (1 + polybound._REL_SLACK)):
            accepted.append(upper)
            continue
        m = (a + b) / 2
        pieces.append((a, m, depth - 1))
        pieces.append((m, b, depth - 1))
    return Interval(best_lower, max(accepted))


unit_ends = st.fractions(min_value=-1, max_value=1, max_denominator=10**6)
small_rationals = st.builds(
    F, st.integers(-2**40, 2**40), st.integers(1, 2**40))


class TestSupAbsLoop:
    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(small_rationals, min_size=1, max_size=25),
           ends=st.tuples(piece_ends, piece_ends).filter(
               lambda e: e[0] != e[1]))
    @example(coeffs=[F(0), F(1), F(0), F(-1)], ends=(F(-1), F(1)))
    @example(coeffs=[F(1), F(-3), F(0), F(2), F(0), F(-1)],
             ends=(F(-2), F(1)))
    @example(coeffs=[F(0), F(0), F(0), F(0), F(1)], ends=(F(-1), F(1)))
    def test_integer_loop_equals_the_fraction_reference(self, coeffs, ends):
        lo, hi = sorted(ends)
        assert sup_abs(coeffs, lo, hi) == _fraction_sup_abs(coeffs, lo, hi)

    # products of factors x - r with roots in [-1, 1] dip to 0 between
    # their extrema, so the loop bisects many levels deep
    @settings(max_examples=40, deadline=None)
    @given(roots=st.lists(st.fractions(min_value=-1, max_value=1,
                                       max_denominator=64),
                          min_size=2, max_size=24),
           scale=small_rationals.filter(bool),
           ends=st.tuples(unit_ends, unit_ends).filter(
               lambda e: e[0] != e[1]))
    @example(roots=[F(k, 12) for k in range(-12, 13, 2)], scale=F(1),
             ends=(F(-1), F(1)))
    @example(roots=[F(k, 23) for k in range(-23, 24, 2)], scale=F(-3, 7),
             ends=(F(-1), F(1)))
    def test_bisection_equals_the_fraction_reference(self, roots, scale,
                                                     ends):
        lo, hi = sorted(ends)
        p = [scale]
        for r in roots:
            p = poly_mul(p, [-r, F(1)])
        assert sup_abs(p, lo, hi) == _fraction_sup_abs(p, lo, hi)


class TestPartition:
    def test_partition_requires_ascending(self):
        with pytest.raises(ValueError):
            sup_abs_partition(poly([1]), [0, 0, 1])
        with pytest.raises(ValueError):
            sup_abs_partition(poly([1]), [1])

    def test_partition_matches_single_interval(self):
        p = poly([-1, 0, 1])  # x^2 - 1 on [0, 17/10]: sup = 189/100 at 17/10
        whole = sup_abs(p, 0, F(17, 10))
        split = sup_abs_partition(p, [0, F(3, 20), F(3, 10), F(4, 5), F(27, 20), F(17, 10)])
        assert split.hi >= F(189, 100)
        assert whole.hi >= F(189, 100)
        assert split.hi <= F(189, 100) * (1 + F(1, 1000))

    def test_partition_rejects_floats(self):
        with pytest.raises(TypeError):
            sup_abs_partition(poly([1]), [0.0, 1.0])


class TestRatioSupBound:
    def test_value(self):
        assert ratio_sup_bound(F(1, 2), F(1, 4)) == F(2, 3)

    def test_interval_inputs_use_upper_end(self):
        assert ratio_sup_bound(Interval(F(1, 3), F(1, 2)), Interval(0, F(1, 4))) == F(2, 3)

    def test_denominator_may_vanish(self):
        with pytest.raises(ValueError):
            ratio_sup_bound(F(1), F(1))
