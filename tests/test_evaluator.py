"""Tests for the floating-point evaluation layer.

Oracles: the frame examples and asymptotic error budgets are checked
against the exact certificate constants; integration landings are
checked against the certified windows at the origin; pole distances and
cross-frame agreements are frozen from stable high-precision runs
(values reproduced identically across tolerance levels before
freezing).
"""

import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, workprec

from p1cert import certificates, data
from p1cert import evaluator as ev
from p1cert import inner
from p1cert.certificates import PreconditionError
from p1cert.cli import main
from p1cert.formal import FormalSeries, h0_series
from p1cert.numerics import Interval
from p1cert.regions import CLOSED_FORMS


@pytest.fixture(autouse=True)
def high_precision_references():
    """Reference constants in assertions need more than double precision."""
    saved = mp.prec
    mp.prec = 220
    yield
    mp.prec = saved


def _z0():
    with workprec(200):
        return mpf(17) / 10 * mp.expjpi(mpf(1) / 5)


def _x0_abs():
    with workprec(200):
        return (mpf(204) / 5) ** (mpf(5) / 4) / 30


def _wedge_corner():
    """x 2^-100 inside the wedge's corner |x| = 3, arg x = -pi/2, where
    the exact region test would decide a rounded point either way."""
    with workprec(220):
        inside = mpf(2) ** -100
        return 3 * (1 + inside) * mp.expj(-mp.pi / 2 * (1 - inside))


def _h0_reference(x):
    """h0(x) as its direct xi-series, at the caller's precision."""
    s = mpc(0, 1) * mp.sqrt(mpf(6) / (5 * mp.pi))
    xi = s * mp.exp(-x) / mp.sqrt(x)
    head = xi + xi**2 / 6 + xi**3 / 48 + xi**4 / 432 + 5 * xi**5 / 20736
    layer1 = (-xi / 8 - 11 * xi**2 / 72 - 43 * xi**3 / 1152) / x
    layer2 = 9 * xi / (128 * x**2)
    return head + layer1 + layer2


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


class TestFrames:
    def test_ray_point_maps_to_imaginary_axis(self):
        point = ev.frame_map(_z0(), "z")
        assert abs(point.x.real) < mpf(10) ** -30
        assert abs(point.x.imag - _x0_abs()) < mpf(10) ** -30

    def test_t_frame_of_ray_point_is_minus_17_tenths(self):
        point = ev.frame_map(_z0(), "z")
        assert abs(point.t - mpf(-17) / 10) < mpf(10) ** -30

    def test_t_to_z_roundtrip_definition(self):
        point = ev.frame_map(Fraction(-17, 10), "t")
        assert abs(point.z - _z0()) < mpf(10) ** -30

    def test_origin_has_no_outer_frame(self):
        point = ev.frame_map(0, "z")
        assert point.x is None
        assert point.z == 0
        assert point.t == 0

    def test_x_frame_rejects_origin(self):
        with pytest.raises(PreconditionError):
            ev.frame_map(0, "x")

    def test_unknown_frame_rejected(self):
        with pytest.raises(ValueError):
            ev.frame_map(1.0, "w")

    def test_low_precision_rejected(self):
        with pytest.raises(PreconditionError):
            ev.frame_map(1.0, "z", precision_bits=64)

    def test_roundtrips_to_twenty_five_digits(self):
        rng = random.Random(20260817)
        with workprec(200):
            for _ in range(1000):
                radius = 10 ** rng.uniform(-1, 1)
                # keep clear of the principal-branch seam for the x trip
                angle = rng.uniform(-0.79, 0.79) * mp.pi
                z = radius * mpc(mp.cos(angle), mp.sin(angle))
                via_x = ev.frame_map(ev.frame_map(z, "z").x, "x")
                via_t = ev.frame_map(ev.frame_map(z, "z").t, "t")
                scale = max(1, abs(z))
                assert abs(via_x.z - z) < mpf(10) ** -25 * scale
                assert abs(via_t.z - z) < mpf(10) ** -25 * scale

    def test_data_rotation_matches_reference_constants(self):
        # (y, y') on the ray expressed through the outer-frame constants
        with workprec(200):
            x0 = _x0_abs()
            c1 = -mp.sqrt(mpf(17) / 60) * (1 + 4 / (25 * x0**2))
            c2 = mp.sqrt(mpf(60) / 17) * (mpf(1) / 12 - 4 / (75 * x0**2))
            y = c1 * mp.expjpi(mpf(-2) / 5)
            y_prime = c2 * mp.expjpi(mpf(2) / 5)
        g, g_prime = ev.g_from_y(y, y_prime)
        assert abs(g - c1) < mpf(10) ** -30
        assert abs(g_prime - c2) < mpf(10) ** -30
        # and the rotated data sits on top of the rational initial data
        assert abs(g - mpf(-280) / 519) < mpf(10) ** -6
        assert abs(g_prime - mpf(150) / 1013) < mpf(10) ** -4
        back = ev.y_from_g(g, g_prime)
        assert abs(back[0] - y) < mpf(10) ** -30
        assert abs(back[1] - y_prime) < mpf(10) ** -30


# ---------------------------------------------------------------------------
# asymptotic values
# ---------------------------------------------------------------------------


class TestAsymptotics:
    def test_h0_matches_closed_form(self):
        # independent transcription of the closed form as the oracle, on
        # a grid over the wedge -pi/2 <= arg x <= -pi/4 that evaluate_point
        # serves, at two working precisions
        for bits in (128, 256):
            for radius in (3, 7, 40):
                for eighths in (-4, -3, -2):
                    with workprec(max(200, bits + 80)):
                        x = radius * mp.expjpi(mpf(eighths) / 8)
                        expected = _h0_reference(x)
                        assert abs(expected) < 1
                        assert (abs(ev.h0_value(x, bits) - expected)
                                < mpf(2) ** -bits), (bits, radius, eighths)

    @pytest.mark.parametrize("bits", [128, 200])
    def test_h0_takes_one_exp_and_one_sqrt(self, monkeypatch, bits):
        # The nested Horner form needs e^(-x) and sqrt(x) once each; a
        # second sqrt is allowed for the Stokes constant on first use at
        # a precision.
        counts = {"exp": 0, "sqrt": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(mp, name),
                        **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(mp, name, counted)
        ev.h0_value(4 * mp.expjpi(mpf(-3) / 8), bits)
        assert counts["exp"] == 1
        assert counts["sqrt"] <= 2

    @pytest.mark.parametrize("bits", [128, 256])
    def test_h0_keeps_the_principal_branch_on_the_cut(self, bits):
        # arg x = pi, where sqrt(x) = +i, and 2^-100 above it; the other
        # branch would flip xi and miss by far more than the tolerance
        for x in (mpc(-1, 0), mp.expj(mp.pi - mpf(2) ** -100)):
            with workprec(bits + 80):
                expected = _h0_reference(x)
            assert (abs(ev.h0_value(x, bits) - expected)
                    < mpf(2) ** -(bits - 8) * abs(expected)), (bits, x)

    def test_h0_refuses_what_fixed_point_cannot_hold(self):
        # |x| below 2^-prec has no fixed-point radius, and e^(-x) for
        # Re x < -prec would need an integer longer than the precision
        for x in (0, mpf(2) ** -200, -1000, mpc(-10**9, 1)):
            with pytest.raises(PreconditionError):
                ev.h0_value(x)

    def test_h0_layers_refuse_a_term_outside_the_structure(self):
        series = h0_series()
        assert ev._h0_layers(series)[1] == [1, Fraction(-1, 8),
                                            Fraction(9, 128)]
        for key in [(1, 1, 0), (1, 0, 1), (1, 2, 1)]:
            with pytest.raises(ValueError):
                ev._h0_layers(series + FormalSeries({key: 1}))

    def test_ray_value_matches_certified_matching_data(self):
        z0 = _z0()
        asym = ev.asymptotic_y(z0, "omegaI")
        with workprec(200):
            x0 = _x0_abs()
            c1 = -mp.sqrt(mpf(17) / 60) * (1 + 4 / (25 * x0**2))
            reference = c1 * mp.expjpi(mpf(-2) / 5)
        assert abs(asym.y - reference) < mpf(3) / 890
        assert asym.error_bound < mpf(3) / 890
        assert asym.error_bound > mpf(3) / 890 * mpf("0.99")  # tight budget

    def test_ray_error_decays_like_five_halves_power(self):
        with workprec(200):
            z10 = ev.frame_map(mpc(0, 10), "x").z
            z100 = ev.frame_map(mpc(0, 100), "x").z
        e10 = ev.asymptotic_y(z10, "omegaI").error_bound
        e100 = ev.asymptotic_y(z100, "omegaI").error_bound
        # error ~ |sqrt(z/x)| |x|^{-5/2} and |z| ~ |x|^{4/5}:
        # overall |x|^{-1/10 - 5/2} = |x|^{-13/5}
        ratio = e10 / e100
        assert abs(ratio / mpf(10) ** mpf("2.6") - 1) < mpf("0.01")

    def test_ray_preconditions(self):
        with pytest.raises(PreconditionError):
            ev.asymptotic_y(mpf(1) / 10 * mp.expjpi(mpf(1) / 5), "omegaI")
        with pytest.raises(PreconditionError):  # off the ray
            ev.asymptotic_y(2.0, "omegaI")
        with pytest.raises(PreconditionError):  # origin
            ev.asymptotic_y(0, "omegaI")
        for region in ev.ASYMPTOTIC_REGIONS:  # z reads 0 or -2^-prec i
            for z in (mpf(2) ** -300, mpc(0, -mpf(2) ** -300)):
                with pytest.raises(PreconditionError):
                    ev.asymptotic_y(z, region)
        with pytest.raises(ValueError):
            ev.asymptotic_y(_z0(), "omega2")

    def test_wedge_preconditions(self):
        with workprec(200):
            z_small = ev.frame_map(mpc(0, -2.9), "x").z     # |x| < 3
            z_off = ev.frame_map(3.5 * mp.expjpi(mpf(-1) / 8), "x").z
        with pytest.raises(PreconditionError):
            ev.asymptotic_y(z_small, "omega4")
        with pytest.raises(PreconditionError):
            ev.asymptotic_y(z_off, "omega4")

    def test_wedge_corner_agrees_with_integration(self):
        # continue the certified data from the origin to the z of x at the
        # wedge's corner and compare with the asymptotic representation
        point = ev.frame_map(_wedge_corner(), "x")
        asym = ev.asymptotic_y(point.z, "omega4")
        run = ev.integrate(
            inner.CENTER_VALUE,
            inner.CENTER_SLOPE,
            0,
            point.t,
            tol=Fraction(1, 10**20),
        )
        y_int, _ = ev.y_from_g(run.value, run.slope)
        difference = abs(asym.y - y_int)
        assert difference < asym.error_bound
        assert difference < mpf("0.01")  # far sharper than the budget

    def test_wedge_interior_agrees_with_integration(self):
        with workprec(200):
            x = 4 * mp.expjpi(mpf(-3) / 8)
        point = ev.frame_map(x, "x")
        asym = ev.asymptotic_y(point.z, "omega4")
        run = ev.integrate(
            inner.CENTER_VALUE,
            inner.CENTER_SLOPE,
            0,
            point.t,
            tol=Fraction(1, 10**20),
        )
        y_int, _ = ev.y_from_g(run.value, run.slope)
        assert abs(asym.y - y_int) < asym.error_bound

    @pytest.mark.parametrize("z", [-3, -5, -10])
    def test_negative_real_axis_is_no_closed_form(self, z):
        # arg z = pi puts x at arg 3pi/2, in neither region; wrapped to
        # -pi/2 it would pass for the wedge's edge, on the wrong sheet.
        # The axis lies in the certified sector, so no pole warning.
        outcome = ev.evaluate_point(z, tol=Fraction(1, 10**10))
        assert not outcome.method.startswith("asymptotic-")
        assert not outcome.rigorous
        assert outcome.error_bound is None
        assert outcome.warning is None

    def test_closed_forms_refuse_the_negative_real_axis(self):
        for region in ev.ASYMPTOTIC_REGIONS:
            with pytest.raises(PreconditionError):
                ev.asymptotic_y(-5, region)

    def test_upper_arc_lies_outside_both_regions(self):
        # exactly, in units of pi: arg x = 1/4 + (5/4) arg z takes
        # arg z in (3/5, 1] onto (1, 3/2], apart from the ray at 1/2 and
        # the wedge [-1/2, -1/4] -- and it is not to be wrapped by 2
        def arg_x(theta):
            return Fraction(1, 4) + Fraction(5, 4) * theta

        assert arg_x(Fraction(3, 5)) == 1
        assert arg_x(Fraction(1)) == Fraction(3, 2)
        assert arg_x(Fraction(-3, 5)) == Fraction(-1, 2)
        assert arg_x(Fraction(1, 5)) == Fraction(1, 2)
        for k in range(1, 41):
            theta = Fraction(3, 5) + Fraction(2, 5) * Fraction(k, 40)
            angle = arg_x(theta)
            assert 1 < angle <= Fraction(3, 2)
            assert angle != Fraction(1, 2)
            assert not Fraction(-1, 2) <= angle <= Fraction(-1, 4)
            with workprec(160):
                z = 10 * mp.expjpi(mpf(theta.numerator) / theta.denominator)
                z_fixed = ev._to_fixed(z, 160)
                _, _, x, _ = ev._outer_polar(z_fixed, 160)
                reference = (mp.expjpi(mpf(1) / 4) / 30
                             * (24 * z) ** (mpf(5) / 4))
                assert (abs(ev._from_fixed(x, 160) - reference)
                        < mpf(2) ** -150 * abs(reference))
                assert not any(row.holds(*z_fixed, 160)
                               for row in CLOSED_FORMS)


def _closed_form_grid():
    """(|x|, arg x, region) over both regions: the ray within its
    tolerance, the wedge from 2^-100 inside its floor and edges."""
    near, inside = mpf("5e-10"), mpf(2) ** -100
    ray_radius = _x0_abs()
    grid = [(radius, mp.pi / 2 + nudge, "omegaI")
            for radius in (ray_radius * (1 - near), ray_radius, 5, 13, 40)
            for nudge in (-near, 0, near)]
    grid += [(radius, angle, "omega4")
             for radius in (3 * (1 + inside), 4, 9, 40)
             for angle in (-mp.pi / 2 * (1 - inside), -3 * mp.pi / 8,
                           -mp.pi / 3, -mp.pi / 4 * (1 + inside))]
    return grid


#: SHA-256 of repr((method, y, error_bound, rigorous)) of evaluate_point
#: over _closed_form_pin_points() at 128 and then 256 bits, printed at
#: 400 bits, so that no change to how a region is decided moves an output.
CLOSED_FORM_PIN_SHA256 = (
    "cbe0ed2a2fe6096ffd7db5108598651b4cead87c22e46e9856a721a1f75ee83a")


def _closed_form_pin_points():
    """z of ray points i*r and of wedge points at interior angles and
    2^-100 inside each edge, with |x| from each region's floor (2^-100
    above it in the wedge) up to 40."""
    with workprec(200):
        inside = mpf(2) ** -100
        points = [ev.frame_map(mpc(0, radius), "x", precision_bits=200).z
                  for radius in (_x0_abs(), 4, 7, 13, 25, 40)]
        for radius in (3 * (1 + inside), 4, 7, 13, 25, 40):
            for angle in (-mp.pi / 2 * (1 - inside), -7 * mp.pi / 16,
                          -3 * mp.pi / 8, -mp.pi / 3,
                          -mp.pi / 4 * (1 + inside)):
                points.append(ev.frame_map(radius * mp.expj(angle), "x",
                                           precision_bits=200).z)
    return points


def _boundary_points():
    """Points just inside and just outside each region's boundary, in the
    x frame as (|x|, arg x), with the working precision and the method
    evaluate_point must report (None: not an asymptotic method).  The
    wedge is decided exactly; the ray admits its tolerance, 1e-9."""
    with workprec(220):
        inside = mpf(2) ** -100
        past, out = mpf("5e-10"), mpf("2e-9")
        points = [
            (3 * (1 - mpf("1e-12")), -3 * mp.pi / 8, 128, "integration"),
            (3 * (1 - past), -3 * mp.pi / 8, 128, "integration"),
            (3 * (1 - out), -3 * mp.pi / 8, 128, "integration"),
            # z = 3 e^(i(-3pi/5 - 4e-10)), so |x| = 72^(5/4)/30
            (mpf(72) ** (mpf(5) / 4) / 30, -mp.pi / 2 - past, 128,
             "integration"),
            (5, -mp.pi / 4 + past, 128, None),
            (5, -mp.pi / 4 + out, 128, None),
            (5, mp.pi / 2 + past, 128, "asymptotic-omegaI"),
            (5, mp.pi / 2 - past, 128, "asymptotic-omegaI"),
            (5, mp.pi / 2 + out, 128, None),
            (5, mp.pi / 2 - out, 128, None)]
        for bits in (128, 256):
            points += [(3 * (1 + inside), -3 * mp.pi / 8, bits,
                        "asymptotic-omega4"),
                       (5, -mp.pi / 2 * (1 - inside), bits,
                        "asymptotic-omega4"),
                       (5, -mp.pi / 4 * (1 + inside), bits,
                        "asymptotic-omega4")]
    return points


class TestClosedFormKernel:
    def test_closed_form_outputs_are_pinned(self):
        digest = hashlib.sha256()
        points = _closed_form_pin_points()
        for bits in (128, 256):
            for z in points:
                outcome = ev.evaluate_point(z, precision_bits=bits)
                assert outcome.method.startswith("asymptotic-"), z
                with workprec(400):
                    digest.update(repr((outcome.method, outcome.y,
                                        outcome.error_bound,
                                        outcome.rigorous)).encode())
        assert digest.hexdigest() == CLOSED_FORM_PIN_SHA256

    @pytest.mark.parametrize("radius", [3, 40, 10**6, mpf("7.5e10")])
    def test_a_point_past_the_wedges_edge_is_refused_at_every_radius(
            self, radius):
        # arg x = -pi/2 - 5e-10 lies outside the wedge at every |x|.  The
        # points are not given to evaluate_point: it would integrate from
        # the origin toward |t| ~ 1e8.
        with workprec(200):
            z = ev.frame_map(radius * mp.expj(-mp.pi / 2 - mpf("5e-10")),
                             "x", precision_bits=200).z
        with workprec(ev.DEFAULT_PRECISION_BITS + ev.GUARD_BITS):
            z_fixed = ev._to_fixed(z, mp.prec)
            assert not any(row.holds(*z_fixed, mp.prec)
                           for row in CLOSED_FORMS)
        for region in ev.ASYMPTOTIC_REGIONS:
            with pytest.raises(PreconditionError, match=re.escape(
                    "omega4 requires |x|^4 >= 81 and -1/2 <= arg x/pi <= -1/4"
                    if region == "omega4" else "omegaI requires |x|^4 >= ")):
                ev.asymptotic_y(z, region)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_closed_forms_match_an_independent_reference(self, bits):
        # the reference builds x by the complex power, takes the complex
        # square root and sums h0's xi-series directly
        for radius, angle, region in _closed_form_grid():
            with workprec(bits + 80):
                z = ev.frame_map(radius * mp.expj(angle), "x",
                                 precision_bits=bits + 80).z
                x = mp.expjpi(mpf(1) / 4) / 30 * (24 * z) ** (mpf(5) / 4)
                bracket = 1 - 4 / (25 * x * x)
                if region == "omega4":
                    bracket += _h0_reference(x)
                reference = mpc(0, 1) * mp.sqrt(z / 6) * bracket
            outcome = ev.evaluate_point(z, precision_bits=bits)
            assert outcome.method == f"asymptotic-{region}", (radius, angle)
            assert (abs(outcome.y - reference)
                    < mpf(2) ** -(bits - 4) * abs(reference)), (
                        bits, radius, angle)
            assert ev.asymptotic_y(z, region, precision_bits=bits) == outcome

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=2**600),
           st.integers(min_value=1, max_value=2**600),
           st.integers(min_value=100, max_value=600))
    def test_error_bounds_are_the_ceiling_on_their_grid(self, num, den,
                                                         bits):
        # the ceiling at bits - 1 significant bits of num/den, as given,
        # against that ceiling taken directly: one shift, one division
        if num >= den << bits - 2:
            num = den << bits - 3
        shift = bits + den.bit_length() - num.bit_length() - 1
        with workprec(bits):
            assert ev._ceil_mpf(num, den, bits) == mpf(
                (-(-(num << shift) // den), -shift))

    @pytest.mark.parametrize("bits", [128, 256])
    def test_bound_covers_the_term_and_the_value_rounding(self, bits):
        # outward: the bound is at least the certificate term, computed at
        # 400 bits, plus the value's distance from a 320-bit evaluation
        far = [(radius, angle, region)
               for radius in (mpf(10) ** 4, mpf(10) ** 8)
               for angle, region in ((mp.pi / 2, "omegaI"),
                                     (-mp.pi / 2 * (1 - mpf(2) ** -100),
                                      "omega4"),
                                     (-mp.pi / 3, "omega4"))]
        for radius, angle, region in _closed_form_grid() + far:
            with workprec(400):
                z = ev.frame_map(radius * mp.expj(angle), "x",
                                 precision_bits=400).z
            outcome = ev.evaluate_point(z, precision_bits=bits)
            assert outcome.method == f"asymptotic-{region}", (radius, angle)
            reference = ev.evaluate_point(z, precision_bits=320)
            with workprec(400):
                ball = (mpf(41) / 40 * 784 / 3125 if region == "omegaI"
                        else mpf(4))
                x_abs = (24 * abs(z)) ** (mpf(5) / 4) / 30
                term = mp.sqrt(abs(z) / 6) * ball / x_abs**3
                assert (outcome.error_bound
                        >= term + abs(outcome.y - reference.y)), (
                            bits, radius, angle)

    @pytest.mark.parametrize("x", [mpc(0, 10), 4 * mp.expjpi(mpf(-3) / 8)],
                             ids=["ray", "wedge"])
    def test_closed_form_takes_no_log_and_no_complex_power(self, monkeypatch,
                                                           x):
        # x comes from z's integers, with no arg z: the ray's bracket takes
        # no mpmath call, and the wedge's xi, like h0_value, takes one exp
        # and one cos_sin
        with workprec(200):
            z = ev.frame_map(x, "x").z
        ev.evaluate_point(z)  # the constants at this precision
        names = ("log", "arg", "atan2", "cos_sin", "exp")
        counts = dict.fromkeys(names + ("pow",), 0)
        for name in names:
            def counted(*args, _name=name, _original=getattr(mp, name),
                        **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(mp, name, counted)

        def counted_pow(self, other, _original=mpc.__pow__):
            counts["pow"] += 1
            return _original(self, other)

        monkeypatch.setattr(mpc, "__pow__", counted_pow)
        outcome = ev.evaluate_point(z)
        calls = 0 if outcome.method == "asymptotic-omegaI" else 1
        assert outcome.method.startswith("asymptotic-")
        assert counts == {"log": 0, "arg": 0, "atan2": 0, "cos_sin": calls,
                          "exp": calls, "pow": 0}
        counts.update(dict.fromkeys(counts, 0))
        ev.h0_value(x)
        assert counts == {"log": 0, "arg": 0, "atan2": 0, "cos_sin": 1,
                          "exp": 1, "pow": 0}

    @pytest.mark.parametrize("bits", [128, 256])
    def test_integer_square_root_is_mpmaths_principal_branch(self, bits):
        # each quadrant, both axes, and the negative real axis, the branch
        # cut, where the root is +i sqrt|w|; 2^-100 below it, -i sqrt|w|
        tiny = mpf(2) ** -100
        points = [mpc(3, 2), mpc(-3, 2), mpc(-3, -2), mpc(3, -2),
                  mpc(5, 0), mpc(0, 5), mpc(0, -5), mpc(-5, 0),
                  mpc(-5, tiny), mpc(-5, -tiny), mpc("-1e6", 3),
                  mpc("0.001", "-0.002")]
        for w in points:
            for divisor in (1, 6):
                with workprec(bits):
                    fixed = ev._to_fixed(w, bits)
                    modulus = math.isqrt(fixed[0] ** 2 + fixed[1] ** 2)
                    root = ev._from_fixed(
                        ev._sqrt(fixed, modulus, divisor, bits), bits)
                with workprec(bits + 80):
                    expected = mp.sqrt(w / divisor)
                    assert (abs(root - expected)
                            < mpf(2) ** -(bits - 12) * abs(expected)), (
                                bits, w, divisor)


class TestReflection:
    """The reflection across the ray, which supplies arg z in (pi/5, pi]
    from the certified [-3pi/5, pi/5]: y(z) = w^-2 conj(y(w conj z)),
    w = e^(2 pi i/5).  It holds for any solution with real data on the
    real t axis, the window-centre seed included."""

    @pytest.mark.parametrize("z", [mpc(3, 1), mpc(2, "-1.5"), mpc(-1, 2)],
                             ids=["3+i", "2-1.5i", "-1+2i"])
    def test_mirror_identity_through_integration(self, z):
        with workprec(200):
            w = mp.expjpi(mpf(2) / 5)
            mirror = w * z.conjugate()
        here, there = ev.evaluate_point(z), ev.evaluate_point(mirror)
        assert here.method == there.method == "integration"
        with workprec(200):
            image = there.y.conjugate() / (w * w)
        assert abs(here.y - image) <= here.error_estimate + there.error_estimate

    @pytest.mark.parametrize("z", [mpc(3, 1), mpc(2, "-1.5")],
                             ids=["3+i", "2-1.5i"])
    def test_plain_conjugation_is_no_symmetry(self, z):
        here = ev.evaluate_point(z)
        there = ev.evaluate_point(z.conjugate())
        assert abs(here.y - there.y.conjugate()) > 1


# ---------------------------------------------------------------------------
# Taylor coefficients
# ---------------------------------------------------------------------------


class TestTaylorCoeffs:
    def test_zero_data_forces_only_the_cubic(self):
        coeffs = ev.taylor_coeffs(0, 0, 0, 5)
        assert coeffs[2] == 0
        assert abs(coeffs[3] - mpf(1) / 6) < mpf(10) ** -40
        assert coeffs[4] == 0
        assert coeffs[5] == 0

    def test_forced_coefficients_at_origin_center(self):
        a, b = mpf(1) / 5, mpf(2) / 7
        coeffs = ev.taylor_coeffs(-a, b, 0, 3)
        assert abs(coeffs[2] - 3 * a * a) < mpf(10) ** -35
        assert abs(coeffs[3] - (2 * (-a) * b + mpf(1) / 6)) < mpf(10) ** -35

    def test_center_enters_only_the_quadratic(self):
        center = mpf(1) / 2
        coeffs = ev.taylor_coeffs(mpf(1) / 3, mpf(-1) / 7, center, 3)
        expected_c2 = 3 * (mpf(1) / 3) ** 2 + center / 2
        expected_c3 = 2 * (mpf(1) / 3) * (mpf(-1) / 7) + mpf(1) / 6
        assert abs(coeffs[2] - expected_c2) < mpf(10) ** -35
        assert abs(coeffs[3] - expected_c3) < mpf(10) ** -35

    def test_order_forty_truncation_solves_the_equation_through_38(self):
        center = mpf(1) / 2
        coeffs = ev.taylor_coeffs(mpf(1) / 3, mpf(-1) / 7, center, 40)
        with workprec(250):
            residual = mpf(0)
            for k in range(39):
                second = (k + 1) * (k + 2) * coeffs[k + 2]
                square = mpc(0)
                for j in range(k + 1):
                    square += coeffs[j] * coeffs[k - j]
                rhs = 6 * square
                if k == 0:
                    rhs += center
                if k == 1:
                    rhs += 1
                residual = max(residual, abs(second - rhs))
        assert residual < mpf(10) ** -30

    def test_count_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            ev.taylor_coeffs(0, 0, 0, 1)


# ---------------------------------------------------------------------------
# fixed-point Taylor kernel
# ---------------------------------------------------------------------------


parts = st.floats(min_value=-2, max_value=2, allow_nan=False)
points = st.builds(mpc, parts, parts)


def _schoolbook_taylor(value, slope, center, count, e, bits):
    """The kernel's recurrence as written: full Cauchy sums with four real
    products per complex product, each coefficient one floor division."""
    (vr, vi), (sr, si), (tr, ti) = value, slope, center
    b1r, b1i = (sr << e, si << e) if e >= 0 else (sr >> -e, si >> -e)
    shift = bits - 2 * e
    b = [
        (vr, vi),
        (b1r, b1i),
        ((6 * (vr * vr - vi * vi) + (tr << bits)) // (2 << shift),
         (12 * vr * vi + (ti << bits)) // (2 << shift)),
        ((12 * (vr * b1r - vi * b1i) + (1 << (2 * bits + e))) // (6 << shift),
         12 * (vr * b1i + vi * b1r) // (6 << shift)),
    ]
    for k in range(2, count - 1):
        pairs = [(b[j], b[k - j]) for j in range(k + 1)]
        acc_r = sum(x[0] * y[0] - x[1] * y[1] for x, y in pairs)
        acc_i = sum(x[0] * y[1] + x[1] * y[0] for x, y in pairs)
        den = (k + 1) * (k + 2) << shift
        b.append((6 * acc_r // den, 6 * acc_i // den))
    b = b[:count + 1]
    return [r for r, _ in b], [i for _, i in b]


def _schoolbook_horner(re, im, sigma, bits):
    """Horner's rule for G(sigma) and G'(sigma) as written: each stage one
    Gaussian product of four real products, each component floored once."""
    def stage(acc, coefficient):
        (ar, ai), (xr, xi), (cr, ci) = acc, sigma, coefficient
        return (((ar * xr - ai * xi) >> bits) + cr,
                ((ar * xi + ai * xr) >> bits) + ci)

    n = len(re) - 1
    g, d = (re[n], im[n]), (n * re[n], n * im[n])
    for k in range(n - 1, 0, -1):
        g = stage(g, (re[k], im[k]))
        d = stage(d, (k * re[k], k * im[k]))
    return stage(g, (re[0], im[0])), d


#: Shifted right by 299 - bits, fixed-point components of magnitude <= 2.
mantissas = st.integers(-(1 << 300), 1 << 300)
#: Real mantissas near the seed at the origin (value -3/16, slope 5/16,
#: centre 0) and a real delta, at 2^-299.
_ORIGIN_LIKE = [-(3 << 295), 0, 5 << 295, 0, 0, 0, 1 << 298, 0]
#: Gaussian integers of magnitude <= 2 at 2^-148.
gaussians = st.tuples(*[st.integers(-(1 << 149), 1 << 149)] * 2)


class TestFixedPointKernel:
    @settings(max_examples=40, deadline=None)
    @given(points, points, points, st.integers(-12, 2), st.integers(16, 64),
           points)
    def test_kernel_agrees_with_the_mpc_recurrence(
        self, value, slope, center, e, order, sigma
    ):
        # at each width a leg can run at: 148 bits at tol 1e-10, 224 at
        # the defaults and 272 at the default tol from 192 bits on
        sigma = sigma / max(1, abs(sigma))
        for bits in (148, 224, 272):
            with workprec(bits + 64):
                reference = ev.taylor_coeffs(
                    value, slope, center, order, precision_bits=bits
                )
                re, im = ev.taylor_fixed(
                    ev._to_fixed(value, bits), ev._to_fixed(slope, bits),
                    ev._to_fixed(center, bits), order, e, bits,
                )
                scaled = [ev._from_fixed(pair, bits) for pair in zip(re, im)]
                rho = mpf(2) ** e
                scale = max(mpf(1), *(abs(b) for b in scaled))
                allowed = mpf(2) ** -(bits - ev._KERNEL_GUARD_BITS) * scale
                assert len(scaled) == order + 1
                for k, (b, c) in enumerate(zip(scaled, reference)):
                    assert abs(b * rho**-k - c) <= allowed * rho**-k
                # Horner at |sigma| <= 1 gives G(sigma) = g(center + rho
                # sigma) and G'(sigma) = rho g'(center + rho sigma).
                value_at, slope_at = ev._horner_fixed(
                    re, im, ev._to_fixed(sigma, bits), bits
                )
                g, g_prime = mp.polyval(reference[::-1], rho * sigma,
                                        derivative=True)
                assert abs(ev._from_fixed(value_at, bits) - g) <= allowed
                slope_error = abs(ev._from_fixed(slope_at, bits) - rho * g_prime)
                assert slope_error <= allowed * order

    @settings(max_examples=60, deadline=None)
    @given(st.lists(mantissas, min_size=6, max_size=6), st.booleans(),
           st.integers(-12, 2), st.integers(1, 40),
           st.sampled_from((148, 224, 272)))
    @example([-(1 << 300)] * 6, True, -3, 30, 148)
    @example([-(1 << 300), 1 << 300] * 3, False, 0, 40, 272)
    @example(_ORIGIN_LIKE[:6], True, 1, ev.ORIGIN_ORDER, 224)
    def test_kernel_equals_the_four_product_schoolbook_form(
        self, parts, real, e, order, bits
    ):
        # The halved Cauchy square and shifting before the small division
        # are exact integer identities; real data (im = 0, as on the real
        # ray, and at the origin series' shape) take the real recurrence,
        # and negative components are included.
        parts = [x >> (299 - bits) for x in parts]
        if real:
            parts[1::2] = [0] * 3
        value, slope, center = zip(parts[0::2], parts[1::2])
        taylor = ev.taylor_fixed(value, slope, center, order, e, bits)
        assert taylor == _schoolbook_taylor(value, slope, center, order, e, bits)
        if real:
            assert taylor[1] == [0] * (order + 1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(mantissas, min_size=8, max_size=8), st.booleans(),
           st.integers(-12, 2), st.integers(1, 40),
           st.sampled_from((148, 224, 272)))
    @example(_ORIGIN_LIKE, True, 1, ev.ORIGIN_ORDER, 224)
    @example([-(1 << 300), 1 << 300] * 4, False, -2, 30, 148)
    def test_horner_equals_the_four_product_schoolbook_form(
        self, parts, real, e, order, bits
    ):
        # Real series at a real sigma take real Horner.  sigma = delta /
        # rho is read as the integrator reads it: delta shifted up at
        # 2^-bits for rho = 2^e <= 1, delta at 2^-(bits + e) for rho > 1.
        parts = [x >> (299 - bits) for x in parts]
        if real:
            parts[1::2] = [0] * 4
        value, slope, center, (dr, di) = zip(parts[0::2], parts[1::2])
        re, im = ev.taylor_fixed(value, slope, center, order, e, bits)
        dr, di = dr >> (2 - e), di >> (2 - e)   # |delta| < rho
        if e <= 0:
            sigma, width = (dr << -e, di << -e), bits
        else:
            sigma, width = (dr, di), bits + e
        horner = ev._horner_fixed(re, im, sigma, width)
        assert horner == _schoolbook_horner(re, im, sigma, width)

    @settings(max_examples=20, deadline=None)
    @given(gaussians, gaussians, gaussians, st.integers(-8, 2),
           st.integers(3, 32), st.integers(0, 1 << 140),
           st.integers(0, 1 << 140))
    @example((3 << 147, -5 << 145), (-1 << 147, 1 << 149), (3 << 146, 1 << 147),
             -3, 24, 0, 0)
    @example((0, 0), (0, 0), (0, 0), 0, 8, 1 << 140, 1 << 140)
    @example((0, 1), (0, 0), (0, 1), 0, 3, 0, 0)   # floors in re and im
    @example((0, 0), (0, 1), (0, 0), -1, 3, 0, 0)  # b_1 = slope/2, floored
    def test_radii_cover_every_point_of_the_input_balls(
        self, value, slope, center, e, order, r0, r1
    ):
        # Complex data reach the |im| part of each radius; the offsets
        # +-r and +-ir are the corners of the |re| + |im| input balls.
        bits = 148
        re, im = inner.taylor_fixed(value, slope, center, order, e, bits)
        radii = inner.taylor_radii(re, im, r0, r1, e, bits)
        assert len(radii) == order + 1
        steps = (0, 1, -1, 1j, -1j)
        with workprec(400):
            unit = mpf(2) ** -bits
            for dv, ds in itertools.product(steps, steps):
                exact = ev.taylor_coeffs(
                    ev._from_fixed(value, bits) + mpc(dv) * r0 * unit,
                    ev._from_fixed(slope, bits) + mpc(ds) * r1 * unit,
                    ev._from_fixed(center, bits), order, precision_bits=400,
                )
                for k, (c, mr, mi, r) in enumerate(zip(exact, re, im, radii)):
                    b = c * mpf(2) ** (bits + e * k)
                    gap = abs(b.real - mr) + abs(b.imag - mi)
                    assert gap <= r + abs(b) * mpf(2) ** -300


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _round_trip_defect(value, slope, t_start, t_end, **kwargs):
    """Integrate from t_start to t_end and back; return the forward run
    and the worst component of the discrepancy with the starting data."""
    run = ev.integrate(value, slope, t_start, t_end, **kwargs)
    back = ev.integrate(run.value, run.slope, t_end, t_start, **kwargs)
    return run, max(abs(back.value - value), abs(back.slope - slope))


def _centre_run(**kwargs):
    """Integrate the centre data from t = 0 to 1."""
    return ev.integrate(inner.CENTER_VALUE, inner.CENTER_SLOPE, 0, 1, **kwargs)


@pytest.fixture(scope="module")
def landing():
    """The canonical run: certified data at t = -17/10 marched to 0, and
    its round-trip defect."""
    with workprec(220):
        return _round_trip_defect(
            inner.T0_VALUE,
            inner.T0_SLOPE,
            inner.T0,
            0,
            tol=Fraction(1, 10**25),
            precision_bits=100,
        )


@pytest.fixture(scope="module")
def landing_run(landing):
    return landing[0]


class TestIntegration:
    def test_origin_series_is_the_kernels_own_output(self):
        # the cached series is taylor_fixed at the origin from the exact
        # seed; the seed is real, so is every coefficient, and so is
        # pole_scan's ratio estimate
        bits = 224
        ev._origin_series.cache_clear()
        re, im = ev._origin_series(bits)
        value, slope = ((q.numerator << bits) // q.denominator
                        for q in ev.integration_seed())
        assert [list(re), list(im)] == list(inner.taylor_fixed(
            (value, 0), (slope, 0), (0, 0), ev.ORIGIN_ORDER, 1, bits))
        assert len(re) == ev.ORIGIN_ORDER + 1
        assert not any(im)
        hits = ev._origin_series.cache_info().hits
        assert ev._origin_series(bits) == (re, im)
        assert ev._origin_series.cache_info().hits == hits + 1

    @pytest.mark.parametrize("radius, turns, steps", [
        ("1", "0", 1), ("1.4", "-0.75", 2), ("2.2", "0.8", 5)])
    def test_seeded_runs_start_with_the_cached_step(self, radius, turns,
                                                    steps):
        # one cached step covers a disk point within its reach; past it
        # the march goes on from there, and the values are the plain
        # marcher's
        with workprec(ev.DEFAULT_PRECISION_BITS + ev.GUARD_BITS):
            t = mpf(radius) * mp.expjpi(mpf(turns))
            run = ev._integrate_from_seed(t, ev._tolerance(ev.DEFAULT_TOL))
        plain = ev.integrate(*ev.integration_seed(), 0, t)
        assert run.steps == steps < plain.steps
        assert run.order == plain.order == 57
        assert run.pole is None
        assert abs(run.value - plain.value) < mpf(10) ** -45
        assert abs(run.slope - plain.slope) < mpf(10) ** -45
        assert 0 < run.error_estimate < mpf(10) ** -45

    def test_initial_data_matches_quasi_solution(self):
        from p1cert.polybound import poly_eval

        system = inner.build_system()
        assert poly_eval(system.g0, Fraction(0)) == inner.T0_VALUE
        assert poly_eval(system.g0_prime, Fraction(0)) == inner.T0_SLOPE
        assert inner.T0 == Fraction(-17, 10)

    def test_landing_inside_certified_value_window(self, landing_run):
        lo = Fraction(-87, 469) - Fraction(1, 167)
        hi = Fraction(-87, 469) + Fraction(1, 167)
        assert mpf(lo.numerator) / lo.denominator < landing_run.value.real
        assert landing_run.value.real < mpf(hi.numerator) / hi.denominator

    def test_landing_inside_certified_slope_window(self, landing_run):
        lo = Fraction(41, 134) - Fraction(1, 108)
        hi = Fraction(41, 134) + Fraction(1, 108)
        assert mpf(lo.numerator) / lo.denominator < landing_run.slope.real
        assert landing_run.slope.real < mpf(hi.numerator) / hi.denominator

    def test_landing_values_frozen(self, landing_run):
        # frozen from runs at 100/160/200 bits and tolerances 1e-20..1e-30
        assert abs(landing_run.value.real - mpf("-0.18550346617190674")) < mpf(10) ** -15
        assert abs(landing_run.slope.real - mpf("0.30593502943856533")) < mpf(10) ** -15

    def test_forward_backward_defect_small(self, landing):
        _, defect = landing
        assert defect < mpf(10) ** -20   # the acceptance gate
        assert defect < 10 * mpf(10) ** -25  # within 10*tol

    def test_real_data_stays_real(self, landing_run):
        assert landing_run.value.imag == 0
        assert landing_run.slope.imag == 0

    def test_halving_tolerance_quarters_the_defect(self):
        defects = []
        for tol in (Fraction(1, 10**8), Fraction(1, 2 * 10**8)):
            _, defect = _round_trip_defect(
                inner.T0_VALUE,
                inner.T0_SLOPE,
                inner.T0,
                0,
                tol=tol,
                precision_bits=160,
            )
            defects.append(defect)
        assert defects[0] / defects[1] >= 4

    def test_series_agrees_with_integration_at_unit_distance(self):
        coeffs = ev.taylor_coeffs(inner.CENTER_VALUE, inner.CENTER_SLOPE, 0, 80)
        for target in (-1, 1):
            series_value, series_slope = mp.polyval(coeffs[::-1], target,
                                                    derivative=True)
            run = ev.integrate(inner.CENTER_VALUE, inner.CENTER_SLOPE, 0, target)
            assert abs(series_value - run.value) < mpf(10) ** -10
            assert abs(series_slope - run.slope) < mpf(10) ** -10

    def test_zero_length_run(self):
        run, defect = _round_trip_defect(1, 2, mpf(1) / 2, mpf(1) / 2)
        assert run.value == 1
        assert run.slope == 2
        assert run.steps == 0
        assert defect == 0

    @staticmethod
    def _kernel_calls(monkeypatch, run):
        """Call ``run``; return its result and the set of (order, bits) of
        the series the kernel built, the cached origin series included."""
        ev._origin_series.cache_clear()
        built = set()
        taylor = ev.taylor_fixed

        def recording(value, slope, center, count, e, bits):
            built.add((count, bits))
            return taylor(value, slope, center, count, e, bits)

        monkeypatch.setattr(ev, "taylor_fixed", recording)
        return run(), built

    def test_default_run_stops_at_working_precision(self, monkeypatch):
        # eps = max(tol^(5/2), 2^-160) = 2^-160 at the defaults; resolving
        # tol^(5/2) = 1e-62.5 instead took 1457 order-20 steps.  The kernel
        # keeps 64 bits below eps.
        run, built = self._kernel_calls(monkeypatch, _centre_run)
        assert run.steps <= 20
        assert built == {(run.order, 224)}
        assert run.order == 57  # ceil(80 ln 2) + 1

    def test_finer_precision_keeps_the_step_count(self, monkeypatch):
        # at 192 bits eps = tol^(5/2) = 1e-62.5, and the order follows it
        # to the top of the window, which keeps the steps as few
        run, built = self._kernel_calls(
            monkeypatch, lambda: _centre_run(precision_bits=192)
        )
        assert run.steps <= 20
        assert built == {(run.order, 272)}
        assert run.order == ev.MAX_ORDER

    @pytest.mark.parametrize("run, used", [
        pytest.param(lambda: ev.pole_estimate(0),
                     {(30, 148), (ev.ORIGIN_ORDER, 148)}, id="pole"),
        pytest.param(lambda: ev.pole_estimate(0, precision_bits=256),
                     {(30, 148), (ev.ORIGIN_ORDER, 148)}, id="pole-256"),
        pytest.param(lambda: _centre_run(tol=Fraction(1, 10**25),
                                         precision_bits=256),
                     {(ev.MAX_ORDER, 272)}, id="tol-1e-25-256"),
        pytest.param(lambda: _centre_run(tol=Fraction(1, 10**4)),
                     {(ev.MIN_ORDER, 144)}, id="tol-1e-4"),
    ])
    def test_kernel_width_follows_the_budget(self, monkeypatch, run, used):
        # 64 bits below eps, not below 2^-prec: pole's tol 1e-10 gives
        # eps = 1e-25 ~ 2^-83.05 at any precision, the default tol gives
        # 2^-207.6 from 192 bits on; coarser budgets than 2^-80 keep 80.
        # A pole ray's cached origin series is built at the same width.
        assert self._kernel_calls(monkeypatch, run)[1] == used

    @pytest.mark.parametrize("tol", [Fraction(1, 2), Fraction(1, 10),
                                     Fraction(1, 10**4)])
    def test_coarse_tolerance_reaches_the_target(self, tol):
        # eps = tol^(5/2) is 2^-2.5 at tol 1/2: the dust threshold must
        # still sit far below the leg's length
        run = ev.integrate(0, 0, 0, 1, tol=tol)
        reference = ev.integrate(0, 0, 0, 1)
        assert run.steps >= 1
        bound = mpf(tol.numerator) / tol.denominator
        assert abs(run.value - reference.value) < bound
        assert abs(run.slope - reference.slope) < bound

    @pytest.mark.parametrize("tol", [Fraction(1, 2), Fraction(1, 10**2),
                                     Fraction(1, 10**4)])
    def test_coarse_tolerance_blowup_is_a_pole(self, tol):
        # steps shrink towards the pole at 2.38 before |g| reaches
        # BLOWUP_THRESHOLD; they must not be read as a collapse
        value, slope = ev.integration_seed()
        run = ev.integrate(value, slope, 0, ev.POLE_HORIZON, tol=tol)
        assert mpf("2.38") < abs(run.pole) < mpf("2.39")
        assert abs(run.t_end) < ev.POLE_HORIZON
        assert run.steps > 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(ev.MIN_PRECISION_BITS, 1024),
           st.integers(ev.MIN_PRECISION_BITS, 1024),
           st.integers(1, 200), st.integers(1, 200))
    @example(128, 192, 25, 25)
    def test_order_never_falls_with_a_finer_budget(self, bits_a, bits_b,
                                                    digits_a, digits_b):
        # tol = 10^-digits: more bits or more digits never lower the order
        orders = []
        for pick in (min, max):
            with workprec(pick(bits_a, bits_b) + ev.GUARD_BITS):
                tol = mpf(10) ** -pick(digits_a, digits_b)
                orders.append(ev._pick_order(tol))
        assert ev.MIN_ORDER <= orders[0] <= orders[1] <= ev.MAX_ORDER

    def test_order_at_the_scan_and_a_coarse_tolerance(self):
        # eps = 1e-25 at pole's tol 1e-10 at any precision; eps >= 2^-80
        # at tol 1e-8
        for bits in (ev.DEFAULT_PRECISION_BITS, 192, 256):
            with workprec(bits + ev.GUARD_BITS):
                assert ev._pick_order(mpf(10) ** -10) == 30
                assert ev._pick_order(mpf(10) ** -8) == ev.MIN_ORDER

    def test_lacunary_series_still_sizes_the_step(self):
        # g = g' = 0 at t = 0: only c_k with k = 3 mod 5 are nonzero, so
        # the top coefficients c_56 and c_57 of the order-57 series vanish
        # while the tail from c_58 on does not
        run = ev.integrate(0, 0, 0, Fraction(3, 4))
        reference = ev.integrate(
            0, 0, 0, Fraction(3, 4), tol=Fraction(1, 10**80), precision_bits=300
        )
        error = abs(run.value - reference.value)
        assert error < mpf(10) ** -45
        assert run.error_estimate >= error

    def test_tolerance_validation(self):
        with pytest.raises(PreconditionError):
            ev.integrate(0, 0, 0, 1, tol=2)
        with pytest.raises(PreconditionError):
            ev.integrate(0, 0, 0, 1, precision_bits=64)

    def test_non_finite_data_rejected(self):
        for bad in (mpf("inf"), mpf("nan")):
            with pytest.raises(PreconditionError):
                ev.integrate(bad, 0, 0, 1)
            with pytest.raises(PreconditionError):
                ev.integrate(0, 0, 0, mpc(1, bad))

    @pytest.mark.parametrize("z", [
        mpc("inf"), mpc("-inf"), mpc("nan"), mpc(0, "inf"), mpc(1, "nan"),
    ])
    def test_non_finite_points_rejected(self, z):
        with pytest.raises(PreconditionError):
            ev.evaluate_point(z)
        for region in ev.ASYMPTOTIC_REGIONS:
            with pytest.raises(PreconditionError):
                ev.asymptotic_y(z, region)

    def test_step_collapse_is_judged_at_the_kernel_width(self, monkeypatch):
        # A top coefficient c_n ~ 2^(160 n) asks for a step near 2^-163,
        # below the 148-bit kernel's last bit at tol 1e-10.  Judged against
        # the 544-bit working precision, it would pass as a step, round to
        # zero length and repeat until the step limit.
        taylor = ev.taylor_fixed

        def inflated(value, slope, center, count, e, bits):
            re, im = taylor(value, slope, center, count, e, bits)
            re[count] += 1 << (bits + (160 + e) * count)  # b_n = c_n rho^n
            return re, im

        monkeypatch.setattr(ev, "taylor_fixed", inflated)
        monkeypatch.setattr(ev, "_MAX_STEPS", 10)
        with pytest.raises(RuntimeError, match="step size collapsed"):
            ev.integrate(0, 0, 0, 10, tol=Fraction(1, 10**10), precision_bits=512)

    def test_blowup_ends_the_run_with_a_pole_estimate(self):
        run = ev.integrate(
            inner.CENTER_VALUE,
            inner.CENTER_SLOPE,
            0,
            3,
            tol=Fraction(1, 10**8),
        )
        assert mpf("2.38") < abs(run.pole) < mpf("2.39")
        # the run stops short of the pole, where |g| passes the threshold
        assert 0 < run.t_end.real < abs(run.pole)
        assert abs(run.value) > ev.BLOWUP_THRESHOLD
        assert run.steps > 0

    def test_a_run_that_reaches_its_target_reports_no_pole(self, landing_run):
        assert landing_run.pole is None
        assert landing_run.t_end == 0


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------


class TestPoles:
    def test_real_axis_pole_distance(self):
        est = ev.pole_estimate(0)
        # frozen: identical to 18 digits across tol 1e-8 / 1e-10 / 1e-14
        assert abs(est.distance - mpf("2.38237501041002158")) < mpf(10) ** -9
        assert abs(est.location.imag) < mpf(10) ** -20
        # the double-pole fit agrees with the origin series' estimate
        assert abs(est.location - ev.pole_scan().series_estimate) \
            < mpf(10) ** -15

    def test_distance_consistent_with_reported_radius_of_analyticity(self):
        est = ev.pole_estimate(0)
        known = mpf("2.3841687")
        assert abs(est.distance - known) / known < mpf("0.05")
        assert est.distance > mpf(37) / 20

    def test_pole_free_direction_not_found_at_horizon(self):
        with pytest.raises(ev.PoleNotFoundError) as info:
            ev.pole_estimate(mp.pi / 2)
        assert info.value.horizon == ev.POLE_HORIZON

    def test_ray_missing_the_pole_stays_bounded(self):
        # rays that do not pass through a pole remain bounded even
        # inside the wedge that may contain poles
        with pytest.raises(ev.PoleNotFoundError):
            ev.pole_estimate(mp.pi / 25)

    def test_scan_reports_real_axis_minimum(self):
        scan = ev.pole_scan()
        assert scan.best.direction == 0
        assert abs(scan.best.distance - mpf("2.382375010410")) < mpf(10) ** -9
        assert scan.series_estimate.imag == 0
        assert scan.series_order == ev.ORIGIN_ORDER
        assert "estimate" in scan.note

    @pytest.mark.parametrize("bits", [128, 256])
    def test_series_estimate_is_within_1e_20_of_the_refined_pole(self, bits):
        # two independent readings of one pole: the Domb-Sykes ratio of
        # the order-320 origin series, and the Laurent fit 1/8 from it
        scan = ev.pole_scan(bits)
        with workprec(bits):
            gap = abs(scan.best.location - scan.series_estimate)
        assert gap == scan.gap < mpf(10) ** -20

    def test_refined_distance_is_the_same_at_every_precision(self):
        # at tol 1e-10 neither the kernel width nor the series depends on
        # the working precision, so neither do the run and the fit
        printed = {mp.nstr(ev.pole_scan(bits).best.distance, 25)
                   for bits in (128, 192, 256)}
        assert printed == {"2.382375010410021582408694"}

    def test_refining_run_stops_at_the_fit_threshold(self):
        # the run stops once |g| passes 64, about 1/8 short of the pole,
        # in 19 steps where running on to 1e8 took 74
        best = ev.pole_scan().best
        assert best.steps <= 20
        with workprec(ev.DEFAULT_PRECISION_BITS + ev.GUARD_BITS):
            run = ev._integrate_from_seed(
                mpc(ev.POLE_HORIZON), ev._to_mpf(ev._POLE_TOL),
                ev._POLE_FIT_THRESHOLD)
            assert run.steps == best.steps
            assert ev._POLE_FIT_THRESHOLD < abs(run.value) < 80
            assert mpf(1) / 10 < best.distance - run.t_end.real < mpf(1) / 8

    @pytest.mark.parametrize("p0, h0", [
        (Fraction(12, 5), Fraction(-1, 16)),
        (Fraction(-3, 7), Fraction(5, 2)),
        ((Fraction(7, 4), Fraction(5, 4)), (Fraction(1, 7), Fraction(-2, 7))),
    ])
    def test_laurent_fit_recovers_the_pole_of_its_data(self, p0, h0):
        # (t, g, g') at u = t - p0 = -1/8, summed in mpmath at 512 bits
        # from the series of (p0, h0); fitted at a tolerance whose budget
        # is 2^-prec, the fit returns p0 to a few units of 2^-prec
        def number(x):
            return mpc(*map(ev._to_mpf, x)) if isinstance(x, tuple) \
                else ev._to_mpc(x)

        prec, wide = ev.DEFAULT_PRECISION_BITS + ev.GUARD_BITS, 512
        with workprec(prec):
            p0, h0 = number(p0), number(h0)
        with workprec(wide):
            u = mpf(-1) / 8
            series = inner.laurent_fixed(
                ev._to_fixed(p0, wide), ev._to_fixed(h0, wide),
                1 << (wide - 3), 1, wide)[0]
            coeffs = [mpc(mpf((re, -wide)), mpf((im, -wide)))
                      for re, im in zip(*series)]
            g = sum(c * u ** (k - 2) for k, c in enumerate(coeffs))
            slope = sum((k - 2) * c * u ** (k - 3)
                        for k, c in enumerate(coeffs))
        with workprec(prec):
            t = p0 + u
            run = ev.IntegrationResult(+g, +slope, t, 0, 0, mpf(0),
                                       t + 2 * g / slope)
            p = ev._laurent_fit(run, ev._to_mpf(Fraction(1, 10**40)))
            assert abs(p - p0) <= mpf(2) ** (4 - prec)

    def test_laurent_fit_never_returns_an_unconverged_pole(self, monkeypatch):
        with workprec(ev.DEFAULT_PRECISION_BITS + ev.GUARD_BITS):
            tol = ev._to_mpf(ev._POLE_TOL)
            run = ev._integrate_from_seed(mpc(ev.POLE_HORIZON), tol,
                                          ev._POLE_FIT_THRESHOLD)
            # a start a unit from t leaves the pole's neighbourhood
            far = ev.IntegrationResult(run.value, run.slope, run.t_end, 0, 0,
                                       mpf(0), run.t_end + 1)
            with pytest.raises(RuntimeError, match="did not converge"):
                ev._laurent_fit(far, tol)
            # one iteration cannot meet the budget from t + 2 g/g'
            monkeypatch.setattr(ev, "_FIT_ITERATIONS", 1)
            with pytest.raises(RuntimeError, match="did not converge"):
                ev._laurent_fit(run, tol)

    def test_steps_are_reported_on_both_outcomes(self):
        est = ev.pole_estimate(0)
        with pytest.raises(ev.PoleNotFoundError) as info:
            ev.pole_estimate(mp.pi / 2)
        assert est.steps > 0
        assert info.value.steps > 0

    def test_ray_below_the_axis_is_the_mirror_image_of_the_one_above(self):
        # g(conj t) = conj g(t) for the real origin data, on two rays that
        # pass 2.4e-6 from the real pole near t = 2.38; the fit puts it on
        # the axis
        above, below = ev.pole_estimate(1e-6), ev.pole_estimate(-1e-6)
        assert abs(above.location.imag) < mpf(10) ** -20
        assert abs(below.location - above.location.conjugate()) < mpf(10) ** -30
        assert abs(below.distance - above.distance) < mpf(10) ** -30
        assert below.steps == above.steps

    def test_scan_integrates_one_ray(self, monkeypatch):
        legs = []
        leg = ev._integrate_leg

        def counting(*args):
            legs.append(args)
            return leg(*args)

        monkeypatch.setattr(ev, "_integrate_leg", counting)
        with workprec(53):  # the ambient precision of the command line
            scan = ev.pole_scan()
        assert len(legs) == 1
        assert scan.best.steps > 0

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_scan_never_forks(self, monkeypatch, cpus):
        def no_fork():
            raise AssertionError("the pole scan forked")

        monkeypatch.setattr(certificates, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", no_fork)
        assert ev.pole_scan().best.direction == 0

    def test_scan_reads_the_estimate_off_the_cached_origin_series(self):
        # one build serves the ratio and the refining run's first step
        with workprec(ev.DEFAULT_PRECISION_BITS + ev.GUARD_BITS):
            bits = ev._kernel_bits(ev._log2_budget(ev._to_mpf(ev._POLE_TOL)))[1]
        ev._origin_series.cache_clear()
        scan = ev.pole_scan()
        info = ev._origin_series.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        re = ev._origin_series(bits)[0]
        n = ev.ORIGIN_ORDER
        with workprec(ev.DEFAULT_PRECISION_BITS + ev.GUARD_BITS):
            ratio = mpf(2 * (n + 1) * re[n - 1]) / (n * re[n])
        assert scan.series_estimate == ratio

    def test_scan_without_any_pole_raises(self, monkeypatch):
        def no_pole(direction, precision_bits):
            raise ev.PoleNotFoundError(direction, ev.POLE_HORIZON, 3)

        monkeypatch.setattr(ev, "pole_estimate", no_pole)
        with pytest.raises(ev.PoleNotFoundError):
            ev.pole_scan()


# ---------------------------------------------------------------------------
# origin data and high-level evaluation
# ---------------------------------------------------------------------------


def _on_the_real_t_axis(offset):
    """z of t = 37/20 + offset * 1e-20, in the pole sector."""
    with workprec(220):
        t = mpf(37) / 20 + offset * mpf(10) ** -20
        return ev.frame_map(t, "t", precision_bits=200).z


def _past_the_disk_by_under_a_unit():
    """z = -(zr + i zi) 2^-bits, bits the default working precision, in
    the pole sector and outside |z| = 37/20 = R by less than 2^-bits:
    zr is floor(R 2^bits) rounded to even, so that z fits in bits, and zi
    puts zr^2 + zi^2 above (R 2^bits)^2 and below (floor(R 2^bits) + 1)^2,
    so that isqrt(zr^2 + zi^2) reads it inside."""
    bits = ev.DEFAULT_PRECISION_BITS + ev.GUARD_BITS
    n, d = 37 << bits, 20
    zr = n // d & ~1
    zi = math.isqrt(-(-(n * n - d * d * zr * zr) // (d * d))) + 1
    assert d * d * (zr * zr + zi * zi) > n * n
    assert math.isqrt(zr * zr + zi * zi) == n // d
    with workprec(200):
        return -mpc(mpf((zr, -bits)), mpf((zi, -bits)))


class TestOriginAndEvaluation:
    def test_origin_windows_are_the_certified_ones(self):
        value_window, slope_window = inner.origin_windows()[:2]
        assert value_window == Interval(
            Fraction(-87, 469) - Fraction(1, 167),
            Fraction(-87, 469) + Fraction(1, 167),
        )
        assert slope_window == Interval(
            Fraction(41, 134) - Fraction(1, 108),
            Fraction(41, 134) + Fraction(1, 108),
        )

    def test_origin_y_frame_images(self):
        outcome = ev.y_at_zero()
        with workprec(200):
            expected_y = mp.expjpi(mpf(-2) / 5) * (mpf(-87) / 469)
            expected_slope = -mp.expjpi(mpf(-3) / 5) * (mpf(41) / 134)
        assert outcome.method == "origin-enclosure"
        assert outcome.rigorous
        assert outcome.z == 0
        assert abs(outcome.y - expected_y) < mpf(10) ** -30
        assert abs(outcome.y_prime - expected_slope) < mpf(10) ** -30
        assert abs(outcome.error_bound - mpf(1) / 167) < mpf(10) ** -35
        assert abs(outcome.slope_error_bound - mpf(1) / 108) < mpf(10) ** -35

    @pytest.mark.parametrize("bits", [100, 128, 192, 256])
    def test_origin_radii_cover_the_windows_and_the_rotation(self, bits):
        # outward: each radius is at least its certified window plus the
        # distance of the rotated centre from a 400-bit rotation
        outcome = ev.y_at_zero(bits)
        reference = ev.y_from_g(inner.CENTER_VALUE, inner.CENTER_SLOPE, 368)
        for bound, window, value, exact in (
                (outcome.error_bound, inner.VALUE_WINDOW, outcome.y,
                 reference[0]),
                (outcome.slope_error_bound, inner.SLOPE_WINDOW,
                 outcome.y_prime, reference[1])):
            man, exp = bound.man_exp
            assert Fraction(man) * Fraction(2) ** exp >= window
            with workprec(400):
                assert (bound >= mpf(window.numerator) / window.denominator
                        + abs(value - exact))

    def test_origin_center_values(self):
        value_window, slope_window = inner.origin_windows()[:2]
        assert value_window.mid == Fraction(-87, 469)
        assert slope_window.mid == Fraction(41, 134)
        assert abs(mpf(-87) / 469 - mpf("-0.185501")) < mpf(10) ** -6
        assert abs(mpf(41) / 134 - mpf("0.305970")) < mpf(10) ** -6

    def test_origin_requires_certificate(self, monkeypatch):
        digest = data.file_fingerprints()["inner_ode.json"]
        monkeypatch.setattr(ev, "_INNER_CERTIFIED", {digest: False})
        with pytest.raises(PreconditionError):
            ev.y_at_zero()

    def test_origin_recertifies_switched_interior_data(self, tmp_path, monkeypatch):
        ev.y_at_zero()  # the verdict for the bundled data is now cached
        for name in data.DATA_FILES:
            shutil.copy(data.data_dir() / name, tmp_path / name)
        doc = json.loads((tmp_path / "inner_ode.json").read_text())
        doc["polynomials"]["g0"][0] = "-281/519"
        (tmp_path / "inner_ode.json").write_text(json.dumps(doc))
        monkeypatch.setenv(data.DATA_ENV_VAR, str(tmp_path))
        data.clear_cache()
        try:
            with pytest.raises(PreconditionError):
                ev.y_at_zero()
        finally:
            data.clear_cache()

    def test_landing_run_confirms_origin_window(self, landing_run):
        window = inner.origin_windows()[0]
        lo, hi = window.lo, window.hi
        assert mpf(lo.numerator) / lo.denominator < landing_run.value.real
        assert landing_run.value.real < mpf(hi.numerator) / hi.denominator

    def test_evaluate_origin(self):
        outcome = ev.evaluate_point(0)
        assert outcome == ev.y_at_zero()
        assert outcome.method == "origin-enclosure"
        assert outcome.rigorous
        assert abs(outcome.error_bound - mpf(1) / 167) < mpf(10) ** -40
        assert abs(outcome.slope_error_bound - mpf(1) / 108) < mpf(10) ** -40

    def test_evaluate_picks_ray_asymptotics(self):
        outcome = ev.evaluate_point(_z0())
        assert outcome.method == "asymptotic-omegaI"
        assert outcome.rigorous
        assert outcome.error_bound < mpf(3) / 890

    def test_evaluate_picks_wedge_asymptotics(self):
        z = ev.frame_map(_wedge_corner(), "x").z
        outcome = ev.evaluate_point(z)
        assert outcome.method == "asymptotic-omega4"
        assert outcome.rigorous

    @pytest.mark.parametrize(
        "radius, angle, bits, method", _boundary_points(),
        ids=["wedge-radius-short-1e-12", "wedge-radius-short-5e-10",
             "wedge-radius-short-2e-9", "wedge-lower-edge-past-5e-10",
             "wedge-upper-edge-past-5e-10", "wedge-upper-edge-past-2e-9",
             "ray-above-in", "ray-below-in", "ray-above-out",
             "ray-below-out"] + [
                 f"wedge-{where}-in-2^-100-at-{bits}"
                 for bits in (128, 256)
                 for where in ("floor", "lower-edge", "upper-edge")])
    def test_region_boundary(self, radius, angle, bits, method):
        with workprec(200):
            z = ev.frame_map(radius * mp.expj(angle), "x").z
        outcome = ev.evaluate_point(z, precision_bits=bits,
                                    tol=Fraction(1, 10**10))
        if method is None:
            assert not outcome.method.startswith("asymptotic-")
        else:
            assert outcome.method == method
        assert outcome.rigorous == (method or "").startswith("asymptotic-")
        accepted = []
        for region in ev.ASYMPTOTIC_REGIONS:
            try:
                ev.asymptotic_y(z, region, precision_bits=bits)
            except PreconditionError:
                continue
            accepted.append(f"asymptotic-{region}")
        expected = [outcome.method] if outcome.method.startswith(
            "asymptotic-") else []
        assert accepted == expected

    def test_evaluate_interior_uses_integration(self):
        outcome = ev.evaluate_point(mpc("0.3", "0.1"))
        assert outcome.method == "integration"
        assert not outcome.rigorous
        assert outcome.error_estimate is not None
        assert outcome.warning is None
        assert outcome.y is not None
        # cross-check against a direct series evaluation
        coeffs = ev.taylor_coeffs(inner.CENTER_VALUE, inner.CENTER_SLOPE, 0, 60)
        t = ev.frame_map(mpc("0.3", "0.1"), "z").t
        g_series, _ = mp.polyval(coeffs[::-1], t, derivative=True)
        y_series, _ = ev.y_from_g(g_series, 0)
        assert abs(outcome.y - y_series) < mpf(10) ** -12

    def test_evaluate_beyond_disk_toward_poles_warns(self):
        # t = 2.2 on the real axis: outside |t| = 37/20, before the pole
        z = ev.frame_map(mpf("2.2"), "t").z
        outcome = ev.evaluate_point(z, tol=Fraction(1, 10**10))
        assert outcome.method == "integration"
        assert not outcome.rigorous
        assert outcome.warning is not None
        assert outcome.y is not None

    @pytest.mark.parametrize("z, warns", [
        (_on_the_real_t_axis(-1), False), (_on_the_real_t_axis(1), True),
        (_past_the_disk_by_under_a_unit(), True),
    ], ids=["inside", "outside", "outside-by-under-a-unit"])
    def test_disk_warning_starts_at_the_disk_radius(self, z, warns):
        outcome = ev.evaluate_point(z)
        assert outcome.method == "integration"
        assert outcome.y is not None
        assert (outcome.warning is not None) == warns
        if warns:
            assert "outside the certified disk" in outcome.warning

    @pytest.mark.parametrize("z, warns", [
        (mpc("-2.5", "-0.01"), True), (mpc("-2.5", "0.01"), False),
    ])
    def test_pole_sector_warning_follows_arg_t(self, z, warns):
        # |arg t| < pi/5 is arg z in (-pi, -3pi/5): just below the
        # negative real axis, not just above it
        outcome = ev.evaluate_point(z, tol=Fraction(1, 10**10))
        assert outcome.method == "integration"
        assert outcome.y is not None
        assert (outcome.warning is not None) == warns

    def test_evaluate_past_the_pole_reports_estimate(self):
        z = ev.frame_map(mpf("2.5"), "t").z
        outcome = ev.evaluate_point(z, tol=Fraction(1, 10**8))
        assert outcome.method == "integration"
        assert outcome.y is None
        assert "t_p" in outcome.warning

    def test_past_the_pole_warning_is_free_of_rounding_noise(self):
        # the estimate's imaginary part is rounding noise that differs
        # between precisions; the text must not depend on it
        z = ev.frame_map(mpf("2.5"), "t").z
        warnings = {
            ev.evaluate_point(z, precision_bits=bits,
                              tol=Fraction(1, 10**8)).warning
            for bits in (128, 192)
        }
        assert len(warnings) == 1
        assert warnings.pop().endswith("t_p ~= 2.38237501041002")

    def test_past_the_pole_at_default_tolerance_within_15_s(self):
        z = ev.frame_map(mpf("2.5"), "t").z
        start = time.perf_counter()
        outcome = ev.evaluate_point(z)
        elapsed = time.perf_counter() - start
        assert outcome.y is None
        assert "t_p" in outcome.warning
        assert elapsed < 15.0, f"past-the-pole point took {elapsed:.2f}s (limit 15s)"

    def test_default_pole_scan_within_6_s(self):
        start = time.perf_counter()
        scan = ev.pole_scan()
        elapsed = time.perf_counter() - start
        assert scan.best.direction == 0
        assert elapsed < 6.0, f"default pole scan took {elapsed:.2f}s (limit 6s)"

    def test_finer_precision_at_z_5_within_1_s(self):
        start = time.perf_counter()
        outcome = ev.evaluate_point(5, precision_bits=192)
        elapsed = time.perf_counter() - start
        assert outcome.method == "integration"
        assert elapsed < 1.0, f"z = 5 at 192 bits took {elapsed:.2f}s (limit 1s)"

    @pytest.mark.parametrize(
        "t_polar, bits",
        [
            pytest.param((radius, turns), bits,
                         id=cell if bits == 128 else f"{cell}-{bits}")
            for bits in (128, 192, 256)
            for cell, radius, turns in (
                ("disk", mpf(1), mpf(0)), ("outer", mpf("2.2"), mpf("0.8")),
                ("disk-far", mpf("1.4"), mpf("-0.75")),
            )
        ],
    )
    def test_error_estimate_covers_the_rounding(self, t_polar, bits):
        # the estimate may not claim more accuracy than the working
        # precision delivers: compare with a 300-bit, tol 1e-60 run of
        # the plain marcher, which shares no step with evaluate_point's
        # cached one.  At 192 and 256 bits the order is 64, where the
        # truncation of the slope carried along the path outweighs that
        # of the value.  The far disk cell lies just past the reach of
        # the cached step at the defaults.
        radius, turns = t_polar
        point = ev.frame_map(radius * mp.expjpi(turns), "t", precision_bits=300)
        outcome = ev.evaluate_point(point.z, precision_bits=bits)
        run = ev.integrate(*ev.integration_seed(), 0, point.t,
                           tol=Fraction(1, 10**60), precision_bits=300)
        reference = ev.y_from_g(run.value, run.slope, precision_bits=300)[0]
        assert outcome.method == "integration"
        assert outcome.error_estimate >= abs(outcome.y - reference)


class TestCsv:
    def test_series_csv_deterministic(self):
        # two independent coefficient runs render to the same 24-digit rows,
        # and the series command prints exactly those rows
        def rows():
            coeffs = ev.taylor_coeffs(
                inner.CENTER_VALUE, inner.CENTER_SLOPE, 0, 12
            )
            return [
                [str(k), mp.nstr(c.real, 24), mp.nstr(c.imag, 24)]
                for k, c in enumerate(coeffs)
            ]

        first, second = rows(), rows()
        assert first == second
        result = CliRunner().invoke(
            main, ["series", "--order", "12", "--format", "csv"]
        )
        assert result.exit_code == 0
        printed = list(csv.reader(io.StringIO(result.output)))
        assert printed[0] == ["k", "re_ck", "im_ck"]
        assert printed[1:] == first


def test_evaluator_does_not_load_the_certificates():
    # PreconditionError comes from p1cert.result, so importing the
    # evaluator leaves the certificate module unloaded
    src = os.path.dirname(os.path.dirname(ev.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, p1cert.evaluator; "
            "print('p1cert.certificates' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
