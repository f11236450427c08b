"""Certificate suites: frozen oracle values, must-fail instances,
quadrature refinement, and fault injection."""

import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from mpmath import inf, mp, mpf, quad

import p1cert
from p1cert import certificates as C
from p1cert import data, formal, inner
from p1cert.cli import main
from p1cert.formal import FormalSeries
from p1cert.functionals import PowerSum, QSqrt2, SPoly, majorant
from p1cert.numerics import (Interval, floor_root, frac_pow, slim, slim_up,
                             truncation_window)


@pytest.fixture(autouse=True)
def clear_cache():
    data.clear_cache()
    yield
    data.clear_cache()


@pytest.fixture(scope="module")
def all_reports():
    data.clear_cache()
    reports, statement = C.run_all()
    return {r.name: r for r in reports}, statement


def _by_name(report):
    return {c.name: c for c in report.checks}


# ---------------------------------------------------------------------------
# Ray certificate
# ---------------------------------------------------------------------------

class TestRayCertificate:
    def test_unit_instance_exact_values(self):
        report = C.check_omega_I(1, Fraction(3, 20))
        assert report.verdict
        checks = _by_name(report)
        expected_map = (Fraction(23, 20) / 14
                        + Fraction(23, 20) ** 2 * Fraction(784, 3125) / 9)
        expected_contraction = (Fraction(1, 14)
                                + 2 * Fraction(23, 20)
                                * Fraction(784, 3125) / 9)
        assert checks["ray_ball_maps_into_itself"].value == expected_map
        assert checks["ray_contraction_below_one"].value \
            == expected_contraction
        assert abs(float(expected_map) - 0.1190082794) < 1e-9
        assert abs(float(expected_contraction) - 0.1355423492) < 1e-9

    def test_matching_instance(self):
        report = C.check_omega_I(C.x0_abs(), Fraction(1, 40))
        assert report.verdict
        checks = _by_name(report)
        assert abs(float(checks["ray_ball_maps_into_itself"].value)
                   - 0.0237795270) < 1e-9
        assert abs(float(checks["ray_contraction_below_one"].value)
                   - 0.0256180018) < 1e-9

    def test_too_small_ball_fails_by_name(self):
        report = C.check_omega_I(1, Fraction(1, 1000))
        assert not report.verdict
        failing = [c.name for c in report.failures()]
        assert failing == ["ray_ball_maps_into_itself"]
        value = _by_name(report)["ray_ball_maps_into_itself"].value
        assert abs(float(value) - 0.0994313345) < 1e-9

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(C.PreconditionError):
            C.check_omega_I(0, Fraction(3, 20))


class TestMatchingPoint:
    def test_x0_modulus(self):
        iv = C.x0_abs()
        assert iv.width < Fraction(1, 10**20)
        mp.dps = 40
        oracle = Fraction(str(mp.power(mpf(204) / 5, mpf(5) / 4) / 30))
        assert iv.lo - Fraction(1, 10**30) <= oracle <= iv.hi \
            + Fraction(1, 10**30)

    def test_z0_bounds_pass_with_frozen_margins(self):
        report = C.check_z0_bounds()
        assert report.verdict
        checks = _by_name(report)
        value_err = checks["matching_error_value"]
        slope_err = checks["matching_error_slope"]
        assert abs(float(value_err.value) - 0.0033707527263849) < 1e-13
        assert value_err.bound == Fraction(3, 890)
        assert abs(float(slope_err.value) - 0.0064905967502419) < 1e-13
        assert slope_err.bound == Fraction(29, 4468)
        # the rotated reference values agree with their printed truncations
        assert checks["C1_reference"].passed
        assert checks["C2_reference"].passed
        assert checks["value_correction_within_budget"].bound \
            == Fraction(1, 290)
        assert checks["slope_correction_within_budget"].bound \
            == Fraction(1, 152)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def _exact_power_sums(a, T, panels, B):
    """The three sums of ``_midpoint_sums`` for the exponent a, on the
    exact powers g^n of the same roots g: the reference that the
    fixed-point chain must enclose.  Each comes with the largest offset
    that the fixed-point powers may add at either end: n - 1 units of
    2^-B per power, n = a + 8 (a - 1 in the first sum), times the
    factor in the Q_2 sum and times 1 + 2n/g_min."""
    D = 2 * panels
    D2 = D * D
    n = a + 8
    ms = [(2 * i + 1) * (T + 1) - D for i in range(panels)]
    roots = [floor_root((D2 << 4 * B) // (D2 + m * m), 4) for m in ms]
    g_min = min(roots)
    up_a, up_n = 1 + Fraction(2 * a, g_min), 1 + Fraction(2 * n, g_min)
    unit = Fraction(1, 1 << B)
    value = Fraction(sum(g ** a for g in roots), 1 << a * B)
    seconds = [(a * a + 2 * a) * m * m - 2 * a * D2 for m in ms]
    pos = Fraction(sum(s * g ** n for s, g in zip(seconds, roots) if s >= 0),
                   4 * D2 << n * B)
    neg = Fraction(sum(s * g ** n for s, g in zip(seconds, roots) if s < 0),
                   4 * D2 << n * B)
    S = up_n * Fraction(sum(g ** n for g in roots), 1 << n * B)
    return ((Interval(value, up_a * value), up_a * panels * (a - 1) * unit),
            (Interval(pos + up_n * neg, up_n * pos + neg),
             up_n * (n - 1) * Fraction(sum(map(abs, seconds)), 4 * D2)
             * unit),
            (S, up_n * panels * (n - 1) * unit))


class TestInversePowerIntegral:
    @pytest.mark.parametrize("quarters", [7, 9, 11])
    def test_contains_mpmath_oracle(self, quarters):
        mp.dps = 40
        alpha = mpf(quarters) / 4
        oracle = Fraction(str(quad(
            lambda p: (1 + p ** 2) ** (-alpha), [-1, inf])))
        (iv,) = C.inverse_power_integral((quarters,), T=64, panels=512)
        assert iv.lo <= oracle <= iv.hi

    @pytest.mark.parametrize("panels", [4096, 500])
    @pytest.mark.parametrize("quarters", [7, 9, 11])
    def test_kernel_grid_contains_mpmath_oracle(self, quarters, panels):
        # 4096 panels: the certificate's grid, h/2 = 65/8192;
        # 500 panels: h/2 = 13/200, not dyadic (the grid is exact for both)
        mp.dps = 40
        alpha = mpf(quarters) / 4
        oracle = Fraction(str(quad(
            lambda p: (1 + p ** 2) ** (-alpha), [-1, inf])))
        (iv,) = C.inverse_power_integral((quarters,), T=64, panels=panels)
        assert iv.lo <= oracle <= iv.hi

    def test_refinement_shrinks_and_stays_consistent(self):
        (coarse,) = C.inverse_power_integral((7,), T=64, panels=128)
        (fine,) = C.inverse_power_integral((7,), T=64, panels=512)
        assert fine.width < coarse.width
        assert coarse.intersects(fine)

    def test_divergent_power_rejected(self):
        with pytest.raises(C.PreconditionError):
            C.inverse_power_integral((2,), T=64, panels=128)

    def test_one_sweep_equals_one_exponent_at_a_time(self):
        together = C.inverse_power_integral((7, 9, 11), T=64, panels=256)
        alone = tuple(C.inverse_power_integral((q,), T=64, panels=256)[0]
                      for q in (7, 9, 11))
        assert together == alone
        assert C.inverse_power_integral((11, 7), T=64, panels=256) \
            == (alone[2], alone[0])

    # The enclosures of the 128-bit floating dyadic kernel that the
    # fixed-point sweep replaced, at the certificate's 4096 panels.
    DYADIC_KERNEL_ENCLOSURES = {
        7: ("1696116479822202445937558972868532148488958820365/"
            "1096126227998177188652763624537212264741949407232",
            "33922661399599884266692459951486315201775855998217/"
            "21922524559963543773055272490744245294838988144640"),
        9: ("365460315372427914869537534091687660628618432475/"
            "274031556999544297163190906134303066185487351808",
            "81863364744263198966332833085168329229577391027941/"
            "61383068767897922564554762974083886825549166804992"),
        11: ("10437026840936607057762442450238067922099839864955/"
             "8769009823985417509222108996297698117935595257856",
             "7827803838084966573672746639047982637652279257527/"
             "6576757367989063131916581747223273588451696443392"),
    }

    def test_certificate_grid_lies_inside_the_dyadic_kernel_enclosures(self):
        ivs = C.inverse_power_integral((7, 9, 11), T=64, panels=4096)
        for quarters, iv in zip((7, 9, 11), ivs):
            lo, hi = map(Fraction, self.DYADIC_KERNEL_ENCLOSURES[quarters])
            assert lo < iv.lo <= iv.hi < hi

    # The enclosures of the per-panel error bracket (h^3/24 f''(xi) over
    # each whole panel, from roots at every panel edge and midpoint) that
    # the Taylor-corrected rule replaced, at the certificate's 4096 panels.
    # Each end is rounded inward to 128 bits, so each pinned interval lies
    # inside the bracket's exact enclosure.
    PANEL_BRACKET_ENCLOSURES = {
        7: ("526543855611918632542577563744203548193/"
            "340282366920938463463374607431768211456",
            "131637251468685316956805608357482570147/"
            "85070591730234615865843651857942052864"),
        9: ("226907627888289537820677915024066756103/"
            "170141183460469231731687303715884105728",
            "226908332203313084558530669296737783829/"
            "170141183460469231731687303715884105728"),
        11: ("405009946201330635144159603329921297571/"
             "340282366920938463463374607431768211456",
             "202505845113061538526807669525551675903/"
             "170141183460469231731687303715884105728"),
    }

    def test_certificate_grid_lies_inside_the_panel_bracket_enclosures(self):
        ivs = C.inverse_power_integral((7, 9, 11), T=64, panels=4096)
        for quarters, iv in zip((7, 9, 11), ivs):
            lo, hi = map(Fraction, self.PANEL_BRACKET_ENCLOSURES[quarters])
            assert lo < iv.lo <= iv.hi < hi
            # the tail bound, the same for both rules, dominates a = 7
            if quarters != 7:
                assert iv.width < (hi - lo) / 10

    @pytest.mark.parametrize("quarters", [3, 5, 7, 9, 11, 13])
    def test_second_derivative_factor_from_the_recurrence(self, quarters):
        a = quarters
        assert C._derivative_numerator(a, 0) == [1]
        assert C._derivative_numerator(a, 2) == [
            Fraction(-a, 2), 0, Fraction(a * a + 2 * a, 4)]

    @pytest.mark.parametrize("quarters", [3, 5, 7, 9, 11, 13])
    def test_fourth_derivative_constant_bounds_f4(self, quarters):
        mp.dps = 40
        alpha = mpf(quarters) / 4
        K = C._fourth_derivative_constant(quarters)
        assert C._derivative_numerator(quarters, 4)[1::2] == [0, 0]
        for j in range(200):
            p = mpf(-1) + mpf(65) * j / 199
            f4 = mp.diff(lambda x: (1 + x ** 2) ** (-alpha), p, 4)
            envelope = (mpf(K.numerator) / K.denominator
                        * (1 + p ** 2) ** (-(alpha + 2)))
            assert abs(f4) <= envelope * (1 + mpf(10) ** -20), (j, p)

    @staticmethod
    def closed_form(quarters):
        """integral_{-1}^{inf} (1+p^2)^(-s) dp, s = quarters/4, as
        2F1(1/2, s; 3/2; -1) + sqrt(pi) Gamma(s - 1/2) / (2 Gamma(s))."""
        mp.dps = 40
        s = mpf(quarters) / 4
        return Fraction(str(mp.hyp2f1(mpf(1) / 2, s, mpf(3) / 2, -1)
                            + mp.sqrt(mp.pi) * mp.gamma(s - mpf(1) / 2)
                            / (2 * mp.gamma(s))))

    @pytest.mark.parametrize("T", [1, 8, 64])
    @pytest.mark.parametrize("panels", [1, 2, 4, 16, 64, 500, 512, 4096])
    def test_contains_closed_form_at_any_grid(self, panels, T):
        quarters = (3, 7, 9, 11, 13)
        ivs = C.inverse_power_integral(quarters, T=T, panels=panels)
        for q, iv in zip(quarters, ivs):
            assert iv.lo <= self.closed_form(q) <= iv.hi, (q, iv)

    @pytest.mark.parametrize("bits", [12, 128])
    @pytest.mark.parametrize("T, panels", [(T, panels) for T in (8, 64)
                                           for panels in (1, 16, 256)]
                             + [(1, 2)])
    def test_fixed_point_powers_contain_the_exact_power_sweep(
            self, monkeypatch, T, panels, bits):
        # The floors along the chain only lower the sums, and the n - 1
        # units per power raise their upper ends past the exact powers.
        # On (1, 2) both midpoints, +-1/2, lie where Q_2 < 0 for a = 3,
        # so there the negative f'' sum alone sets the lower end.
        monkeypatch.setattr(C, "QUADRATURE_BITS", bits)
        quarters = (3, 7, 9, 11, 13)
        sums = C._midpoint_sums(quarters, T, panels)
        ivs = C.inverse_power_integral(quarters, T=T, panels=panels)
        h = Fraction(T + 1, panels)
        for a, iv in zip(quarters, ivs):
            value, curvature, S = sums[a]
            exact = _exact_power_sums(a, T, panels, bits)
            (value0, dv), (curvature0, dc), (S0, dS) = exact
            for got, want, slack in ((value, value0, dv),
                                     (curvature, curvature0, dc)):
                assert got.lo <= want.lo <= got.lo + slack, a
                assert got.hi - slack <= want.hi <= got.hi, a
            assert S0 <= S <= S0 + dS, a
            # the enclosure that the exact sums give, and its offsets
            R = h ** 5 / 1920 * C._fourth_derivative_constant(a) * (S0 + 3)
            tail_hi = Fraction(2, a - 2) * frac_pow(T, 2 - a, 2).hi
            want = (h * value0 + h ** 3 / 24 * curvature0
                    + Interval(-R, R + tail_hi))
            slack = (h * dv + h ** 3 / 24 * dc
                     + h ** 5 / 1920 * C._fourth_derivative_constant(a) * dS)
            assert iv.lo <= want.lo <= iv.lo + slack, a
            assert iv.hi - slack <= want.hi <= iv.hi, a

    @pytest.mark.parametrize("bits", [8, 12])
    @pytest.mark.parametrize("T, panels", [(8, 64), (64, 512)])
    def test_contains_closed_form_with_coarse_roots(self, monkeypatch, bits,
                                                    T, panels):
        # with few fractional bits the ceiling roots matter, and only the
        # factor 1 + 2n/g_min keeps the upper ends above the integral
        monkeypatch.setattr(C, "QUADRATURE_BITS", bits)
        quarters = (3, 7, 9, 11, 13)
        ivs = C.inverse_power_integral(quarters, T=T, panels=panels)
        for q, iv in zip(quarters, ivs):
            assert iv.lo <= self.closed_form(q) <= iv.hi, (q, iv)

    def test_roots_too_coarse_for_the_powers_rejected(self, monkeypatch):
        # at 6 bits the root 2^6 u^(-1/4) near p = 64 is 7, below the
        # power g^(7+8) the rule needs
        monkeypatch.setattr(C, "QUADRATURE_BITS", 6)
        with pytest.raises(C.PreconditionError, match="too large"):
            C.inverse_power_integral((7,), T=64, panels=512)

# ---------------------------------------------------------------------------
# Wedge certificate
# ---------------------------------------------------------------------------

class TestWedgeCertificate:
    def test_full_certificate(self, all_reports):
        reports, _ = all_reports
        report = reports["omega_12"]
        assert report.verdict
        checks = _by_name(report)
        assert abs(float(checks["wedge_quadratic_constant"].value)
                   - 1.2795906170) < 1e-8
        assert abs(float(checks["wedge_linear_growth_constant"].value)
                   - 1.4709734534) < 1e-8
        assert abs(float(checks["wedge_linear_constant"].value)
                   - 0.5964430663) < 1e-8
        assert abs(float(checks["wedge_ball_maps_into_itself"].value)
                   - 1.4324936357) < 1e-9
        assert abs(float(checks["wedge_contraction_below_one"].value)
                   - 0.9714338764) < 1e-9

    def test_small_ball_fails_by_name(self, monkeypatch):
        # the ball and its radius row both read the one eps
        monkeypatch.setattr(C, "WEDGE_EPS", Fraction(1, 10))
        report = C.check_omega_12()
        assert not report.verdict
        assert "wedge_ball_maps_into_itself" in [
            c.name for c in report.failures()]
        radius = _by_name(report)["wedge_ball_radius"]
        M = C.wedge_kernel_constants()["M"]
        assert radius.value == (Fraction(11, 10) * M).hi
        assert radius.bound == Fraction(11, 10) * Fraction(32, 25)
        assert radius.note.startswith("solution ball radius (11/10)M ")
        assert ("eps", "1/10") in report.inputs


# ---------------------------------------------------------------------------
# The tightest margins of the whole certificate
# ---------------------------------------------------------------------------

# Floors on the relative margin (bound - value)/|bound| of the four
# tightest checks of verify --scope all; a change to the numerics that
# loosens one of them fails here before it fails a check.
MARGIN_FLOORS = {
    ("z0_bounds", "matching_error_slope"): 4.7e-7,
    ("z0_bounds", "matching_error_value"): 1.0e-5,
    ("omega_12", "wedge_linear_growth_constant"): 2.7e-5,
    ("omega_4", "quadratic_bound"): 1.4e-4,
}


@pytest.mark.parametrize("report, name", list(MARGIN_FLOORS))
def test_tightest_margins_keep_their_floors(all_reports, report, name):
    reports, _ = all_reports
    found = _by_name(reports[report])[name]
    assert found.passed
    assert found.margin / abs(found.bound) >= MARGIN_FLOORS[report, name]


# ---------------------------------------------------------------------------
# Lower-wedge certificate
# ---------------------------------------------------------------------------

class TestSectorCertificate:
    def test_route_constants_match_catalog_exactly(self):
        routes = C.route_constants()
        catalog = data.constant_catalog()
        assert set(routes) == set(catalog)
        for name in routes:
            assert routes[name] == catalog[name], name

    def test_full_certificate(self, all_reports):
        reports, _ = all_reports
        report = reports["omega_4"]
        assert report.verdict
        checks = _by_name(report)
        # every reference value sits in its truncation window
        for name in data.reference_values():
            assert checks[f"reference_{name}"].passed, name
        assert checks["reference_enclosure_width"].value \
            < Fraction(1, 10 ** 4)
        assert abs(float(checks["source_norm_at_most_2"].value)
                   - 1.9939740) < 1e-6
        assert checks["quadratic_bound"].bound == Fraction(18, 467)
        assert checks["linear_bound"].bound == Fraction(9, 40)
        assert checks["ball_maps_into_itself"].value == Fraction(91, 25)
        assert checks["contraction_factor"].value == Fraction(57, 100)

    def test_majorants_monotone_and_decreasing(self):
        """Each majorant bounds its sharp value at rho=3 and is smaller at
        rho=4."""
        u3 = (PowerSum.monomial(1, Fraction(1, 2)).enclosure(3)
              * C.scalar_bounds()["J_M"].enclosure(3)).hi
        c_hi = 1 / (1 - u3)
        points = C.sector_point_values(Fraction(3))
        at3 = C.sector_majorants(Fraction(3), c_hi)
        at4 = C.sector_majorants(Fraction(4), c_hi)
        for name in ("M_1", "M_2", "M_3", "M_4", "M_5", "M_6", "M_7",
                     "V_M", "T_M", "z_2M", "z_2RM"):
            assert at3[name].hi >= points[name].hi, name
            assert at4[name].hi < at3[name].hi, name

    def test_negative_leaf_fails_monotone_by_name(self, monkeypatch):
        """A leaf with a negative coefficient breaks the closure argument
        for exactly the majorant that uses it."""
        original = C.scalar_bounds

        def bent():
            scalars = original()
            scalars["Y_head"] = (scalars["Y_head"]
                                 + PowerSum.monomial(Fraction(-1, 10**6), 1))
            return scalars

        monkeypatch.setattr(C, "scalar_bounds", bent)
        report = C.check_omega_4(3)
        assert not report.verdict
        failing = [c.name for c in report.failures()
                   if c.name.startswith("monotone_")]
        assert failing == ["monotone_M_3"]

    def test_closure_flag_allows_only_sums_and_products(self):
        flag = C._Monotone(True)
        assert (1 + flag * Fraction(1, 2) + flag ** 3).ok
        assert not (flag * -1).ok
        assert not (flag + C._Monotone(False)).ok
        with pytest.raises(TypeError):
            flag - flag
        with pytest.raises(TypeError):
            1 - flag
        with pytest.raises(TypeError):
            flag / 2
        with pytest.raises(ValueError):
            flag ** -1

    def test_each_leaf_is_enclosed_once(self, monkeypatch):
        calls = Counter()
        original = PowerSum.enclosure

        def counted(self, *args, **kwargs):
            calls[id(self)] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PowerSum, "enclosure", counted)
        C.check_omega_4(3)
        monkeypatch.undo()
        leaves = C._wedge_leaves(C.scalar_bounds(), C.route_constants())
        assert sorted(calls.values()) == [1] * len(leaves)

    def test_checks_equal_those_from_the_public_helpers(self):
        """Sharing one set of leaf enclosures changes no check: each one
        equals the check built from sector_point_values and
        sector_majorants called on their own."""
        checks = _by_name(C.check_omega_4(3))
        u3 = (PowerSum.monomial(1, Fraction(1, 2)).enclosure(3)
              * C.scalar_bounds()["J_M"].enclosure(3)).hi
        c_hi = 1 / (1 - u3)
        points = C.sector_point_values(Fraction(3))
        majorants = C.sector_majorants(Fraction(3), c_hi)
        printed = data.reference_values()
        for name, text in printed.items():
            assert checks[f"reference_{name}"] == C._window_overlap(
                f"reference_{name}", points[name], text), name
        assert checks["reference_enclosure_width"].value == slim_up(
            max(points[name].width for name in printed))
        m_sum = slim(sum((majorants[f"M_{i}"] for i in range(2, 8)),
                         majorants["M_1"]))
        for name, enclosure in (("source_norm_at_most_2", m_sum),
                                ("linear_bound", slim(majorants["V_M"])),
                                ("quadratic_bound", slim(majorants["T_M"]))):
            assert (checks[name].lo, checks[name].value) \
                == (enclosure.lo, enclosure.hi), name

    def test_point_values_match_references(self):
        points = C.sector_point_values(Fraction(3))
        printed = data.reference_values()
        for name, text in printed.items():
            assert points[name].intersects(truncation_window(text)), name

    def test_rho_below_three_rejected(self):
        with pytest.raises(C.PreconditionError):
            C.check_omega_4(2)

    def test_perturbed_table_fails_by_name(self, tmp_path, monkeypatch):
        src = data.data_dir()
        for f in data.DATA_FILES:
            shutil.copy(src / f, tmp_path / f)
        tables_path = tmp_path / "expansion_tables.json"
        blob = json.loads(tables_path.read_text())
        k, m, coeff = blob["tables"]["r"]["5"][0]
        blob["tables"]["r"]["5"][0] = [
            k, m, str(Fraction(coeff) + Fraction(1, 1000))]
        tables_path.write_text(json.dumps(blob))
        monkeypatch.setenv(data.DATA_ENV_VAR, str(tmp_path))
        data.clear_cache()
        report = C.check_omega_4(3)
        assert not report.verdict
        failing = [c.name for c in report.failures()]
        assert "catalog_M_G2" in failing or "catalog_M_G3" in failing


# ---------------------------------------------------------------------------
# Inner-interval wrapper and fault injection
# ---------------------------------------------------------------------------

def _ring_value(series, x):
    """The ring element at the point x, with S = i sqrt(6/(5 pi))."""
    s = mp.j * mp.sqrt(6 / (5 * mp.pi))
    return mp.fsum(mpf(c.numerator) / c.denominator * s ** k
                   * x ** (mpf(-j) / 2) * mp.exp(-m * x)
                   for (k, j, m), c in series.items())


def _wedge_leaf_series():
    """(name, leaf, ring element, shift) for each lower-wedge leaf read
    from the ring; the leaf bounds |x^(shift/2) element| there."""
    scalars = C.scalar_bounds()
    small_j = formal.small_j_series()
    z2_head = (FormalSeries.term(1, m=2)
               * (formal.z20_series() + formal.z21_series()))
    return [
        ("j_m", scalars["j_m"], small_j, 0),
        ("J_M", scalars["J_M"], formal.capital_j_series(), 0),
        ("Y_1M", scalars["Y_1M"], formal.y1_series(), 0),
        ("Y_1RM", scalars["Y_1RM"], formal.j_prefactor() * small_j, 0),
        ("Y_head", scalars["Y_head"],
         formal.y10_series() + formal.y11_series(), 0),
        ("z_2head", C._z2_head_majorant(), z2_head, 0),
        ("z2R0", majorant(formal.z2R0_series(), shift=2),
         formal.z2R0_series(), 2),
    ]


class TestWedgeLeavesFromTheRing:
    """The omega_4 leaves are majorants of the ring elements that the
    symbolic table suite checks, so there is one copy of each series."""

    def test_each_leaf_bounds_its_series_on_the_wedge(self):
        with mp.workdps(40):
            for name, leaf, series, shift in _wedge_leaf_series():
                for rho in (Fraction(3), Fraction(7, 2), Fraction(10),
                            Fraction(40)):
                    hi = leaf.enclosure(rho).hi
                    bound = mpf(hi.numerator) / hi.denominator
                    for i in range(7):
                        arg = -mp.pi / 2 + mp.pi / 4 * i / 6
                        x = mpf(rho.numerator) / rho.denominator \
                            * mp.expj(arg)
                        value = abs(x ** (mpf(shift) / 2)
                                    * _ring_value(series, x))
                        # slack for rounding at 40 digits
                        assert value <= bound * (1 + mpf(10) ** -30), \
                            (name, rho, i)

    def test_leaves_equal_the_hand_built_sums(self):
        """The oracle: each leaf as a PowerSum typed out by hand."""
        half, s = Fraction(1, 2), SPoly.s_power
        j_m = PowerSum({
            Fraction(0): s(1, Fraction(3, 16)),
            half: SPoly.constant(Fraction(19, 24)) + s(2, Fraction(1, 36)),
            Fraction(1): s(1, Fraction(5, 16)) + s(3, Fraction(25, 6912)),
        })
        s_third = PowerSum.constant(s(1, Fraction(1, 3)))
        rho_half = PowerSum.monomial(1, half)
        big_j = s_third * (1 + rho_half * j_m)
        assert C.scalar_bounds() == {
            "j_m": j_m, "J_M": big_j, "Y_1M": 1 + rho_half * big_j,
            "Y_1RM": s_third * j_m, "Y_head": 1 + rho_half * s_third}
        assert C._z2_head_majorant() == PowerSum({
            Fraction(0): SPoly.constant(half),
            half: s(1, Fraction(2, 3))})
        # with j_m and E_M zero only the explicit terms remain
        assert C.z2_remainder_division_free(PowerSum(), PowerSum()) \
            == PowerSum({
                Fraction(0): s(2, Fraction(23, 72)),
                half: (s(3, Fraction(23, 216))
                       + s(1, QSqrt2(Fraction(7, 36), Fraction(7, 36)))
                       + s(3, Fraction(8, 27))),
                Fraction(1): (s(2, Fraction(361, 3456))
                              + s(4, Fraction(577, 41472))),
            })

    def test_a_series_edit_moves_the_leaf_and_fails_the_identity(
            self, monkeypatch):
        original = formal.small_j_series
        before = C.scalar_bounds()["j_m"]

        def bent():
            return original() + FormalSeries.term(
                Fraction(1, 10**3), k=3, j=2, m=3)

        monkeypatch.setattr(formal, "small_j_series", bent)
        assert C.scalar_bounds()["j_m"] != before
        failing = [c.name for c in C.check_symbolic_tables().failures()]
        assert failing == ["j_factorization_matches"]


class TestInnerWrapper:
    def test_wraps_passing_certificate(self, all_reports):
        reports, _ = all_reports
        report = reports["inner_interval"]
        assert report.verdict
        assert len(report.checks) == 21

    def test_widened_alpha1_fails_by_name(self, monkeypatch):
        monkeypatch.setattr(inner, "ALPHA1", Fraction(1, 50))
        report = C.check_inner_interval()
        assert not report.verdict
        failing = {c.name for c in report.failures()}
        assert "value_window" in failing

    def test_inputs_state_the_alpha_box_certified(self, monkeypatch):
        # The inputs block and the checks read the same ALPHA1.
        monkeypatch.setattr(inner, "ALPHA1", Fraction(1, 50))
        report = C.check_inner_interval()
        assert dict(report.inputs)["alpha1"] == "1/50"
        failing = {c.name for c in report.failures()}
        assert failing >= {"value_window", "corner_plus", "corner_minus",
                           "corner_prime_plus", "corner_prime_minus"}
        result = CliRunner().invoke(main, ["verify", "--scope", "inner"])
        assert result.exit_code == 1
        assert "  input alpha1 = 1/50\n" in result.stdout


# ---------------------------------------------------------------------------
# Maclaurin-envelope certificate
# ---------------------------------------------------------------------------

class TestTaylorRadius:
    def test_full_certificate(self, all_reports):
        reports, _ = all_reports
        report = reports["taylor_radius"]
        assert report.verdict
        checks = _by_name(report)
        # second and third window endpoints, exactly
        a, b, eps = Fraction(87, 469), Fraction(41, 134), Fraction(1, 108)
        assert checks["c2_window_below_eighth"].value == 3 * (a + eps) ** 2
        assert checks["c2_window_positive"].bound == 3 * (a - eps) ** 2
        assert checks["c3_window_below_fifteenth"].value \
            == Fraction(1, 6) - 2 * (a - eps) * (b - eps)
        assert checks["c3_window_positive"].bound \
            == Fraction(1, 6) - 2 * (a + eps) * (b + eps)
        # the tight base case is exact: 6/19 < 2 (20/37)^3
        k1 = checks["envelope_base_k1"]
        assert k1.bound - k1.value == Fraction(82, 962407)

    def test_envelope_run_frozen(self):
        worst, worst_k = C.taylor_envelope_run(256, Fraction(1, 108))
        assert worst_k == 1
        assert abs(float(worst) - 0.99795716) < 1e-7
        assert worst < 1

    @settings(max_examples=20, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 200), max_value=Fraction(1, 20),
                        max_denominator=10**4))
    @example(Fraction(1, 108))
    def test_envelope_run_matches_exact_rational_run(self, eps):
        # the same recurrence in exact Fraction intervals: the dyadic run
        # rounds outward, so it encloses every coefficient, and its worst
        # envelope ratio is the exact run's to 64-bit rounding
        horizon = 64
        exact = inner.maclaurin_extend(*inner.origin_windows(eps, eps)[:2],
                                       0, horizon)
        run = C.maclaurin_enclosures(horizon, eps=eps)
        assert len(run) == len(exact) == horizon + 1
        for c, d in zip(exact, run):
            assert d.lo <= c.lo and c.hi <= d.hi
        ratios = [max(abs(c.lo), abs(c.hi))
                  / ((k + 1) * Fraction(20, 37) ** (k + 2))
                  for k, c in enumerate(exact)]
        expected = max(ratios)
        worst, worst_k = C.taylor_envelope_run(horizon, eps=eps)
        assert worst_k == ratios.index(expected)
        assert expected <= worst <= expected * (1 + Fraction(1, 2 ** 60))
        if eps == Fraction(1, 108):
            # attained at k = 1 by the exact c1 window:
            # (41/134 + 1/108) / (2 (20/37)^3) = 115539493/115776000
            assert worst == Fraction(115539493, 115776000)

    def test_wider_windows_fail_by_name(self, monkeypatch):
        # the envelope's windows cover the inner certificate's windows
        monkeypatch.setattr(inner, "SLOPE_WINDOW", Fraction(1, 20))
        report = C.check_taylor_radius()
        assert ("eps", "1/20") in report.inputs
        assert not report.verdict
        failing = {c.name for c in report.failures()}
        assert "c1_below_six_nineteenths" in failing
        assert "c2_window_below_eighth" in failing


def test_certificates_load_neither_the_evaluator_nor_mpmath():
    # The certificates stay exact and free of floating point; this is why
    # the Taylor kernel they share with the integrator lives in inner.
    src = os.path.dirname(os.path.dirname(p1cert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, p1cert.certificates; print(sorted(name for name in "
            "('p1cert.evaluator', 'mpmath') if name in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cli_verify_loads_neither_the_evaluator_nor_mpmath():
    # The command line imports the evaluator and mpmath only in eval,
    # series and pole, so a verify process is spared their import time.
    src = os.path.dirname(os.path.dirname(p1cert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "\n".join([
        "import contextlib, io, sys",
        "import p1cert.cli",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    try:",
        "        p1cert.cli.main.main(args=['verify', '--scope', 'omegaI'],",
        "                             standalone_mode=False)",
        "    except SystemExit as done:",
        "        assert done.code == 0, done.code",
        "assert 'verdict: PASS' in out.getvalue()",
        "print(sorted(name for name in ('p1cert.evaluator', 'mpmath')",
        "             if name in sys.modules))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


# ---------------------------------------------------------------------------
# Whole-suite assembly
# ---------------------------------------------------------------------------

class TestRunAll:
    def test_everything_passes(self, all_reports):
        reports, statement = all_reports
        assert set(reports) == {
            "inner_interval", "omega_12", "omega_4",
            "omega_I(rho=1,eps=3/20)",
            "omega_I(rho=~3.437193241246,eps=1/40)",
            "symbolic_tables", "taylor_radius", "z0_bounds",
        }
        assert all(r.verdict for r in reports.values())
        assert statement.startswith("Certified region")
        assert "arg z in [-3pi/5, pi]" in statement
        assert "|z| < 37/20" in statement

    def test_statement_names_the_reflection_across_the_ray(self):
        statement = C.REGION_STATEMENT
        assert "they certify arg z in [-3pi/5, pi/5]" in statement
        assert "y(z) = w^-2 conj(y(w conj(z))) with w = e^(2pi i/5)" in statement
        assert "supplies arg z in (pi/5, pi]" in statement
        assert "taken as prose, not machine-checked" in statement
        assert "conj(y(conj(z)))" not in statement

    def test_reflection_maps_the_certified_arcs_onto_the_rest(self):
        # arg(w conj z) = 2pi/5 - arg z, in units of pi; the pieces the
        # certificates cover directly: the lower wedge [-3/5, -2/5], the
        # wedge [-2/5, 1/5] and the ray 1/5
        def reflect(theta):
            return Fraction(2, 5) - theta

        lower, ray, top = Fraction(-3, 5), Fraction(1, 5), Fraction(1)
        assert (reflect(ray), reflect(lower)) == (ray, top)
        assert reflect(reflect(lower)) == lower
        # an orientation-reversing affine map: the image of [lo, hi] is
        # [reflect(hi), reflect(lo)], so [-3/5, 1/5] goes onto [1/5, 1],
        # and with the certified arc the whole [-3/5, 1] is covered
        for k in range(0, 41):
            theta = lower + (ray - lower) * Fraction(k, 40)
            assert ray <= reflect(theta) <= top
            assert reflect(theta) == ray + (ray - theta)

    def test_reports_sorted_by_name(self, all_reports):
        reports, _ = all_reports
        names = list(reports)
        assert names == sorted(names)

    def test_precondition_violation_raised_before_any_report(
            self, monkeypatch):
        def no_job(*args):
            raise AssertionError("a job ran")

        monkeypatch.setattr(C, "_map_jobs", no_job)
        with pytest.raises(C.PreconditionError, match="rho >= 3"):
            C.run_all(rho=Fraction(2))
        with pytest.raises(C.PreconditionError, match="rho >= 3"):
            C.run_scope("omega4", Fraction(2))

    @pytest.mark.parametrize("rho", [Fraction(3), Fraction(7, 2)])
    def test_reports_do_not_depend_on_the_cpu_count(self, monkeypatch, rho):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 1)
        serial = C.run_all(rho)
        for count in (2, 3, 8):
            monkeypatch.setattr(C, "_usable_cpus", lambda: count)
            assert C.run_all(rho) == serial, count
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def log_forks(tmp_path, monkeypatch):
        """Make every os.fork append the forking pid to a log; returns
        a function that reads the pids logged so far.  The forked workers
        inherit the logging fork, so the log counts every fork of the
        process tree, a fork inside a job included."""
        log = tmp_path / "forks"
        log.touch()
        fork = os.fork

        def logged_fork():
            fd = os.open(log, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, f"{os.getpid()}\n".encode())
            finally:
                os.close(fd)
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        return lambda: log.read_text().split()

    @pytest.mark.parametrize("count", [2, 3, 8])
    def test_only_the_calling_process_forks(self, tmp_path, monkeypatch,
                                            count):
        # one worker per usable CPU, up to one per job
        monkeypatch.setattr(C, "_usable_cpus", lambda: 1)
        serial = C.run_all()
        forks = self.log_forks(tmp_path, monkeypatch)
        monkeypatch.setattr(C, "_usable_cpus", lambda: count)
        assert C.run_all() == serial
        assert forks() == [str(os.getpid())] * min(6, count)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_files_parsed_by_forked_jobs_are_recorded(self, monkeypatch,
                                                      count):
        # on more than one CPU every job runs in a forked worker
        monkeypatch.setattr(C, "_usable_cpus", lambda: count)
        with data.replaced({}):
            C.run_all()
            assert data.parsed_files() == data.DATA_FILES

    @pytest.mark.parametrize("scope", list(C.SCOPES))
    def test_only_scope_all_forks(self, tmp_path, monkeypatch, scope):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 1)
        serial = C.run_scope(scope)
        forks = self.log_forks(tmp_path, monkeypatch)
        monkeypatch.setattr(C, "_usable_cpus", lambda: 2)
        assert C.run_scope(scope) == serial
        assert forks() == [str(os.getpid())] * (2 if scope == "all" else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count", [1, 2])
    def test_perturbed_catalog_fails_by_name(self, tmp_path, monkeypatch,
                                             count):
        monkeypatch.setattr(C, "_usable_cpus", lambda: count)
        path = tmp_path / "constant_catalog.json"
        blob = json.loads((data.data_dir() / path.name).read_text())
        row = blob["constants"]["E_M"][0]
        row[2] = str(Fraction(row[2]) + Fraction(1, 1000))
        path.write_text(json.dumps(blob))
        with data.replaced({path.name: path}):
            reports, summary = C.run_all()
            result = CliRunner().invoke(main, ["verify", "--scope", "all"])
        omega4 = next(r for r in reports if r.name == "omega_4")
        failing = [c.name for c in omega4.failures()]
        assert "catalog_E_M" in failing
        assert summary.startswith("NOT CERTIFIED")
        assert f"omega_4: {failing}" in summary
        assert result.exit_code == 1

    @pytest.mark.parametrize("defect", ["not_json", "short_row"])
    def test_malformed_tables_fail_as_the_serial_loop_does(
            self, tmp_path, monkeypatch, defect):
        text = (data.data_dir() / "expansion_tables.json").read_text()
        if defect == "not_json":
            text = text[:len(text) // 2]
        else:
            doc = json.loads(text)
            del doc["tables"]["r"]["5"][0][2]
            text = json.dumps(doc)
        path = tmp_path / "tables.json"
        path.write_text(text)
        outcomes = []
        for count in (1, 2, 3):
            monkeypatch.setattr(C, "_usable_cpus", lambda: count)
            result = CliRunner().invoke(
                main, ["verify", "--scope", "all", "--tables", str(path)])
            outcomes.append((result.exit_code, result.stdout, result.stderr))
        assert outcomes[0][0] == 2
        assert "precondition violated: malformed data file" in outcomes[0][2]
        assert outcomes[1:] == outcomes[:1] * 2

    def test_fingerprint_is_of_the_bytes_the_reports_parsed(
            self, tmp_path, monkeypatch):
        # On two CPUs a forked worker runs inner_interval, which rewrites
        # its data file once parsed; the calling process runs no job.
        monkeypatch.setattr(C, "_usable_cpus", lambda: 2)
        path = tmp_path / "inner_ode.json"
        parsed = (data.data_dir() / path.name).read_bytes()
        path.write_bytes(parsed)
        marker = tmp_path / "rewritten_by"
        parent = os.getpid()
        check_inner_interval = C.check_inner_interval

        def rewrite_after_parsing():
            report = check_inner_interval()
            path.write_bytes(parsed + b"\n")
            marker.write_text(str(os.getpid()))
            return report

        monkeypatch.setattr(C, "check_inner_interval", rewrite_after_parsing)
        result = CliRunner().invoke(main, [
            "verify", "--scope", "all", "--partitions", str(path),
            "--format", "json"])
        assert result.exit_code == 0, result.output
        assert int(marker.read_text()) != parent
        assert path.read_bytes() != parsed
        fingerprints = json.loads(result.stdout)["fingerprints"]
        assert (fingerprints["inner_ode.json"]
                == hashlib.sha256(parsed).hexdigest())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # The jobs below stand in for the reports: each replaces the entries of
    # C._JOBS, which the forked workers inherit, and run_scope maps them.

    @staticmethod
    def fake_jobs(monkeypatch, job, count=None):
        """Make the first ``count`` jobs of ``all`` (all six by default)
        the scope ``fake``, job i running ``job(i)``."""
        names = C.SCOPES["all"][:count]
        for index, name in enumerate(names):
            monkeypatch.setitem(C._JOBS, name,
                                lambda rho, index=index: job(index))
        monkeypatch.setitem(C.SCOPES, "fake", names)

    def test_usable_cpus_is_positive(self):
        assert C._usable_cpus() >= 1

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("n_jobs", [1, 2, 3, 4, 5])
    def test_results_equal_the_in_process_map_in_order(
            self, monkeypatch, tmp_path, count, n_jobs):
        log = tmp_path / "runs"
        self.fake_jobs(monkeypatch, _logged(log), n_jobs)
        monkeypatch.setattr(C, "_usable_cpus", lambda: count)
        reports, _ = C.run_scope("fake")
        assert [r.name for r in reports] == [f"job {x}"
                                             for x in range(n_jobs)]
        # Each job runs exactly once, in one of at most w processes, and
        # in this process only when the loop is serial.
        assert _runs(log) == list(range(n_jobs))
        pids = {_pid_of(r) for r in reports}
        assert len(pids) <= min(count, n_jobs)
        assert (os.getpid() in pids) == (min(count, n_jobs) == 1)
        _assert_no_child_left()

    def test_a_forked_worker_runs_jobs(self, monkeypatch, tmp_path):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 2)
        marker = tmp_path / "job_1_ran_in"

        # Job 1 cannot run in the worker that waits in job 0, so the other
        # worker takes it.
        def job(x):
            if x == 0:
                deadline = time.monotonic() + 60
                while not marker.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            else:
                marker.write_text(str(os.getpid()))
            return _pid_report(x)

        self.fake_jobs(monkeypatch, job, 2)
        pids = [_pid_of(r) for r in C.run_scope("fake")[0]]
        assert int(marker.read_text()) == pids[1]
        assert pids[0] != pids[1]
        assert os.getpid() not in pids
        _assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("bad, first", [
        ({3}, 3), ({4, 1}, 1), ({2, 3}, 2), ({0, 5}, 0), ({5}, 5)])
    def test_earliest_failing_job_raises_its_exception(
            self, monkeypatch, count, bad, first):
        monkeypatch.setattr(C, "_usable_cpus", lambda: count)
        self.fake_jobs(monkeypatch, _fail_at(bad))
        with pytest.raises(ValueError, match=f"^job {first} failed$"):
            C.run_scope("fake")
        _assert_no_child_left()

    def test_an_exception_that_cannot_be_rebuilt_breaks_the_pool(
            self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool
        monkeypatch.setattr(C, "_usable_cpus", lambda: 2)
        monkeypatch.setitem(C._JOBS, "inner", _raise_unpicklable)
        start = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            C.run_all()
        assert time.monotonic() - start < 20
        _assert_no_child_left()

    @pytest.mark.parametrize("kind", ["result", "exception"])
    @pytest.mark.parametrize("bad", range(4))
    def test_unsendable_outcome_is_the_same_on_any_worker_count(
            self, monkeypatch, bad, kind):
        # Every job runs in a forked worker, so which one ran it does not
        # matter: a result that cannot be pickled fails its job, and an
        # exception that cannot be rebuilt here breaks the pool.
        self.fake_jobs(monkeypatch, _unsendable_at(bad, kind), 4)
        outcomes = []
        for count in (2, 3):
            monkeypatch.setattr(C, "_usable_cpus", lambda: count)
            with pytest.raises(Exception) as raised:
                C.run_scope("fake")
            outcomes.append((type(raised.value), str(raised.value)))
            _assert_no_child_left()
        assert outcomes[0] == outcomes[1]
        failure, message = outcomes[0]
        if kind == "exception":
            assert failure.__name__ == "BrokenProcessPool"
        else:
            assert "cannot pickle 'generator' object" in message

    def test_results_that_cannot_be_sent_back_raise(self, monkeypatch):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 2)
        self.fake_jobs(monkeypatch, lambda x: [lambda: x], 2)
        with pytest.raises(Exception, match="pickle"):
            C.run_scope("fake")
        _assert_no_child_left()

    def test_interrupt_while_waiting_reaps_the_workers(self, monkeypatch):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 3)
        parent = os.getpid()

        def job(x):
            # The first job interrupts this process from its worker, so
            # SIGINT arrives while this process waits for that job's
            # result, with every worker still busy; run in this process,
            # it sends nothing and the test fails.
            if x == 0 and os.getpid() != parent:
                os.kill(parent, signal.SIGINT)
            time.sleep(0.5)
            return _pid_report(x)

        self.fake_jobs(monkeypatch, job)
        with pytest.raises(KeyboardInterrupt):
            C.run_scope("fake")
        _assert_no_child_left()

    def test_after_a_refused_fork_the_jobs_run_in_this_process(
            self, monkeypatch):
        # Without the kill, a worker forked before the refusal waits for
        # jobs forever, and the interpreter waits for it at exit.
        monkeypatch.setattr(C, "_usable_cpus", lambda: 3)
        self.fake_jobs(monkeypatch, _pid_report)
        fork = os.fork
        for refused in (1, 2, 3):
            calls = []

            def refuse(refused=refused, calls=calls):
                calls.append(None)
                if len(calls) == refused:
                    raise BlockingIOError("fork refused")
                return fork()

            monkeypatch.setattr(os, "fork", refuse)
            reports, _ = C.run_scope("fake")
            assert len(calls) == refused
            assert [(r.name, _pid_of(r)) for r in reports] == [
                (f"job {x}", os.getpid()) for x in range(6)]
            _assert_no_child_left()

    def test_unflushed_output_is_written_once(self, monkeypatch, capfd):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 3)
        self.fake_jobs(monkeypatch, _pid_report)
        # Block-buffered, as stdout is when it goes to a pipe or a file: the
        # line is still in this process's buffer when the workers fork.
        with open(os.dup(1), "w", buffering=1 << 16) as stdout:
            with contextlib.redirect_stdout(stdout):
                print("written before the fork")
                C.run_scope("fake")
        out, _ = capfd.readouterr()
        assert out.count("written before the fork") == 1

    def run_in_process(self, monkeypatch):
        """run_scope on fake jobs, asserting that no worker was forked."""
        def fork():
            raise AssertionError("os.fork was called")

        if hasattr(os, "fork"):
            monkeypatch.setattr(os, "fork", fork)
        self.fake_jobs(monkeypatch, _pid_report, 4)
        reports, _ = C.run_scope("fake")
        assert [(r.name, _pid_of(r)) for r in reports] == [
            (f"job {x}", os.getpid()) for x in range(4)]

    def test_one_usable_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 1)
        self.run_in_process(monkeypatch)

    def test_a_second_thread_prevents_forking(self, monkeypatch):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            self.run_in_process(monkeypatch)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_without_fork_jobs_run_in_process(self, monkeypatch):
        monkeypatch.setattr(C, "_usable_cpus", lambda: 3)
        monkeypatch.delattr(os, "fork")
        self.run_in_process(monkeypatch)


def _pid_report(x):
    """A passing job result: one report named after job x, whose input
    names the process that made it."""
    return [C.CertificateReport(f"job {x}", (("pid", str(os.getpid())),),
                                ())]


def _pid_of(report):
    return int(dict(report.inputs)["pid"])


def _logged(log):
    """A job that appends its index to the file ``log`` in whichever
    process runs it."""
    def job(x):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{x}\n".encode())
        finally:
            os.close(fd)
        return _pid_report(x)
    return job


def _runs(log):
    return sorted(int(line) for line in log.read_text().split())


def _fail_at(bad):
    def job(x):
        if x in bad:
            raise ValueError(f"job {x} failed")
        return _pid_report(x)
    return job


class _Unpicklable(Exception):
    """Rebuilding from its pickled args fails, like PoleNotFoundError."""

    def __init__(self, x, y):
        super().__init__(f"{x} and {y}")


def _raise_unpicklable(x):
    raise _Unpicklable(x, "more")


def _unsendable_at(bad, kind):
    def job(x):
        if x != bad:
            return _pid_report(x)
        if kind == "result":
            return (y for y in ())
        raise _Unpicklable(x, "more")
    return job


def _assert_no_child_left():
    """No child process is left, and no thread of the pool either, which
    would keep a later run from forking."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == 1


#: Entry points that take an exact rational, each called with one float
#: argument.  Fraction(1.5) would silently be 3/2 and Fraction(0.15) the
#: binary expansion 5404319552844595/36028797018963968.
FLOAT_CALLS = {
    "check_omega_I rho": lambda: C.check_omega_I(1.5, Fraction(3, 20)),
    "check_omega_I eps": lambda: C.check_omega_I(1, 0.15),
    "_lower_wedge_rho": lambda: C._lower_wedge_rho(3.1),
    "taylor_envelope_run eps": lambda: C.taylor_envelope_run(64, eps=0.01),
    "maclaurin_enclosures eps":
        lambda: C.maclaurin_enclosures(64, eps=0.01),
}


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
def test_a_float_argument_is_refused(name):
    with pytest.raises(TypeError, match="not an exact value"):
        FLOAT_CALLS[name]()


@pytest.mark.parametrize("value", [Fraction(7, 2), "7/2"])
def test_a_fraction_or_a_rational_string_is_accepted(value):
    assert C._lower_wedge_rho(value) == Fraction(7, 2)
    assert (C.check_omega_I(value, Fraction(3, 20)).inputs
            == C.check_omega_I(Fraction(7, 2), Fraction(3, 20)).inputs)
    assert (C.check_omega_I(1, value).inputs
            == C.check_omega_I(1, Fraction(7, 2)).inputs)
