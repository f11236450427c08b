"""The rows of p1cert.regions: the certificates state them, the
evaluator's balls are those rows rounded up, and each row decides
exactly, on the integers of z at 2^-bits, whether it holds a point."""

import dataclasses
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from p1cert import certificates as C
from p1cert import evaluator as ev
from p1cert import inner
from p1cert.regions import (CLOSED_FORMS, DISK_RADIUS, OMEGA_4, OMEGA_I,
                            Ray, Wedge)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def _stated_by_the_ray():
    # the narrative ends "(1+eps)||H0|| = <radius>"
    report = C.check_omega_I(C.x0_abs(), OMEGA_I.eps)
    return [(Fraction(report.narrative.rsplit(" = ", 1)[1]), OMEGA_I.ball)]


def _stated_by_the_lower_wedge():
    report = C.check_omega_4()
    return [(_check(report, "ball_maps_into_itself").bound, OMEGA_4.ball),
            (Fraction(dict(report.inputs)["anchor"]), OMEGA_4.floor)]


def _stated_by_the_disk():
    report = C.check_taylor_radius()
    return [(Fraction(dict(report.inputs)["R0"]), DISK_RADIUS)]


#: Per row: what the certificate states beside the row's value, and for a
#: closed-form region the row itself, its ball, the fourth power of its
#: exact floor on |x| (|x0|^4 = (24 |z0|)^5/30^4 on the ray) and its arg x
#: edges as multiples of pi.
ROWS = {
    "omegaI": (_stated_by_the_ray,
               (OMEGA_I, OMEGA_I.ball, (24 * OMEGA_I.z0_abs) ** 5 / 30 ** 4,
                (Fraction(1, 2), Fraction(1, 2)))),
    "omega4": (_stated_by_the_lower_wedge,
               (OMEGA_4, OMEGA_4.ball, OMEGA_4.floor ** 4,
                (Fraction(-1, 2), Fraction(-1, 4)))),
    "disk": (_stated_by_the_disk, None),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_the_certificates_and_the_evaluator_read_each_row(name):
    stated, region = ROWS[name]
    for certified, row in stated():
        assert certified == row
    if region is None:
        return
    row, ball, floor_fourth, edges = region
    assert row.name == name
    assert (row.lowest, row.highest) == edges
    assert row.floor_fourth == floor_fourth
    # the evaluator lists and tries the rows in their priority order, ray
    # first
    assert ev.ASYMPTOTIC_REGIONS == ("omegaI", "omega4")
    assert ev.ASYMPTOTIC_REGIONS.index(name) == CLOSED_FORMS.index(row)
    for bits in (128, 256):
        assert tuple(ev._constants(bits).regions) == ev.ASYMPTOTIC_REGIONS
        _, fixed_ball = ev._constants(bits).regions[name]
        assert fixed_ball == math.ceil(ball * 2 ** bits)


def test_a_lower_wedge_ball_of_3_fails_on_both_sides(monkeypatch):
    # The rows are frozen; patching the one shared instance's field makes
    # every module that imported it see the fault: 2 + 3/4 + 9/25 > 3.
    ev._constants.cache_clear()
    monkeypatch.setitem(vars(OMEGA_4), "ball", Fraction(3))
    try:
        report = C.check_omega_4()
        assert [c.name for c in report.failures()] == [
            "ball_maps_into_itself"]
        assert _check(report, "ball_maps_into_itself").value == Fraction(
            311, 100)
        assert ev._constants(128).regions["omega4"][1] == 3 << 128
    finally:
        ev._constants.cache_clear()


def _lattice_pair(radius, k, bits):
    """The two corners of the 2^-bits grid cell that the ray
    arg z = k pi/5 crosses at |z| = ``radius``, the one counterclockwise
    of the ray first, each as (zr, zi), sorted by mpmath at 4 bits
    times the working precision."""
    with mp.workprec(4 * bits):
        angle = k * mp.pi / 5
        zr, zi = (int(mp.floor(v * radius * 2 ** bits))
                  for v in (mp.cos(angle), mp.sin(angle)))
        corners = sorted(
            ((zr + a, zi + b) for a in (0, 1) for b in (0, 1)),
            key=lambda p: p[1] * mp.cos(angle) - p[0] * mp.sin(angle))
    return corners[-1], corners[0]


@pytest.mark.parametrize("bits", [128, 160, 256])
def test_the_wedge_decides_its_edges_exactly(bits):
    # one grid unit inside and outside each edge, arg z = -3pi/5 and
    # -2pi/5, at |z| from 1 to 10^6
    for k in (-3, -2):
        for radius in (1, 4, 10**6):
            left, right = _lattice_pair(radius, k, bits)
            inside, outside = (left, right) if k == -3 else (right, left)
            assert Wedge.within(*inside), (k, radius)
            assert not Wedge.within(*outside), (k, radius)
    # around the circle, where z^5 takes every value five times
    with mp.workprec(bits):
        for step in range(400):
            theta = -mp.pi + 2 * mp.pi * (step + mpf(1) / 3) / 400
            z = [int(mp.floor(v * 2 ** bits))
                 for v in (mp.cos(theta), mp.sin(theta))]
            assert Wedge.within(*z) == (-3 * mp.pi / 5 <= theta
                                        <= -2 * mp.pi / 5), theta


@pytest.mark.parametrize("bits", [128, 160, 256])
def test_the_wedge_decides_its_floor_exactly(bits):
    # On the bisector arg z = -pi/2, |z| = m 2^-bits is exact, and
    # |x| >= 3 is (24 |z|)^5 >= 90^4: bisect for the least such m.
    low, m = 0, 1 << bits + 1
    while m - low > 1:
        mid = (low + m) // 2
        if 24**5 * mid**5 >= 90**4 << 5 * bits:
            m = mid
        else:
            low = mid
    assert (m - 1) ** 2 < OMEGA_4.least_norm(bits) <= m * m
    assert OMEGA_4.holds(0, -m, bits)
    assert not OMEGA_4.holds(0, -(m - 1), bits)
    # the least norm is the least n = |z|^2 4^bits with |x| >= 3
    n = OMEGA_4.least_norm(bits)
    assert (576 * n) ** 5 >= (30**4 * 81) ** 2 << 10 * bits
    assert (576 * (n - 1)) ** 5 < (30**4 * 81) ** 2 << 10 * bits


@pytest.mark.parametrize("bits", [128, 256])
def test_the_ray_floor_is_the_matching_points_modulus(monkeypatch, bits):
    # (576 n)^5 >= (24 |z0|)^10 4^(5 bits) is n >= |z0|^2 4^bits, before
    # the tolerance
    monkeypatch.setattr(Ray, "TOLERANCE", Fraction(0))
    assert dataclasses.replace(OMEGA_I).least_norm(bits) == math.ceil(
        OMEGA_I.z0_abs ** 2 * 4 ** bits)


@pytest.mark.parametrize("bits", [128, 256])
def test_the_ray_admits_its_named_tolerance_and_no_more(bits):
    assert OMEGA_I.TOLERANCE == Fraction(1, 10**9)
    assert OMEGA_4.TOLERANCE == 0

    def holds(x_abs, miss):
        with mp.workprec(2 * bits):
            z = ev.frame_map(x_abs * mp.expj(mp.pi / 2 + miss), "x",
                             precision_bits=2 * bits).z
            return OMEGA_I.holds(*(int(mp.floor(v * 2 ** bits))
                                   for v in (z.real, z.imag)), bits)

    x0 = C.x0_abs()
    floor = mpf(x0.lo.numerator) / x0.lo.denominator
    for miss in (mpf("0.9e-9"), mpf("-0.9e-9"), 0):
        assert holds(5, miss)
        assert holds(5 * 10**8, miss)
    for miss in (mpf("1.1e-9"), mpf("-1.1e-9")):
        assert not holds(5, miss)
    # the miss times |x| at most 1/2
    assert not holds(6 * 10**8, mpf("0.9e-9"))
    assert holds(floor * (1 - mpf("0.9e-9")), 0)
    assert not holds(floor * (1 - mpf("1.1e-9")), 0)
    # no other ray arg z = k pi/5 is held
    for k in (-3, -1, 0, 2, 3, 5):
        assert not OMEGA_I.holds(*_lattice_pair(5, k, bits)[0], bits), k


def test_the_first_row_that_holds_a_point_wins(monkeypatch):
    # A row with the wedge's geometry ahead of the wedge takes its points.
    # Each order is evaluated with tables built from its own rows, which
    # are dropped after.
    twin = dataclasses.replace(OMEGA_4, name="omegaI")
    z = ev.frame_map(5 * mp.expjpi(mpf(-3) / 8), "x").z
    try:
        monkeypatch.setattr(ev, "CLOSED_FORMS", (twin, OMEGA_4))
        ev._constants.cache_clear()
        assert ev.evaluate_point(z).method == "asymptotic-omegaI"
        monkeypatch.setattr(ev, "CLOSED_FORMS", (OMEGA_4, twin))
        ev._constants.cache_clear()
        assert ev.evaluate_point(z).method == "asymptotic-omega4"
    finally:
        ev._constants.cache_clear()


def test_the_inner_interval_starts_at_the_ray_rows_matching_point():
    length = OMEGA_I.z0_abs
    assert inner.T0 == -length
    assert inner.K1_BOUND == length * 2 * inner.J1_BOUND * inner.J2_BOUND
    assert inner.K2_BOUND == length * (
        inner.J2_PRIME_BOUND * inner.J1_BOUND
        + inner.J1_PRIME_BOUND * inner.J2_BOUND)
    # the partitions are stored in t and shifted into s = t - t0
    partition = inner.build_system().partitions["remainder"]
    assert (partition[0], partition[-1]) == (0, length)
    # the matching bounds hand over at the same |z0|
    report = C.check_z0_bounds()
    assert dict(report.inputs)["z0"] == f"({length})e^(i pi/5)"
