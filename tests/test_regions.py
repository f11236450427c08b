"""The rows of p1cert.regions: the certificates state them, and the
evaluator's fixed-point region rows are those rows rounded up."""

import dataclasses
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from p1cert import certificates as C
from p1cert import evaluator as ev
from p1cert import inner
from p1cert.regions import CLOSED_FORMS, DISK_RADIUS, OMEGA_4, OMEGA_I


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
    enclosure = C.x0_abs() if name == "omegaI" else None
    for bits in (128, 256):
        assert tuple(ev._constants(bits).regions) == ev.ASYMPTOTIC_REGIONS
        fixed = ev._constants(bits).regions[name]
        assert fixed.ball == math.ceil(ball * 2 ** bits)
        # each fixed-point edge is pi times the row's, to within 2^-bits
        with mp.workprec(2 * bits):
            for got, edge in zip((fixed.lowest, fixed.highest), edges):
                assert abs(mpf(got) / 2 ** bits - mp.pi * edge.numerator
                           / edge.denominator) <= mpf(2) ** -bits
        # the fixed-point floor is the exact floor rounded up
        assert (Fraction(fixed.floor - 1, 2 ** bits) ** 4 < floor_fourth
                <= Fraction(fixed.floor, 2 ** bits) ** 4)
        if enclosure is not None:
            assert (enclosure.lo <= Fraction(fixed.floor, 2 ** bits)
                    <= enclosure.hi + Fraction(1, 2 ** bits))


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
        assert ev._constants(128).regions["omega4"].ball == 3 << 128
    finally:
        ev._constants.cache_clear()


def test_the_first_row_that_holds_a_point_wins(monkeypatch):
    # Give both rows the wedge's geometry: a wedge point is then held by
    # both, and the first row in the order takes it.
    constants = ev._constants(128)
    wedge = constants.regions["omega4"]
    both = dataclasses.replace(constants, regions={
        "omegaI": wedge, "omega4": wedge})
    monkeypatch.setattr(ev, "_constants", lambda bits: both)
    angle = (wedge.lowest + wedge.highest) // 2
    with mp.workprec(128):
        assert ev._asymptotic_region(4 * wedge.floor, angle) == "omegaI"
        assert ev._asymptotic_region(wedge.floor // 2, angle) is None


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
