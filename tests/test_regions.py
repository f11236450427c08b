"""The rows of p1cert.regions: the certificates state them, and the
evaluator's fixed-point region rows are those rows rounded up."""

import math
from fractions import Fraction

import pytest

from p1cert import certificates as C
from p1cert import evaluator as ev
from p1cert.regions import DISK_RADIUS, OMEGA_4, OMEGA_I


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
#: closed-form region the row's ball and the fourth power of its exact
#: floor on |x|, |x0|^4 = (24 |z0|)^5/30^4 on the ray.
ROWS = {
    "omegaI": (_stated_by_the_ray,
               (OMEGA_I.ball, (24 * OMEGA_I.z0_abs) ** 5 / 30 ** 4)),
    "omega4": (_stated_by_the_lower_wedge,
               (OMEGA_4.ball, OMEGA_4.floor ** 4)),
    "disk": (_stated_by_the_disk, None),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_the_certificates_and_the_evaluator_read_each_row(name):
    stated, region = ROWS[name]
    for certified, row in stated():
        assert certified == row
    if region is None:
        return
    ball, floor_fourth = region
    enclosure = C.x0_abs() if name == "omegaI" else None
    for bits in (128, 256):
        fixed = ev._constants(bits).regions[name]
        assert fixed.ball == math.ceil(ball * 2 ** bits)
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
