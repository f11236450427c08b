"""Acceptance gate: one test per stated criterion.

Run with ``-v`` to get exactly one pass/fail line per criterion.  Each
test enforces the criterion at its stated tolerance and, where one is
stated, its runtime limit (measured around the computation itself).
"""

import json
import random
import shutil
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from p1cert import certificates as C
from p1cert import data, evaluator, formal, functionals, inner
from p1cert.formal import FormalSeries
from p1cert.numerics import Interval, truncation_window
from p1cert.polybound import poly_eval, sup_abs

# The eighteen published reference decimals for the sector constants at
# radius 3, keyed by catalog name.  Printed decimals denote truncation
# windows: a printed v with d digits locates the true value in
# [v, v + 10^-d].
REFERENCE_DECIMALS = {
    "J_M": "0.282580",
    "j_m": "0.64374",
    "Y_1M": "1.16314",
    "Y_1RM": "0.132618",
    "E_M": "0.0490292",
    "z_2RM": "0.54226",
    "z_2M": "0.91863",
    "M_q": "0.066702",
    "M_Lq": "0.075708",
    "V_M": "0.2239",
    "T_M": "0.0385",
    "M_1": "1.13838",
    "M_2": "0.04303",
    "M_3": "0.28346",
    "M_4": "0.45227",
    "M_5": "0.05430",
    "M_6": "0.00231",
    "M_7": "0.02018",
}


def test_criterion_1_reference_constants_reproduced():
    """All 18 catalogued constants at rho=3: reference contained,
    enclosure width < 1e-4, runtime < 10 s."""
    start = time.perf_counter()
    values = C.sector_point_values(Fraction(3))
    elapsed = time.perf_counter() - start

    assert data.reference_values() == REFERENCE_DECIMALS
    width_cap = Fraction(1, 10**4)
    for name, printed in REFERENCE_DECIMALS.items():
        enclosure = values[name]
        window = truncation_window(printed)
        assert enclosure.intersects(window), \
            f"{name}: enclosure misses the reference window {printed}"
        assert enclosure.width < width_cap, \
            f"{name}: enclosure width {float(enclosure.width)} >= 1e-4"
    assert elapsed < 10.0, f"constants took {elapsed:.2f}s (limit 10s)"


def test_criterion_2_symbolic_table_suite_exact():
    """All five expansion-table suites pass with exact coefficient
    equality (zero tolerance); runtime < 30 s."""
    start = time.perf_counter()
    suites = {
        "r": formal.verify_r_table(),
        "q": formal.verify_q_table(),
        "E": formal.verify_E_table(),
        "G04": formal.verify_G04_tables(),
        "auxiliary": formal.verify_auxiliary_identities(),
    }
    elapsed = time.perf_counter() - start

    for label, results in suites.items():
        assert results, f"{label}: empty suite"
        for result in results:
            assert result.passed, f"{label}: {result.name} failed"
        matching = [r for r in results if "matches" in r.name]
        assert matching, f"{label}: no table-matching identity"
        for result in matching:
            assert result.comparison == "==", \
                f"{label}: {result.name} is not an exact identity"
    assert elapsed < 30.0, f"table suites took {elapsed:.2f}s (limit 30s)"


def test_criterion_3_certificate_suite():
    """Every certificate passes: both ray parameter sets, the matching
    bounds, the wedge kernel, the lower wedge at rho=3, the interior
    interval (all bounds including |R| < 1/8619 and the origin
    windows), and the Maclaurin envelope; runtime < 2 min, of which the
    lower wedge alone < 5 s, the upper wedge < 2 s and the envelope
    < 1 s."""
    start = time.perf_counter()
    reports, summary = C.run_all(Fraction(3))
    elapsed = time.perf_counter() - start

    failing = [r.name for r in reports if not r.verdict]
    assert not failing, f"failing certificates: {failing}"
    by_name = {r.name: r for r in reports}

    ray_reports = [n for n in by_name if n.startswith("omega_I")]
    assert len(ray_reports) == 2, "expected two ray parameter sets"

    z0 = by_name["z0_bounds"]
    z0_bounds = {c.bound for c in z0.checks}
    assert Fraction(3, 890) in z0_bounds
    assert Fraction(29, 4468) in z0_bounds
    z0_names = " ".join(c.name for c in z0.checks)
    assert "C1" in z0_names and "C2" in z0_names

    wedge = by_name["omega_12"]
    wedge_bounds = {c.bound for c in wedge.checks}
    assert Fraction(32, 25) in wedge_bounds       # M
    assert Fraction(203, 138) in wedge_bounds     # N
    assert Fraction(3, 5) in wedge_bounds         # L
    assert Fraction(3, 2) in wedge_bounds         # ball-invariance target
    assert Fraction(1) in wedge_bounds            # contraction target

    lower = by_name["omega_4"]
    lower_bounds = {c.bound for c in lower.checks}
    assert Fraction(9, 40) in lower_bounds        # linear coefficient
    assert Fraction(18, 467) in lower_bounds      # quadratic coefficient
    assert Fraction(2) in lower_bounds            # source norm
    assert Fraction(3, 4) in lower_bounds         # contraction factor

    interior = by_name["inner_interval"]
    assert len(interior.checks) == 21
    interior_bounds = {c.bound for c in interior.checks}
    assert Fraction(1, 8619) in interior_bounds
    assert Fraction(1, 167) in interior_bounds
    assert Fraction(1, 108) in interior_bounds

    envelope = by_name["taylor_radius"]
    inputs = dict(envelope.inputs)
    joined = " ".join(f"{k}={v}" for k, v in inputs.items())
    assert "256" in joined, f"envelope horizon missing from {joined}"
    assert "37/20" in joined, f"envelope radius missing from {joined}"

    assert "arg z in [-3pi/5, pi]" in summary
    assert elapsed < 120.0, f"suite took {elapsed:.2f}s (limit 120s)"

    start = time.perf_counter()
    lower_again = C.check_omega_4(Fraction(3))
    lower_elapsed = time.perf_counter() - start
    assert lower_again.verdict
    assert lower_elapsed < 5.0, \
        f"lower wedge took {lower_elapsed:.2f}s (limit 5s)"

    start = time.perf_counter()
    wedge_again = C.check_omega_12()
    wedge_elapsed = time.perf_counter() - start
    assert wedge_again.verdict
    assert wedge_elapsed < 2.0, \
        f"upper wedge took {wedge_elapsed:.2f}s (limit 2s)"

    start = time.perf_counter()
    envelope_again = C.check_taylor_radius()
    envelope_elapsed = time.perf_counter() - start
    assert envelope_again.verdict
    assert envelope_elapsed < 1.0, \
        f"Maclaurin envelope took {envelope_elapsed:.2f}s (limit 1s)"


def test_criterion_4_integration_lands_in_certified_windows():
    """Integrating the interior equation from the certified initial
    data reaches the origin inside both rigorous windows, with
    forward-backward defect < 1e-20 at 100-bit precision."""
    settings = {"tol": Fraction(1, 10**25), "precision_bits": 100}
    run = evaluator.integrate(inner.T0_VALUE, inner.T0_SLOPE, inner.T0, 0,
                              **settings)
    back = evaluator.integrate(run.value, run.slope, 0, inner.T0, **settings)

    value_window = Interval(
        inner.CENTER_VALUE - inner.VALUE_WINDOW,
        inner.CENTER_VALUE + inner.VALUE_WINDOW)
    slope_window = Interval(
        inner.CENTER_SLOPE - inner.SLOPE_WINDOW,
        inner.CENTER_SLOPE + inner.SLOPE_WINDOW)

    with workprec(140):
        def low(fr):
            return mpf(fr.numerator) / mpf(fr.denominator)

        assert low(value_window.lo) <= run.value.real <= low(value_window.hi)
        assert low(slope_window.lo) <= run.slope.real <= low(slope_window.hi)
        assert run.value.imag == 0 and run.slope.imag == 0
        defect = max(abs(back.value - inner.T0_VALUE),
                     abs(back.slope - inner.T0_SLOPE))
        assert defect < mpf(10) ** -20, \
            f"defect {mp.nstr(defect, 5)} >= 1e-20"


def test_criterion_5_pole_distance_consistency():
    """The nearest pole distance from the origin matches the published
    numerical value 2.38 within 5% (consistency, not proof).  The
    estimate read off the origin series and its refinement by
    integration agree far closer than that."""
    scan = evaluator.pole_scan()
    distance = float(scan.best.distance)
    assert abs(distance - 2.38) / 2.38 < 0.05
    assert distance > 37 / 20  # outside the certified pole-free disk
    assert float(scan.gap) < 1e-8


def test_criterion_6_property_suites():
    """Property checks at the stated sample counts: interval
    containment under 10^4 random samples; sup-bound soundness against
    10^4-point grids for the interior polynomial family; the product
    rule on the formal ring; positive homogeneity of the tail
    functionals; frame round-trips to 1e-25."""
    rng = random.Random(20260817)

    # --- interval arithmetic containment, 10^4 random samples -------
    def rand_fraction() -> Fraction:
        return Fraction(rng.randint(-400, 400), rng.randint(1, 60))

    def rand_interval() -> Interval:
        p, q = rand_fraction(), rand_fraction()
        return Interval(min(p, q), max(p, q))

    def sample(iv: Interval) -> Fraction:
        weight = Fraction(rng.randint(0, 64), 64)
        return iv.lo + weight * (iv.hi - iv.lo)

    checked = 0
    while checked < 10_000:
        a, b = rand_interval(), rand_interval()
        op = rng.choice(("add", "sub", "mul", "div"))
        if op == "div" and (b.lo <= 0 <= b.hi):
            continue
        x, y = sample(a), sample(b)
        if op == "add":
            result, point = a + b, x + y
        elif op == "sub":
            result, point = a - b, x - y
        elif op == "mul":
            result, point = a * b, x * y
        else:
            result, point = a / b, x / y
        assert point in result, (op, a, b, x, y)
        checked += 1

    # --- sup-bound soundness vs 10^4-point grids ---------------------
    system = inner.build_system()
    family = {
        "g0": system.g0,
        "g0_prime": system.g0_prime,
        "J1": system.J1,
        "J1_prime": system.J1_prime,
        "J2": system.J2,
        "J2_prime": system.J2_prime,
        "remainder": system.remainder,
        "wronskian_offset": system.wronskian_offset,
    }
    span = Fraction(17, 10)
    grid_points = 10_000
    for name, p in family.items():
        cap = sup_abs(p, 0, span).hi  # certified upper endpoint
        for i in range(grid_points + 1):
            x = span * i / grid_points
            assert abs(poly_eval(p, x)) <= cap, \
                f"{name}: grid value exceeds sup bound at {x}"

    # --- product rule on the formal ring -----------------------------
    def rand_series() -> FormalSeries:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(0, 3), rng.randint(-2, 6), rng.randint(0, 3))
            terms[key] = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        return FormalSeries(terms)

    for _ in range(300):
        a, b = rand_series(), rand_series()
        assert (a * b).ddx() == a.ddx() * b + a * b.ddx()

    # --- positive homogeneity of the tail functionals ----------------
    tails = (functionals.tail1, functionals.tail2,
             functionals.tail3, functionals.tail4)
    for _ in range(50):
        entries = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(0, 4), rng.randint(1, 3))
            entries[key] = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        scale = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        scaled = {key: scale * value for key, value in entries.items()}
        j = rng.randint(5, 9)
        for tail in tails:
            assert tail(j, scaled) == tail(j, entries) * scale, tail.__name__

    # --- frame round-trips to 1e-25 ----------------------------------
    threshold = mpf(10) ** -25
    for _ in range(300):
        with workprec(200):
            radius = mp.mpf(10) ** (2 * rng.random() - 1)
            angle = mp.pi * (2 * rng.random() - 1) * mpf("0.79")
            z = radius * mp.expj(angle)
        point = evaluator.frame_map(z, "z")
        back_x = evaluator.frame_map(point.x, "x")
        back_t = evaluator.frame_map(point.t, "t")
        scale = max(mpf(1), abs(z))
        assert abs(back_x.z - z) < threshold * scale
        assert abs(back_t.z - z) < threshold * scale


def test_criterion_7_fault_injection(tmp_path, monkeypatch):
    """Perturbing a single shipped coefficient by 1e-3 (in either data
    table), or widening the first kernel step bound to 1/50, makes the
    corresponding suite fail with the offending item named."""

    def overlay(tamper):
        target = tmp_path / tamper.__name__
        target.mkdir()
        for name in data.DATA_FILES:
            shutil.copy(data.data_dir() / name, target / name)
        tamper(target)
        monkeypatch.setenv(data.DATA_ENV_VAR, str(target))
        data.clear_cache()

    def restore():
        monkeypatch.delenv(data.DATA_ENV_VAR, raising=False)
        data.clear_cache()

    # (a) one expansion-table coefficient + 1e-3
    def perturb_expansion_table(target):
        path = target / "expansion_tables.json"
        blob = json.loads(path.read_text())
        k, m, coeff = blob["tables"]["r"]["5"][0]
        blob["tables"]["r"]["5"][0] = [
            k, m, str(Fraction(coeff) + Fraction(1, 1000))]
        path.write_text(json.dumps(blob))

    overlay(perturb_expansion_table)
    try:
        report = C.check_symbolic_tables()
        assert not report.verdict
        failing = report.failures()
        assert any(c.name == "r_defect_series_matches_table"
                   for c in failing)
        assert any("first mismatch at" in c.note for c in failing), \
            "offending coefficient not named"
    finally:
        restore()

    # (b) one catalog coefficient + 1e-3
    def perturb_catalog(target):
        path = target / "constant_catalog.json"
        blob = json.loads(path.read_text())
        row = blob["constants"]["E_M"][0]
        row[2] = str(Fraction(row[2]) + Fraction(1, 1000))
        path.write_text(json.dumps(blob))

    overlay(perturb_catalog)
    try:
        report = C.check_omega_4(3)
        assert not report.verdict
        failing = {c.name for c in report.failures()}
        assert "catalog_E_M" in failing, \
            f"offending catalog entry not named; failing: {failing}"
    finally:
        restore()

    # (c) first kernel step bound widened to 1/50
    with monkeypatch.context() as patch:
        patch.setattr(inner, "ALPHA1", Fraction(1, 50))
        report = C.check_inner_interval()
    assert not report.verdict
    failing = {c.name for c in report.failures()}
    assert "value_window" in failing

    # no silent passes: the untampered world still certifies
    assert C.check_symbolic_tables().verdict
    assert C.check_inner_interval().verdict
