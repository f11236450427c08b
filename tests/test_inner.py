"""Disk-segment certificate: sup-norm chain, fixed point, fault injection."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p1cert import certificates, data, inner
from p1cert.polybound import sup_abs_partition

EXPECTED_CHECK_NAMES = [
    "remainder_sup",
    "wronskian_offset_sup",
    "J1_sup",
    "J2_sup",
    "J1_prime_sup",
    "J2_prime_sup",
    "J1_over_W_sup",
    "J2_over_W_sup",
    "damping_sup",
    "restoring_sup",
    "corner_plus",
    "corner_minus",
    "corner_prime_plus",
    "corner_prime_minus",
    "integral_defect_value",
    "integral_defect_slope",
    "contraction_factor",
    "ball_invariance_value",
    "ball_invariance_slope",
    "value_window",
    "slope_window",
]

# frozen certified sup values (upper ends; slack factor is 1/1000)
FROZEN_SUPS = {
    "remainder_sup": Fraction("1.105396e-4"),
    "wronskian_offset_sup": Fraction("1.218365e-4"),
    "J1_sup": Fraction("1.173723"),
    "J2_sup": Fraction("0.4136226"),
    "J1_prime_sup": Fraction("2.426595"),
    "J2_prime_sup": Fraction("1.000772"),
    "corner_plus": Fraction("5.309828e-3"),
    "corner_minus": Fraction("4.841065e-3"),
    "corner_prime_plus": Fraction("9.977623e-3"),
    "corner_prime_minus": Fraction("1.083485e-2"),
}


@pytest.fixture(scope="module")
def certificate():
    return inner.certify()


def test_all_checks_pass(certificate):
    assert [r.name for r in certificate] == EXPECTED_CHECK_NAMES
    assert all(r.passed for r in certificate), \
        [r.name for r in certificate if not r.passed]


def test_certified_sups_match_frozen_values(certificate):
    by_name = {r.name: r for r in certificate}
    for name, frozen in FROZEN_SUPS.items():
        value = by_name[name].value
        # frozen values were printed from this chain to 7 digits
        assert abs(value - frozen) <= abs(frozen) * Fraction(1, 10**5), name


def test_operator_norm_constants_are_exact():
    assert inner.K1_BOUND == Fraction(306, 175)
    assert inner.K2_BOUND == Fraction(3468, 875)


def test_defect_budget_is_exact():
    r0 = Fraction(1, 158)
    expected = (
        Fraction(1, 8619)
        + 2 * Fraction(1, 1216) * r0
        + Fraction(1, 492) * r0
        + 6 * r0 * r0
    )
    assert inner.defect_budget() == expected


def test_contraction_factor_is_exact():
    r0 = Fraction(1, 158)
    lipschitz = max(inner.K1_BOUND, inner.K2_BOUND / 2) * (
        2 * Fraction(1, 1216) + Fraction(1, 492) + 12 * r0
    )
    assert inner.contraction_factor() == lipschitz
    assert lipschitz < Fraction(1, 6)


def test_window_values_match_frozen_chain(certificate):
    by_name = {r.name: r for r in certificate}
    assert abs(by_name["value_window"].value - Fraction("5.976072e-3")) < Fraction(
        1, 10**8
    )
    assert abs(by_name["slope_window"].value - Fraction("9.245957e-3")) < Fraction(
        1, 10**8
    )


def test_remainder_enclosure_is_tight():
    system = inner.build_system()
    enc = sup_abs_partition(system.remainder, system.partitions["remainder"])
    assert Fraction("1.104e-4") < enc.lo <= enc.hi < Fraction("1.106e-4")
    assert enc.hi < inner.REMAINDER_BOUND


def certify_tampered(tmp_path, tamper):
    """inner.certify() over a copy of inner_ode.json whose polynomials
    ``tamper`` edits in place, read as ``--partitions`` reads it."""
    path = tmp_path / "inner_ode.json"
    blob = json.loads((data.data_dir() / path.name).read_text())
    polys = {name: [Fraction(c) for c in coeffs]
             for name, coeffs in blob["polynomials"].items()}
    tamper(polys)
    blob["polynomials"] = {name: [str(c) for c in coeffs]
                           for name, coeffs in polys.items()}
    path.write_text(json.dumps(blob))
    with data.replaced({path.name: path}):
        return inner.certify()


def test_perturbed_polynomial_fails_by_name(tmp_path):
    """A 1e-3 bump in one coefficient must break named sup-norm checks.

    The bump enters the linearized coefficients through second derivatives,
    so the tight damping/restoring budgets are the ones that blow.
    """
    def bump(polys):
        polys["J1"][2] += Fraction(1, 1000)

    results = certify_tampered(tmp_path, bump)
    assert not all(r.passed for r in results)
    failed = {r.name for r in results if not r.passed}
    assert "damping_sup" in failed
    assert "restoring_sup" in failed


def test_perturbed_center_polynomial_fails_remainder(tmp_path):
    def bump(polys):
        polys["g0"][0] += Fraction(1, 1000)

    results = certify_tampered(tmp_path, bump)
    failed = {r.name for r in results if not r.passed}
    assert "remainder_sup" in failed
    assert "value_window" in failed


def test_widened_alpha_box_fails_corners(monkeypatch):
    monkeypatch.setattr(inner, "ALPHA1", Fraction(1, 50))
    results = inner.certify()
    failed = {r.name for r in results if not r.passed}
    assert "corner_plus" in failed
    assert "corner_minus" in failed
    assert "value_window" in failed
    # untouched polynomial bounds still pass
    passed = {r.name for r in results if r.passed}
    assert "remainder_sup" in passed
    assert "wronskian_offset_sup" in passed


def test_degenerate_wronskian_reports_instead_of_raising(tmp_path):
    def double_j1(polys):
        polys["J1"] = [2 * c for c in polys["J1"]]

    results = certify_tampered(tmp_path, double_j1)
    failed = {r.name for r in results if not r.passed}
    assert "wronskian_offset_sup" in failed
    assert "J1_over_W_sup" in failed


# --------------------------------------------------------------------------
# the Maclaurin recurrence and its integer kernel
# --------------------------------------------------------------------------


@pytest.mark.parametrize("center", [Fraction(0), Fraction(3, 2),
                                    Fraction(-17, 10)])
def test_maclaurin_series_solves_the_forced_equation(center):
    # g'' - 6 g^2 - (center + s) vanishes through s^(count - 2), with the
    # square summed in full rather than by pairs
    count = 12
    c = inner.maclaurin_extend(Fraction(-2, 7), Fraction(5, 3), center, count)
    assert len(c) == count + 1
    forcing = [center, Fraction(1)] + [Fraction(0)] * count
    for k in range(count - 1):
        square = sum(c[j] * c[k - j] for j in range(k + 1))
        assert (k + 1) * (k + 2) * c[k + 2] - 6 * square - forcing[k] == 0


@pytest.mark.parametrize("e", [-3, 0, 1])
def test_kernel_mantissas_lie_within_their_radii_of_the_exact_series(e):
    # exact data at a nonzero real centre: every floor of the kernel,
    # forcing included, stays inside the radius taylor_radii gives it
    bits, count = 64, 24
    value, slope, center = (-3 << 61) // 7, (5 << 62) // 9, 11 << 60
    re, im = inner.taylor_fixed((value, 0), (slope, 0), (center, 0), count,
                                e, bits)
    radii = inner.taylor_radii(re, im, 0, 0, e, bits)
    exact = inner.maclaurin_extend(
        *(Fraction(x, 1 << bits) for x in (value, slope, center)), count)
    for k, (c, mr, mi, r) in enumerate(zip(exact, re, im, radii)):
        b = c * Fraction(2) ** (bits + e * k)
        assert abs(b - mr) + abs(mi) <= r, k


def _two_sum_radii(re, im, r0, r1, e, bits):
    """taylor_radii's recurrence with the two Cauchy sums written apart,
    2 sum_j |b_j| r_(k-j) + sum_j r_j r_(k-j): the reference for its one
    convolution of the weights 2 |b_j| + r_j."""
    mag = [abs(x) + abs(y) for x, y in zip(re, im)]
    rad = [r0, r1 << e if e >= 0 else -(-r1 >> -e) + 2]
    for k in range(len(re) - 2):
        num = 6 * (2 * sum(mag[j] * rad[k - j] for j in range(k + 1))
                   + sum(rad[j] * rad[k - j] for j in range(k + 1)))
        rad.append(-(-num // ((k + 1) * (k + 2) << (bits - 2 * e))) + 2)
    return rad


@settings(max_examples=60, deadline=None)
@given(re=st.lists(st.integers(-2**80, 2**80), min_size=2, max_size=40),
       im_seed=st.integers(-2**80, 2**80),
       r0=st.integers(0, 2**20), r1=st.integers(0, 2**20),
       e=st.integers(-4, 3), bits=st.integers(16, 96))
def test_radii_convolution_equals_the_two_sums(re, im_seed, r0, r1, e, bits):
    im = [(x * im_seed) >> 80 for x in re]
    assert inner.taylor_radii(re, im, r0, r1, e, bits) \
        == _two_sum_radii(re, im, r0, r1, e, bits)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_every_kernel_returns_count_plus_one_coefficients(count):
    assert len(inner.maclaurin_extend(Fraction(1), Fraction(2), Fraction(3),
                                      count)) == count + 1
    re, im = inner.taylor_fixed((1 << 60, 0), (1 << 59, 0), (0, 0), count,
                                1, 64)
    assert len(re) == len(im) == count + 1
    assert len(certificates.maclaurin_enclosures(count, Fraction(1, 108))) \
        == count + 1


# --------------------------------------------------------------------------
# the Laurent recurrence at a double pole
# --------------------------------------------------------------------------


def _gaussian_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


@pytest.mark.parametrize("pole, h", [
    ((Fraction(12, 5), 0), (Fraction(-1, 16), 0)),
    ((Fraction(-3, 7), 0), (Fraction(5, 2), 0)),
    ((Fraction(7, 4), Fraction(5, 4)), (Fraction(1, 7), Fraction(-2, 7))),
])
def test_laurent_series_leaves_only_its_floors_in_the_equation(pole, h):
    # With a_k = m_k 2^-bits and t = p + u, the truncated series
    # g = sum_{k<=N} a_k u^(k-2) leaves in g'' - 6 g^2 - t, at u^(j-4),
    # (j-2)(j-3) a_j - 6 sum_{i=0}^{j} a_i a_{j-i} - [j=4] p - [j=5].
    # Summed in full, in exact Gaussian integers at 2^-2bits, that is 0
    # through j = 3 and at the free j = 6, and otherwise only a_j's one
    # floor: under |(j-6)(j+1)| + 1 units of 2^-bits, for every j <= N,
    # i.e. below u^(N-3).  The series of d/dp and d/dh leave the same in
    # the differentiated equation, 12 sum a_i d_{j-i} in place of the
    # square and the forcing [j=4] of t's derivative in p.
    bits = 96
    one = 1 << bits
    p, hh = (tuple(x.numerator * one // x.denominator for x in z)
             for z in (pole, h))
    a, d, e = (list(zip(*s))
               for s in inner.laurent_fixed(p, hh, one >> 3, 1, bits))
    n = len(a) - 1
    assert n >= 9 and len(d) == len(e) == n + 1
    assert a[:4] == [(one, 0), (0, 0), (0, 0), (0, 0)]
    assert (a[6], d[6], e[6]) == (hh, (0, 0), (one, 0))
    for coeffs, weight, forcing in (
            (a, 6, {4: (p[0] << bits, p[1] << bits), 5: (one << bits, 0)}),
            (d, 12, {4: (one << bits, 0)}),
            (e, 12, {})):
        for j in range(n + 1):
            total = [0, 0]
            for i in range(j + 1):
                x = _gaussian_mul(a[i], coeffs[j - i])
                total = [total[0] + x[0], total[1] + x[1]]
            lead = (j - 2) * (j - 3)
            defect = [lead * c * one - weight * s - f
                      for c, s, f in zip(coeffs[j], total,
                                         forcing.get(j, (0, 0)))]
            allowed = (0 if j <= 3 or j == 6
                       else (abs((j - 6) * (j + 1)) + 1) * one)
            assert all(abs(x) <= allowed for x in defect), (weight, j, defect)
