"""Interval arithmetic tests.

The expected values here were fixed from independent oracles before the
implementation was written: pi from a Machin arctangent series evaluated in
pure rational arithmetic with explicit tail bounds, roots and the Stokes
modulus from mpmath at 50 significant digits.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1cert import certificates
from p1cert.numerics import (
    CERT_TOL,
    Interval,
    _floor_dyadic,
    dyadic_ceil,
    dyadic_floor,
    floor_root,
    frac_pow,
    grid_root,
    pi_enclosure,
    root_enclosure,
    sqrt2_enclosure,
    sqrt_enclosure,
    stokes_modulus,
    truncation_window,
)


def machin_pi_bracket(tol: Fraction) -> Interval:
    """Independent rational enclosure of pi: 16*atan(1/5) - 4*atan(1/239).

    atan is summed as the alternating series; for 0 < x < 1 the truncation
    error is bounded by (and has the sign of) the first omitted term, so a
    one-term widening gives a rigorous bracket.
    """

    def atan_bracket(inv: int) -> Interval:
        x = Fraction(1, inv)
        total = Fraction(0)
        term = x
        k = 0
        while term > tol / 64:
            total += term if k % 2 == 0 else -term
            k += 1
            term = x ** (2 * k + 1) / (2 * k + 1)
        # remainder is in [0, term] for even k, [-term, 0] for odd k
        if k % 2 == 0:
            return Interval(total, total + term)
        return Interval(total - term, total)

    return 16 * atan_bracket(5) - 4 * atan_bracket(239)


class TestInterval:
    def test_rejects_inverted_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1, 0)

    def test_rejects_float_endpoints(self):
        with pytest.raises(TypeError):
            Interval(0.1, 0.2)

    def test_scalar_coercion(self):
        v = Interval(Fraction(1, 3)) + 1
        assert v.lo == Fraction(4, 3) and v.hi == Fraction(4, 3)

    def test_mul_signs(self):
        a = Interval(-2, 3)
        b = Interval(-5, 1)
        assert (a * b) == Interval(-15, 10)

    def test_division_by_straddling_interval_raises(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1) / Interval(-1, 1)

    def test_even_power_straddling_zero(self):
        assert Interval(-2, 1) ** 2 == Interval(0, 4)

    def test_negative_power(self):
        v = Interval(2, 4) ** -2
        assert v == Interval(Fraction(1, 16), Fraction(1, 4))

    def test_abs(self):
        assert abs(Interval(-3, 1)) == Interval(0, 3)
        assert abs(Interval(-3, -1)) == Interval(1, 3)

    def test_public_constructor_still_checks_order(self):
        with pytest.raises(ValueError):
            Interval(2, 1)


class TestPi:
    def test_stored_bracket_matches_machin_oracle(self):
        oracle = machin_pi_bracket(Fraction(1, 10**50))
        assert oracle.intersects(pi_enclosure())
        # the stored bracket must genuinely contain the oracle midpoint
        assert oracle.mid in pi_enclosure()

    def test_width_below_spec(self):
        assert pi_enclosure().width < Fraction(1, 10**30)


class TestRoots:
    @pytest.mark.parametrize(
        "a, n",
        [
            (Fraction(2), 2),
            (Fraction(2), 3),
            (Fraction(10, 7), 5),
            (Fraction(204, 5), 4),
            (Fraction(1, 999), 3),
            (Fraction(10**40), 7),
        ],
    )
    def test_against_mpmath(self, a, n):
        enc = root_enclosure(a, n, Fraction(1, 10**35))
        with mpmath.workdps(60):
            ref = mpmath.root(mpmath.mpf(a.numerator) / a.denominator, n)
            assert mpmath.mpf(float(enc.lo)) <= ref <= mpmath.mpf(float(enc.hi)) or (
                Fraction(str(ref)) in enc
            )
        assert enc.width <= Fraction(1, 10**35)

    def test_root_is_verified_not_trusted(self):
        # (lo, hi) must bracket by exact powering
        enc = root_enclosure(Fraction(5), 2)
        assert enc.lo**2 <= 5 <= enc.hi**2

    def test_zero(self):
        assert root_enclosure(0, 3) == Interval(0)

    def test_exact_roots_come_back_as_points(self):
        assert root_enclosure(Fraction(81, 16), 4) == Interval(Fraction(3, 2))
        assert sqrt_enclosure(Fraction(9, 4)) == Interval(Fraction(3, 2))
        assert root_enclosure(Fraction(10**400), 2) == Interval(10**200)

    @pytest.mark.parametrize("a", [Fraction(10**400), Fraction(1, 10**400)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_extreme_magnitudes_bracket_within_cert_tol(self, a, n):
        # far outside the float range: 10^400 overflows a double and
        # 10^-400 underflows to zero
        enc = root_enclosure(a, n)
        assert enc.lo ** n <= a <= enc.hi ** n
        assert enc.width <= CERT_TOL

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            root_enclosure(Interval(-1, 1), 2)

    def test_frac_pow_matches_oracle(self):
        # 2**(5/4)  = 2.37841423000544213343... (mpmath, 30 digits)
        # 2**(-5/4) = 0.42044820762685727151...
        enc = frac_pow(2, 5, 4)
        w = truncation_window("2.37841423000544213343")
        assert enc.lo in w and enc.hi in w
        inv = frac_pow(2, -5, 4)
        w = truncation_window("0.42044820762685727151")
        assert inv.lo in w and inv.hi in w

    def test_stokes_modulus_frozen_window(self):
        # oracle: sqrt(6/(5*pi)) = 0.61803872323710332854... (mpmath)
        enc = stokes_modulus()
        for w in (truncation_window("0.618038723237103328"),
                  Interval(Fraction("0.618038"), Fraction("0.618040"))):
            assert enc.lo in w and enc.hi in w


class TestCertTol:
    def test_certificates_use_the_numerics_constant(self):
        assert certificates.CERT_TOL is CERT_TOL

    def test_point_roots_are_bracketed_to_cert_tol(self):
        for enc in (sqrt2_enclosure(), sqrt_enclosure(5)):
            assert 0 < enc.width <= CERT_TOL

    def test_frac_pow_width_follows_from_its_root(self):
        # 2^(5/4) = r^5 with r = 2^(1/4) bracketed to CERT_TOL, and
        # d(r^5)/dr = 5 r^4 <= 5 * 2.0001
        enc = frac_pow(2, 5, 4)
        assert 0 < enc.width <= 5 * Fraction(20001, 10000) * CERT_TOL

    def test_stokes_modulus_width_is_two_brackets(self):
        # one CERT_TOL bracket per endpoint of the 1e-40 wide 6/(5 pi)
        enc = stokes_modulus()
        assert 0 < enc.width <= 2 * CERT_TOL + Fraction(1, 10**40)


class TestTruncationWindow:
    def test_positive(self):
        w = truncation_window("0.91863")
        assert w.lo == Fraction(91863, 100000)
        assert w.hi == Fraction(91864, 100000)

    def test_negative(self):
        w = truncation_window("-0.5394994")
        assert w.hi == Fraction(-5394994, 10**7)
        assert w.lo == Fraction(-5394995, 10**7)


# -- containment property tests ------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=997
)


@st.composite
def interval_and_point(draw):
    a = draw(rationals)
    b = draw(rationals)
    lo, hi = min(a, b), max(a, b)
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=64))
    return Interval(lo, hi), lo + t * (hi - lo)


@settings(max_examples=300, deadline=None)
@given(interval_and_point(), interval_and_point(), st.integers(0, 6))
def test_ops_contain_pointwise_results(ab, cd, n):
    u, x = ab
    v, y = cd
    assert x + y in u + v
    assert x - y in u - v
    assert x * y in u * v
    assert x**n in u**n
    if not v.straddles_zero():
        assert x / y in u / v


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_product_is_the_four_product_hull(a, b, c, d):
    # mixed signs, with the nonnegative and scalar fast paths among them
    u = Interval(min(a, b), max(a, b))
    v = Interval(min(c, d), max(c, d))
    products = [x * y for x in (u.lo, u.hi) for y in (v.lo, v.hi)]
    for w in (u * v, v * u):
        assert w == Interval(min(products), max(products))
        assert type(w.lo) is Fraction and type(w.hi) is Fraction


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**300),
       st.integers(min_value=1, max_value=2**100),
       st.integers(2, 5), st.integers(-8, 90))
def test_grid_root_is_the_outward_bracket(num, den, n, k):
    a, b = grid_root(num, den, n, k)
    scaled = Fraction(num, den) * Fraction(2) ** (n * k)
    assert a ** n <= scaled <= b ** n
    assert (a + 1) ** n > scaled and (b == 0 or (b - 1) ** n < scaled)
    assert b - a <= 1


def test_containment_bulk_random():
    # cheap seeded bulk run kept separate from hypothesis so the acceptance
    # suite can call it with a large sample count
    run_containment_samples(2000, seed=7)


def run_containment_samples(count: int, seed: int = 0) -> None:
    rng = random.Random(seed)

    def rnd_frac():
        return Fraction(rng.randint(-400, 400), rng.randint(1, 64))

    for _ in range(count):
        a, b, c, d = (rnd_frac() for _ in range(4))
        u = Interval(min(a, b), max(a, b))
        v = Interval(min(c, d), max(c, d))
        t = Fraction(rng.randint(0, 16), 16)
        x = u.lo + t * u.width
        y = v.lo + (1 - t) * v.width
        n = rng.randint(0, 5)
        assert x + y in u + v
        assert x * y in u * v
        assert x - y in u - v
        assert x**n in u**n
        if not v.straddles_zero():
            assert x / y in u / v
        if u.lo >= 0:
            k = rng.randint(2, 4)
            r = root_enclosure(u, k, Fraction(1, 10**12))
            assert r.lo**k <= u.hi and r.hi**k >= u.lo


# -- outward dyadic rounding ---------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                    max_denominator=10**6),
       st.integers(min_value=4, max_value=140))
def test_dyadic_rounding_is_outward(a, bits):
    assert dyadic_floor(a, bits) <= a <= dyadic_ceil(a, bits)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-2**300, max_value=2**300),
       st.integers(min_value=1, max_value=2**200),
       st.integers(min_value=1, max_value=140))
def test_integer_floor_is_the_floor_on_its_grid(num, den, bits):
    # the grid follows the ratio as given, not reduced
    m, e = _floor_dyadic(num, den, bits)
    assert e == num.bit_length() - den.bit_length() - bits
    step = Fraction(2) ** e
    assert m * step <= Fraction(num, den) < (m + 1) * step


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**400), st.integers(2, 9))
def test_floor_root_is_the_exact_floor(m, n):
    r = floor_root(m, n)
    assert r ** n <= m < (r + 1) ** n
