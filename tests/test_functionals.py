"""Tests for the weighted tail functionals and the exact value algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p1cert.formal import FormalSeries
from p1cert.numerics import (SLIM_BITS, Interval, root_enclosure,
                             stokes_modulus, truncation_window)
from p1cert.functionals import (PowerSum, QSqrt2, SPoly, majorant, tail1,
                                tail2, tail3, tail4)

F = Fraction

qsqrt2_strategy = st.builds(
    QSqrt2,
    st.fractions(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9),
)


class TestQSqrt2:
    def test_product_of_conjugates(self):
        assert QSqrt2(1, 1) * QSqrt2(1, -1) == QSqrt2(-1)

    def test_scalar_mixing(self):
        assert QSqrt2(1, 2) + 3 == QSqrt2(4, 2)
        assert 2 * QSqrt2("1/2", "1/4") == QSqrt2(1, "1/2")
        assert QSqrt2(5) - QSqrt2(0, 1) == QSqrt2(5, -1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            QSqrt2(0.5)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (3, -2, 1),    # 3 - 2*sqrt2 = 0.17...
            (-3, 2, -1),   # -3 + 2*sqrt2 = -0.17...
            (-2, 2, 1),    # -2 + 2*sqrt2 = 0.82...
            (2, -2, -1),   # 2 - 2*sqrt2 = -0.82...
            (0, 0, 0),
            (0, -1, -1),
            (7, 0, 1),
        ],
    )
    def test_sign_cases(self, a, b, expected):
        assert QSqrt2(a, b).sign() == expected

    @settings(max_examples=150, deadline=None)
    @given(x=qsqrt2_strategy, y=qsqrt2_strategy)
    def test_sign_is_multiplicative(self, x, y):
        assert (x * y).sign() == x.sign() * y.sign()
        assert (-x).sign() == -x.sign()

    def test_enclosure(self):
        enc = PowerSum.constant(QSqrt2(1, 1)).enclosure(1)
        w = truncation_window("2.41421356237309")
        assert enc.lo in w and enc.hi in w
        assert enc.width < F(1, 10**20)


class TestSPoly:
    def test_square(self):
        one_plus_s = SPoly({0: 1, 1: 1})
        assert one_plus_s * one_plus_s == SPoly({0: 1, 1: 2, 2: 1})

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            SPoly({-1: 1})

    def test_nonnegative_flag(self):
        assert SPoly({0: QSqrt2(-2, 2), 2: 1}).is_nonnegative()  # -2+2*sqrt2 > 0
        assert not SPoly({1: QSqrt2(2, -2)}).is_nonnegative()

    def test_enclosure_at_exact_point(self):
        p = PowerSum.constant(SPoly({0: "1/2", 1: 3}))
        val = p.enclosure(1, s_abs=Interval(F(1, 4)))
        assert F(5, 4) in val
        assert val.width < F(1, 10**25)

    def test_zero_coefficients_collapse(self):
        assert SPoly({1: QSqrt2(1, 1)}) - SPoly({1: QSqrt2(1, 1)}) == SPoly()
        assert SPoly().is_zero()


class TestPowerSum:
    def test_exponents_add_under_multiplication(self):
        half = PowerSum.monomial(1, "1/2")
        one = PowerSum.monomial(3, 1)
        assert half * one == PowerSum.monomial(3, "3/2")

    def test_pow_and_distribution(self):
        p = PowerSum.constant(1) + PowerSum.monomial(1, "1/2")
        expanded = (
            PowerSum.constant(1)
            + PowerSum.monomial(2, "1/2")
            + PowerSum.monomial(1, 1)
        )
        assert p**2 == expanded

    def test_nonincreasing_certification(self):
        good = PowerSum.monomial(SPoly({1: QSqrt2(1, 1)}), "7/2") + PowerSum.constant(2)
        assert good.nonincreasing_in_rho()
        assert not PowerSum.monomial(1, -1).nonincreasing_in_rho()      # grows
        assert not PowerSum.monomial(QSqrt2(2, -2), 1).nonincreasing_in_rho()  # < 0

    def test_enclosure_exact_power(self):
        val = PowerSum.monomial(1, "1/2").enclosure(4)
        assert F(1, 2) in val
        assert val.width < F(1, 10**20)

    def test_enclosure_combines_symbols(self):
        # (1 + sqrt2) * |S|^0 * rho^-1 at rho = 2
        val = PowerSum.monomial(QSqrt2(1, 1), 1).enclosure(2)
        w = truncation_window("1.20710678118")
        assert val.lo in w and val.hi in w

    def test_monotone_sup_witness(self):
        # value at rho=3 dominates value at rho=9 for a certified sum
        p = PowerSum.monomial(SPoly({0: 1, 2: "5/24"}), "3/2")
        assert p.nonincreasing_in_rho()
        assert p.enclosure(9).hi < p.enclosure(3).lo


# A grid far finer than the kernel's 2^-SLIM_BITS.  A root of a rational
# of a few dozen bits that is not on it sits much farther from the
# kernel's grid points than the bracket is wide, so the reference below
# lies inside the kernel's enclosure.
_FINE_TOL = F(1, 2 ** 600)

power_sums = st.dictionaries(
    st.integers(-6, 6).map(lambda n: F(n, 2)),
    st.dictionaries(st.integers(0, 5), qsqrt2_strategy, max_size=3)
    .map(SPoly),
    max_size=5).map(PowerSum)
rhos = st.fractions(min_value=1, max_value=20, max_denominator=1000)
s_ends = st.fractions(min_value=0, max_value=2, max_denominator=2 ** 40)


def _reference_enclosure(ps, rho, s_abs):
    """The value by exact Interval arithmetic, term by term, with sqrt(2)
    and each rho^(-e) = (rho^(-p))^(1/q) bracketed on the fine grid."""
    sqrt2 = root_enclosure(2, 2, _FINE_TOL)
    total, scale = Interval(0), F(0)
    for e, poly in ps.items():
        r = root_enclosure(Interval(rho) ** -e.numerator, e.denominator,
                           _FINE_TOL)
        for k, c in poly.items():
            s_k = s_abs ** k
            total = total + (Interval(c.a) + sqrt2 * c.b) * s_k * r
            scale += (abs(c.a) + 2 * abs(c.b) + 2) * (1 + s_k.hi) * (1 + r.hi)
    return total, scale


class TestEnclosureKernel:
    @settings(max_examples=150, deadline=None)
    @given(ps=power_sums, rho=rhos,
           s=st.none() | st.tuples(s_ends, s_ends).map(sorted))
    def test_contains_the_exact_value_and_is_a_few_units_wider(self, ps,
                                                               rho, s):
        s_abs = stokes_modulus() if s is None else Interval(*s)
        got = ps.enclosure(rho, None if s is None else s_abs)
        want, scale = _reference_enclosure(ps, rho, s_abs)
        unit = F(1, 2 ** SLIM_BITS)
        assert want.lo in got and want.hi in got
        # each floor or ceiling moves a term by a unit of 2^-B times its
        # size, and the final outward rounding by one unit per end
        assert got.width <= want.width + unit * (2 + 4 * scale)
        assert (got.lo * 2 ** SLIM_BITS).denominator == 1
        assert (got.hi * 2 ** SLIM_BITS).denominator == 1

    def test_a_point_on_the_grid_comes_back_as_a_point(self):
        # (1 + 2^-3 |S|^2) rho^(-1/2) at rho = 4 and |S| = 1/2
        ps = PowerSum.monomial(SPoly({0: 1, 2: F(1, 8)}), "1/2")
        assert ps.enclosure(4, Interval(F(1, 2))) == Interval(F(33, 64))

    def test_negative_exponents_and_coefficients(self):
        # -rho^2 + (3 - 2 sqrt2) at rho = 3: exactly -6 - 2 sqrt2
        ps = (PowerSum.monomial(-1, -2)
              + PowerSum.constant(QSqrt2(3, -2)))
        got = ps.enclosure(3, Interval(0))
        want = Interval(-6) - root_enclosure(2, 2, _FINE_TOL) * 2
        assert want.lo in got and want.hi in got
        assert got.width <= F(4, 2 ** SLIM_BITS)

    def test_rejects_a_nonpositive_rho_and_a_negative_modulus(self):
        with pytest.raises(ValueError):
            PowerSum.constant(1).enclosure(0)
        with pytest.raises(ValueError):
            PowerSum.constant(1).enclosure(1, Interval(F(-1), F(1)))


@pytest.mark.parametrize("value, scalar", [
    (FormalSeries.term(3), 3),
    (FormalSeries(), 0),
    (SPoly.constant(F(1, 2)), F(1, 2)),
    (SPoly(), 0),
    (PowerSum.constant(2), 2),
    (PowerSum.constant(QSqrt2(1, 1)), QSqrt2(1, 1)),
    (PowerSum(), 0),
    (QSqrt2(5), 5),
    (QSqrt2(), 0),
], ids=["FormalSeries-3", "FormalSeries-0", "SPoly-1/2", "SPoly-0",
        "PowerSum-2", "PowerSum-1+sqrt2", "PowerSum-0", "QSqrt2-5",
        "QSqrt2-0"])
def test_constants_hash_like_the_scalar_they_equal(value, scalar):
    assert value == scalar
    assert hash(value) == hash(scalar)
    assert len({value, scalar}) == 1


class TestTails:
    def test_tail1_values(self):
        got = tail1(7, {(0, 0): "-392/625", (1, 1): "3/16"})
        assert got == SPoly({0: F(2, 5) * F(392, 625), 1: F(2, 5) * F(3, 16)})

    def test_tail2_values(self):
        got = tail2(5, {(0, 1): "-1/3", (0, 2): "1/5"})
        assert got == SPoly({0: F(2, 3) + F(1, 5)})

    def test_tail3_values(self):
        got = tail3(7, {(2, 0): "-5/48"})
        assert got == SPoly({2: F(1, 2) * F(5, 48)})

    def test_tail4_weight(self):
        # j = 5: (25 + 10 - 2)/(5*4) = 33/20
        assert tail4(5, {(0, 1): 1}) == SPoly({0: F(33, 20)})

    @pytest.mark.parametrize("j", range(2, 31))
    def test_tail4_weight_identity(self, j):
        # (j^2+2j-2)/(j(j-1)) = 2/j + j/(j-1), the two routes in the
        # radial-integral estimate
        assert F(j * j + 2 * j - 2, j * (j - 1)) == F(2, j) + F(j, j - 1)

    @pytest.mark.parametrize(
        "func, bad_j",
        [(tail1, 2), (tail2, 0), (tail3, 3), (tail4, 1)],
    )
    def test_index_preconditions(self, func, bad_j):
        with pytest.raises(ValueError):
            func(bad_j, {(0, 1): 1})

    @pytest.mark.parametrize("func", [tail2, tail4])
    def test_m_zero_rejected_for_integrated_tails(self, func):
        with pytest.raises(ValueError):
            func(5, {(0, 0): 1})

    @pytest.mark.parametrize("func", [tail1, tail3])
    def test_growing_exponentials_rejected(self, func):
        with pytest.raises(ValueError):
            func(7, {(0, -1): 1})

    def test_zero_entries_ignored(self):
        assert tail1(5, {(0, 2): 0}).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.dictionaries(
            keys=st.tuples(st.integers(0, 3), st.integers(1, 6)),
            values=st.fractions(min_value=-5, max_value=5),
            min_size=1,
            max_size=5,
        ),
        scale=st.fractions(min_value=-4, max_value=4),
    )
    def test_absolute_homogeneity(self, entries, scale):
        scaled = {key: scale * c for key, c in entries.items()}
        for func, j in ((tail1, 7), (tail2, 5), (tail3, 8), (tail4, 6)):
            assert func(j, scaled) == abs(scale) * func(j, entries)


class TestMajorant:
    def test_sums_absolute_values_by_half_power(self):
        series = FormalSeries({(1, 0, 1): F(-3, 16), (0, 1, 0): F(19, 24),
                               (2, 1, 2): F(-1, 36), (3, 4, 0): F(2)})
        assert majorant(series) == PowerSum({
            F(0): SPoly.s_power(1, F(3, 16)),
            F(1, 2): SPoly({0: F(19, 24), 2: F(1, 36)}),
            F(2): SPoly.s_power(3, 2),
        })

    def test_shift_lowers_every_exponent(self):
        series = FormalSeries({(2, 2, 0): F(-23, 72), (3, 3, 1): F(5)})
        assert majorant(series, shift=2) == PowerSum({
            F(0): SPoly.s_power(2, F(23, 72)),
            F(1, 2): SPoly.s_power(3, 5),
        })

    def test_growing_exponential_rejected(self):
        with pytest.raises(ValueError, match="m >= 0"):
            majorant(FormalSeries.term(1, k=1, j=2, m=-1))

    def test_half_power_below_the_shift_rejected(self):
        with pytest.raises(ValueError, match="j >= 2"):
            majorant(FormalSeries.term(1, j=1, m=1), shift=2)
