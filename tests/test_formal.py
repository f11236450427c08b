"""Tests for the exact formal ring in S, half-powers of x, and e^(-x).

The Leibniz rule and associativity are checked exactly (no floats in
the properties); one numeric cross-check evaluates a ring product with
mpmath at a real point and compares against the directly composed
expression.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from p1cert.formal import FormalSeries
from p1cert.functionals import PowerSum, QSqrt2, SPoly

F = Fraction


def xi() -> FormalSeries:
    """S * e^(-x) / sqrt(x), the basic decaying building block."""
    return FormalSeries.term(1, k=1, j=1, m=1)


def evaluate(series: FormalSeries, x, S):
    """mpmath evaluation of a formal series at numeric x, S."""
    total = mpmath.mpf(0) if mpmath.im(x) == 0 and mpmath.im(S) == 0 else mpmath.mpc(0)
    for (k, j, m), c in series.items():
        term = mpmath.mpf(c.numerator) / c.denominator
        total += term * S**k * mpmath.power(x, mpmath.mpf(-j) / 2) * mpmath.e**(-m * x)
    return total


series_strategy = st.builds(
    FormalSeries,
    st.dictionaries(
        keys=st.tuples(st.integers(0, 3), st.integers(-4, 6), st.integers(-2, 3)),
        values=st.fractions(min_value=-5, max_value=5),
        max_size=5,
    ),
)

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)

spoly_strategy = st.builds(
    SPoly,
    st.dictionaries(
        keys=st.integers(0, 3),
        values=st.builds(QSqrt2, small_fractions, small_fractions),
        max_size=3,
    ),
)

powersum_strategy = st.builds(
    PowerSum,
    st.dictionaries(
        keys=st.fractions(min_value=-2, max_value=3, max_denominator=4),
        values=spoly_strategy,
        max_size=3,
    ),
)

# Three elements of one algebra; every algebra built on the shared
# monomial-sum core must satisfy the same ring axioms.
same_type_triples = st.one_of(*(
    st.tuples(s, s, s)
    for s in (series_strategy, spoly_strategy, powersum_strategy)
))


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        s = FormalSeries({(0, 0, 0): 0, (1, 1, 1): F(1, 2)})
        assert len(s) == 1
        assert s.coefficient(1, 1, 1) == F(1, 2)
        assert s.coefficient(0, 0, 0) == 0

    def test_duplicate_keys_accumulate(self):
        s = FormalSeries([((0, 1, 0), F(1, 3)), ((0, 1, 0), F(2, 3))])
        assert s == FormalSeries.term(1, j=1)

    def test_negative_symbol_power_rejected(self):
        with pytest.raises(ValueError):
            FormalSeries({(-1, 0, 0): 1})

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            FormalSeries.term(0.5)

    def test_immutable(self):
        s = xi()
        with pytest.raises(AttributeError):
            s._terms = {}

    def test_equality_with_scalar(self):
        assert FormalSeries.term(3) == 3
        assert FormalSeries.zero() == 0
        assert xi() != 1


class TestRingOps:
    def test_square_of_monomial(self):
        assert xi() ** 2 == FormalSeries.term(1, k=2, j=2, m=2)

    def test_binomial_cube(self):
        one_plus = FormalSeries.one() + xi()
        expanded = (
            FormalSeries.one()
            + 3 * xi()
            + FormalSeries.term(3, k=2, j=2, m=2)
            + FormalSeries.term(1, k=3, j=3, m=3)
        )
        assert one_plus ** 3 == expanded

    def test_scalar_arithmetic(self):
        s = xi()
        assert (s * F(1, 2)) + (s * F(1, 2)) == s
        assert s - s == 0
        assert 2 * s == s + s
        assert s * 0 == 0

    def test_x_slice_and_j_values(self):
        s = FormalSeries.term(2, j=5, m=1) + FormalSeries.term(3, k=1, j=5, m=2) \
            + FormalSeries.term(7, j=6)
        assert s.j_values() == [5, 6]
        assert s.x_slice(5) == {(0, 1): F(2), (1, 2): F(3)}

    @settings(max_examples=150, deadline=None)
    @given(abc=same_type_triples)
    def test_mul_associative_and_distributive(self, abc):
        a, b, c = abc
        left, right = (a * b) * c, a * (b * c)
        assert left == right
        assert hash(left) == hash(right)
        spread, collected = a * (b + c), a * b + a * c
        assert spread == collected
        assert hash(spread) == hash(collected)
        assert a**3 == a * a * a


class TestDerivative:
    def test_known_derivative(self):
        # d/dx [x^(-1/2) e^(-x)] = -1/2 x^(-3/2) e^(-x) - x^(-1/2) e^(-x)
        s = FormalSeries.term(1, j=1, m=1)
        expected = FormalSeries.term("-1/2", j=3, m=1) + FormalSeries.term(-1, j=1, m=1)
        assert s.ddx() == expected

    def test_growing_exponential(self):
        # d/dx e^(2x) = 2 e^(2x)
        s = FormalSeries.term(1, m=-2)
        assert s.ddx() == FormalSeries.term(2, m=-2)

    def test_constant_derivative_vanishes(self):
        assert FormalSeries.term(5).ddx() == 0

    @settings(max_examples=100, deadline=None)
    @given(a=series_strategy, b=series_strategy)
    def test_leibniz_rule(self, a, b):
        assert (a * b).ddx() == a.ddx() * b + a * b.ddx()

    @settings(max_examples=60, deadline=None)
    @given(a=series_strategy)
    def test_derivative_linear(self, a):
        assert (a + a).ddx() == 2 * a.ddx()


class TestNumericOracle:
    def test_product_matches_direct_composition(self):
        mpmath.mp.dps = 50
        f = FormalSeries.one() + xi()                      # 1 + S e^(-x)/sqrt(x)
        g = FormalSeries.term(1, m=-2) + FormalSeries.term("-5/24", k=2, j=2)
        product = f * f * g
        x = mpmath.mpf(2)
        S = mpmath.mpf("0.61803")
        direct = (1 + S * mpmath.e**(-x) / mpmath.sqrt(x)) ** 2 * (
            mpmath.e**(2 * x) - F(5, 24) * S**2 / x
        )
        assert abs(evaluate(product, x, S) - direct) < mpmath.mpf("1e-45")

    def test_derivative_matches_finite_difference(self):
        mpmath.mp.dps = 60
        s = (FormalSeries.one() + xi()) ** 3 + FormalSeries.term("7/5", j=-2, m=1)
        x = mpmath.mpf("1.75")
        S = mpmath.mpf("0.5")
        h = mpmath.mpf("1e-20")
        numeric = (evaluate(s, x + h, S) - evaluate(s, x - h, S)) / (2 * h)
        assert abs(evaluate(s.ddx(), x, S) - numeric) < mpmath.mpf("1e-35")
