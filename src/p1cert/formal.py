"""Exact arithmetic in the formal ring  Q[S][x^(-1/2), x^(1/2), e^x, e^(-x)].

Elements are finite sums

    sum over (k, j, m) of  c[k, j, m] * S^k * x^(-j/2) * e^(-m*x)

with exact rational coefficients.  ``S`` is a formal symbol carried
exactly (it is never evaluated here), ``k`` is a nonnegative integer,
and ``j``, ``m`` are arbitrary integers: ``j = -2`` encodes x^1 and
``m = -2`` encodes e^(2x).

The ring supports addition, multiplication, integer powers, and the
exact derivative

    d/dx [x^(-j/2) e^(-m x)] = -(j/2) x^(-(j+2)/2) e^(-m x)
                               - m x^(-j/2) e^(-m x),

which is what identity checks between differentiated expression trees
and tabulated coefficient families reduce to.  Everything is exact;
nothing here rounds.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from itertools import chain
from typing import Mapping, Tuple, Union

from .numerics import as_fraction
from .result import check
# data imports functionals, which imports this module, so the table
# checks import ``data.expansion_tables`` in place

Key = Tuple[int, int, int]  # (k, j, m) for S^k * x^(-j/2) * e^(-m*x)
Scalar = Union[int, str, Fraction]


def _collect(pairs) -> dict:
    """Sum (key, coefficient) pairs into a dict holding no zero coefficient."""
    acc: dict = {}
    for key, c in pairs:
        if not c:
            continue
        if key in acc:
            c = acc[key] + c
            if not c:
                del acc[key]
                continue
        acc[key] = c
    return acc


class MonomialSum:
    """Exact sparse sum  sum over keys of  coefficient * monomial(key).

    The one core of the formal ring below and of the |S|-polynomials and
    rho-power sums in :mod:`p1cert.functionals`.  A subclass fixes its key
    rule (``_key`` validates a key, ``_mul_key`` multiplies two monomials,
    by default adding their exponents, ``_UNIT`` is the key of 1) and how
    a scalar becomes a coefficient (``_coefficient``).  Coefficients are
    exact ring elements that test false when zero; none is stored.
    """

    __slots__ = ("_terms",)
    _mul_key = staticmethod(operator.add)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "_terms", _collect(
            (self._key(key), self._coefficient(c)) for key, c in items))

    @classmethod
    def _make(cls, terms: dict):
        """Wrap an already collected term dict without revalidating it."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def constant(cls, value):
        return cls({cls._UNIT: value})

    @classmethod
    def _coerce(cls, value):
        return value if isinstance(value, cls) else cls.constant(value)

    # -- inspection -------------------------------------------------------------

    def items(self):
        """Terms as (key, coefficient), in sorted key order."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return self._make(_collect(chain(self._terms.items(),
                                         other._terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return self._make({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        mul_key = self._mul_key
        return self._make(_collect(
            (mul_key(k1, k2), c1 * c2)
            for k1, c1 in self._terms.items()
            for k2, c2 in other._terms.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(
                f"{type(self).__name__} powers must be nonnegative ints")
        result = self.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison -----------------------------------------------------------------

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its coefficient, so it must hash like it
        if self._terms.keys() <= {self._UNIT}:
            return hash(self._terms.get(self._UNIT, 0))
        return hash(frozenset(self._terms.items()))


class FormalSeries(MonomialSum):
    """A finite formal sum of monomials S^k * x^(-j/2) * e^(-m*x)."""

    __slots__ = ()
    _UNIT = (0, 0, 0)
    _coefficient = staticmethod(as_fraction)

    @staticmethod
    def _key(key) -> Key:
        k, j, m = key
        if not (isinstance(k, int) and isinstance(j, int) and isinstance(m, int)):
            raise TypeError(f"term key must be three ints, got {key!r}")
        if k < 0:
            raise ValueError(f"negative power of the symbol S in key {key!r}")
        return (k, j, m)

    @staticmethod
    def _mul_key(a: Key, b: Key) -> Key:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    # -- constructors ---------------------------------------------------------

    @classmethod
    def term(cls, coeff: Scalar, *, k: int = 0, j: int = 0, m: int = 0) -> "FormalSeries":
        return cls({(k, j, m): coeff})

    @classmethod
    def zero(cls) -> "FormalSeries":
        return cls()

    @classmethod
    def one(cls) -> "FormalSeries":
        return cls.constant(1)

    # -- inspection -----------------------------------------------------------

    def coefficient(self, k: int, j: int, m: int) -> Fraction:
        return self._terms.get((k, j, m), Fraction(0))

    def x_slice(self, j: int) -> dict[Tuple[int, int], Fraction]:
        """The coefficient family {(k, m): c} multiplying x^(-j/2)."""
        return {(k, m): c for (k, jj, m), c in self._terms.items() if jj == j}

    def j_values(self) -> list[int]:
        """Sorted distinct j with a nonzero x^(-j/2) slice."""
        return sorted({j for (_, j, _) in self._terms})

    def ddx(self) -> "FormalSeries":
        """Exact derivative with respect to x."""
        return FormalSeries(
            pair
            for (k, j, m), c in self._terms.items()
            for pair in (((k, j + 2, m), -c * Fraction(j, 2)),
                         ((k, j, m), -c * m)))

    def __repr__(self):
        if not self._terms:
            return "FormalSeries(0)"
        bits = []
        for (k, j, m), c in self.items():
            factors = [str(c)]
            if k:
                factors.append(f"S^{k}" if k > 1 else "S")
            if j:
                factors.append(f"x^({Fraction(-j, 2)})")
            if m:
                factors.append(f"e^({-m}x)" if m != 1 else "e^(-x)")
            bits.append("*".join(factors))
        return "FormalSeries(" + " + ".join(bits) + ")"


__all__ = ["MonomialSum", "FormalSeries", "Key"]


#: The x^(-2) coefficient of :func:`outer_equation`, its one typed constant.
_X2 = Fraction(4, 25)


def outer_equation(B: FormalSeries) -> FormalSeries:
    """E[B] = B'' + B'/x - (4/25) B/x^2 - (B^2 - 1)/2: in the outer frame x,
    y = i sqrt(z/6) B(x) has  y'' - 6y^2 - z = i sqrt(z/6) (dx/dz)^2 E[B]."""
    inv_x = FormalSeries.term(1, j=2)
    return (B.ddx().ddx() + inv_x * B.ddx() - _X2 * inv_x * inv_x * B
            - (B * B - 1) * Fraction(1, 2))


def outer_bracket() -> FormalSeries:
    """1 + b/x^2 with b the x^(-2) coefficient of E[1], which
    E[1 + b/x^2] = E[1] - b/x^2 + O(x^(-4)) cancels."""
    b = outer_equation(FormalSeries.one()).coefficient(0, 4, 0)
    return 1 + FormalSeries.term(b, j=4)


# ---------------------------------------------------------------------------
# Closed-form ring elements for the identity suite
# ---------------------------------------------------------------------------
#
# The quantities below are the explicit building blocks of the certified
# construction in the lower wedge of the outer frame: the truncated
# asymptotic quasi-solution h0 built from the exponential unit
# xi = S e^(-x) x^(-1/2), the first-kind solution y1 = e^(-x)(1 + J/sqrt(x)),
# the leading parts of the second-kind solution z2, and the explicit
# remainder z2R0.  Each is a finite element of the ring, so every identity
# involving them and the shipped coefficient tables is decidable exactly.

def xi_unit() -> FormalSeries:
    """The exponential unit  S * e^(-x) / sqrt(x)."""
    return FormalSeries.term(1, k=1, j=1, m=1)


@functools.cache
def h0_series() -> FormalSeries:
    """The five-term quasi-solution plus its two subleading layers (built
    once: the series is an immutable constant)."""
    xi = xi_unit()
    inv_x = FormalSeries.term(1, j=2)
    inv_x2 = FormalSeries.term(1, j=4)
    head = (xi + xi**2 * Fraction(1, 6) + xi**3 * Fraction(1, 48)
            + xi**4 * Fraction(1, 432) + xi**5 * Fraction(5, 20736))
    layer1 = inv_x * (xi * Fraction(-1, 8) + xi**2 * Fraction(-11, 72)
                      + xi**3 * Fraction(-43, 1152))
    layer2 = inv_x2 * xi * Fraction(9, 128)
    return head + layer1 + layer2


def capital_j_series() -> FormalSeries:
    """The six-term correction J with  y1 = e^(-x)(1 + J/sqrt(x))."""
    return FormalSeries({
        (1, 0, 1): Fraction(1, 3),
        (2, 1, 2): Fraction(1, 16),
        (1, 2, 1): Fraction(-19, 72),
        (3, 2, 3): Fraction(1, 108),
        (2, 3, 2): Fraction(-5, 48),
        (4, 3, 4): Fraction(25, 20736),
    })


def small_j_series() -> FormalSeries:
    """The five-term factor j with  J = (S e^(-x)/3)(1 + j/sqrt(x))."""
    return FormalSeries({
        (1, 0, 1): Fraction(3, 16),
        (0, 1, 0): Fraction(-19, 24),
        (2, 1, 2): Fraction(1, 36),
        (1, 2, 1): Fraction(-5, 16),
        (3, 2, 3): Fraction(25, 6912),
    })


def j_prefactor() -> FormalSeries:
    """The prefactor  S e^(-x) / 3  of the factorization of J."""
    return FormalSeries.term(Fraction(1, 3), k=1, m=1)


def j_factorization() -> FormalSeries:
    """J as the factorization  (S e^(-x)/3)(1 + j(x)/sqrt(x))."""
    return j_prefactor() * (FormalSeries.one()
                            + FormalSeries.term(1, j=1) * small_j_series())


def y1_series() -> FormalSeries:
    """First-kind solution  y1 = e^(-x) (1 + J(x)/sqrt(x))."""
    e_minus_x = FormalSeries.term(1, m=1)
    inv_sqrt_x = FormalSeries.term(1, j=1)
    return e_minus_x * (FormalSeries.one() + inv_sqrt_x * capital_j_series())


def y10_series() -> FormalSeries:
    """Leading part of y1:  e^(-x)."""
    return FormalSeries.term(1, m=1)


def y11_series() -> FormalSeries:
    """First correction of y1:  S e^(-2x) / (3 sqrt(x))."""
    return FormalSeries.term(Fraction(1, 3), k=1, j=1, m=2)


def z20_series() -> FormalSeries:
    """Leading part of the second-kind factor:  e^(2x) / 2."""
    return FormalSeries.term(Fraction(1, 2), m=-2)


def z21_series() -> FormalSeries:
    """First correction of the second-kind factor:  -2 S e^x / (3 sqrt(x))."""
    return FormalSeries.term(Fraction(-2, 3), k=1, j=1, m=-1)


def z2R0_series() -> FormalSeries:
    """Explicit part of the second-kind remainder."""
    return FormalSeries({
        (2, 2, 0): Fraction(23, 72),
        (2, 4, 0): Fraction(-361, 3456),
        (3, 3, 1): Fraction(-23, 216),
        (4, 4, 2): Fraction(-577, 41472),
    })


def series_from_table(families) -> FormalSeries:
    """Assemble  sum_j x^(-j/2) * family_j(e^x, S)  from table data.

    ``families`` maps j -> {(k, m): coefficient}; the result carries each
    entry at ring key (k, j, m).
    """
    terms = {}
    for j, family in families.items():
        for (k, m), c in family.items():
            terms[(k, int(j), m)] = c
    return FormalSeries(terms)


# ---------------------------------------------------------------------------
# Table verification suite
# ---------------------------------------------------------------------------

def _series_match(name: str, computed: FormalSeries,
                  expected: FormalSeries, note: str = ""):
    """Exact term-wise equality, naming the first offending term on failure."""
    diff = computed - expected
    if diff.is_zero():
        return check(name, Fraction(0), Fraction(0), "==", note=note)
    (k, j, m), _ = diff.items()[0]
    detail = (
        f"first mismatch at S^{k} x^(-{j}/2) e^(-{m}x): "
        f"computed {computed.coefficient(k, j, m)}, "
        f"table {expected.coefficient(k, j, m)}"
    )
    if note:
        detail = f"{note}; {detail}"
    return check(name, Fraction(1), Fraction(0), "==", note=detail)


def _power_range(name: str, computed: FormalSeries, lo: int, hi: int):
    expected = list(range(lo, hi + 1))
    got = computed.j_values()
    extra = sorted(set(got) ^ set(expected))
    return check(
        name, Fraction(len(extra)), Fraction(0), "==",
        note=(f"half-power slices present: {got}; required: {expected}"
              + (f"; differing: {extra}" if extra else "")),
    )


def _min_exponential(name: str, computed: FormalSeries, m_min: int,
                     label: str):
    worst = min((m for (_, _, m), _ in computed.items()), default=m_min)
    return check(
        name, Fraction(m_min), Fraction(worst), "<=",
        note=f"every {label} term must decay at least like e^(-{m_min}x); "
             f"smallest exponential order found: {worst}",
    )


def _coefficient_equals(name: str, computed: FormalSeries, key, expected):
    k, j, m = key
    return check(
        name, computed.coefficient(k, j, m), Fraction(expected), "==",
        note=f"coefficient of S^{k} x^(-{j}/2) e^(-{m}x)",
    )


def verify_r_table():
    """Defect of the quasi-solution h0 against the shipped r tables.

    Computes  sqrt(x) * E[bracket + h0]  (:func:`outer_equation`) exactly
    in the ring and requires term-wise equality with the table series
    sum_{j=5..9} x^(-j/2) r_j.
    """
    from .data import expansion_tables

    sqrt_x = FormalSeries.term(1, j=-1)
    computed = sqrt_x * outer_equation(outer_bracket() + h0_series())
    expected = series_from_table(expansion_tables()["r"])
    return [
        _series_match("r_defect_series_matches_table", computed, expected),
        _power_range("r_half_power_range", computed, 5, 9),
        _coefficient_equals("r_leading_constant", computed, (0, 7, 0),
                            Fraction(-392, 625)),
        _coefficient_equals("r_spot_coefficient", computed, (2, 5, 2),
                            Fraction(-53, 64)),
    ]


def verify_q_table():
    """Linear-operator defect of y1 against the shipped q tables.

    Computes  y1'' - (1 + h0) y1  exactly and requires equality with
    sum_{j=5..9} x^(-j/2) q_j, plus the structural claim that every q_j
    decays at least like e^(-2x).
    """
    from .data import expansion_tables

    y1 = y1_series()
    computed = y1.ddx().ddx() - (FormalSeries.one() + h0_series()) * y1
    expected = series_from_table(expansion_tables()["q"])
    return [
        _series_match("q_product_series_matches_table", computed, expected),
        _power_range("q_half_power_range", computed, 5, 9),
        _min_exponential("q_exponential_degree_at_least_2", computed, 2, "q"),
        _coefficient_equals("q_spot_coefficient", computed, (1, 5, 2),
                            Fraction(-539, 384)),
    ]


def verify_E_table():
    """Integrand remainder of the second-kind construction vs the E tables."""
    from .data import expansion_tables

    J = capital_j_series()
    e2x = FormalSeries.term(1, m=-2)
    ex = FormalSeries.term(1, m=-1)
    inv_sqrt_x = FormalSeries.term(1, j=1)
    inv_x = FormalSeries.term(1, j=2)
    inv_x32 = FormalSeries.term(1, j=3)
    s_sym = FormalSeries.term(1, k=1)
    computed = (
        e2x * (FormalSeries.one() - 2 * inv_sqrt_x * J
               + 3 * inv_x * J * J)
        - e2x
        + Fraction(2, 3) * s_sym * ex * inv_sqrt_x
        - Fraction(1, 3) * s_sym * ex * inv_x32
        - Fraction(5, 24) * s_sym * s_sym * inv_x
        - Fraction(7, 36) * s_sym * ex * inv_x32
        - z2R0_series().ddx()
    )
    expected = series_from_table(expansion_tables()["E"])
    return [
        _series_match("E_series_matches_table", computed, expected),
        _power_range("E_half_power_range", computed, 5, 8),
        _min_exponential("E_no_constant_exponential", computed, 1, "E"),
        _coefficient_equals("E_spot_coefficient", computed, (3, 5, 1),
                            Fraction(-269, 576)),
    ]


def verify_G04_tables():
    """Product/derivative decompositions feeding the fourth source bound.

    Checks, each exactly:  T = (y10+y11)(R0+R1) against the t tables;
    U = T (z20+z21) against the u tables; the derivative decompositions
    T - d/dx[tau-series] and U - d/dx[nu-series] against the t~ and u~
    tables; and the combination nu-series - (z20+z21) tau-series against
    the p tables; plus the stated decay structure.
    """
    from .data import expansion_tables

    tables = expansion_tables()
    r01 = series_from_table({j: tables["r"][j] for j in (5, 6)})
    t_expected = series_from_table(tables["t"])
    u_expected = series_from_table(tables["u"])
    tau = series_from_table(tables["tau"])
    nu = series_from_table(tables["nu"])
    tt_expected = series_from_table(tables["t_tilde"])
    ut_expected = series_from_table(tables["u_tilde"])
    p_expected = series_from_table(tables["p"])

    T = (y10_series() + y11_series()) * r01
    z2_head = z20_series() + z21_series()
    U = T * z2_head
    tt = T - tau.ddx()
    ut = U - nu.ddx()
    p = nu - z2_head * tau

    return [
        _series_match("t_product_matches_table", T, t_expected),
        _min_exponential("t_no_constant_or_linear", T, 2, "t"),
        _series_match("u_product_matches_table", U, u_expected),
        _min_exponential("u_no_constant", U, 1, "u"),
        _series_match("t_tilde_decomposition_matches_table", tt, tt_expected),
        _series_match("u_tilde_decomposition_matches_table", ut, ut_expected),
        _series_match("p_combination_matches_table", p, p_expected),
        _min_exponential("p_no_constant", p, 1, "p"),
        _coefficient_equals("t_spot_coefficient", T, (4, 5, 5),
                            Fraction(161, 1728)),
        _coefficient_equals("p_spot_coefficient", p, (2, 5, 1),
                            Fraction(53, 192)),
    ]


def convolution_identity_defect() -> Fraction:
    """max over k <= 64 of |sum_{j<=k} (j+1)(k-j+1) - (k+1)(k+2)(k+3)/6|;
    zero means the envelope (k+1) A^(k+2) solves the majorant recurrence."""
    return max(
        abs(sum((j + 1) * (k - j + 1) for j in range(k + 1))
            - Fraction((k + 1) * (k + 2) * (k + 3), 6))
        for k in range(65)
    )


def verify_auxiliary_identities():
    """Closed-form identities that the tail-sum bounds lean on.

    (a) the factorization  J = (S e^(-x)/3)(1 + j(x)/sqrt(x)) of the y1
        correction; (b) the exact geometric-remainder identity
        1 - (1-2u+3u^2)(1+u)^2 = -4u^3(1+u)^2 + 5u^4(1+u) - u^5, which is
        the division-free form of the quartic/quintic remainder split; and
        (c) the discrete comparison identity of
        :func:`convolution_identity_defect`.
    """
    factored = j_factorization()
    results = [
        _series_match("j_factorization_matches", factored,
                      capital_j_series()),
        _coefficient_equals("j_factorization_spot", factored, (2, 1, 2),
                            Fraction(1, 16)),
    ]

    u = FormalSeries.term(1, k=1)  # any formal unit works for (b)
    one = FormalSeries.one()
    lhs = one - (one - 2 * u + 3 * u**2) * (one + u) ** 2
    rhs = -4 * u**3 * (one + u) ** 2 + 5 * u**4 * (one + u) - u**5
    results.append(_series_match("geometric_remainder_identity", lhs, rhs))

    results.append(check(
        "convolution_comparison_identity", convolution_identity_defect(),
        Fraction(0), "==",
        note="sum_{j<=k}(j+1)(k-j+1) == (k+1)(k+2)(k+3)/6, k = 0..64",
    ))
    return results


__all__ += [
    "outer_equation", "outer_bracket",
    "xi_unit", "h0_series", "capital_j_series", "small_j_series",
    "j_prefactor", "j_factorization", "y1_series", "y10_series", "y11_series",
    "z20_series", "z21_series", "z2R0_series",
    "series_from_table",
    "verify_r_table", "verify_q_table", "verify_E_table",
    "verify_G04_tables", "verify_auxiliary_identities",
    "convolution_identity_defect",
]
