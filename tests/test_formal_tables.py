"""Identity suite for the shipped coefficient tables.

Two independent code paths confirm each identity: exact ring arithmetic
(zero tolerance) and high-precision numeric evaluation of the defining
closed forms, with derivatives taken by mpmath's finite differences, so
none of the ring's own calculus is trusted in the oracle.
"""

import json
from fractions import Fraction

import mpmath as mp
import pytest

from p1cert import data, formal


@pytest.fixture(autouse=True)
def _fresh_cache():
    data.clear_cache()
    yield
    data.clear_cache()


# ---------------------------------------------------------------------------
# Exact suite
# ---------------------------------------------------------------------------

SUITES = [
    formal.verify_r_table,
    formal.verify_q_table,
    formal.verify_E_table,
    formal.verify_G04_tables,
    formal.verify_auxiliary_identities,
]


@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.__name__)
def test_suite_passes_exactly(suite):
    results = suite()
    assert all(r.passed for r in results), \
        [r.name for r in results if not r.passed]


def test_expected_check_names_present():
    names = [r.name for s in SUITES for r in s()]
    for required in (
        "r_defect_series_matches_table",
        "q_product_series_matches_table",
        "E_series_matches_table",
        "t_product_matches_table",
        "u_product_matches_table",
        "t_tilde_decomposition_matches_table",
        "u_tilde_decomposition_matches_table",
        "p_combination_matches_table",
        "j_factorization_matches",
        "geometric_remainder_identity",
        "convolution_comparison_identity",
    ):
        assert required in names
    assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# Numeric oracle (independent code path: closed forms + mpmath.diff)
# ---------------------------------------------------------------------------

POINTS = [
    (mp.mpc(-5, 5), mp.mpc(0, "0.61804")),
    (mp.mpc(3, 2), mp.mpc(0, "0.61804")),
    (mp.mpc("0.7", "-1.3"), mp.mpc("0.2", "0.55")),
]


def eval_series(series, x, S):
    total = mp.mpc(0)
    for (k, j, m), c in series.items():
        total += (mp.mpf(c.numerator) / c.denominator
                  * S**k * x ** (-mp.mpf(j) / 2) * mp.e ** (-m * x))
    return total


def h0_num(x, S):
    xi = S * mp.e ** (-x) / mp.sqrt(x)
    return (xi + xi**2 / 6 + xi**3 / 48 + xi**4 / 432 + 5 * xi**5 / 20736
            + (-xi / 8 - 11 * xi**2 / 72 - 43 * xi**3 / 1152) / x
            + 9 * xi / (128 * x**2))


def J_num(x, S):
    return (S * mp.e ** (-x) / 3 + S**2 * mp.e ** (-2 * x) / (16 * mp.sqrt(x))
            - 19 * S * mp.e ** (-x) / (72 * x)
            + S**3 * mp.e ** (-3 * x) / (108 * x)
            - 5 * S**2 * mp.e ** (-2 * x) / (48 * x ** mp.mpf("1.5"))
            + 25 * S**4 * mp.e ** (-4 * x) / (20736 * x ** mp.mpf("1.5")))


def y1_num(x, S):
    return mp.e ** (-x) * (1 + J_num(x, S) / mp.sqrt(x))


def z2R0_num(x, S):
    return (23 * S**2 / (72 * x) - 361 * S**2 / (3456 * x**2)
            - 23 * S**3 * mp.e ** (-x) / (216 * x ** mp.mpf("1.5"))
            - 577 * S**4 * mp.e ** (-2 * x) / (41472 * x**2))


def assert_close(a, b, scale=1):
    tol = mp.mpf("1e-18") * max(1, abs(mp.mpc(scale)))
    assert abs(a - b) < tol, f"|{a} - {b}| = {abs(a - b)} >= {tol}"


@pytest.mark.parametrize("x,S", POINTS, ids=["left", "right", "low"])
def test_r_identity_numeric_oracle(x, S):
    with mp.workprec(350):
        h0 = h0_num(x, S)
        d1 = mp.diff(lambda t: h0_num(t, S), x, 1)
        d2 = mp.diff(lambda t: h0_num(t, S), x, 2)
        lhs = mp.sqrt(x) * (d2 + d1 / x - h0 - h0**2 / 2
                            - mp.mpf(392) / 625 / x**4)
        rhs = eval_series(
            formal.series_from_table(data.expansion_tables()["r"]), x, S)
        assert_close(lhs, rhs, scale=rhs)


@pytest.mark.parametrize("x,S", POINTS, ids=["left", "right", "low"])
def test_q_identity_numeric_oracle(x, S):
    with mp.workprec(350):
        d2 = mp.diff(lambda t: y1_num(t, S), x, 2)
        lhs = d2 - (1 + h0_num(x, S)) * y1_num(x, S)
        rhs = eval_series(
            formal.series_from_table(data.expansion_tables()["q"]), x, S)
        assert_close(lhs, rhs, scale=rhs)


@pytest.mark.parametrize("x,S", POINTS, ids=["left", "right", "low"])
def test_E_identity_numeric_oracle(x, S):
    with mp.workprec(350):
        J = J_num(x, S)
        lhs = (mp.e ** (2 * x) * (1 - 2 * J / mp.sqrt(x) + 3 * J**2 / x)
               - mp.e ** (2 * x)
               + 2 * S * mp.e**x / (3 * mp.sqrt(x))
               - S * mp.e**x / (3 * x ** mp.mpf("1.5"))
               - 5 * S**2 / (24 * x)
               - 7 * S * mp.e**x / (36 * x ** mp.mpf("1.5"))
               - mp.diff(lambda t: z2R0_num(t, S), x, 1))
        rhs = eval_series(
            formal.series_from_table(data.expansion_tables()["E"]), x, S)
        assert_close(lhs, rhs, scale=mp.e ** (2 * mp.re(x)))


@pytest.mark.parametrize("x,S", POINTS, ids=["left", "right", "low"])
def test_product_identities_numeric_oracle(x, S):
    tables = data.expansion_tables()
    with mp.workprec(350):
        r01 = eval_series(
            formal.series_from_table({j: tables["r"][j] for j in (5, 6)}),
            x, S)
        y_head = mp.e ** (-x) + S * mp.e ** (-2 * x) / (3 * mp.sqrt(x))
        z_head = mp.e ** (2 * x) / 2 - 2 * S * mp.e**x / (3 * mp.sqrt(x))
        T = y_head * r01
        U = T * z_head
        tau = formal.series_from_table(tables["tau"])
        nu = formal.series_from_table(tables["nu"])
        scale = mp.e ** (2 * abs(mp.re(x)))
        assert_close(
            T, eval_series(formal.series_from_table(tables["t"]), x, S),
            scale=scale)
        assert_close(
            U, eval_series(formal.series_from_table(tables["u"]), x, S),
            scale=scale)
        assert_close(
            T - mp.diff(lambda t: eval_series(tau, t, S), x, 1),
            eval_series(formal.series_from_table(tables["t_tilde"]), x, S),
            scale=scale)
        assert_close(
            U - mp.diff(lambda t: eval_series(nu, t, S), x, 1),
            eval_series(formal.series_from_table(tables["u_tilde"]), x, S),
            scale=scale)
        assert_close(
            eval_series(nu, x, S) - z_head * eval_series(tau, x, S),
            eval_series(formal.series_from_table(tables["p"]), x, S),
            scale=scale)


# ---------------------------------------------------------------------------
# P-I in the outer frame: the one reduction the closed forms start from
# ---------------------------------------------------------------------------

#: The oracle: the bracket 1 - 4/(25 x^2) and the source -392/(625 x^4)
#: that P-I leaves at it.
BRACKET = 1 - formal.FormalSeries.term(Fraction(4, 25), j=4)
SOURCE = formal.FormalSeries.term(Fraction(-392, 625), j=8)


def test_outer_bracket_and_source_exactly():
    assert formal.outer_bracket() == BRACKET
    assert formal.outer_equation(formal.outer_bracket()) == SOURCE


@pytest.mark.parametrize("z", [mp.mpc(2, 1), mp.mpc(5, -3),
                               mp.mpc("0.7", "0.2")], ids=str)
def test_outer_equation_is_painleve_one(z):
    # y = i sqrt(z/6) B(x(z)) against P-I's defect y'' - 6 y^2 - z, with
    # y'' by mpmath's finite differences
    B = formal.outer_bracket() + formal.FormalSeries.term(Fraction(3, 7), j=6)
    E = formal.outer_equation(B)
    with mp.workprec(200):
        def x_of(z):
            return mp.expjpi(mp.mpf(1) / 4) / 30 * (24 * z) ** (mp.mpf(5) / 4)

        def y(z):
            return 1j * mp.sqrt(z / 6) * eval_series(B, x_of(z), 0)

        x = x_of(z)
        lhs = mp.diff(y, z, 2) - 6 * y(z) ** 2 - z
        rhs = (1j * mp.sqrt(z / 6) * (5 * x / (4 * z)) ** 2
               * eval_series(E, x, 0))
        assert abs(lhs - rhs) < mp.mpf("1e-50") * abs(rhs)


def test_outer_reduction_has_one_copy(monkeypatch):
    # Moving the operator's one constant moves every reader of the
    # bracket and the source: the source becomes -39/50
    from p1cert import certificates, evaluator

    monkeypatch.setattr(formal, "_X2", Fraction(1, 5))
    assert formal.outer_equation(formal.outer_bracket()) == \
        formal.FormalSeries.term(Fraction(-39, 50), j=8)

    def failing(report):
        return {c.name for c in report.failures()}

    assert "r_defect_series_matches_table" in failing(
        certificates.check_symbolic_tables())
    assert failing(certificates.check_z0_bounds()) >= {
        "C1_reference", "C2_reference", "matching_error_slope"}
    assert "catalog_M_G1" in failing(certificates.check_omega_4())
    evaluator._constants.cache_clear()
    try:
        prec = 128
        layer0 = evaluator._constants(prec).regions["omegaI"][0][0]
        assert layer0 == (1 << prec, 0, -round(Fraction(1 << prec, 5)))
    finally:
        monkeypatch.undo()
        evaluator._constants.cache_clear()


# ---------------------------------------------------------------------------
# Fault injection: a single perturbed table coefficient is caught and named
# ---------------------------------------------------------------------------

def test_perturbed_r_coefficient_is_named(tmp_path, monkeypatch):
    src = data.data_dir()
    for name in data.DATA_FILES:
        (tmp_path / name).write_bytes((src / name).read_bytes())
    tables = json.loads((tmp_path / "expansion_tables.json").read_text())
    k, m, coeff = tables["tables"]["r"]["5"][0]
    tables["tables"]["r"]["5"][0] = [
        k, m, str(Fraction(coeff) + Fraction(1, 1000))]
    (tmp_path / "expansion_tables.json").write_text(json.dumps(tables))

    monkeypatch.setenv(data.DATA_ENV_VAR, str(tmp_path))
    data.clear_cache()
    results = formal.verify_r_table()
    bad = [r for r in results if not r.passed]
    assert bad, "perturbed coefficient must fail the r suite"
    names = {r.name for r in bad}
    assert "r_defect_series_matches_table" in names
    match = next(r for r in bad if r.name == "r_defect_series_matches_table")
    assert f"S^{k}" in match.note and f"e^(-{m}x)" in match.note

    q_ok = formal.verify_q_table()
    failing = [r.name for r in q_ok if not r.passed]
    assert not failing, f"untouched families must keep passing: {failing}"
