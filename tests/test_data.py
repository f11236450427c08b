"""Bundled data: shape invariants, frozen spot values, override and
replacement mechanics."""

import hashlib
import json
import shutil
from fractions import Fraction

import pytest

from p1cert import data, inner
from p1cert.numerics import truncation_window
from p1cert.polybound import poly_derivative, poly_eval


@pytest.fixture(autouse=True)
def _fresh_cache():
    data.clear_cache()
    yield
    data.clear_cache()


# ---------------------------------------------------------------------------
# expansion tables
# ---------------------------------------------------------------------------


def test_tables_have_expected_families_and_columns():
    tables = data.expansion_tables()
    assert set(tables) == set(data.TABLE_SHAPE)
    for family, (j_lo, j_hi, _, _) in data.TABLE_SHAPE.items():
        assert set(tables[family]) == set(range(j_lo, j_hi + 1)), family


def test_tables_structural_invariants():
    """Every family has a fixed m-k offset and a fixed S-power parity."""
    tables = data.expansion_tables()
    for family, (_, _, offset, parity) in data.TABLE_SHAPE.items():
        for j, entries in tables[family].items():
            assert entries, (family, j)
            for (k, m), coeff in entries.items():
                assert coeff != 0, (family, j, k, m)
                assert m == k + offset, (family, j, k, m)
                assert (k - j) % 2 == parity, (family, j, k, m)


def test_tables_exponential_decay_requirements():
    """Families fed to integral tail bounds must decay (or not grow)."""
    tables = data.expansion_tables()
    # products and their antiderivative defects: strictly decaying, m >= 2
    for family in ("t", "tau", "t_tilde"):
        for entries in tables[family].values():
            assert all(m >= 2 for (_, m) in entries)
    # families multiplied by one growing exponential: still m >= 1
    for family in ("u", "nu", "u_tilde", "p"):
        for entries in tables[family].values():
            assert all(m >= 1 for (_, m) in entries)
    # defect and potential families: nonnegative m only
    for family in ("r", "q", "E"):
        for entries in tables[family].values():
            assert all(m >= 0 for (_, m) in entries)


def test_tables_row_count_checksum():
    tables = data.expansion_tables()
    assert sum(len(e) for t in tables.values() for e in t.values()) == 124


def test_tables_spot_values():
    tables = data.expansion_tables()
    assert tables["r"][7][(0, 0)] == Fraction(-392, 625)
    assert tables["q"][5][(1, 2)] == Fraction(-539, 384)
    assert tables["E"][8][(8, 6)] == Fraction(625, 143327232)
    assert tables["u_tilde"][9][(6, 5)] == Fraction(24353, 1244160)
    assert tables["p"][8][(9, 8)] == Fraction(-11, 40310784)


# ---------------------------------------------------------------------------
# constant catalog
# ---------------------------------------------------------------------------


def test_catalog_constants_are_monotone_majorants():
    """Each constant must certify its own sup over rho >= rho0 mechanically."""
    catalog = data.constant_catalog()
    assert set(catalog) == {
        "E_M", "M_q", "M_Lq", "M_G1", "M_G2", "M_G3",
        "M_G40", "M_G41", "M_G5", "M_G6", "M_G7",
    }
    for name, ps in catalog.items():
        assert ps.nonincreasing_in_rho(), name


def test_catalog_spot_enclosures():
    catalog = data.constant_catalog()
    # rho-free slot of M_G2 at |S| = 1/2 equals 53/160/4 + 161/4320/16 + 7/20736/64
    val = catalog["M_G2"].enclosure(Fraction(10**6), s_abs=Fraction(1, 2))
    expected = (
        Fraction(53, 160) / 4 + Fraction(161, 4320) / 16 + Fraction(7, 20736) / 64
    )
    # the rho**(-1/2) column only adds a sliver at rho = 10**6
    assert expected <= val.hi
    assert 0 < val.lo - expected < Fraction(1, 10**3)
    assert val.width < Fraction(1, 10**4)


def test_reference_values_parse_as_truncation_windows():
    refs = data.reference_values()
    assert len(refs) == 18
    for name, printed in refs.items():
        window = truncation_window(printed)
        assert window.lo >= 0, name
        assert window.width > 0, name


# ---------------------------------------------------------------------------
# inner ODE data
# ---------------------------------------------------------------------------

# the right endpoint t = 0 in s = t - t0, t0 = -|z0| from the ray row
S_END = -inner.T0

# frozen endpoint values (computed exactly from the stored coefficients,
# printed here to 10 places as regression pins)
ENDPOINT_PINS = [
    ("J1", 0, "-1.0636336463"),
    ("J2", 0, "-0.2493937669"),
    ("J1", 1, "0.7917762843"),
    ("J2", 1, "-0.7545517834"),
]


def test_inner_polynomial_endpoint_pins():
    polys = data.inner_polynomials()
    for name, order, printed in ENDPOINT_PINS:
        p = polys[name]
        for _ in range(order):
            p = poly_derivative(p)
        exact = poly_eval(p, S_END)
        assert abs(exact - Fraction(printed)) < Fraction(1, 10**9), (name, order)


def test_inner_polynomial_initial_values():
    polys = data.inner_polynomials()
    g0, j1, j2 = polys["g0"], polys["J1"], polys["J2"]
    assert poly_eval(j1, Fraction(0)) == 1
    assert poly_eval(poly_derivative(j1), Fraction(0)) == 0
    assert poly_eval(j2, Fraction(0)) == 0
    assert poly_eval(poly_derivative(j2), Fraction(0)) == 1
    assert poly_eval(g0, Fraction(0)) == Fraction(-280, 519)
    assert poly_eval(poly_derivative(g0), Fraction(0)) == Fraction(150, 1013)


def test_inner_polynomial_endpoint_matches_disk_center_targets():
    """g0 at the right endpoint sits close to the stated center values."""
    polys = data.inner_polynomials()
    g0 = polys["g0"]
    val = poly_eval(g0, S_END) - inner.CENTER_VALUE
    der = poly_eval(poly_derivative(g0), S_END) - inner.CENTER_SLOPE
    assert abs(val) < Fraction(1, 10**6)
    assert abs(der) < Fraction(4, 10**5)
    assert val > 0
    assert der < 0


def test_inner_partitions_are_ascending_t_grids():
    parts = data.inner_partitions()
    assert set(parts) == {
        "remainder", "J1", "J1_prime", "J2", "J2_prime", "W", "A", "B1",
        "corner_plus", "corner_minus", "corner_prime_plus", "corner_prime_minus",
    }
    for name, pts in parts.items():
        assert pts[0] == Fraction(-17, 10), name
        assert pts[-1] == 0, name
        assert all(a < b for a, b in zip(pts, pts[1:])), name


# ---------------------------------------------------------------------------
# fingerprints and directory override
# ---------------------------------------------------------------------------


def test_fingerprints_are_stable_sha256():
    first = data.file_fingerprints()
    second = data.file_fingerprints()
    assert first == second
    assert set(first) == set(data.DATA_FILES)
    for digest in first.values():
        assert len(digest) == 64
        int(digest, 16)


def test_env_override_swaps_data(tmp_path, monkeypatch):
    baseline = data.inner_polynomials()["g0"]
    fingerprints = data.file_fingerprints()

    for name in data.DATA_FILES:
        shutil.copy(data.data_dir() / name, tmp_path / name)
    doc = json.loads((tmp_path / "inner_ode.json").read_text())
    doc["polynomials"]["g0"][0] = "-281/519"
    (tmp_path / "inner_ode.json").write_text(json.dumps(doc))

    monkeypatch.setenv(data.DATA_ENV_VAR, str(tmp_path))
    data.clear_cache()
    perturbed = data.inner_polynomials()["g0"]
    assert perturbed[0] == Fraction(-281, 519)
    assert perturbed[0] != baseline[0]
    changed = data.file_fingerprints()
    assert changed["inner_ode.json"] != fingerprints["inner_ode.json"]
    assert changed["expansion_tables.json"] == fingerprints["expansion_tables.json"]


def test_missing_override_file_raises(tmp_path, monkeypatch):
    monkeypatch.setenv(data.DATA_ENV_VAR, str(tmp_path))
    data.clear_cache()
    with pytest.raises(FileNotFoundError):
        data.expansion_tables()


def test_fingerprint_describes_the_parsed_bytes(tmp_path, monkeypatch):
    """A file edited in place after it was parsed is still reported with
    the digest of the bytes that were parsed, not of the new bytes."""
    for name in data.DATA_FILES:
        shutil.copy(data.data_dir() / name, tmp_path / name)
    monkeypatch.setenv(data.DATA_ENV_VAR, str(tmp_path))
    data.clear_cache()
    target = tmp_path / "constant_catalog.json"
    parsed_bytes = target.read_bytes()
    catalog = data.constant_catalog()

    doc = json.loads(parsed_bytes)
    doc["reference_values"]["values"]["M_1"] = "0.99999"
    target.write_text(json.dumps(doc))

    assert data.constant_catalog() == catalog
    assert data.file_fingerprints()["constant_catalog.json"] == \
        hashlib.sha256(parsed_bytes).hexdigest()


def test_replaced_reads_in_place_and_restores_when_the_body_raises(tmp_path):
    original = data.file_fingerprints()
    outer = tmp_path / "outer.json"
    inner = tmp_path / "inner.json"
    doc = json.loads((data.data_dir() / "inner_ode.json").read_text())
    outer.write_text(json.dumps(doc, indent=1))
    inner.write_text(json.dumps(doc, indent=2))

    def active() -> str:
        return data.file_fingerprints()["inner_ode.json"]

    with data.replaced({"inner_ode.json": outer}):
        assert active() == hashlib.sha256(outer.read_bytes()).hexdigest()
        with pytest.raises(RuntimeError):
            with data.replaced({"inner_ode.json": str(inner)}):
                assert active() == \
                    hashlib.sha256(inner.read_bytes()).hexdigest()
                raise RuntimeError("body failed")
        assert active() == hashlib.sha256(outer.read_bytes()).hexdigest()
    assert data.file_fingerprints() == original


def test_a_replaced_block_records_the_files_it_parses():
    data.mark_parsed(["inner_ode.json"])
    before = data.parsed_files()
    with data.replaced({}):
        assert data.parsed_files() == ()
        data.constant_catalog()
        data.expansion_tables()
        # in DATA_FILES order, whatever the order of parsing
        assert data.parsed_files() == ("expansion_tables.json",
                                       "constant_catalog.json")
    assert data.parsed_files() == before


def test_a_malformed_file_is_not_recorded_as_parsed(tmp_path):
    path = tmp_path / "ode.json"
    path.write_text("{}")
    with data.replaced({"inner_ode.json": path}):
        with pytest.raises(data.PreconditionError):
            data.inner_polynomials()
        assert data.parsed_files() == ()


# ---------------------------------------------------------------------------
# typed objects, built once per bytes read
# ---------------------------------------------------------------------------


def test_editing_a_returned_object_leaves_the_next_call_unchanged():
    tables = data.expansion_tables()
    rows = dict(tables["r"][7])
    tables["r"][7][(0, 0)] = Fraction(1)
    del tables["q"]
    catalog = data.constant_catalog()
    catalog.clear()
    polys = data.inner_polynomials()
    g0 = list(polys["g0"])
    polys["g0"][0] = Fraction(1)
    partitions = data.inner_partitions()
    partitions[next(iter(partitions))].append(Fraction(1))
    data.reference_values()["M_1"] = "0.99999"

    again = data.expansion_tables()
    assert again["r"][7] == rows and "q" in again
    assert set(data.constant_catalog()) >= {"E_M", "M_G1"}
    assert data.inner_polynomials()["g0"] == g0
    assert all(Fraction(1) not in points
               for points in data.inner_partitions().values())
    assert data.reference_values()["M_1"] != "0.99999"


def test_replaced_with_a_perturbed_catalog_gives_its_rows(tmp_path):
    shipped = data.constant_catalog()
    doc = json.loads((data.data_dir() / "constant_catalog.json").read_text())
    exponent, k, a, b = doc["constants"]["M_q"][0]
    doc["constants"]["M_q"][0] = [exponent, k,
                                  str(Fraction(a) + Fraction(1, 7)), b]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    with data.replaced({"constant_catalog.json": path}):
        perturbed = data.constant_catalog()
    assert perturbed["M_q"] != shipped["M_q"]
    assert perturbed["E_M"] == shipped["E_M"]
    assert data.constant_catalog() == shipped


def test_a_cached_read_is_still_recorded_as_parsed():
    data.expansion_tables()
    data.inner_partitions()
    with data.replaced({}):
        assert data.parsed_files() == ()
        data.expansion_tables()
        data.inner_partitions()
        assert data.parsed_files() == ("expansion_tables.json",
                                       "inner_ode.json")
