"""End-to-end tests of the command-line interface.

Covers the documented exit-code contract (0 pass / 1 failed inequality /
2 precondition), the three output formats, byte-identical repeated
invocations, pinned output digests, data-file replacement via
--tables/--partitions, and validation of every JSON envelope against the
shipped schema.
"""

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import shutil
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from mpmath import mp, workprec

from p1cert import cli, data, evaluator
from p1cert.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" /
     "report_schema.json").read_text())

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


def validate(document) -> None:
    jsonschema.validate(document, SCHEMA)


# ---------------------------------------------------------------------------
# Shared expensive invocations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_all_json():
    result = invoke("verify", "--scope", "all", "--format", "json")
    assert result.exit_code == 0
    return json.loads(result.output)


@pytest.fixture(scope="module")
def pole_json():
    result = invoke("pole", "--format", "json")
    assert result.exit_code == 0
    return json.loads(result.output)


@pytest.fixture(scope="module")
def constants_rho3_json():
    result = invoke("constants", "--rho", "3", "--format", "json")
    assert result.exit_code == 0
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# Tampered data files
# ---------------------------------------------------------------------------


@pytest.fixture()
def tampered_tables(tmp_path):
    doc = json.loads((data.data_dir() / "expansion_tables.json").read_text())
    entry = doc["tables"]["r"]["5"][0]
    entry[2] = str(Fraction(entry[2]) + Fraction(1, 1000))
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def tampered_interior(tmp_path):
    doc = json.loads((data.data_dir() / "inner_ode.json").read_text())
    coeffs = doc["polynomials"]["g0"]
    coeffs[0] = str(Fraction(coeffs[0]) + Fraction(1, 1000))
    path = tmp_path / "inner_ode.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_scope_all_passes_with_true_verdict(self, verify_all_json):
        doc = verify_all_json
        assert doc["verdict"] is True
        assert doc["scope"] == "all"
        names = [r["name"] for r in doc["reports"]]
        assert "inner_interval" in names
        assert "omega_12" in names
        assert "omega_4" in names
        assert "taylor_radius" in names
        assert "z0_bounds" in names
        assert "symbolic_tables" in names
        assert sum(1 for n in names if n.startswith("omega_I")) == 2

    def test_scope_all_summary_states_the_region(self, verify_all_json):
        summary = verify_all_json["summary"]
        assert "arg z in [-3pi/5, pi]" in summary
        assert "|z| < 37/20" in summary

    def test_scope_all_matches_schema(self, verify_all_json):
        validate(verify_all_json)

    def test_reports_embed_data_fingerprints(self, verify_all_json):
        assert verify_all_json["fingerprints"] == data.file_fingerprints()

    def test_report_serialization(self, verify_all_json):
        for report in verify_all_json["reports"]:
            assert isinstance(report["name"], str)
            assert isinstance(report["verdict"], bool)
            for row in report["inequalities"]:
                assert set(row) >= {"desc", "lhs", "lhs_float", "rel",
                                    "rhs", "rhs_float", "pass", "note"}
                assert len(row["lhs"]) == 2 and len(row["rhs"]) == 2
                lo, hi = (Fraction(row["lhs"][0]), Fraction(row["lhs"][1]))
                assert lo <= hi

    def test_omega4_rho_below_three_exits_2(self):
        result = invoke("verify", "--scope", "omega4", "--rho", "2")
        assert result.exit_code == 2
        assert "precondition violated" in result.output

    def test_scope_all_rho_below_three_exits_2(self):
        result = invoke("verify", "--scope", "all", "--rho", "2")
        assert result.exit_code == 2

    def test_omega4_accepts_fractional_rho(self):
        result = invoke("verify", "--scope", "omega4", "--rho", "7/2",
                        "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["rho"] == "7/2"
        assert doc["verdict"] is True
        validate(doc)

    def test_scope_inner_text_prints_exact_rationals(self):
        result = invoke("verify", "--scope", "inner")
        assert result.exit_code == 0
        assert "verdict: PASS" in result.output
        # exact targets beside decimal renderings
        assert "1/8619 (0.00011602274)" in result.output
        assert "1/167 (0.00598802395)" in result.output

    def test_tampered_interior_file_fails_naming_bounds(
            self, tampered_interior):
        result = invoke("verify", "--scope", "inner",
                        "--partitions", tampered_interior)
        assert result.exit_code == 1
        assert "verdict: FAIL" in result.output
        assert "[FAIL] remainder_sup" in result.output
        assert "[FAIL] value_window" in result.output

    def test_tampered_run_does_not_poison_later_runs(self,
                                                     tampered_interior):
        bad = invoke("verify", "--scope", "inner",
                     "--partitions", tampered_interior)
        assert bad.exit_code == 1
        good = invoke("verify", "--scope", "inner")
        assert good.exit_code == 0

    def test_scope_radius_passes(self):
        result = invoke("verify", "--scope", "radius", "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert [r["name"] for r in doc["reports"]] == ["taylor_radius"]
        validate(doc)

    def test_csv_has_one_row_per_check(self):
        result = invoke("verify", "--scope", "inner", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header.startswith("report,check,lhs_lo,lhs_hi,rel,rhs,pass")
        assert all(row.startswith("inner_interval,") for row in rows)
        assert len(rows) == 21

    def test_unknown_scope_rejected(self):
        result = invoke("verify", "--scope", "everything")
        assert result.exit_code == 2

    def test_unknown_flag_rejected(self):
        result = invoke("verify", "--frobnicate")
        assert result.exit_code == 2
        assert "No such option" in result.output


# ---------------------------------------------------------------------------
# data-file replacement
# ---------------------------------------------------------------------------


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def data_copy(tmp_path):
    """A directory holding copies of the bundled data files."""
    copy = tmp_path / "data"
    copy.mkdir()
    for name in data.DATA_FILES:
        shutil.copy(data.data_dir() / name, copy / name)
    return copy


def _redumped(name, target):
    """Same content as the bundled ``name``, different bytes."""
    doc = json.loads((data.data_dir() / name).read_text())
    target.write_text(json.dumps(doc, indent=1))
    return target


def _invoke_edited(data_copy, monkeypatch, name, edit, args):
    """Run ``args`` after ``edit`` rewrote the data file ``name`` in
    ``data_copy``: as the value of ``args``' trailing option, or else as
    the file of the data directory."""
    doc = json.loads((data_copy / name).read_text())
    edit(doc)
    (data_copy / name).write_text(json.dumps(doc))
    if args[-1].startswith("--"):
        args = args + [str(data_copy / name)]
    else:
        monkeypatch.setenv(data.DATA_ENV_VAR, str(data_copy))
    return invoke(*args)


class TestReplacement:
    def test_tables_run_leaves_environment_unchanged(self, tmp_path,
                                                     monkeypatch):
        replacement = _redumped("expansion_tables.json",
                                tmp_path / "tables.json")
        before = dict(os.environ)
        seen = []
        fingerprints = data.file_fingerprints

        def recording(*args):
            seen.append(dict(os.environ))
            return fingerprints(*args)

        monkeypatch.setattr(data, "file_fingerprints", recording)
        result = invoke("identities", "--tables", str(replacement))
        assert result.exit_code == 0
        assert seen and all(env == before for env in seen)
        assert dict(os.environ) == before

    def test_partitions_keep_other_files_from_the_data_dir(self, tmp_path,
                                                           monkeypatch):
        copy = tmp_path / "data"
        copy.mkdir()
        for name in data.DATA_FILES:
            _redumped(name, copy / name)
        partitions = _redumped("inner_ode.json", tmp_path / "ode.json")
        (copy / "inner_ode.json").write_text("not json")
        monkeypatch.setenv(data.DATA_ENV_VAR, str(copy))
        result = invoke("verify", "--scope", "all", "--partitions",
                        str(partitions), "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["fingerprints"] == {
            "expansion_tables.json": _sha256(copy / "expansion_tables.json"),
            "constant_catalog.json": _sha256(copy / "constant_catalog.json"),
            "inner_ode.json": _sha256(partitions),
        }

    def test_rewritten_replacement_is_read_afresh(self, data_copy,
                                                  monkeypatch,
                                                  tampered_interior):
        # The replacement is the active data directory's own file, read
        # by the plain runs before and after it.
        monkeypatch.setenv(data.DATA_ENV_VAR, str(data_copy))
        path = data_copy / "inner_ode.json"
        original = path.read_bytes()
        args = ["verify", "--scope", "inner", "--format", "json"]
        runs = [invoke(*args)]
        path.write_bytes(Path(tampered_interior).read_bytes())
        runs.append(invoke(*args, "--partitions", str(path)))
        path.write_bytes(original)
        runs.append(invoke(*args))
        assert [run.exit_code for run in runs] == [0, 1, 0]
        fingerprints = [json.loads(run.output)["fingerprints"]["inner_ode.json"]
                        for run in runs]
        assert fingerprints[0] == fingerprints[2] != fingerprints[1]

    @pytest.mark.parametrize("name, edit, args", [
        ("expansion_tables.json",
         lambda doc: doc["tables"].__setitem__(
             "r", list(doc["tables"]["r"].values())),
         ["verify", "--scope", "all", "--tables"]),
        ("expansion_tables.json",
         lambda doc: doc.__setitem__("tables", list(doc["tables"].values())),
         ["verify", "--scope", "all", "--tables"]),
        ("inner_ode.json",
         lambda doc: doc.__setitem__(
             "partitions", list(doc["partitions"].values())),
         ["verify", "--scope", "inner", "--partitions"]),
        ("inner_ode.json",
         lambda doc: doc.__setitem__(
             "polynomials", list(doc["polynomials"].values())),
         ["verify", "--scope", "inner", "--partitions"]),
        ("constant_catalog.json",
         lambda doc: doc.__setitem__(
             "constants", list(doc["constants"].values())),
         ["verify", "--scope", "omega4"]),
    ], ids=["table-family", "tables", "partitions", "polynomials",
            "constants"])
    def test_section_of_the_wrong_type_exits_2_naming_the_file(
            self, data_copy, monkeypatch, name, edit, args):
        # A list where a mapping belongs fails on its first .items()
        result = _invoke_edited(data_copy, monkeypatch, name, edit, args)
        assert result.exit_code == 2
        assert result.stderr.startswith(
            f"precondition violated: malformed data file {name}")
        assert result.stdout == ""

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.__setitem__("partitions", {
            name: ["1/100", "0"] for name in doc["partitions"]}),
        lambda doc: doc["partitions"].__setitem__("J1", ["0"]),
        lambda doc: doc["partitions"].__delitem__("J1"),
        lambda doc: doc["polynomials"].__delitem__("J2"),
    ], ids=["short-span", "one-point", "no-partition", "no-polynomial"])
    def test_interior_data_that_cannot_cover_the_segment_exits_2(
            self, data_copy, edit):
        # A sup norm over [-1/100, 0] bounds nothing on the rest of
        # [inner.T0, 0], so it must not certify the disk.
        path = data_copy / "inner_ode.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        for args in (["verify", "--scope", "all"], ["eval", "--z", "0"]):
            result = invoke(*args, "--partitions", str(path))
            assert result.exit_code == 2, args
            assert result.stderr.startswith(
                "precondition violated: malformed data file inner_ode.json")
            assert result.stdout == ""

    @pytest.mark.parametrize("name, edit, args", [
        ("expansion_tables.json",
         lambda doc: doc["tables"]["r"]["5"][0].__setitem__(2, -0.828125),
         ["identities", "--tables"]),
        ("constant_catalog.json",
         lambda doc: doc["constants"]["E_M"][0].__setitem__(0, 1.5),
         ["verify", "--scope", "omega4"]),
        ("inner_ode.json",
         lambda doc: doc["partitions"]["J1"].__setitem__(1, 0.5),
         ["verify", "--scope", "inner", "--partitions"]),
    ])
    def test_float_in_data_file_exits_2_naming_it(self, data_copy,
                                                  monkeypatch, name, edit,
                                                  args):
        # Each float is the exact binary value of the rational it
        # replaces, so only the coercion rule can refuse it.
        result = _invoke_edited(data_copy, monkeypatch, name, edit, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("precondition violated:")
        assert name in result.stderr
        assert "float" in result.stderr

    @pytest.mark.parametrize("name, edit, args", [
        ("expansion_tables.json",
         lambda doc: doc["tables"]["r"]["5"][0].__setitem__(2, "1/0"),
         ["identities", "--tables"]),
        ("constant_catalog.json",
         lambda doc: doc["constants"]["E_M"][0].__setitem__(2, "1/0"),
         ["verify", "--scope", "omega4"]),
        ("inner_ode.json",
         lambda doc: doc["partitions"]["J1"].__setitem__(1, "1/0"),
         ["verify", "--scope", "inner", "--partitions"]),
        ("constant_catalog.json",
         lambda doc: doc["reference_values"]["values"].__setitem__(
             "J_M", "14179/50000"),
         ["verify", "--scope", "omega4"]),
    ], ids=["table-row", "catalog-row", "partition", "reference-value"])
    def test_zero_denominator_in_data_file_exits_2_naming_it(
            self, data_copy, monkeypatch, name, edit, args):
        result = _invoke_edited(data_copy, monkeypatch, name, edit, args)
        assert result.exit_code == 2
        assert result.stderr.startswith(
            f"precondition violated: malformed data file {name}")
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [
        ["eval", "--z", "5", "--tables"],
        ["constants", "--partitions"],
        ["identities", "--partitions"],
    ], ids=["eval-tables", "constants-partitions", "identities-partitions"])
    def test_option_for_a_file_the_command_never_reads_is_refused(
            self, args):
        # its file would be fingerprinted as read although nothing parses it
        path = data.data_dir() / "constant_catalog.json"
        result = invoke(*args, str(path))
        assert result.exit_code == 2
        assert "No such option" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args, read", [
        (["pole"], ()),
        (["series"], ()),
        (["eval", "--z", "5"], ()),
        (["eval", "--z", "0"], ("inner_ode.json",)),
        (["verify", "--scope", "omega12"], ()),
        (["verify", "--scope", "inner"], ("inner_ode.json",)),
        (["identities"], ("expansion_tables.json",)),
        (["constants"], ("expansion_tables.json", "constant_catalog.json")),
    ], ids=" ".join)
    def test_fingerprints_name_only_the_files_the_run_parsed(self, args,
                                                             read):
        for fmt in ("json", "text"):
            result = invoke(*args, "--format", fmt)
            assert result.exit_code == 0
            if fmt == "json":
                assert json.loads(result.stdout)["fingerprints"] == {
                    name: digest if name in read else None
                    for name, digest in data.file_fingerprints().items()}
            else:
                block = result.stdout.split("\n\n")[0]
                assert block.count("not read") == 3 - len(read)

    def test_an_unread_replacement_is_not_fingerprinted(self, tmp_path):
        # eval away from the origin never parses the partitions
        path = tmp_path / "ode.json"
        path.write_text("not json")
        result = invoke("eval", "--z", "5", "--partitions", str(path),
                        "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["fingerprints"]["inner_ode.json"] \
            is None

    def test_eval_at_the_origin_reads_the_partitions(self, tampered_interior):
        result = invoke("eval", "--z", "0", "--partitions", tampered_interior)
        assert result.exit_code == 2
        assert result.stderr == ("precondition violated: the interior "
                                 "certificate failed; no enclosure at the "
                                 "origin\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("name, edit, args", [
        ("expansion_tables.json",
         lambda doc: doc["tables"]["r"]["5"][0].__setitem__(0, 2.9),
         ["identities", "--tables"]),
        ("expansion_tables.json",
         lambda doc: doc["tables"]["r"]["5"][0].__setitem__(1, 2.9),
         ["identities", "--tables"]),
        ("constant_catalog.json",
         lambda doc: doc["constants"]["E_M"][0].__setitem__(1, 3.9),
         ["verify", "--scope", "omega4"]),
    ], ids=["table-k", "table-m", "catalog-s-power"])
    def test_non_integer_index_in_data_file_exits_2_naming_it(
            self, data_copy, monkeypatch, name, edit, args):
        # Each float truncates to the integer it replaces, so a reader
        # that truncates would accept the file and pass.
        result = _invoke_edited(data_copy, monkeypatch, name, edit, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("precondition violated:")
        assert name in result.stderr
        assert "not an exact integer" in result.stderr


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


class TestConstants:
    def test_all_18_rows_contained_at_rho_3(self, constants_rho3_json):
        doc = constants_rho3_json
        assert len(doc["rows"]) == 18
        assert doc["all_contained"] is True
        assert all(row["contained"] for row in doc["rows"])

    def test_m1_row_contains_its_reference(self, constants_rho3_json):
        row = {r["name"]: r for r in constants_rho3_json["rows"]}["M_1"]
        assert row["reference"] == "1.13838"
        assert row["contained"] is True
        lo, hi = row["enclosure_float"]
        assert lo <= 1.13839 and hi >= 1.13838

    def test_m6_row_contains_its_reference(self, constants_rho3_json):
        row = {r["name"]: r for r in constants_rho3_json["rows"]}["M_6"]
        assert row["reference"] == "0.00231"
        assert row["contained"] is True

    def test_matches_schema(self, constants_rho3_json):
        validate(constants_rho3_json)

    def test_rho_4_upper_endpoints_below_rho_3(self, constants_rho3_json):
        result = invoke("constants", "--rho", "4", "--format", "json")
        assert result.exit_code == 0
        doc4 = json.loads(result.output)
        at3 = {r["name"]: r for r in constants_rho3_json["rows"]}
        for row in doc4["rows"]:
            assert row["enclosure_float"][1] <= \
                at3[row["name"]]["enclosure_float"][1]

    def test_rho_below_three_exits_2(self):
        result = invoke("constants", "--rho", "5/2")
        assert result.exit_code == 2
        assert "precondition violated" in result.output

    def test_text_prints_windows_and_flags(self):
        result = invoke("constants", "--rho", "3")
        assert result.exit_code == 0
        assert "== M_1 ==" in result.output
        assert "contained: yes" in result.output
        assert "all reference windows met: yes" in result.output
        # the truncation window of the J_M reference, exactly
        assert "[14129/50000, 282581/1000000]" in result.output


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


class TestIdentities:
    def test_passes_with_exact_equalities(self):
        result = invoke("identities", "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["verdict"] is True
        report = doc["reports"][0]
        assert report["name"] == "symbolic_tables"
        matching = [row for row in report["inequalities"]
                    if "matches" in row["desc"]]
        assert matching and all(row["rel"] == "==" for row in matching)
        assert all(row["lhs"] == ["0", "0"] for row in matching)
        validate(doc)

    def test_tampered_tables_fail_naming_the_coefficient(
            self, tampered_tables):
        result = invoke("identities", "--tables", tampered_tables,
                        "--format", "csv")
        assert result.exit_code == 1
        assert "r_defect_series_matches_table" in result.output
        assert "first mismatch at S^2 x^(-5/2) e^(-2x)" in result.output

    @pytest.mark.parametrize("defect", ["not_json", "short_row"])
    def test_malformed_tables_exit_2_naming_the_file(self, tmp_path, defect):
        text = (data.data_dir() / "expansion_tables.json").read_text()
        if defect == "not_json":
            text = text[:len(text) // 2]
        else:
            doc = json.loads(text)
            del doc["tables"]["r"]["5"][0][2]
            text = json.dumps(doc)
        path = tmp_path / "tables.json"
        path.write_text(text)
        result = invoke("verify", "--scope", "all", "--tables", str(path))
        assert result.exit_code == 2
        assert "precondition violated:" in result.output
        assert "expansion_tables.json" in result.output

    def test_tampered_tables_also_fail_verify_all(self, tampered_tables):
        result = invoke("verify", "--scope", "all", "--format", "json",
                        "--tables", tampered_tables)
        assert result.exit_code == 1
        doc = json.loads(result.output)
        failing = [r["name"] for r in doc["reports"] if not r["verdict"]]
        assert "symbolic_tables" in failing
        assert "NOT CERTIFIED" in doc["summary"]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


class TestEval:
    def test_origin_shows_exact_windows_and_rotated_values(self):
        result = invoke("eval", "--z", "0")
        assert result.exit_code == 0
        out = result.output
        assert "method: origin-enclosure    rigorous: yes" in out
        assert "-87/469 +/- 1/167" in out
        assert "41/134 +/- 1/108" in out
        assert "certified value radius: 1/167" in out
        assert "certified slope radius: 1/108" in out

    def test_origin_json_matches_rotated_center(self):
        result = invoke("eval", "--z", "0", "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        validate(doc)
        assert doc["method"] == "origin-enclosure"
        assert doc["rigorous"] is True
        assert doc["origin"]["g_center"] == "-87/469"
        assert doc["origin"]["value_radius"] == "1/167"
        with workprec(120):
            expected = mp.expjpi(mp.mpf(-2) / 5) * (mp.mpf(-87) / 469)
            assert abs(float(doc["y"]["re"]) - float(expected.real)) < 1e-15
            assert abs(float(doc["y"]["im"]) - float(expected.imag)) < 1e-15

    @pytest.mark.parametrize("z", ["1e999999999999",
                                   "1e30000000,-1e30000000"])
    def test_point_past_the_exponent_cap_exits_2(self, z):
        result = invoke("eval", "--z", z)
        assert result.exit_code == 2
        assert result.stderr.startswith("precondition violated:")
        assert "must be below 2^65536" in result.stderr
        assert result.stdout == ""

    def test_polar_point_on_matching_ray_uses_ray_asymptotics(self):
        # 17/10 at angle pi/5: the matching ray
        result = invoke("eval", "--z", "1.7<0.62831853071795864769",
                        "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        validate(doc)
        assert doc["method"] == "asymptotic-omegaI"
        assert doc["rigorous"] is True
        assert float(doc["error_bound"]) < 3 / 890

    def test_polar_and_cartesian_agree(self):
        polar = json.loads(invoke(
            "eval", "--z", "2<1.0471975511965977462", "--format",
            "json").output)
        re = 2 * 0.5
        im = 2 * 0.8660254037844386468
        cartesian = json.loads(invoke(
            "eval", "--z", f"{re},{im}", "--format", "json").output)
        assert polar["method"] == cartesian["method"]
        assert abs(float(polar["y"]["re"]) -
                   float(cartesian["y"]["re"])) < 1e-15
        assert abs(float(polar["y"]["im"]) -
                   float(cartesian["y"]["im"])) < 1e-15

    def test_interior_point_is_flagged_non_rigorous(self):
        result = invoke("eval", "--z", "0.3,0.1", "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        validate(doc)
        assert doc["method"] == "integration"
        assert doc["rigorous"] is False
        assert doc["warning"] is None
        assert doc["error_estimate"] is not None

    def test_pole_sector_point_beyond_disk_carries_warning(self):
        with workprec(200):
            t = mp.mpf("2.2")
            z = -t * mp.expjpi(mp.mpf(1) / 5)
            arg = f"{mp.nstr(z.real, 25)},{mp.nstr(z.imag, 25)}"
        result = invoke("eval", "--z", arg, "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        validate(doc)
        assert doc["method"] == "integration"
        assert doc["y"] is not None
        assert "outside the certified disk" in doc["warning"]

    def test_point_past_the_first_pole_reports_estimate(self):
        with workprec(200):
            t = mp.mpf("2.5")
            z = -t * mp.expjpi(mp.mpf(1) / 5)
            arg = f"{mp.nstr(z.real, 25)},{mp.nstr(z.imag, 25)}"
        result = invoke("eval", "--z", arg, "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        validate(doc)
        assert doc["y"] is None
        assert "t_p" in doc["warning"]

    def test_csv_single_row(self):
        result = invoke("eval", "--z", "0", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == ("re_z,im_z,re_y,im_y,error_bound,"
                            "error_estimate,rigorous,method")
        assert len(lines) == 2
        assert lines[1].endswith("true,origin-enclosure")

    def test_malformed_z_exits_2(self):
        result = invoke("eval", "--z", "not-a-number")
        assert result.exit_code == 2
        for z in ("inf", "-inf", "nan", "inf,0", "0,inf"):
            for fmt in ("text", "json"):
                result = invoke("eval", "--z", z, "--format", fmt)
                assert result.exit_code == 2, (z, fmt, result.output)
                assert "precondition violated:" in result.output
                assert "rigorous" not in result.output

    def test_unreachable_point_exits_1_with_the_reason(self):
        result = invoke("eval", "--z", "1e40")
        assert result.exit_code == 1
        assert result.stderr.startswith(
            "integration failed: step size collapsed")
        assert result.stdout == ""

    def test_precision_below_minimum_exits_2(self):
        result = invoke("eval", "--z", "0", "--precision-bits", "64")
        assert result.exit_code == 2
        assert "precondition violated" in result.output


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


class TestSeries:
    def test_csv_matches_library_export(self):
        # the 24-digit export, byte for byte
        result = invoke("series", "--order", "8", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[:4] == [
            "k,re_ck,im_ck",
            "0,-0.185501066098081023454158,0.0",
            "1,0.305970149253731343283582,0.0",
            "2,0.103231936570573874459563,0.0",
        ]
        assert len(lines) == 10  # header + c_0 .. c_8

    def test_series_csv_shape_and_values(self):
        result = invoke("series", "--order", "8", "--format", "csv")
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["k", "re_ck", "im_ck"]
        assert len(rows) == 10
        assert rows[1][0] == "0"
        assert abs(float(rows[1][1]) - float(Fraction(-87, 469))) < 1e-15
        assert float(rows[1][2]) == 0.0
        assert abs(float(rows[2][1]) - float(Fraction(41, 134))) < 1e-15

    def test_quadratic_relation_between_first_coefficients(self):
        result = invoke("series", "--order", "8", "--format", "csv")
        rows = [line.split(",") for line in
                result.output.strip().splitlines()[1:]]
        c0, c2 = float(rows[0][1]), float(rows[2][1])
        assert abs(c2 - 3 * c0 * c0) < 1e-15
        assert rows[0][1].startswith("-0.18550106609808102")
        assert rows[1][1].startswith("0.30597014925373134")

    def test_json_matches_schema_and_center(self):
        result = invoke("series", "--order", "5", "--format", "json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        validate(doc)
        assert doc["center"] == {"t": "0", "g": "-87/469",
                                 "g_prime": "41/134"}
        assert [c["k"] for c in doc["coefficients"]] == [0, 1, 2, 3, 4, 5]

    def test_text_shows_exact_seed_data(self):
        result = invoke("series", "--order", "4")
        assert result.exit_code == 0
        assert "g = -87/469" in result.output
        assert "g' = 41/134" in result.output
        assert "c_4" in result.output

    def test_order_below_two_rejected(self):
        result = invoke("series", "--order", "1")
        assert result.exit_code == 2

    def test_precision_below_minimum_exits_2(self):
        result = invoke("series", "--precision-bits", "50")
        assert result.exit_code == 2
        assert result.stderr.startswith("precondition violated:")


# ---------------------------------------------------------------------------
# pole
# ---------------------------------------------------------------------------


class TestPole:
    def test_best_distance_is_2_38(self, pole_json):
        doc = pole_json
        validate(doc)
        best = float(doc["best"]["distance"])
        assert abs(best - 2.38) / 2.38 < 0.05
        assert doc["best"]["distance"].startswith("2.3823750104100215")

    def test_real_axis_attains_the_minimum(self, pole_json):
        # the origin series is real, so is the estimate it gives
        assert pole_json["best"]["direction"] == "0.0"
        assert pole_json["series_estimate"]["location"]["im"] == "0.0"
        assert pole_json["best"]["location"]["im"] == "0.0"

    def test_series_estimate_keeps_every_printed_digit(self, pole_json):
        estimate = pole_json["series_estimate"]
        assert estimate["location"]["re"] == "2.382375010410021582408825"
        assert estimate["order"] == evaluator.ORIGIN_ORDER
        assert Fraction(estimate["gap"]) < Fraction(1, 10**15)
        assert pole_json["best"]["steps"] > 0

    def test_finer_precision_prints_the_same_distance(self, pole_json):
        # at the scan's tol 1e-10 neither the Taylor order nor the kernel's
        # width depends on the working precision, so the real ray takes
        # the same steps
        for bits in ("192", "512"):
            result = invoke("pole", "--precision-bits", bits, "--format", "json")
            assert result.exit_code == 0
            finer = json.loads(result.output)
            assert finer["best"]["distance"] == pole_json["best"]["distance"]

    def test_report_says_its_precision(self, pole_json):
        result = invoke("pole", "--precision-bits", "256", "--format", "json")
        assert result.exit_code == 0
        finer = json.loads(result.output)
        validate(finer)
        assert (pole_json["precision_bits"], finer["precision_bits"]) \
            == (128, 256)
        assert dict(finer, precision_bits=128) == pole_json

    def test_note_flags_the_estimate_as_numerical(self, pole_json):
        assert "estimate" in pole_json["note"]
        assert "not a certified statement" in pole_json["note"]

    def test_precision_below_minimum_exits_2(self):
        result = invoke("pole", "--precision-bits", "50")
        assert result.exit_code == 2
        assert result.stderr.startswith("precondition violated:")

    def test_default_precision_is_the_evaluators(self):
        assert cli.DEFAULT_PRECISION_BITS == evaluator.DEFAULT_PRECISION_BITS

    def test_no_blowup_exits_1(self, monkeypatch):
        # the refining run is the one integration that can miss the pole
        def no_pole(direction, precision_bits):
            raise evaluator.PoleNotFoundError(direction, 10, 3)

        monkeypatch.setattr(evaluator, "pole_estimate", no_pole)
        result = invoke("pole")
        assert result.exit_code == 1
        assert result.stderr.startswith("no blowup found:")
        assert result.stdout == ""


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_verify_inner_byte_identical(self):
        first = invoke("verify", "--scope", "inner", "--format", "json")
        second = invoke("verify", "--scope", "inner", "--format", "json")
        assert first.output == second.output

    def test_constants_byte_identical(self):
        first = invoke("constants", "--rho", "3", "--format", "text")
        second = invoke("constants", "--rho", "3", "--format", "text")
        assert first.output == second.output

    def test_eval_byte_identical(self):
        first = invoke("eval", "--z", "0.3,0.1", "--format", "json")
        second = invoke("eval", "--z", "0.3,0.1", "--format", "json")
        assert first.output == second.output

    def test_series_byte_identical(self):
        first = invoke("series", "--order", "12", "--format", "csv")
        second = invoke("series", "--order", "12", "--format", "csv")
        assert first.output == second.output


# The certificate outputs use exact arithmetic only, so their bytes are
# pinned.  An intended change of output re-pins these digests.
GOLDEN_STDOUT_SHA256 = {
    ("verify", "--scope", "all", "--format", "json"):
        "f984dda747558aec28a6d2089b4e48719859108a413631f6651fd1d824ee2aec",
    ("verify", "--scope", "all", "--format", "text"):
        "0915bdcc3d73b25da7bf5aff61777ef51063a8be2ef88450e7b9b5d8393798fb",
    ("verify", "--scope", "all", "--format", "csv"):
        "93a6b8ce72925f9defb965014b708169c7b368322e4cceea7f5541a2cd73f176",
    ("verify", "--scope", "omegaI", "--format", "json"):
        "20262f6ddfd7476743b130c06e4522b726e4d953b578e68f5c51466e1a58c194",
    ("verify", "--scope", "omega12", "--format", "json"):
        "d6919de7a495f5a164d879dee0d3e0dd3f51cf3c2d022e29fbbf9f248a0769d8",
    ("verify", "--scope", "omega4", "--format", "json"):
        "ad6373c196e78c49a7f23585a4f55f88503a7c271d9aaa37ad6afb9e140f32a9",
    ("verify", "--scope", "omega4", "--rho", "7/2", "--format", "json"):
        "5097ea4b288e66ff2bfac13920e9ea00fe5211aa2392acf551e7acfaaf2862ca",
    ("verify", "--scope", "inner", "--format", "json"):
        "a10d3a61fdb29db132f044794bd614e99cf0f54c215db188cc27fb41eeb45198",
    ("verify", "--scope", "radius", "--format", "json"):
        "5bb0748c0a75532b79cf8f993710d0da622a876a88eec951287406fe68a3f1d4",
    ("constants", "--format", "json"):
        "0af8db37903cb2cb3c099434aa74e440eb1c0f3e04f2de98508896d61207db70",
    ("identities",):
        "640664b7619bb57bc3dfef6ccb58663deca4ea217edb991be3e8e5cf8e76d569",
}


@pytest.mark.parametrize("args", list(GOLDEN_STDOUT_SHA256),
                         ids=" ".join)
def test_stdout_matches_pinned_digest(args):
    result = invoke(*args)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == GOLDEN_STDOUT_SHA256[args]


# The pole estimate is numerical, but the series ratio, the refining
# run and its Laurent fit are a fixed sequence of integer and mpmath
# operations, so its output is pinned too, also at 256 bits.
GOLDEN_POLE_STDOUT_SHA256 = {
    ("pole", "--format", "json"):
        "8d51a6947061547209563eddd3874ae2289db7b790845ebe1286af1c4e063e87",
    ("pole", "--format", "text"):
        "fb59825ed2ee2b2613c32e052dc419c3d50129ebd2a980c165737ecbf3a4d4e4",
    ("pole", "--precision-bits", "256", "--format", "json"):
        "4038c5c8e8bdd9fff32caff429110f5648702d952823eaf1677d9c3717cb019e",
}


@pytest.mark.parametrize("args", list(GOLDEN_POLE_STDOUT_SHA256),
                         ids=" ".join)
def test_pole_stdout_matches_pinned_digest(args):
    result = invoke(*args)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == GOLDEN_POLE_STDOUT_SHA256[args]


_RAY_Z = "3.9947146479757611459<0.6283185307179586232"       # x = 10i
_WEDGE_Z = "1.9192597481868873821<-1.570796326794896558"   # x = 4e^(-3pi i/8)

# Closed-form and origin eval outputs depend on floating-point values of
# the asymptotic representations and of the rotated origin centres; their
# digests pin every digit printed.
GOLDEN_EVAL_STDOUT_SHA256_PREFIX = {
    ("0", "json", None): "a5d2001d131f5470",
    ("0", "text", None): "8302422d5336d811",
    ("0", "json", "256"): "e4c4cc8ef89a4a3e",
    ("0", "text", "256"): "f7ce0679d657844a",
    ("1.7<0.6283185307", "json", None): "f58e15980fb0a45c",
    ("1.7<0.6283185307", "text", None): "3fcfcc50d340b7b7",
    ("1.7<0.6283185307", "json", "256"): "4f0bd0a3fe781272",
    ("1.7<0.6283185307", "text", "256"): "fb8fe2e96034d3db",
    (_RAY_Z, "json", None): "ddf49beaebd4455a",
    (_RAY_Z, "text", None): "08bea7abd8ae7eaa",
    (_RAY_Z, "json", "256"): "e9ae05698203c9c5",
    (_RAY_Z, "text", "256"): "839849e057ac1b7a",
    (_WEDGE_Z, "json", None): "f2d250fcc820b2c3",
    (_WEDGE_Z, "text", None): "ec2fd322188921cc",
    (_WEDGE_Z, "json", "256"): "bc3ed7d448a373fe",
    (_WEDGE_Z, "text", "256"): "4b15bc2192085d7d",
}


@pytest.mark.parametrize("key", list(GOLDEN_EVAL_STDOUT_SHA256_PREFIX),
                         ids=lambda key: " ".join(filter(None, key)))
def test_closed_form_eval_matches_pinned_digest(key):
    z, fmt, bits = key
    args = ["eval", "--z", z, "--format", fmt]
    if bits is not None:
        args += ["--precision-bits", bits]
    result = invoke(*args)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest.startswith(GOLDEN_EVAL_STDOUT_SHA256_PREFIX[key])


def test_in_process_runs_do_not_keep_their_stdout():
    # The way an embedding caller runs the command: stdout redirected to
    # a fresh buffer per call.  Twenty calls may not grow the heap by as
    # much as one output.
    args = ["verify", "--scope", "omegaI", "--format", "json"]

    def run() -> int:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            with pytest.raises(SystemExit):
                main.main(args=args, standalone_mode=False)
        return len(buffer.getvalue())

    size = run()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < size


class TestHelp:
    def test_group_lists_all_commands(self):
        result = invoke("--help")
        assert result.exit_code == 0
        for command in ("verify", "constants", "identities", "eval",
                        "series", "pole"):
            assert command in result.output
