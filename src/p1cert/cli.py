"""Command-line front end: certificates, constants, evaluation, exports.

Six commands, all reading the same bundled data files:

``verify``
    Run machine-checked certificate suites.  Exit 0 when every selected
    inequality holds, 1 when any fails, 2 when the request violates a
    precondition (for example a lower-wedge radius below 3).
``constants``
    Enclose every catalogued sector constant at a given radius and
    compare against the shipped reference decimals.
``identities``
    Check the shipped expansion tables against symbolically recomputed
    ones (exact polynomial identities, no rounding anywhere).
``eval``
    Evaluate the distinguished solution at one point of the plane,
    picking the strongest available method (certified window at the
    origin, certified asymptotics far out, numerical integration
    elsewhere).
``series``
    Maclaurin coefficients of the interior-frame solution seeded from
    the certified origin data.
``pole``
    Nearest-pole distance estimate along rays from the origin.

Formats: ``text`` (exact rationals printed beside decimal
approximations), ``json`` (stable key order, embeds data-file
fingerprints; schema shipped in ``docs/report_schema.json``), and
``csv`` (bare machine-readable rows, no envelope).  Identical
invocations produce byte-identical output: nothing here depends on
time, environment, or iteration-order accidents.

``--tables``/``--partitions`` swap in replacement data files for a
single run (the originals are never touched): the bundled directory is
copied to a temporary one, the named file is replaced, and the data
location override is pointed at the copy for the duration of the
command.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import click
from mpmath import mp, mpc, mpf, workprec

from . import certificates, data, evaluator, inner
from .certificates import CertificateReport, PreconditionError
from .numerics import slim, truncation_window
from .result import CheckResult

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2

_TEXT_DIGITS = 20
_ERROR_DIGITS = 8
_JSON_DIGITS = 25
_SERIES_CSV_DIGITS = 24

_SCOPES = ("all", "omegaI", "omega12", "omega4", "inner", "radius")


# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------


class RationalParam(click.ParamType):
    """Accepts ``3``, ``7/2`` or ``3.5`` and yields an exact Fraction."""

    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a rational number", param, ctx)


RATIONAL = RationalParam()


def format_option(command):
    return click.option(
        "--format", "fmt",
        type=click.Choice(["text", "json", "csv"]),
        default="text", show_default=True,
        help="Output format.")(command)


def data_options(command):
    command = click.option(
        "--tables", type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="Replacement expansion-tables file used for this run only.",
    )(command)
    command = click.option(
        "--partitions", type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="Replacement interior-data file (polynomials and "
             "certification partitions) used for this run only.",
    )(command)
    return command


def precision_option(command):
    return click.option(
        "--precision-bits", type=int,
        default=evaluator.DEFAULT_PRECISION_BITS, show_default=True,
        help="Working precision in bits (minimum 100).")(command)


def rho_option(command):
    return click.option(
        "--rho", type=RATIONAL, default=Fraction(3), show_default="3",
        help="Radius parameter of the lower wedge (rational; the wedge "
             "certificates are stated for rho >= 3).")(command)


@contextlib.contextmanager
def _data_overlay(tables: Optional[str],
                  partitions: Optional[str]) -> Iterator[None]:
    """Point the data loader at a patched copy of the data directory."""
    if tables is None and partitions is None:
        yield
        return
    source = data.data_dir()
    with tempfile.TemporaryDirectory(prefix="p1cert-data-") as tmp:
        workdir = Path(tmp)
        for name in data.DATA_FILES:
            shutil.copy(source / name, workdir / name)
        if tables is not None:
            shutil.copy(tables, workdir / "expansion_tables.json")
        if partitions is not None:
            shutil.copy(partitions, workdir / "inner_ode.json")
        previous = os.environ.get(data.DATA_ENV_VAR)
        os.environ[data.DATA_ENV_VAR] = str(workdir)
        data.clear_cache()
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop(data.DATA_ENV_VAR, None)
            else:
                os.environ[data.DATA_ENV_VAR] = previous
            data.clear_cache()


def _run(body: Callable[[], int], tables: Optional[str] = None,
         partitions: Optional[str] = None) -> None:
    """Run a command body over the data overlay and exit with its code.

    A violated precondition exits 2 and a pole scan that meets no blowup
    exits 1, each with its reason on stderr.
    """
    try:
        with _data_overlay(tables, partitions):
            code = body()
    except PreconditionError as exc:
        click.echo(f"precondition violated: {exc}", err=True)
        code = EXIT_PRECONDITION
    except evaluator.PoleNotFoundError as exc:
        click.echo(f"no blowup found: {exc}", err=True)
        code = EXIT_FAIL
    raise SystemExit(code)


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _dec(x: float) -> str:
    return f"{x:.9g}"


def _nstr(x, digits: int = _TEXT_DIGITS) -> str:
    # Never reconstruct through mpf(): that would re-round the stored
    # high-precision value at the ambient (default 53-bit) precision.
    return mp.nstr(x, digits)


def _parts(value: mpc, digits: int = _TEXT_DIGITS) -> Tuple[str, str]:
    return mp.nstr(value.real, digits), mp.nstr(value.imag, digits)


def _complex_text(value: mpc, digits: int = _TEXT_DIGITS) -> str:
    re_s, im_s = _parts(value, digits)
    return f"{re_s} + {im_s} i"


def _complex_json(value: Optional[mpc]) -> Optional[Dict[str, str]]:
    if value is None:
        return None
    re_s, im_s = _parts(value, _JSON_DIGITS)
    return {"re": re_s, "im": im_s}


def _opt_nstr(x, digits: int = _JSON_DIGITS) -> Optional[str]:
    return None if x is None else mp.nstr(x, digits)


def _fingerprint_lines() -> List[str]:
    lines = ["data fingerprints:"]
    for name, digest in sorted(data.file_fingerprints().items()):
        lines.append(f"  {name}  sha256={digest}")
    return lines


def _side_text(strings: Sequence[str], floats: Sequence[float]) -> str:
    lo, hi = strings
    flo, fhi = floats
    if lo == hi:
        return f"{lo} ({_dec(flo)})"
    return f"[{lo}, {hi}] ({_dec(flo)}, {_dec(fhi)})"


def _check_text(result: CheckResult) -> str:
    row = result.as_inequality()
    status = "PASS" if row["pass"] else "FAIL"
    line = (f"  [{status}] {row['desc']}: "
            f"{_side_text(row['lhs'], row['lhs_float'])} {row['rel']} "
            f"{_side_text(row['rhs'], row['rhs_float'])}")
    if row["note"]:
        line += f"  -- {row['note']}"
    return line


def _report_lines(report: CertificateReport) -> List[str]:
    verdict = "PASS" if report.verdict else "FAIL"
    lines = [f"== {report.name} ({verdict}) =="]
    for key, value in report.inputs:
        lines.append(f"  input {key} = {value}")
    lines.extend(_check_text(c) for c in report.checks)
    if report.narrative:
        lines.append(f"  note: {report.narrative}")
    return lines


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _json_text(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _inequality_rows(reports: Sequence[CertificateReport]) -> List[List[object]]:
    rows: List[List[object]] = []
    for report in reports:
        for result in report.checks:
            row = result.as_inequality()
            rows.append([
                report.name, row["desc"], row["lhs"][0], row["lhs"][1],
                row["rel"], row["rhs"][0],
                "true" if row["pass"] else "false", row["note"],
            ])
    return rows


def _emit_reports(command: str, fmt: str, reports: Sequence[CertificateReport],
                  summary: str, header: List[str],
                  extra: Optional[Dict[str, object]] = None) -> int:
    verdict = all(r.verdict for r in reports)
    if fmt == "json":
        payload: Dict[str, object] = {
            "command": command,
            "fingerprints": data.file_fingerprints(),
            "reports": [r.as_dict() for r in reports],
            "summary": summary,
            "verdict": verdict,
        }
        if extra:
            payload.update(extra)
        click.echo(_json_text(payload))
    elif fmt == "csv":
        click.echo(_csv_text(
            ["report", "check", "lhs_lo", "lhs_hi", "rel", "rhs",
             "pass", "note"],
            _inequality_rows(reports)))
    else:
        lines = header + _fingerprint_lines() + [""]
        for report in reports:
            lines.extend(_report_lines(report))
            lines.append("")
        lines.append(f"summary: {summary}")
        lines.append(f"verdict: {'PASS' if verdict else 'FAIL'}")
        click.echo("\n".join(lines))
    return EXIT_PASS if verdict else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _scope_reports(scope: str,
                   rho: Fraction) -> Tuple[List[CertificateReport], str]:
    if scope in ("all", "omega4") and rho < 3:
        raise PreconditionError(
            f"the lower-wedge certificate is stated for rho >= 3, "
            f"got rho = {rho}")
    if scope == "all":
        return certificates.run_all(rho)
    reports = {
        "omegaI": certificates.ray_reports,
        "omega12": lambda: [certificates.check_omega_12()],
        "omega4": lambda: [certificates.check_omega_4(rho)],
        "inner": lambda: [certificates.check_inner_interval()],
        "radius": lambda: [certificates.check_taylor_radius()],
    }[scope]()
    if all(r.verdict for r in reports):
        return reports, f"scope '{scope}': every certified inequality holds"
    return reports, certificates.failure_summary(reports)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _constants_rows(rho: Fraction):
    if rho < 3:
        raise PreconditionError(
            f"the sector constants are defined for rho >= 3, got {rho}")
    values = certificates.sector_point_values(rho)
    rows = []
    for name, printed in data.reference_values().items():
        enclosure = values[name]
        window = truncation_window(printed)
        rows.append((name, enclosure, printed, window,
                     enclosure.intersects(window)))
    return rows


def _emit_constants(fmt: str, rho: Fraction, rows) -> int:
    all_contained = all(contained for *_, contained in rows)
    if fmt == "json":
        payload = {
            "command": "constants",
            "fingerprints": data.file_fingerprints(),
            "rho": str(rho),
            "rows": [
                {
                    "name": name,
                    "enclosure": [str(slim(enc).lo), str(slim(enc).hi)],
                    "enclosure_float": [float(enc.lo), float(enc.hi)],
                    "reference": printed,
                    "window": [str(window.lo), str(window.hi)],
                    "contained": contained,
                }
                for name, enc, printed, window, contained in rows
            ],
            "all_contained": all_contained,
        }
        click.echo(_json_text(payload))
    elif fmt == "csv":
        click.echo(_csv_text(
            ["name", "enclosure_lo", "enclosure_hi", "enclosure_lo_float",
             "enclosure_hi_float", "reference", "contained"],
            [[name, str(slim(enc).lo), str(slim(enc).hi),
              _dec(float(enc.lo)), _dec(float(enc.hi)), printed,
              "true" if contained else "false"]
             for name, enc, printed, window, contained in rows]))
    else:
        lines = [f"p1cert constants  rho = {rho}"] + _fingerprint_lines() + [""]
        for name, enc, printed, window, contained in rows:
            lines.append(f"== {name} ==")
            slimmed = slim(enc)
            lines.append(f"  enclosure: [{slimmed.lo}, {slimmed.hi}]")
            lines.append(f"           ~ ({_dec(float(enc.lo))}, "
                         f"{_dec(float(enc.hi))})")
            lines.append(
                f"  reference: {printed}  window [{window.lo}, {window.hi}]"
                f"  contained: {'yes' if contained else 'no'}")
        lines.append("")
        lines.append("all reference windows met: "
                     + ("yes" if all_contained else "no"))
        click.echo("\n".join(lines))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _parse_z(text: str, precision_bits: int) -> mpc:
    """Parse ``re,im``, polar ``r<theta`` (radians), or a bare real."""
    cleaned = text.strip()
    with workprec(precision_bits + evaluator.GUARD_BITS):
        try:
            if "<" in cleaned:
                radius, _, angle = cleaned.partition("<")
                return mpf(radius.strip()) * mp.expj(mpf(angle.strip()))
            if "," in cleaned:
                re_part, _, im_part = cleaned.partition(",")
                return mpc(mpf(re_part.strip()), mpf(im_part.strip()))
            return mpc(mpf(cleaned), 0)
        except ValueError as exc:
            raise click.UsageError(
                f"--z expects 're,im', polar 'r<theta' (theta in radians), "
                f"or a real number; got {text!r}") from exc


def _origin_block(precision_bits: int) -> Tuple[List[str], Dict[str, object]]:
    origin = evaluator.y_at_zero(precision_bits)
    vw, sw = origin.value_window, origin.slope_window
    lines = [
        "interior-frame enclosure (exact rationals):",
        f"  g(0)  in [{vw.lo}, {vw.hi}]"
        f"  = {inner.CENTER_VALUE} +/- {inner.VALUE_WINDOW}"
        f"  ~ ({_dec(float(vw.lo))}, {_dec(float(vw.hi))})",
        f"  g'(0) in [{sw.lo}, {sw.hi}]"
        f"  = {inner.CENTER_SLOPE} +/- {inner.SLOPE_WINDOW}"
        f"  ~ ({_dec(float(sw.lo))}, {_dec(float(sw.hi))})",
    ]
    payload = {
        "g_window": [str(vw.lo), str(vw.hi)],
        "g_prime_window": [str(sw.lo), str(sw.hi)],
        "g_center": str(inner.CENTER_VALUE),
        "g_prime_center": str(inner.CENTER_SLOPE),
        "value_radius": str(inner.VALUE_WINDOW),
        "slope_radius": str(inner.SLOPE_WINDOW),
    }
    return lines, payload


def _emit_eval(fmt: str, outcome, precision_bits: int) -> int:
    origin_lines: List[str] = []
    origin_payload: Optional[Dict[str, object]] = None
    if outcome.method == "origin-enclosure":
        origin_lines, origin_payload = _origin_block(precision_bits)
    if fmt == "json":
        payload = {
            "command": "eval",
            "fingerprints": data.file_fingerprints(),
            "precision_bits": precision_bits,
            "z": _complex_json(outcome.z),
            "method": outcome.method,
            "rigorous": outcome.rigorous,
            "y": _complex_json(outcome.y),
            "y_prime": _complex_json(outcome.y_prime),
            "error_bound": _opt_nstr(outcome.error_bound),
            "slope_error_bound": _opt_nstr(outcome.slope_error_bound),
            "error_estimate": _opt_nstr(outcome.error_estimate),
            "warning": outcome.warning,
            "origin": origin_payload,
        }
        click.echo(_json_text(payload))
    elif fmt == "csv":
        z_re, z_im = _parts(outcome.z, _JSON_DIGITS)
        y_re, y_im = ("", "")
        if outcome.y is not None:
            y_re, y_im = _parts(outcome.y, _JSON_DIGITS)
        click.echo(_csv_text(
            ["re_z", "im_z", "re_y", "im_y", "error_bound",
             "error_estimate", "rigorous", "method"],
            [[z_re, z_im, y_re, y_im,
              _opt_nstr(outcome.error_bound) or "",
              _opt_nstr(outcome.error_estimate) or "",
              "true" if outcome.rigorous else "false", outcome.method]]))
    else:
        lines = [f"p1cert eval  z = {_complex_text(outcome.z)}"
                 f"  (precision {precision_bits} bits)"]
        lines += _fingerprint_lines() + [""]
        lines.append(f"method: {outcome.method}    rigorous: "
                     + ("yes" if outcome.rigorous else "no"))
        lines.extend(origin_lines)
        if outcome.y is None:
            lines.append("value: unavailable (trajectory never reached "
                         "the target)")
        else:
            lines.append(f"y(z)  = {_complex_text(outcome.y)}")
        if outcome.y_prime is not None:
            lines.append(f"y'(z) = {_complex_text(outcome.y_prime)}")
        if outcome.error_bound is not None:
            bound = _nstr(outcome.error_bound, _ERROR_DIGITS)
            if outcome.method == "origin-enclosure":
                lines.append(f"certified value radius: {inner.VALUE_WINDOW} "
                             f"({bound})")
                if outcome.slope_error_bound is not None:
                    lines.append(
                        f"certified slope radius: {inner.SLOPE_WINDOW} "
                        f"({_nstr(outcome.slope_error_bound, _ERROR_DIGITS)})")
            else:
                lines.append(f"certified error bound: {bound}")
        if outcome.error_estimate is not None:
            lines.append("heuristic error estimate: "
                         + _nstr(outcome.error_estimate, _ERROR_DIGITS)
                         + "  (truncation and rounding sum, not a certificate)")
        if outcome.warning:
            lines.append(f"warning: {outcome.warning}")
        click.echo("\n".join(lines))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# series and pole
# ---------------------------------------------------------------------------


def _emit_series(fmt: str, order: int, coeffs) -> int:
    if fmt == "json":
        payload = {
            "command": "series",
            "fingerprints": data.file_fingerprints(),
            "order": order,
            "center": {
                "t": "0",
                "g": str(inner.CENTER_VALUE),
                "g_prime": str(inner.CENTER_SLOPE),
            },
            "coefficients": [
                {"k": k, "re": _parts(c, _JSON_DIGITS)[0],
                 "im": _parts(c, _JSON_DIGITS)[1]}
                for k, c in enumerate(coeffs)
            ],
        }
        click.echo(_json_text(payload))
    elif fmt == "csv":
        click.echo(_csv_text(
            ["k", "re_ck", "im_ck"],
            [[k, *_parts(c, _SERIES_CSV_DIGITS)]
             for k, c in enumerate(coeffs)]))
    else:
        lines = [f"p1cert series  order = {order}"]
        lines += _fingerprint_lines() + [""]
        lines.append(f"center: t = 0, g = {inner.CENTER_VALUE}, "
                     f"g' = {inner.CENTER_SLOPE}  (certified window centres)")
        for k, c in enumerate(coeffs):
            lines.append(f"  c_{k} = {_complex_text(c)}")
        click.echo("\n".join(lines))
    return EXIT_PASS


def _estimate_payload(est) -> Dict[str, object]:
    return {
        "direction": _nstr(est.direction, _JSON_DIGITS),
        "distance": _nstr(est.distance, _JSON_DIGITS),
        "location": _complex_json(est.location),
        "fit_residual": _nstr(est.fit_residual, _ERROR_DIGITS),
    }


def _emit_pole(fmt: str, scan) -> int:
    if fmt == "json":
        payload = {
            "command": "pole",
            "fingerprints": data.file_fingerprints(),
            "best": _estimate_payload(scan.best),
            "found": [_estimate_payload(e) for e in scan.estimates],
            "unbounded_directions": [
                _nstr(d, _JSON_DIGITS) for d in scan.unbounded_directions],
            "note": scan.note,
        }
        click.echo(_json_text(payload))
    elif fmt == "csv":
        rows = [[_nstr(e.direction, _JSON_DIGITS), "pole",
                 _nstr(e.distance, _JSON_DIGITS),
                 *_parts(e.location, _JSON_DIGITS),
                 _nstr(e.fit_residual, _ERROR_DIGITS)]
                for e in scan.estimates]
        rows += [[_nstr(d, _JSON_DIGITS), "unbounded", "", "", "", ""]
                 for d in scan.unbounded_directions]
        click.echo(_csv_text(
            ["direction", "status", "distance", "re_location",
             "im_location", "fit_residual"], rows))
    else:
        lines = ["p1cert pole"] + _fingerprint_lines() + [""]
        for est in scan.estimates:
            lines.append(
                f"ray arg t = {_nstr(est.direction, 10)}: pole estimate at "
                f"distance {_nstr(est.distance, _TEXT_DIGITS)} "
                f"(location {_complex_text(est.location, 12)}, "
                f"fit residual {_nstr(est.fit_residual, 4)})")
        for d in scan.unbounded_directions:
            lines.append(f"ray arg t = {_nstr(d, 10)}: no blowup within "
                         f"the horizon")
        lines.append("")
        lines.append(f"minimum distance: "
                     f"{_nstr(scan.best.distance, _TEXT_DIGITS)}  at "
                     f"arg t = {_nstr(scan.best.direction, 10)}")
        lines.append(f"note: {scan.note}")
        click.echo("\n".join(lines))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# The click group
# ---------------------------------------------------------------------------


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Certified enclosures and evaluation for a distinguished
    pole-free solution of  y'' = 6 y^2 + z."""


@main.command()
@click.option("--scope", type=click.Choice(_SCOPES), default="all",
              show_default=True,
              help="Which certificate family to run.")
@rho_option
@format_option
@data_options
def verify(scope: str, rho: Fraction, fmt: str,
           partitions: Optional[str], tables: Optional[str]) -> None:
    """Run the machine-checked certificate suites.

    Exit status: 0 when every selected inequality holds, 1 when any
    fails, 2 when the request violates a stated precondition.
    """
    def body() -> int:
        reports, summary = _scope_reports(scope, rho)
        return _emit_reports(
            "verify", fmt, reports, summary,
            [f"p1cert verify  scope = {scope}  rho = {rho}"],
            extra={"scope": scope, "rho": str(rho)})

    _run(body, tables, partitions)


@main.command()
@rho_option
@format_option
@data_options
def constants(rho: Fraction, fmt: str,
              partitions: Optional[str], tables: Optional[str]) -> None:
    """Enclose the catalogued sector constants at radius RHO.

    Prints each constant's validated enclosure beside the shipped
    reference decimal and whether the enclosure meets the reference's
    truncation window.  The reference decimals are stated at rho = 3;
    at larger rho the enclosures shrink below them, which the
    containment column then reports.  Exit status: 0, or 2 when
    rho < 3.
    """
    _run(lambda: _emit_constants(fmt, rho, _constants_rows(rho)),
         tables, partitions)


@main.command()
@format_option
@data_options
def identities(fmt: str, partitions: Optional[str],
               tables: Optional[str]) -> None:
    """Check the shipped expansion tables against recomputed ones.

    Every comparison is an exact identity between rational polynomial
    coefficients.  Exit status: 0 when all hold, 1 otherwise.
    """
    def body() -> int:
        report = certificates.check_symbolic_tables()
        summary = ("all shipped tables match their recomputations"
                   if report.verdict else
                   certificates.failure_summary([report]))
        return _emit_reports("identities", fmt, [report], summary,
                             ["p1cert identities"])

    _run(body, tables, partitions)


@main.command(name="eval")
@click.option("--z", "z_text", required=True,
              help="Evaluation point: 're,im', polar 'r<theta' "
                   "(theta in radians), or a bare real number.")
@precision_option
@format_option
@data_options
def eval_command(z_text: str, precision_bits: int, fmt: str,
                 partitions: Optional[str], tables: Optional[str]) -> None:
    """Evaluate the distinguished solution at one point.

    Method preference: certified origin window at z = 0; certified
    asymptotic representations where they apply; otherwise numerical
    integration from the origin data (flagged non-rigorous).  Points in
    the one sector that can contain poles, beyond the certified disk,
    carry an explicit warning.
    """
    def body() -> int:
        z = _parse_z(z_text, precision_bits)
        outcome = evaluator.evaluate_point(z, precision_bits=precision_bits)
        return _emit_eval(fmt, outcome, precision_bits)

    _run(body, tables, partitions)


@main.command()
@click.option("--order", type=click.IntRange(min=2), default=8,
              show_default=True,
              help="Highest coefficient index to print (at least 2; the "
                   "first two coefficients are the seed data).")
@precision_option
@format_option
def series(order: int, precision_bits: int, fmt: str) -> None:
    """Maclaurin coefficients of the interior-frame solution at t = 0.

    Seeded from the certified origin data g(0) = -87/469,
    g'(0) = 41/134 (window centres); coefficients beyond the first two
    follow from the quadratic recurrence of  g'' = 6 g^2 + t.
    """
    _run(lambda: _emit_series(fmt, order, evaluator.taylor_coeffs(
        inner.CENTER_VALUE, inner.CENTER_SLOPE, 0, order, precision_bits)))


@main.command()
@precision_option
@format_option
def pole(precision_bits: int, fmt: str) -> None:
    """Estimate the nearest pole distance along rays from the origin.

    Scans a fan of directions inside the one sector that can contain
    poles, integrating outward until blowup.  The reported minimum is a
    numerical estimate, not a certified statement.
    """
    _run(lambda: _emit_pole(
        fmt, evaluator.pole_scan(precision_bits=precision_bits)))


if __name__ == "__main__":  # pragma: no cover
    main()
