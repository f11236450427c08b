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
    Nearest-pole estimate from the origin series, refined by one
    integration.

Formats: ``text`` (exact rationals printed beside decimal
approximations), ``json`` (stable key order, embeds data-file
fingerprints; schema shipped in ``docs/report_schema.json``), and
``csv`` (bare machine-readable rows, no envelope).  Identical
invocations produce byte-identical output: nothing here depends on
time, environment, or iteration-order accidents.

Every command builds its content once, for all three formats, and
:func:`_emit` is the one place that picks a format and writes stdout.

``--tables`` (``verify``, ``constants``, ``identities``) and
``--partitions`` (``verify``, ``eval``) replace one data file for a
single run: the named file is read in place, the other files still come
from the data directory, and no file is copied or changed.  A command
takes only the options for files it reads.

The evaluator and mpmath are imported by ``eval``, ``series`` and
``pole`` when they run, so ``verify``, ``constants`` and ``identities``
load neither.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import click

from . import certificates, data, inner
from .certificates import CertificateReport, PreconditionError
from .numerics import slim, truncation_window
from .regions import OMEGA_4
from .result import CheckResult

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2

_TEXT_DIGITS = 20
_ERROR_DIGITS = 8
_JSON_DIGITS = 25
_SERIES_CSV_DIGITS = 24

#: The default of ``--precision-bits``: evaluator.DEFAULT_PRECISION_BITS,
#: restated so that the option needs no evaluator at import time.
DEFAULT_PRECISION_BITS = 128

#: CSV output: a header row and the data rows.
Table = Tuple[Sequence[str], Sequence[Sequence[object]]]


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


def tables_option(command):
    return click.option(
        "--tables", type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="Replacement expansion-tables file used for this run only.",
    )(command)


def partitions_option(command):
    return click.option(
        "--partitions", type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="Replacement interior-data file (polynomials and "
             "certification partitions) used for this run only.",
    )(command)


def precision_option(command):
    return click.option(
        "--precision-bits", type=int,
        default=DEFAULT_PRECISION_BITS, show_default=True,
        help="Working precision in bits (minimum 100).")(command)


def rho_option(command):
    return click.option(
        "--rho", type=RATIONAL, default=OMEGA_4.floor,
        show_default=str(OMEGA_4.floor),
        help="Radius parameter of the lower wedge (rational; the wedge "
             f"certificates are stated for rho >= {OMEGA_4.floor}).")(command)


def _run(body: Callable[[], int], tables: Optional[str] = None,
         partitions: Optional[str] = None) -> None:
    """Run a command body over the replaced data files and exit with its
    code.

    A violated precondition exits 2, with its reason on stderr.
    """
    replacements = {name: path for name, path in (
        ("expansion_tables.json", tables), ("inner_ode.json", partitions))
        if path is not None}
    try:
        with data.replaced(replacements):
            code = body()
    except PreconditionError as exc:
        click.echo(f"precondition violated: {exc}", file=sys.stderr)
        code = EXIT_PRECONDITION
    raise SystemExit(code)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _emit(fmt: str, command: str, header: str, payload: Dict[str, object],
          table: Table, lines: Sequence[str]) -> None:
    """Write one command's output to stdout in format ``fmt``.

    JSON is ``payload`` plus the command name and the data fingerprints:
    the digest of each file the run parsed, and null for the others.
    CSV is ``table``, a header row and data rows, with no envelope.  Text
    is ``header``, the fingerprint block, a blank line and ``lines``.

    The stream is named explicitly: for ``file=None`` click keeps a
    per-stream wrapper in a cache that holds on to the stream, so every
    redirected in-process stdout would stay alive.
    """
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table[0])
        writer.writerows(table[1])
        text = buffer.getvalue().rstrip("\n")
    else:
        read = data.file_fingerprints(data.parsed_files())
        fingerprints = {name: read.get(name) for name in data.DATA_FILES}
        if fmt == "json":
            text = json.dumps(
                dict(payload, command=command, fingerprints=fingerprints),
                sort_keys=True, indent=2)
        else:
            text = "\n".join(
                [header, "data fingerprints:"]
                + [f"  {name}  " + (f"sha256={digest}" if digest else
                                    "not read")
                   for name, digest in sorted(fingerprints.items())]
                + [""] + list(lines))
    click.echo(text, file=sys.stdout)


def _dec(x: float) -> str:
    return f"{x:.9g}"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _nstr(x, digits: int = _TEXT_DIGITS) -> str:
    from mpmath import mp
    # Never reconstruct through mpf(): that would re-round the stored
    # high-precision value at the ambient (default 53-bit) precision.
    return mp.nstr(x, digits)


def _parts(value, digits: int = _TEXT_DIGITS) -> Tuple[str, str]:
    return _nstr(value.real, digits), _nstr(value.imag, digits)


def _complex_text(value, digits: int = _TEXT_DIGITS) -> str:
    re_s, im_s = _parts(value, digits)
    return f"{re_s} + {im_s} i"


def _complex_json(value) -> Optional[Dict[str, str]]:
    if value is None:
        return None
    re_s, im_s = _parts(value, _JSON_DIGITS)
    return {"re": re_s, "im": im_s}


def _opt_nstr(x, digits: int = _JSON_DIGITS) -> Optional[str]:
    return None if x is None else _nstr(x, digits)


# ---------------------------------------------------------------------------
# Certificate reports (verify, identities)
# ---------------------------------------------------------------------------


def _inequality(result: CheckResult) -> Dict[str, object]:
    """A check's report row: the comparison with both sides as [lo, hi]
    pairs, the left one the certified enclosure."""
    lo = result.value if result.lo is None else result.lo
    return {
        "desc": result.name,
        "lhs": [str(lo), str(result.value)],
        "lhs_float": [float(lo), float(result.value)],
        "rel": result.comparison,
        "rhs": [str(result.bound), str(result.bound)],
        "rhs_float": [float(result.bound), float(result.bound)],
        "pass": result.passed,
        "note": result.note,
    }


def _side_text(strings: Sequence[str], floats: Sequence[float]) -> str:
    lo, hi = strings
    flo, fhi = floats
    if lo == hi:
        return f"{lo} ({_dec(flo)})"
    return f"[{lo}, {hi}] ({_dec(flo)}, {_dec(fhi)})"


def _emit_reports(fmt: str, command: str, reports: Sequence[CertificateReport],
                  summary: str, header: str,
                  extra: Optional[Dict[str, object]] = None) -> int:
    """Emit certificate reports; each check's row is built once, by
    :func:`_inequality`, and shown in all three formats."""
    verdict = all(r.verdict for r in reports)
    documents: List[Dict[str, object]] = []
    rows: List[List[object]] = []
    lines: List[str] = []
    for report in reports:
        lines.append(
            f"== {report.name} ({'PASS' if report.verdict else 'FAIL'}) ==")
        lines.extend(f"  input {key} = {value}" for key, value in report.inputs)
        inequalities = [_inequality(c) for c in report.checks]
        for row in inequalities:
            rows.append([report.name, row["desc"], *row["lhs"], row["rel"],
                         row["rhs"][0], _flag(row["pass"]), row["note"]])
            line = (f"  [{'PASS' if row['pass'] else 'FAIL'}] {row['desc']}: "
                    f"{_side_text(row['lhs'], row['lhs_float'])} {row['rel']} "
                    f"{_side_text(row['rhs'], row['rhs_float'])}")
            lines.append(f"{line}  -- {row['note']}" if row["note"] else line)
        if report.narrative:
            lines.append(f"  note: {report.narrative}")
        lines.append("")
        documents.append({
            "name": report.name,
            "inputs": dict(report.inputs),
            "inequalities": inequalities,
            "verdict": report.verdict,
            "narrative": report.narrative,
        })
    lines += [f"summary: {summary}",
              f"verdict: {'PASS' if verdict else 'FAIL'}"]
    payload = dict(extra or {}, reports=documents, summary=summary,
                   verdict=verdict)
    columns = ["report", "check", "lhs_lo", "lhs_hi", "rel", "rhs", "pass",
               "note"]
    _emit(fmt, command, header, payload, (columns, rows), lines)
    return EXIT_PASS if verdict else EXIT_FAIL


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _emit_constants(fmt: str, rho: Fraction) -> int:
    values = certificates.sector_point_values(rho)
    documents: List[Dict[str, object]] = []
    rows: List[List[object]] = []
    lines: List[str] = []
    for name, printed in data.reference_values().items():
        enclosure = values[name]
        window = truncation_window(printed)
        contained = enclosure.intersects(window)
        slimmed = slim(enclosure)
        lo, hi = str(slimmed.lo), str(slimmed.hi)
        flo, fhi = float(enclosure.lo), float(enclosure.hi)
        documents.append({
            "name": name,
            "enclosure": [lo, hi],
            "enclosure_float": [flo, fhi],
            "reference": printed,
            "window": [str(window.lo), str(window.hi)],
            "contained": contained,
        })
        rows.append([name, lo, hi, _dec(flo), _dec(fhi), printed,
                     _flag(contained)])
        lines += [
            f"== {name} ==",
            f"  enclosure: [{lo}, {hi}]",
            f"           ~ ({_dec(flo)}, {_dec(fhi)})",
            f"  reference: {printed}  window [{window.lo}, {window.hi}]"
            f"  contained: {'yes' if contained else 'no'}",
        ]
    all_contained = all(doc["contained"] for doc in documents)
    lines += ["", "all reference windows met: "
              + ("yes" if all_contained else "no")]
    payload = {"rho": str(rho), "rows": documents,
               "all_contained": all_contained}
    columns = ["name", "enclosure_lo", "enclosure_hi", "enclosure_lo_float",
               "enclosure_hi_float", "reference", "contained"]
    _emit(fmt, "constants", f"p1cert constants  rho = {rho}", payload,
          (columns, rows), lines)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _parse_z(text: str, precision_bits: int):
    """Parse ``re,im``, polar ``r<theta`` (radians), or a bare real, as
    an mpc."""
    from mpmath import mp, mpc, mpf, workprec

    from . import evaluator
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


def _origin_block() -> Tuple[List[str], Dict[str, object]]:
    vw, sw = inner.origin_windows()[:2]
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
        origin_lines, origin_payload = _origin_block()
    payload = {
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
    y_parts = ("", "") if outcome.y is None else _parts(outcome.y, _JSON_DIGITS)
    row = [*_parts(outcome.z, _JSON_DIGITS), *y_parts,
           _opt_nstr(outcome.error_bound) or "",
           _opt_nstr(outcome.error_estimate) or "",
           _flag(outcome.rigorous), outcome.method]
    columns = ["re_z", "im_z", "re_y", "im_y", "error_bound",
               "error_estimate", "rigorous", "method"]

    lines = [f"method: {outcome.method}    rigorous: "
             + ("yes" if outcome.rigorous else "no")]
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
    header = (f"p1cert eval  z = {_complex_text(outcome.z)}"
              f"  (precision {precision_bits} bits)")
    _emit(fmt, "eval", header, payload, (columns, [row]), lines)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# series and pole
# ---------------------------------------------------------------------------


def _emit_series(fmt: str, order: int, precision_bits: int) -> int:
    from . import evaluator
    g0, g1 = evaluator.integration_seed()
    coeffs = evaluator.taylor_coeffs(g0, g1, 0, order, precision_bits)
    payload = {
        "order": order,
        "center": {"t": "0", "g": str(g0), "g_prime": str(g1)},
        "coefficients": [
            {"k": k, "re": re_s, "im": im_s}
            for k, (re_s, im_s) in enumerate(
                _parts(c, _JSON_DIGITS) for c in coeffs)
        ],
    }
    rows = [[k, *_parts(c, _SERIES_CSV_DIGITS)] for k, c in enumerate(coeffs)]
    lines = [f"center: t = 0, g = {g0}, g' = {g1}  (certified window centres)"]
    lines += [f"  c_{k} = {_complex_text(c)}" for k, c in enumerate(coeffs)]
    _emit(fmt, "series", f"p1cert series  order = {order}", payload,
          (["k", "re_ck", "im_ck"], rows), lines)
    return EXIT_PASS


def _emit_pole(fmt: str, scan, precision_bits: int) -> int:
    best = scan.best
    payload = {
        "precision_bits": precision_bits,
        "best": {
            "direction": _nstr(best.direction, _JSON_DIGITS),
            "distance": _nstr(best.distance, _JSON_DIGITS),
            "location": _complex_json(best.location),
            "steps": best.steps,
        },
        "series_estimate": {
            "location": _complex_json(scan.series_estimate),
            "order": scan.series_order,
            "gap": _nstr(scan.gap, _ERROR_DIGITS),
        },
        "note": scan.note,
    }
    columns = ["direction", "distance", "re_location", "im_location",
               "steps", "re_series_estimate", "im_series_estimate",
               "series_order", "gap"]
    rows = [[_nstr(best.direction, _JSON_DIGITS),
             _nstr(best.distance, _JSON_DIGITS),
             *_parts(best.location, _JSON_DIGITS), best.steps,
             *_parts(scan.series_estimate, _JSON_DIGITS), scan.series_order,
             _nstr(scan.gap, _ERROR_DIGITS)]]
    lines = [
        f"series estimate: {_complex_text(scan.series_estimate)}  "
        f"(ratio of the origin coefficients of orders "
        f"{scan.series_order - 1} and {scan.series_order})",
        f"refined along arg t = {_nstr(best.direction, 10)}: location "
        f"{_complex_text(best.location)}  ({best.steps} integration steps)",
        f"gap: {_nstr(scan.gap, 4)}",
        "",
        f"nearest pole distance: {_nstr(best.distance, _TEXT_DIGITS)}",
        f"note: {scan.note}",
    ]
    _emit(fmt, "pole", f"p1cert pole  (precision {precision_bits} bits)",
          payload, (columns, rows), lines)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# The click group
# ---------------------------------------------------------------------------


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Certified enclosures and evaluation for a distinguished
    pole-free solution of  y'' = 6 y^2 + z."""


@main.command()
@click.option("--scope", type=click.Choice(tuple(certificates.SCOPES)),
              default="all", show_default=True,
              help="Which certificate family to run.")
@rho_option
@format_option
@partitions_option
@tables_option
def verify(scope: str, rho: Fraction, fmt: str,
           partitions: Optional[str], tables: Optional[str]) -> None:
    """Run the machine-checked certificate suites.

    Exit status: 0 when every selected inequality holds, 1 when any
    fails, 2 when the request violates a stated precondition.
    """
    def body() -> int:
        reports, summary = certificates.run_scope(scope, rho)
        return _emit_reports(
            fmt, "verify", reports, summary,
            f"p1cert verify  scope = {scope}  rho = {rho}",
            extra={"scope": scope, "rho": str(rho)})

    _run(body, tables, partitions)


@main.command()
@rho_option
@format_option
@tables_option
def constants(rho: Fraction, fmt: str, tables: Optional[str]) -> None:
    """Enclose the catalogued sector constants at radius RHO.

    Prints each constant's validated enclosure beside the shipped
    reference decimal and whether the enclosure meets the reference's
    truncation window.  The reference decimals are stated at rho = 3;
    at larger rho the enclosures shrink below them, which the
    containment column then reports.  Exit status: 0, or 2 when
    rho < 3.
    """
    _run(lambda: _emit_constants(fmt, rho), tables)


@main.command()
@format_option
@tables_option
def identities(fmt: str, tables: Optional[str]) -> None:
    """Check the shipped expansion tables against recomputed ones.

    Every comparison is an exact identity between rational polynomial
    coefficients.  Exit status: 0 when all hold, 1 otherwise.
    """
    def body() -> int:
        report = certificates.check_symbolic_tables()
        summary = ("all shipped tables match their recomputations"
                   if report.verdict else
                   certificates.failure_summary([report]))
        return _emit_reports(fmt, "identities", [report], summary,
                             "p1cert identities")

    _run(body, tables)


@main.command(name="eval")
@click.option("--z", "z_text", required=True,
              help="Evaluation point: 're,im', polar 'r<theta' "
                   "(theta in radians), or a bare real number.")
@precision_option
@format_option
@partitions_option
def eval_command(z_text: str, precision_bits: int, fmt: str,
                 partitions: Optional[str]) -> None:
    """Evaluate the distinguished solution at one point.

    Method preference: certified origin window at z = 0; certified
    asymptotic representations where they apply; otherwise numerical
    integration from the origin data (flagged non-rigorous).  Points in
    the one sector that can contain poles, beyond the certified disk,
    carry an explicit warning.
    """
    def body() -> int:
        from . import evaluator
        z = _parse_z(z_text, precision_bits)
        try:
            outcome = evaluator.evaluate_point(z, precision_bits=precision_bits)
        except RuntimeError as exc:
            click.echo(f"integration failed: {exc}", file=sys.stderr)
            return EXIT_FAIL
        return _emit_eval(fmt, outcome, precision_bits)

    _run(body, partitions=partitions)


@main.command(help=(
    "Maclaurin coefficients of the interior-frame solution at t = 0.\n\n"
    f"Seeded from the certified origin data g(0) = {inner.CENTER_VALUE}, "
    f"g'(0) = {inner.CENTER_SLOPE} (window centres); coefficients beyond "
    "the first two follow from the quadratic recurrence of  "
    "g'' = 6 g^2 + t."))
@click.option("--order", type=click.IntRange(min=2), default=8,
              show_default=True,
              help="Highest coefficient index to print (at least 2; the "
                   "first two coefficients are the seed data).")
@precision_option
@format_option
def series(order: int, precision_bits: int, fmt: str) -> None:
    _run(lambda: _emit_series(fmt, order, precision_bits))


@main.command()
@precision_option
@format_option
def pole(precision_bits: int, fmt: str) -> None:
    """Estimate the nearest pole of the solution from the origin.

    Reads the estimate off the origin series by the ratio of its top two
    coefficients, and refines it by one integration towards it, until
    blowup.  Both are numerical estimates, not certified statements.
    Exit status: 0, 1 with the reason on stderr when the integration
    meets no blowup, or 2 below the minimum precision.
    """
    def body() -> int:
        from . import evaluator
        try:
            scan = evaluator.pole_scan(precision_bits=precision_bits)
        except evaluator.PoleNotFoundError as exc:
            click.echo(f"no blowup found: {exc}", file=sys.stderr)
            return EXIT_FAIL
        return _emit_pole(fmt, scan, precision_bits)

    _run(body)


if __name__ == "__main__":  # pragma: no cover
    main()
