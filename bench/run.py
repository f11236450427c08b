#!/usr/bin/env python3
"""Benchmark of p1cert: one closed-loop caller, three workloads.

    python3 bench/run.py --workload certify|evaluate|pole --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; p1cert is imported from ``src/`` there.
One single-threaded caller runs whole passes of the workload, each call
starting after the previous one returns, until ``--seconds`` have been
measured (at least one pass).  Every output is checked; a call whose
output fails its check, or that raises, counts as failed.

* ``certify``  -- ``p1cert verify --scope all --format json`` in-process at
  rho = 3.  The seed is recorded, not used: the inputs are the shipped data.
* ``evaluate`` -- ``evaluator.evaluate_point`` at its defaults on a seeded
  mix of points: the origin, closed-form points on the omega_I ray and in
  the omega_4 wedge, points in the disk |z| < 37/20 and outer points in
  the omega_12 wedge.
* ``pole``     -- ``p1cert pole --format json`` in-process (seed unused).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` an untraced, a traced and a second untraced pass run,
and the last line holds the per-layer metrics (see ``tracer.py``),
including the tracing overhead.  Lines before it show the same run by
the names used in ``bench/NOTES.md``.  Details go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report_schema.json"
REFERENCE = BENCH / "reference" / "verify_structure.json"

WORKLOADS = ("certify", "evaluate", "pole")
SETUP_REPEATS = 11

# Evaluate mix.
RAY_POINTS = 150
WEDGE_POINTS = 150
RAY_MIN_RADIUS = Fraction(344, 100)      # certified ray radius ~3.4372
WEDGE_MIN_RADIUS = Fraction(3)
CLOSED_FORM_MAX_RADIUS = Fraction(40)
# Integration points: (|t|, arg t / pi) cell centres in the rotated frame.
# The seed moves each point within +-0.05 in |t| and +-pi/40 in arg t;
# cells are fixed so that the cost of a pass stays steady across seeds.
DISK_CELLS = ((Fraction(1), Fraction(0)), (Fraction(13, 10), Fraction(1, 2)),
              (Fraction(14, 10), Fraction(-3, 4)))
OUTER_CELLS = ((Fraction(195, 100), Fraction(3, 5)),
               (Fraction(22, 10), Fraction(4, 5)))
RADIUS_JITTER = Fraction(1, 20)
ANGLE_JITTER = Fraction(1, 40)           # in units of pi
DISK_RADIUS = Fraction(37, 20)
POLE_RANGE = (Fraction(37, 20), Fraction(240, 100))


# ---------------------------------------------------------------------------
# Program loading
# ---------------------------------------------------------------------------


def import_program() -> Dict[str, object]:
    """Import p1cert from the checkout's sources."""
    if not (SRC / "p1cert" / "__init__.py").is_file():
        raise SystemExit(f"p1cert sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from p1cert import cli, data, evaluator
    return {"cli": cli, "data": data, "evaluator": evaluator}


def make_ready(program: Dict[str, object], workload: str) -> None:
    """Parse the data files and, for evaluate, certify the origin data."""
    data = program["data"]
    for accessor in (data.expansion_tables, data.constant_catalog,
                     data.reference_values, data.inner_polynomials,
                     data.inner_partitions):
        accessor()
    if workload == "evaluate":
        program["evaluator"].y_at_zero()


def measure_setup(workload: str) -> List[float]:
    """Seconds from spawning a fresh interpreter until it is ready."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.make_ready(run.import_program(), sys.argv[2])")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(BENCH), workload],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# Operations and their correctness gates
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One call of the closed loop: ``call()`` returns its output and
    ``gate(output)`` returns None or the reason the output is wrong."""

    kind: str
    call: Callable[[], object]
    gate: Callable[[object], Optional[str]]


def run_cli(cli, args: List[str]) -> Tuple[int, str]:
    """Run the click command in-process; return (exit code, stdout)."""
    buffer = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buffer):
        try:
            cli.main.main(args=args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue()


def schema_errors(payload: dict) -> Optional[str]:
    import jsonschema
    schema = json.loads(SCHEMA.read_text())
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        return f"schema: {exc.message}"
    return None


def verify_structure(payload: dict) -> Dict[str, dict]:
    """Report name -> its parameter block and sorted check names."""
    return {r["name"]: {"inputs": r["inputs"],
                        "checks": sorted(q["desc"] for q in r["inequalities"])}
            for r in payload["reports"]}


def certify_gate(output: Tuple[int, str]) -> Optional[str]:
    code, text = output
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return f"exit {code}, output is not JSON"
    problems = []
    failing = [f"{r['name']}/{q['desc']}" for r in payload.get("reports", [])
               for q in r["inequalities"] if not q["pass"]]
    if failing:
        problems.append("failing checks: " + ", ".join(failing))
    if code != 0:
        problems.append(f"exit code {code}")
    if not all(r["verdict"] for r in payload.get("reports", [])):
        problems.append("a report has verdict false")
    error = schema_errors(payload)
    if error:
        problems.append(error)
    if error is None and verify_structure(payload) != \
            json.loads(REFERENCE.read_text())["reports"]:
        problems.append("report/check names or parameters differ from the "
                        "reference")
    return "; ".join(problems) or None


def pole_gate(output: Tuple[int, str]) -> Optional[str]:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(text)
    error = schema_errors(payload)
    if error:
        return error
    distance = Fraction(payload["best"]["distance"])
    if not POLE_RANGE[0] <= distance <= POLE_RANGE[1]:
        return f"best distance {float(distance)} outside [37/20, 2.40]"
    return None


def finite(value) -> bool:
    return value is not None and math.isfinite(abs(complex(value)))


def evaluation_gate(kind: str, z) -> Callable[[object], Optional[str]]:
    expected = {"origin": "origin-enclosure", "ray": "asymptotic-omegaI",
                "wedge": "asymptotic-omega4", "disk": "integration",
                "outer": "integration"}[kind]

    def gate(ev) -> Optional[str]:
        if ev.method != expected:
            return f"{kind} point {complex(z)}: method {ev.method}"
        if not finite(ev.y):
            return f"{kind} point {complex(z)}: value {ev.y}"
        if kind in ("origin", "ray", "wedge") and not (
                ev.rigorous and finite(ev.error_bound)):
            return f"{kind} point {complex(z)}: no rigorous finite bound"
        if kind == "disk":
            r = Fraction(abs(complex(z)))
            envelope = (1 / DISK_RADIUS) ** 2 / (1 - r / DISK_RADIUS) ** 2
            if Fraction(abs(complex(ev.y))) > envelope:
                return f"disk point {complex(z)}: |y| above the envelope"
        return None
    return gate


def _uniform(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randrange(10**6), 10**6)


def evaluate_points(seed: int, evaluator) -> List[Tuple[str, object]]:
    """The seeded point mix as (region class, z)."""
    from mpmath import mp, mpc, mpf, workprec
    rng = random.Random(seed)

    def real(q: Fraction):
        return mpf(q.numerator) / q.denominator

    def polar(r: Fraction, turns: Fraction):
        angle = mp.pi * real(turns)
        return real(r) * mpc(mp.cos(angle), mp.sin(angle))

    closed: List[Tuple[str, object]] = []
    slow: List[Tuple[str, object]] = []
    with workprec(evaluator.DEFAULT_PRECISION_BITS + evaluator.GUARD_BITS):
        for _ in range(RAY_POINTS):
            r = _uniform(rng, RAY_MIN_RADIUS, CLOSED_FORM_MAX_RADIUS)
            closed.append(("ray", evaluator.frame_map(mpc(0, real(r)), "x").z))
        for _ in range(WEDGE_POINTS):
            x = polar(_uniform(rng, WEDGE_MIN_RADIUS, CLOSED_FORM_MAX_RADIUS),
                      _uniform(rng, Fraction(-1, 2), Fraction(-1, 4)))
            closed.append(("wedge", evaluator.frame_map(x, "x").z))
        for kind, cells in (("disk", DISK_CELLS), ("outer", OUTER_CELLS)):
            for radius, turns in cells:
                t = polar(_uniform(rng, radius - RADIUS_JITTER,
                                   radius + RADIUS_JITTER),
                          _uniform(rng, turns - ANGLE_JITTER,
                                   turns + ANGLE_JITTER))
                slow.append((kind, evaluator.frame_map(t, "t").z))
    # Spread the millisecond calls evenly between the integration calls,
    # so that their percentiles sample the whole pass, not one short
    # stretch of it in which the host may happen to run slow or fast.
    rng.shuffle(closed)
    points: List[Tuple[str, object]] = [("origin", mpc(0))]
    share = len(closed) // (len(slow) + 1)
    for i, point in enumerate(slow):
        points += closed[i * share:(i + 1) * share] + [point]
    return points + closed[len(slow) * share:]


def workload_ops(workload: str, seed: int, program) -> List[Op]:
    cli, evaluator = program["cli"], program["evaluator"]
    if workload == "certify":
        args = ["verify", "--scope", "all", "--rho", "3", "--format", "json"]
        return [Op("verify", lambda: run_cli(cli, args), certify_gate)]
    if workload == "pole":
        return [Op("pole", lambda: run_cli(cli, ["pole", "--format", "json"]),
                   pole_gate)]
    return [Op(kind, (lambda z=z: evaluator.evaluate_point(z)),
               evaluation_gate(kind, z))
            for kind, z in evaluate_points(seed, evaluator)]


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


@dataclass
class Call:
    kind: str
    seconds: float
    failure: Optional[str]


def run_pass(ops: List[Op], around: Callable = None) -> List[Call]:
    """Run every op once, in order; ``around(op)`` may wrap the call."""
    calls = []
    for op in ops:
        call = op.call if around is None else around(op)
        start = time.perf_counter()
        try:
            output = call()
        except Exception as exc:  # a raising call is a failed operation
            calls.append(Call(op.kind, time.perf_counter() - start,
                              f"{op.kind}: {type(exc).__name__}: {exc}"))
            continue
        elapsed = time.perf_counter() - start
        try:
            failure = op.gate(output)
        except Exception as exc:  # output the gate cannot read is wrong
            failure = f"{op.kind}: unreadable output: {exc!r}"
        calls.append(Call(op.kind, elapsed, failure))
    return calls


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def workload_view(workload: str, passes: List[List[Call]]) -> Dict[str, dict]:
    """The workload's metrics under the names of bench/NOTES.md."""
    totals = [sum(c.seconds for c in p) for p in passes]
    view = {}
    if workload == "certify":
        view["verify_s"] = (statistics.median(totals), "s", len(totals))
    elif workload == "pole":
        view["pole_s"] = (statistics.median(totals), "s", len(totals))
    else:
        view["eval_s"] = (statistics.median(totals), "s", len(totals))
        by_kind: Dict[str, List[float]] = {}
        for p in passes:
            for c in p:
                by_kind.setdefault(c.kind, []).append(c.seconds)
        closed = by_kind["ray"] + by_kind["wedge"]
        view["eval_closed_form_p50_ms"] = (
            statistics.median(closed) * 1e3, "ms", len(closed))
        view["eval_closed_form_p95_ms"] = (
            percentile(closed, 95) * 1e3, "ms", len(closed))
        view["eval_disk_p50_s"] = (
            statistics.median(by_kind["disk"]), "s", len(by_kind["disk"]))
        view["eval_outer_p50_s"] = (
            statistics.median(by_kind["outer"]), "s", len(by_kind["outer"]))
    return view


def region_shares(passes: List[List[Call]]) -> Dict[str, dict]:
    """Share of evaluate points, and of their time, per region class."""
    classes = {"origin": ("origin",), "closed_form": ("ray", "wedge"),
               "disk": ("disk",), "outer": ("outer",)}
    calls = [c for p in passes for c in p]
    total_time = sum(c.seconds for c in calls)
    out = {}
    for name, kinds in classes.items():
        members = [c for c in calls if c.kind in kinds]
        out[name] = {"points": len(members),
                     "point_share": len(members) / len(calls),
                     "time_share": sum(c.seconds for c in members) / total_time}
    return out


GUARDRAIL_MARGINS = ("z0_bounds.matching_error_slope",
                     "z0_bounds.matching_error_value",
                     "omega_12.wedge_linear_growth_constant",
                     "omega_4.quadratic_bound")


def certify_guardrails(text: Optional[str]) -> Dict[str, float]:
    """Counts read from one verify JSON output; they repeat exactly.  All
    read 0 when there is no passing verify output to read them from."""
    out = dict.fromkeys(
        ["certificates.checks.count", "certificates.lhs_bits.max",
         "certificates.margin.min_rel"]
        + [f"certificates.margin.{key}" for key in GUARDRAIL_MARGINS], 0)
    if text is None:
        return out
    margins = {}
    for report in json.loads(text)["reports"]:
        for q in report["inequalities"]:
            out["certificates.checks.count"] += 1
            for end in q["lhs"]:
                value = Fraction(end)
                out["certificates.lhs_bits.max"] = max(
                    out["certificates.lhs_bits.max"],
                    value.numerator.bit_length() + value.denominator.bit_length())
            value, bound = Fraction(q["lhs"][1]), Fraction(q["rhs"][0])
            # Exact structural checks (degree 2 <= 2) hold with equality;
            # only inequalities that are not attained have a margin.
            if q["rel"] != "==" and value != bound and bound != 0:
                margins[f"{report['name']}.{q['desc']}"] = float(
                    (bound - value) / abs(bound))
    out["certificates.margin.min_rel"] = min(margins.values())
    for key in GUARDRAIL_MARGINS:
        out[f"certificates.margin.{key}"] = margins[key]
    return out


def timed_run(args, program, ops: List[Op], detail: dict):
    """Whole passes until ``args.seconds`` are measured; end-to-end metrics."""
    setup = measure_setup(args.workload)
    make_ready(program, args.workload)
    passes: List[List[Call]] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        passes.append(run_pass(ops))
    latencies = [c.seconds for p in passes for c in p]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1),
        "pass_s": (statistics.median(sum(c.seconds for c in p) for p in passes),
                   "s", len(passes)),
        "call_p95_ms": (percentile(latencies, 95) * 1e3, "ms", len(latencies)),
    }
    detail["setup_runs_s"] = setup
    view = {"setup_s": metrics["setup_s"],
            "peak_rss_mb": metrics["peak_rss_mb"],
            **workload_view(args.workload, passes)}
    return passes, {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}, view


def traced_run(args, program, ops: List[Op], detail: dict, run_id: str):
    """Traced set-up, then untraced, traced and untraced passes; per-layer
    metrics.  The overhead is the traced pass minus the mean of the two
    untraced passes around it, so that a host running steadily faster or
    slower through the run does not show as overhead."""
    import tracer as tracing
    tracer = tracing.Tracer(run_id)
    tracer.install()
    tracer.span("bench.setup", make_ready, program, args.workload)
    tracer.uninstall()
    before = run_pass(ops)

    verify_outputs: List[Tuple[int, str]] = []

    def around(op: Op):
        if op.kind not in ("verify", "pole"):
            return op.call

        def traced_call():
            output = tracer.span(f"cli.{op.kind}", op.call)
            if op.kind == "verify":
                verify_outputs.append(output)
            return output
        return traced_call

    setup_spans = len(tracer.spans)
    tracer.reset_counts()
    tracer.install()
    traced = tracer.span("bench.pass", run_pass, ops, around)
    tracer.uninstall()
    after = run_pass(ops)

    metrics = tracer.layer_metrics(tracer.spans[:setup_spans],
                                   tracer.spans[setup_spans:])
    untraced_s = [sum(c.seconds for c in p) for p in (before, after)]
    traced_s = sum(c.seconds for c in traced)
    metrics["trace.overhead_s"] = traced_s - statistics.mean(untraced_s)
    metrics["trace.spans.count"] = len(tracer.spans)
    passing = [out for out, call in zip(verify_outputs, traced)
               if not call.failure]
    metrics.update(certify_guardrails(passing[0][1] if passing else None))

    trace_file = OUT / f"trace-{run_id}.jsonl"
    tracer.write(trace_file)
    detail.update(trace_file=str(trace_file.relative_to(ROOT)),
                  untraced_s=untraced_s, traced_s=traced_s,
                  unreachable=tracing.UNREACHABLE)
    for name, reason in tracing.UNREACHABLE.items():
        print(f"not reachable from outside: {name}: {reason}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in spec["per_layer"]}
    return ([before, traced, after], result,
            workload_view(args.workload, [before, after]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not REFERENCE.is_file() or not SCHEMA.is_file():
        raise SystemExit("reference or schema file missing; run from the root "
                         "of a p1cert checkout")
    program = import_program()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail: Dict[str, object] = {"workload": args.workload, "seed": args.seed}
    ops = workload_ops(args.workload, args.seed, program)
    if args.trace:
        passes, metrics, view = traced_run(args, program, ops, detail, run_id)
    else:
        passes, metrics, view = timed_run(args, program, ops, detail)

    calls = [c for p in passes for c in p]
    failures = [c.failure for c in calls if c.failure]
    view["failed_frac"] = (len(failures) / len(calls), "1", len(calls))
    if args.workload == "evaluate":
        detail["regions"] = region_shares(passes)

    for name, (value, unit, n) in view.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    for region, share in detail.get("regions", {}).items():
        print(f"{args.workload} region {region}: {share['points']} points, "
              f"{share['point_share']:.4f} of points, "
              f"{share['time_share']:.4f} of time")
    for failure in failures[:20]:
        print(f"FAILED {failure}")

    detail.update(view={k: {"value": v, "unit": u, "n": n}
                        for k, (v, u, n) in view.items()},
                  failures=failures, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run_id}.json").write_text(json.dumps(detail, indent=2))
    print(json.dumps({"correct": not failures, "attempted": len(calls),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
