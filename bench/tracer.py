"""Spans and counters recorded around p1cert's public functions, from outside.

The program binds most names with ``from .x import y``, so a function is
looked up through several module namespaces.  :meth:`Tracer.install`
therefore replaces the function object under every name that holds it in
any ``p1cert`` module, and replaces operator methods on their classes
(including aliases such as ``__rmul__ = __mul__``).  :meth:`Tracer.uninstall`
puts every original back, so a pass run between the two is untraced.

Spans stay in memory as tuples and are written out once, at the end, as
JSON lines.  Hot arithmetic operators are counted, not spanned.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "certificates", "functionals", "numerics", "polybound",
          "inner", "formal", "data", "evaluator")

EVALUATE_METHODS = ("origin-enclosure", "asymptotic-omegaI",
                    "asymptotic-omega4", "integration")

# (module, attribute, span name): timed spans.
SPANNED = [
    ("certificates", "run_all", "certificates.run_all"),
    ("certificates", "check_omega_I", "certificates.check_omega_I"),
    ("certificates", "check_z0_bounds", "certificates.check_z0_bounds"),
    ("certificates", "check_omega_12", "certificates.check_omega_12"),
    ("certificates", "check_omega_4", "certificates.check_omega_4"),
    ("certificates", "check_inner_interval",
     "certificates.check_inner_interval"),
    ("certificates", "check_taylor_radius", "certificates.check_taylor_radius"),
    ("certificates", "check_symbolic_tables",
     "certificates.check_symbolic_tables"),
    ("certificates", "sector_majorants", "certificates.sector_majorants"),
    ("certificates", "z2_remainder_majorant",
     "certificates.z2_remainder_majorant"),
    ("certificates", "route_constants", "certificates.route_constants"),
    ("certificates", "sector_point_values", "certificates.sector_point_values"),
    ("certificates", "inverse_power_integral",
     "certificates.inverse_power_integral"),
    ("certificates", "taylor_envelope_run", "certificates.taylor_envelope_run"),
    ("numerics", "frac_pow", "numerics.frac_pow"),
    ("numerics", "root_enclosure", "numerics.root_enclosure"),
    ("polybound", "sup_abs_partition", "polybound.sup_abs_partition"),
    ("inner", "certify", "inner.certify"),
    ("formal", "verify_r_table", "formal.verify_tables"),
    ("formal", "verify_q_table", "formal.verify_tables"),
    ("formal", "verify_E_table", "formal.verify_tables"),
    ("formal", "verify_G04_tables", "formal.verify_tables"),
    ("formal", "verify_auxiliary_identities", "formal.verify_tables"),
    ("data", "expansion_tables", "data.parse"),
    ("data", "constant_catalog", "data.parse"),
    ("data", "reference_values", "data.parse"),
    ("data", "inner_polynomials", "data.parse"),
    ("data", "inner_partitions", "data.parse"),
    ("data", "file_fingerprints", "data.parse"),
    ("evaluator", "evaluate_point", "evaluator.evaluate_point"),
    ("evaluator", "asymptotic_y", "evaluator.asymptotic_y"),
    ("evaluator", "h0_value", "evaluator.h0_value"),
    ("evaluator", "frame_map", "evaluator.frame_map"),
    ("evaluator", "y_at_zero", "evaluator.y_at_zero"),
    ("evaluator", "integrate", "evaluator.integrate"),
    ("evaluator", "pole_estimate", "evaluator.pole_estimate"),
    ("evaluator", "pole_scan", "evaluator.pole_scan"),
]

# (module, attribute, counter name): call counts only.
COUNTED = [
    ("polybound", "sup_abs", "polybound.sup_abs.calls"),
]

# (module, class, method, counter name): operators, counted on the class.
COUNTED_METHODS = [
    ("numerics", "Interval", "__mul__", "numerics.Interval.mul.calls"),
    ("numerics", "Interval", "__add__", "numerics.Interval.add.calls"),
    ("functionals", "PowerSum", "__mul__", "functionals.PowerSum.mul.calls"),
    ("functionals", "PowerSum", "__pow__", "functionals.PowerSum.pow.calls"),
]

# (module, class, method, span name): methods spanned on the class.
SPANNED_METHODS = [
    ("functionals", "PowerSum", "enclosure", "functionals.PowerSum.enclosure"),
    ("functionals", "PowerSum", "nonincreasing_in_rho",
     "functionals.PowerSum.nonincreasing_in_rho"),
]

# Per-layer metrics that no wrapper can reach from outside the program.
UNREACHABLE = {
    "pole_estimate steps": "pole_estimate calls the private _integrate_leg "
                           "and PoleEstimate carries no step count, so the "
                           "pole workload's integrator steps are not "
                           "reported; evaluator.integrate.* covers evaluate",
}

Span = Tuple[int, Optional[int], str, float, float, bool]


def program_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "p1cert" or name.startswith("p1cert."))]


def powersum_terms(value) -> int:
    """Number of rational coefficients held by a PowerSum."""
    return sum(len(coeff.items()) for _, coeff in value.items())


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.powersum_terms_max = 0
        self.methods: Counter = Counter()
        self.integrations: List[Tuple[int, int, float]] = []
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._stack: List[Optional[int]] = [None]
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; used by the benchmark's own code."""
        return self._spanned(name, fn)(*args, **kwargs)

    def _spanned(self, name: str, fn: Callable,
                 after: Optional[Callable] = None) -> Callable:
        ids, stack, spans = self._ids, self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, ok))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable,
                 after: Optional[Callable] = None) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- hooks that read results --------------------------------------------

    def _after_powersum(self, args, kwargs, result) -> None:
        self.powersum_terms_max = max(self.powersum_terms_max,
                                      powersum_terms(result))

    def _after_evaluate(self, args, kwargs, result) -> None:
        self.methods[result.method] += 1

    def _integrate_hook(self, integrate: Callable) -> Callable:
        signature = inspect.signature(integrate)

        def after(args, kwargs, result) -> None:
            bound = signature.bind(*args, **kwargs)
            length = abs(complex(bound.arguments["t_end"])
                         - complex(bound.arguments["t_start"]))
            self.integrations.append((result.steps, result.order, length))
        return after

    def reset_counts(self) -> None:
        """Forget counts and results read so far; spans are kept."""
        self.counts.clear()
        self.powersum_terms_max = 0
        self.methods.clear()
        self.integrations.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {m.__name__.split(".")[-1]: m for m in program_modules()}
        for module, attr, name in SPANNED:
            original = getattr(modules[module], attr)
            after = (self._after_evaluate if attr == "evaluate_point" else
                     self._integrate_hook(original) if attr == "integrate"
                     else None)
            self._replace(original, self._spanned(name, original, after))
        for module, attr, name in COUNTED:
            original = getattr(modules[module], attr)
            self._replace(original, self._counted(name, original))
        for module, cls_name, method, name in COUNTED_METHODS:
            cls = getattr(modules[module], cls_name)
            after = self._after_powersum if cls_name == "PowerSum" else None
            self._replace_method(cls, method,
                                 self._counted(name, vars(cls)[method], after))
        for module, cls_name, method, name in SPANNED_METHODS:
            cls = getattr(modules[module], cls_name)
            self._replace_method(cls, method,
                                 self._spanned(name, vars(cls)[method]))

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        for module in program_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _replace_method(self, cls, method: str, wrapper: Callable) -> None:
        original = vars(cls)[method]
        for key, value in list(vars(cls).items()):
            if value is original:
                self._patches.append((cls, key, original))
                setattr(cls, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- analysis -----------------------------------------------------------

    @staticmethod
    def inclusive_seconds(spans: List[Span]) -> Dict[str, float]:
        """Total time per span name, counting only outermost occurrences
        (a span nested in a span of the same name adds nothing)."""
        by_id = {s[0]: s for s in spans}
        totals: Dict[str, float] = defaultdict(float)
        for sid, parent, name, start, end, _ in spans:
            nested = False
            while parent is not None and parent in by_id:
                if by_id[parent][2] == name:
                    nested = True
                    break
                parent = by_id[parent][1]
            if not nested:
                totals[name] += end - start
        return totals

    @staticmethod
    def self_seconds_by_layer(spans: List[Span]) -> Dict[str, float]:
        """Span duration minus the part its child spans cover, per layer."""
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for sid, _, name, start, end, _ in spans:
            out[name.split(".")[0]] += (end - start) - covered[sid]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, start, end, ok in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start": round(start - self.origin, 9),
                    "end": round(end - self.origin, 9), "ok": ok,
                }) + "\n")

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, setup: List[Span], traced: List[Span]
                      ) -> Dict[str, float]:
        """Per-layer metrics of the traced pass (plus three of set-up)."""
        incl = self.inclusive_seconds(traced)
        calls = Counter(s[2] for s in traced)
        out: Dict[str, float] = {}
        for name in ("certificates.check_omega_4", "certificates.sector_majorants",
                     "certificates.sector_point_values",
                     "certificates.check_omega_12",
                     "certificates.inverse_power_integral",
                     "certificates.check_taylor_radius",
                     "certificates.taylor_envelope_run",
                     "certificates.check_inner_interval",
                     "certificates.check_omega_I", "certificates.check_z0_bounds",
                     "certificates.check_symbolic_tables",
                     "functionals.PowerSum.enclosure",
                     "functionals.PowerSum.nonincreasing_in_rho",
                     "numerics.frac_pow", "numerics.root_enclosure",
                     "polybound.sup_abs_partition", "inner.certify",
                     "formal.verify_tables", "data.parse",
                     "evaluator.asymptotic_y", "evaluator.h0_value",
                     "evaluator.frame_map", "evaluator.y_at_zero",
                     "evaluator.pole_scan"):
            out[name + ".s"] = incl.get(name, 0.0)
        for name in ("certificates.sector_majorants",
                     "certificates.z2_remainder_majorant",
                     "certificates.route_constants", "numerics.frac_pow",
                     "numerics.root_enclosure"):
            out[name + ".calls"] = calls.get(name, 0)
        for name in ("polybound.sup_abs.calls", "numerics.Interval.mul.calls",
                     "numerics.Interval.add.calls",
                     "functionals.PowerSum.mul.calls",
                     "functionals.PowerSum.pow.calls"):
            out[name] = self.counts.get(name, 0)
        out["functionals.PowerSum.terms.max"] = self.powersum_terms_max

        cli = incl.get("cli.verify", 0.0) + incl.get("cli.pole", 0.0)
        out["cli.render.s"] = (cli - incl.get("certificates.run_all", 0.0)
                               - incl.get("evaluator.pole_scan", 0.0)) if cli else 0.0

        steps = sum(s for s, _, _ in self.integrations)
        length = sum(t for _, _, t in self.integrations)
        integrate_s = incl.get("evaluator.integrate", 0.0)
        out["evaluator.integrate.calls"] = calls.get("evaluator.integrate", 0)
        out["evaluator.integrate.s"] = integrate_s
        out["evaluator.integrate.steps"] = steps
        out["evaluator.integrate.order"] = max(
            (o for _, o, _ in self.integrations), default=0)
        out["evaluator.integrate.s_per_step"] = integrate_s / steps if steps else 0.0
        out["evaluator.integrate.steps_per_unit_t"] = steps / length if length else 0.0
        # Computed, not measured: a Taylor step of order n builds its
        # coefficients by a Cauchy product, about n^2/2 complex
        # multiply-adds.
        out["evaluator.integrate.taylor_madds_computed"] = sum(
            s * o * o // 2 for s, o, _ in self.integrations)
        for method in EVALUATE_METHODS:
            out[f"evaluator.evaluate_point.method.{method}.count"] = \
                self.methods.get(method, 0)

        poles = [s for s in traced if s[2] == "evaluator.pole_estimate"]
        durations = [end - start for _, _, _, start, end, _ in poles]
        out["evaluator.pole_estimate.calls"] = len(poles)
        out["evaluator.pole_estimate.s_p50"] = (
            statistics.median(durations) if durations else 0.0)
        out["evaluator.pole_estimate.s_max"] = max(durations, default=0.0)
        out["evaluator.pole_estimate.found_ratio"] = (
            sum(1 for s in poles if s[5]) / len(poles) if poles else 0.0)

        selfs = self.self_seconds_by_layer(traced)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = selfs.get(layer, 0.0)

        setup_incl = self.inclusive_seconds(setup)
        for name in ("data.parse", "inner.certify", "evaluator.y_at_zero"):
            out[f"setup.{name}.s"] = setup_incl.get(name, 0.0)
        return out
