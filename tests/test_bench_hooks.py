"""The benchmark's tracer must keep finding what it hooks in the program.

``bench/tracer.py`` wraps functions by module attribute and operators by
class attribute (``vars(cls)``), from outside ``src/``.  A refactor that
moves a function, or lets a hooked operator be inherited instead of
bound on its class, would break the traced benchmark run silently.
These tests load the tracer by path and change nothing under ``bench/``.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from p1cert import (certificates, cli, data, evaluator,  # noqa: F401
                    formal, functionals, inner, numerics, polybound)
from p1cert.functionals import PowerSum

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"p1cert.{name}")


def test_spanned_and_counted_functions_resolve(tracer):
    for module, attr, _ in tracer.SPANNED + tracer.COUNTED:
        assert callable(getattr(_module(module), attr)), (module, attr)


def test_hooked_methods_are_bound_on_their_class(tracer):
    for module, cls_name, method, _ in (tracer.COUNTED_METHODS
                                        + tracer.SPANNED_METHODS):
        cls = getattr(_module(module), cls_name)
        assert method in vars(cls), (cls_name, method)


def _snapshot(tracer):
    owners = list(tracer.program_modules())
    owners += [getattr(_module(module), cls_name)
               for module, cls_name, _, _ in (tracer.COUNTED_METHODS
                                              + tracer.SPANNED_METHODS)]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_install_then_uninstall_restores_every_original(tracer):
    before = _snapshot(tracer)
    hooks = tracer.Tracer("test")
    hooks.install()
    try:
        assert vars(PowerSum)["__mul__"] is not dict(before)[PowerSum]["__mul__"]
        p = PowerSum.constant(1) + PowerSum.monomial(1, "1/2")
        assert p * p == p**2
        assert hooks.counts["functionals.PowerSum.mul.calls"] >= 1
        assert hooks.counts["functionals.PowerSum.pow.calls"] == 1
    finally:
        hooks.uninstall()
    for owner, saved in before:
        current = vars(owner)
        assert set(current) == set(saved), owner
        for key, value in saved.items():
            assert current[key] is value, (owner, key)


def test_one_certificate_pass_runs_the_hot_loops_through_hooked_names(
        tracer, monkeypatch):
    # The tracer's per-layer spans time the quadrature and the sup norms
    # only if the hot loops still run through these module attributes,
    # in this process, where the counter can see them.
    counts = {}
    for owner, attr in ((certificates, "inverse_power_integral"),
                        (polybound, "sup_abs_partition")):
        original = getattr(owner, attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] = counts.get(_attr, 0) + 1
            return _original(*args, **kwargs)

        for module in tracer.program_modules():
            if vars(module).get(attr) is original:
                monkeypatch.setattr(module, attr, counted)
    data.clear_cache()
    certificates.run_all()
    assert counts == {"inverse_power_integral": 1, "sup_abs_partition": 12}


#: The spans one traced certificate pass records, with the number of times
#: each runs (None: at least once, as often as the caches leave to do).
CERTIFY_SPANS = {
    "certificates.run_all": 1,
    "certificates.check_omega_I": 2,
    "certificates.check_z0_bounds": 1,
    "certificates.check_omega_12": 1,
    "certificates.check_omega_4": 1,
    "certificates.check_inner_interval": 1,
    "certificates.check_taylor_radius": 1,
    "certificates.check_symbolic_tables": 1,
    "certificates.inverse_power_integral": 1,
    "certificates.taylor_envelope_run": 1,
    "certificates.route_constants": 1,
    "certificates.z2_remainder_majorant": 3,
    "inner.certify": 1,
    "polybound.sup_abs_partition": 12,
    "formal.verify_tables": 5,
    "data.parse": 9,
    "numerics.frac_pow": None,
    "numerics.root_enclosure": None,
    "functionals.PowerSum.enclosure": None,
    "functionals.PowerSum.nonincreasing_in_rho": None,
}


@pytest.fixture(scope="module")
def certify_spans(tracer):
    """(count, inclusive seconds) per span name of one traced pass."""
    data.clear_cache()
    hooks = tracer.Tracer("certify")
    hooks.install()
    try:
        certificates.run_all()
    finally:
        hooks.uninstall()
    return (Counter(span[2] for span in hooks.spans),
            tracer.Tracer.inclusive_seconds(hooks.spans))


@pytest.mark.parametrize("name", sorted(CERTIFY_SPANS))
def test_a_traced_certificate_pass_times_each_layer(certify_spans, name):
    # Every report runs in the process that installed the tracer, so each
    # check and the layers under it are timed, not only run_all.
    counts, seconds = certify_spans
    if CERTIFY_SPANS[name] is None:
        assert counts[name] >= 1
    else:
        assert counts[name] == CERTIFY_SPANS[name]
    assert seconds[name] > 0
