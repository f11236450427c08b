"""The benchmark's tracer must keep finding what it hooks in the program.

``bench/tracer.py`` wraps functions by module attribute and operators by
class attribute (``vars(cls)``), from outside ``src/``.  A refactor that
moves a function, or lets a hooked operator be inherited instead of
bound on its class, would break the traced benchmark run silently.
These tests load the tracer by path and change nothing under ``bench/``.
"""

import importlib
import importlib.util
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
    # only if the hot loops still run through these module attributes.
    # On one CPU every report runs in this process, where the counter
    # can see it; a forked worker's calls would not be counted.
    monkeypatch.setattr(certificates, "_usable_cpus", lambda: 1)
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
