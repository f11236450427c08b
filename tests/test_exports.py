"""Every name a module exports through ``__all__`` must exist.

A stale entry breaks ``from p1cert.<module> import *`` only when someone
runs it; this test makes it fail with the suite instead.
"""

import importlib
import pkgutil

import p1cert


def test_exported_names_resolve():
    modules = [p1cert] + [
        importlib.import_module(f"p1cert.{info.name}")
        for info in pkgutil.iter_modules(p1cert.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
