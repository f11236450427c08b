"""Bundled coefficient data: loading, typed access, and fingerprinting.

Three JSON files ship with the package:

``expansion_tables.json``
    Coefficient families of the exponential-asymptotic construction used by
    the sector certificate.  Each family maps a half-power index ``j`` (the
    column of ``x**(-j/2)``) to rows ``[k, m, c]`` standing for the term
    ``c * S**k * exp(-m*x)``.

``constant_catalog.json``
    Closed-form majorant constants: finite sums of
    ``(a + b*sqrt(2)) * |S|**k * rho**(-e)``, plus printed decimal reference
    values of assembled quantities at ``rho = 3``.

``inner_ode.json``
    Approximating polynomials for the real-axis initial value problem
    ``g'' = 6*g**2 + t`` on ``[-17/10, 0]`` (in ``s = t + 17/10``) and the
    interval partitions used to certify their sup-norm bounds.

The directory can be overridden with the ``P1CERT_DATA_DIR`` environment
variable (all three files must be present there), letting callers swap in
perturbed data for fault-injection runs.  Inside a :func:`replaced` block,
single files are read in place from other paths instead, and the rest
still come from that directory.  :func:`file_fingerprints` exposes SHA-256
digests of the active files, and :func:`parsed_files` names the files a
run parsed, so reports can pin the inputs they certified.  A file that
does not parse to the shape described here, or that writes an exact
value as a JSON float (or a reference value as anything but a decimal),
raises :class:`~p1cert.result.PreconditionError` naming the file.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Set, Tuple, Union)

from .functionals import PowerSum, QSqrt2, SPoly
from .numerics import as_fraction, as_integer, truncation_window
from .polybound import Poly, poly
from .result import PreconditionError

# The interpreter's own SHA-256 (_sha2 from CPython 3.12, _sha256 before).
# Importing hashlib maps OpenSSL, 3.6 MB of resident memory in a process
# that digests three small files and nothing else.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

DATA_ENV_VAR = "P1CERT_DATA_DIR"

DATA_FILES = (
    "expansion_tables.json",
    "constant_catalog.json",
    "inner_ode.json",
)

# family -> (smallest j, largest j, m - k offset, (k - j) parity)
TABLE_SHAPE: Mapping[str, Tuple[int, int, int, int]] = {
    "r": (5, 9, 0, 1),
    "q": (5, 9, 1, 0),
    "E": (5, 8, -2, 0),
    "t": (5, 7, 1, 1),
    "u": (5, 8, -1, 1),
    "tau": (5, 7, 1, 1),
    "t_tilde": (7, 9, 1, 1),
    "nu": (5, 8, -1, 1),
    "u_tilde": (7, 10, -1, 1),
    "p": (5, 8, -1, 1),
}

Table = Dict[int, Dict[Tuple[int, int], Fraction]]

# Keyed by the path read.  A file's bytes are read once; its fingerprint
# and every parse of it come from those bytes, so a digest always
# describes what was parsed, even if the file changes on disk later.
_bytes_cache: Dict[Path, bytes] = {}
# Keyed by (path read, reader name): the typed objects each reader built
# from its parse of those bytes, of which every call hands out a copy.
_typed_cache: Dict[Tuple[Path, str], Any] = {}

# File name -> path read in its place, set by :func:`replaced`.
_replacements: Dict[str, Path] = {}

# Names of the files parsed in this run: the innermost :func:`replaced`
# block, or since import outside one.
_parsed: Set[str] = set()


#: The data directory inside the package, resolved once: resolving it
#: took about 30 us on every lookup of a data file.
_PACKAGE_DATA = Path(str(resources.files(__package__) / "data"))


def data_dir() -> Path:
    """Directory the data files are read from (env override wins)."""
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return Path(override)
    return _PACKAGE_DATA


def clear_cache() -> None:
    """Drop memoized reads and parses (needed after changing the data
    directory or a data file)."""
    _bytes_cache.clear()
    _typed_cache.clear()


@contextlib.contextmanager
def replaced(files: Mapping[str, Union[str, Path]]) -> Iterator[None]:
    """Read each data file named in ``files`` from the path it maps to,
    for the body of the ``with`` block, which is one run: it starts with
    no file parsed (:func:`parsed_files`).

    The replacement is read in place; the other files still come from
    :func:`data_dir`.  With any replacement the caches are cleared on
    entry, so a file rewritten at the same path is read afresh, and on
    exit, when the previous replacements return.  The record of parsed
    files returns on exit too.
    """
    previous, parsed = dict(_replacements), set(_parsed)
    _parsed.clear()
    if files:
        _replacements.update((name, Path(path))
                             for name, path in files.items())
        clear_cache()
    try:
        yield
    finally:
        _parsed.clear()
        _parsed.update(parsed)
        if files:
            _replacements.clear()
            _replacements.update(previous)
            clear_cache()


def _path(name: str) -> Path:
    return _replacements.get(name) or data_dir() / name


def _raw_bytes(name: str) -> bytes:
    path = _path(name)
    if path not in _bytes_cache:
        if not path.is_file():
            raise FileNotFoundError(f"data file not found: {path}")
        _bytes_cache[path] = path.read_bytes()
    return _bytes_cache[path]


def _load(name: str) -> Any:
    return json.loads(_raw_bytes(name).decode("utf-8"))


def malformed(name: str, reason: object) -> PreconditionError:
    """The violated precondition of a data file ``name`` that does not
    hold what its reader needs, for ``reason``."""
    return PreconditionError(f"malformed data file {name}: {reason}")


def _parses(name: str, fresh: Callable[[Any], Any]):
    """Report a malformed data file ``name`` as a violated precondition,
    and record a well-formed one as parsed in this run, on every call.

    The reader runs once per path read (until :func:`clear_cache`), and
    each call returns ``fresh`` of its result: a copy down to the
    mutable containers, so a caller that edits it leaves the cache as it
    was."""
    def wrap(parse):
        @functools.wraps(parse)
        def parsed():
            key = (_path(name), parse.__name__)
            if key not in _typed_cache:
                try:
                    _typed_cache[key] = parse()
                except (AttributeError, KeyError, TypeError, ValueError,
                        ZeroDivisionError) as exc:
                    raise malformed(name, exc) from exc
            _parsed.add(name)
            return fresh(_typed_cache[key])
        return parsed
    return wrap


def _fresh_tables(tables: Dict[str, Table]) -> Dict[str, Table]:
    return {family: {j: dict(entries) for j, entries in table.items()}
            for family, table in tables.items()}


def _fresh_lists(lists: Mapping[str, List]) -> Dict[str, List]:
    return {name: list(items) for name, items in lists.items()}


def parsed_files() -> Tuple[str, ...]:
    """The data files parsed in this run, in :data:`DATA_FILES` order."""
    return tuple(name for name in DATA_FILES if name in _parsed)


def mark_parsed(names: Iterable[str]) -> None:
    """Record ``names`` as parsed in this run, into a result kept from an
    earlier run under the digest of the same bytes."""
    _parsed.update(names)


def file_fingerprints(names: Iterable[str] = DATA_FILES) -> Dict[str, str]:
    """SHA-256 hex digest of the bytes of each named data file in use
    (all of them by default): the same bytes the parsers read."""
    return {name: sha256(_raw_bytes(name)).hexdigest() for name in names}


@_parses("expansion_tables.json", _fresh_tables)
def expansion_tables() -> Dict[str, Table]:
    """All coefficient families, as family -> j -> {(k, m): coefficient}."""
    raw = _load("expansion_tables.json")["tables"]
    out: Dict[str, Table] = {}
    for family, columns in raw.items():
        if family not in TABLE_SHAPE:
            raise ValueError(f"unknown coefficient family {family!r}")
        table: Table = {}
        for j_str, rows in columns.items():
            j = int(j_str)
            entries: Dict[Tuple[int, int], Fraction] = {}
            for row in rows:
                if len(row) != 3:
                    raise ValueError(f"malformed row in {family}[{j}]: {row!r}")
                k, m = as_integer(row[0]), as_integer(row[1])
                coeff = as_fraction(row[2])
                if k < 0:
                    raise ValueError(f"negative S power in {family}[{j}]: {row!r}")
                if (k, m) in entries:
                    raise ValueError(f"duplicate entry in {family}[{j}]: {row!r}")
                entries[(k, m)] = coeff
            table[j] = entries
        out[family] = table
    missing = set(TABLE_SHAPE) - set(out)
    if missing:
        raise ValueError(f"missing coefficient families: {sorted(missing)}")
    return out


@_parses("constant_catalog.json", dict)
def constant_catalog() -> Dict[str, PowerSum]:
    """Closed-form majorant constants as symbolic sums over rho powers."""
    raw = _load("constant_catalog.json")["constants"]
    out: Dict[str, PowerSum] = {}
    for name, rows in raw.items():
        terms: Dict[Fraction, Dict[int, QSqrt2]] = {}
        for row in rows:
            if len(row) != 4:
                raise ValueError(f"malformed row in constant {name}: {row!r}")
            exponent = as_fraction(row[0])
            k = as_integer(row[1])
            coeff = QSqrt2(row[2], row[3])
            bucket = terms.setdefault(exponent, {})
            if k in bucket:
                raise ValueError(f"duplicate term in constant {name}: {row!r}")
            bucket[k] = coeff
        out[name] = PowerSum(
            {e: SPoly(coeffs) for e, coeffs in terms.items()}
        )
    return out


@_parses("constant_catalog.json", dict)
def reference_values() -> Dict[str, str]:
    """Printed decimal truncations of assembled quantities at rho = 3."""
    raw = _load("constant_catalog.json")["reference_values"]["values"]
    for printed in raw.values():
        truncation_window(printed)
    return raw


@_parses("inner_ode.json", _fresh_lists)
def inner_polynomials() -> Dict[str, Poly]:
    """Approximating polynomials in s = t + 17/10, ascending coefficients."""
    raw = _load("inner_ode.json")["polynomials"]
    return {name: poly(coeffs) for name, coeffs in raw.items()}


@_parses("inner_ode.json", _fresh_lists)
def inner_partitions() -> Dict[str, List[Fraction]]:
    """Certification partitions as ascending t values in [-17/10, 0]."""
    raw = _load("inner_ode.json")["partitions"]
    out: Dict[str, List[Fraction]] = {}
    for name, magnitudes in raw.items():
        points = sorted(-as_fraction(v) for v in magnitudes)
        if len(points) != len(set(points)):
            raise ValueError(f"partition {name!r} has repeated points")
        out[name] = points
    return out
