"""Uniform pass/fail records for certified checks, and PreconditionError."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .numerics import as_fraction


class PreconditionError(ValueError):
    """A certificate, a point or a data file outside its domain of validity."""


_COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


@dataclass(frozen=True)
class CheckResult:
    """One certified comparison: ``value <comparison> bound``.

    ``value`` is the rigorously certified quantity (for sup-norm checks, the
    certified upper end of its enclosure); ``bound`` is the constant it must
    respect.  Both are exact rationals so that the comparison itself carries
    no rounding.  ``lo``, when given, is the lower end of the enclosure whose
    upper end is ``value``; it never participates in the pass/fail decision
    and exists so reports can show the full enclosure.
    """

    name: str
    value: Fraction
    bound: Fraction
    comparison: str = "<"
    note: str = ""
    lo: Optional[Fraction] = None
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.comparison not in _COMPARATORS:
            raise ValueError(f"unknown comparison {self.comparison!r}")
        ok = _COMPARATORS[self.comparison](self.value, self.bound)
        object.__setattr__(self, "passed", bool(ok))

    @property
    def margin(self) -> Fraction:
        """How far below the bound the certified value sits."""
        return self.bound - self.value


def check(
    name: str,
    value: Fraction,
    bound: Fraction,
    comparison: str = "<",
    note: str = "",
    lo: Optional[Fraction] = None,
) -> CheckResult:
    return CheckResult(
        name=name,
        value=as_fraction(value),
        bound=as_fraction(bound),
        comparison=comparison,
        note=note,
        lo=None if lo is None else as_fraction(lo),
    )
