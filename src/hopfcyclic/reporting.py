"""Uniform pass/fail reporting for axiom and identity suites.

Every verifier in the package returns a CheckReport: an ordered list of named
checks, each pass/fail with an optional human-readable witness (the basis
element or identity instance that failed).  A check that searches instances
passes a lazy iterable of failing-instance labels to `CheckReport.check`,
which stops at the first and records it as the witness; a plain boolean
goes to `CheckReport.add`.  Reports render to text lines; the CLI
serialises their checks itself.  A report is truthy iff every check passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

_NO_FAILURE = object()


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def line(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        suffix = f"  [{self.witness}]" if self.witness else ""
        return f"{mark:4s} {self.name}{suffix}"


@dataclass
class CheckReport:
    title: str
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: str | None = None) -> bool:
        self.checks.append(CheckResult(name, bool(passed), witness if not passed else None))
        return bool(passed)

    def check(self, name: str, failures: Iterable) -> bool:
        """Record `name` as passed iff `failures` yields nothing.  Only the
        first failing-instance label is drawn; it becomes the witness (a
        label of None records a failure without one)."""
        first = next(iter(failures), _NO_FAILURE)
        return self.add(name, first is _NO_FAILURE, first)

    def agree_by_degree(self, degrees: Iterable[int], *claims) -> None:
        """Degree by degree, one check per claim (text, {label: dims,
        label: dims}): "degree {deg}: {text}" passes when the two dims
        lists agree at the degree's position, with the witness
        "label=value, label=value"."""
        for k, deg in enumerate(degrees):
            for text, sides in claims:
                (la, a), (lb, b) = sides.items()
                self.add(f"degree {deg}: {text}", a[k] == b[k], f"{la}={a[k]}, {lb}={b[k]}")

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list:
        return [f"== {self.title} ==" ] + [c.line() for c in self.checks]

    def require(self, context: str = "") -> "CheckReport":
        """Raise ValueError with the first failure if the report is not clean."""
        if not self.ok:
            first = self.failures[0]
            where = f"{context}: " if context else ""
            wit = f" ({first.witness})" if first.witness else ""
            raise ValueError(f"{where}{self.title}: check '{first.name}' failed{wit}")
        return self
