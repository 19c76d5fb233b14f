"""Named verification checks with residuals, shared by the identity suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """One named check: a residual measured against a tolerance, plus free-form detail."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


class ExactCheckResult(CheckResult):
    """A check on an exact condition, whose verdict no tolerance can change."""


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def with_tolerance(self, tolerance: float) -> "CheckReport":
        """The same residuals, each judged against one blanket ``tolerance``.

        Exact checks are left as they are, verdict and tolerance (0) alike, so
        a row never reads |residual| <= tolerance and FAIL.
        """
        return CheckReport(
            tuple(
                c
                if isinstance(c, ExactCheckResult)
                else check(c.name, c.residual, tolerance, c.detail)
                for c in self
            )
        )

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __iter__(self):
        return iter(self.checks)

    def __len__(self) -> int:
        return len(self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check(name: str, residual: float, tolerance: float, detail: str = "") -> CheckResult:
    """A check passing iff ``|residual| <= tolerance``."""
    return CheckResult(name, residual, tolerance, abs(residual) <= tolerance, detail)


def check_exact(name: str, ok: bool, detail: str = "") -> CheckResult:
    """A check on an exact (all-or-nothing) condition; residual is 0 or 1."""
    return ExactCheckResult(name, 0.0 if ok else 1.0, 0.0, ok, detail)
