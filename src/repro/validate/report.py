"""Typed findings and validation reports.

Every check in :mod:`repro.validate` — invariant oracles, differential
cross-checks, artifact/schema validation, fuzz targets — reports
problems as :class:`Finding` records collected into a
:class:`ValidationReport`.  A finding is *typed*: its ``code`` names
the corruption or violation class (``"trace-checksum"``,
``"curve-not-monotone"``, ``"journal-torn"``, ...), so tests and CI can
assert that a specific fault produced a specific finding rather than
grepping prose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Finding severities.  ``error`` fails validation; ``warning`` is
#: surfaced but does not change the exit status.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One typed validation finding.

    Attributes:
        code: Machine-readable class of the problem (kebab-case, e.g.
            ``"trace-checksum"`` or ``"curve-not-monotone"``).
        message: Human-readable description.
        path: The artifact (file, or dotted object path) the finding is
            about; empty for object-level checks with no file.
        severity: ``"error"`` or ``"warning"``.
    """

    code: str
    message: str
    path: str = ""
    severity: str = SEVERITY_ERROR

    def render(self) -> str:
        where = f" [{self.path}]" if self.path else ""
        return f"{self.severity.upper()} {self.code}{where}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "severity": self.severity,
        }


@dataclass
class ValidationReport:
    """The aggregate outcome of one validation pass.

    Attributes:
        subject: What was validated (a run directory, an experiment id,
            an app name, ...).
        findings: Every problem found; empty means the subject passed.
        checks_run: Number of individual checks executed (for "passed
            clean" reports to show work actually happened).
    """

    subject: str
    findings: List[Finding] = field(default_factory=list)
    checks_run: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    def add(
        self,
        code: str,
        message: str,
        path: str = "",
        severity: str = SEVERITY_ERROR,
    ) -> Finding:
        finding = Finding(code=code, message=message, path=path, severity=severity)
        self.findings.append(finding)
        return finding

    def tick(self, count: int = 1) -> None:
        """Record that ``count`` checks ran (pass or fail)."""
        self.checks_run += count

    def extend(self, other: "ValidationReport") -> None:
        """Absorb another report's findings and check count."""
        self.findings.extend(other.findings)
        self.checks_run += other.checks_run

    def codes(self) -> List[str]:
        """The distinct finding codes, in first-seen order."""
        seen: List[str] = []
        for finding in self.findings:
            if finding.code not in seen:
                seen.append(finding.code)
        return seen

    def by_code(self, code: str) -> List[Finding]:
        return [f for f in self.findings if f.code == code]

    def render(self) -> str:
        """Human-readable report."""
        lines = [
            f"== validation: {self.subject} ==",
            f"  checks run: {self.checks_run}",
        ]
        for finding in self.findings:
            lines.append("  " + finding.render())
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"  verdict: {verdict} ({len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s))"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks_run": self.checks_run,
            "findings": [f.to_dict() for f in self.findings],
        }

    def raise_if_failed(self, exception: Optional[type] = None) -> None:
        """Raise a typed error summarizing the failures (no-op when ok).

        Args:
            exception: Exception class (default
                :class:`~repro.runtime.errors.ValidationError`).
        """
        if self.ok:
            return
        if exception is None:
            from repro.runtime.errors import ValidationError

            exception = ValidationError
        summary = "; ".join(
            f"[{f.code}] {f.message}" for f in self.errors[:5]
        )
        more = len(self.errors) - 5
        if more > 0:
            summary += f"; and {more} more"
        raise exception(f"{self.subject}: {summary}")


def merge_reports(
    subject: str, reports: Sequence[ValidationReport]
) -> ValidationReport:
    """Combine per-section reports into one."""
    merged = ValidationReport(subject=subject)
    for report in reports:
        merged.extend(report)
    return merged
