"""Findings, severities and reports for ``dcpicheck``.

Every checker rule reports :class:`Finding` objects with a stable rule
id (``layer/rule-name``), a severity, and a human-readable location.
:class:`CheckReport` aggregates findings, counts them by severity (any
error fails the run), and gives ``dcpicheck`` the body of its JSON report
(:func:`repro.obs.report.write_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Severities, most severe first.
ERROR = "error"
WARNING = "warning"
INFO = "info"
SEVERITIES: Tuple[str, ...] = (ERROR, WARNING, INFO)
_SEV_RANK: Dict[str, int] = {sev: i for i, sev in enumerate(SEVERITIES)}

#: Check layers, in execution order.
LAYERS: Tuple[str, ...] = ("image", "analysis", "lint", "rewrite")


@dataclass(frozen=True)
class Finding:
    """One checker diagnostic.

    ``rule`` is ``<layer>/<rule-name>`` (e.g. ``image/use-before-def``);
    ``location`` is an image/procedure/address or ``file:line`` string.
    """

    rule: str
    severity: str
    location: str
    message: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError("unknown severity %r" % (self.severity,))
        if "/" not in self.rule:
            raise ValueError("rule id %r must be '<layer>/<name>'"
                             % (self.rule,))

    @property
    def layer(self) -> str:
        return self.rule.split("/", 1)[0]

    def sort_key(self) -> Tuple[int, str, str, str]:
        return (_SEV_RANK[self.severity], self.rule, self.location,
                self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "layer": self.layer,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return "%-7s %-32s %s: %s" % (self.severity, self.rule,
                                      self.location, self.message)


@dataclass
class CheckReport:
    """All findings of one ``dcpicheck`` run."""

    findings: List[Finding] = field(default_factory=list)
    layers: Tuple[str, ...] = LAYERS
    workloads: Tuple[str, ...] = ()
    runtime_s: Dict[str, float] = field(default_factory=dict)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def counts(self) -> Dict[str, int]:
        out = {sev: 0 for sev in SEVERITIES}
        for finding in self.findings:
            out[finding.severity] += 1
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "layers": list(self.layers),
            "workloads": list(self.workloads),
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in
                         sorted(self.findings, key=Finding.sort_key)],
        }

    def summary(self) -> str:
        counts = self.counts()
        return ("%d error(s), %d warning(s), %d info"
                % (counts[ERROR], counts[WARNING], counts[INFO]))
