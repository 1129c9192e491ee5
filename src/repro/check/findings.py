"""Findings, severities, reports and waivers for ``dcpicheck``.

Every checker rule reports :class:`Finding` objects with a stable rule
id (``layer/rule-name``), a severity, and a human-readable location.
:class:`CheckReport` aggregates findings, applies waivers from a
committed ``checks-waivers.toml``, and gives ``dcpicheck`` the body of
its JSON report (:func:`repro.obs.report.write_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class Waiver:
    """A committed exemption for a known, triaged finding.

    ``rule`` must match the finding's rule id exactly; ``location`` is
    a substring match against the finding's location ("" matches any).
    A non-empty ``reason`` is required: waivers document *why* a
    finding is acceptable, not merely that it is silenced.
    """

    rule: str
    reason: str
    location: str = ""

    def __post_init__(self) -> None:
        if not self.reason.strip():
            raise ValueError("waiver for %r needs a non-empty reason"
                             % (self.rule,))

    def matches(self, finding: Finding) -> bool:
        if finding.rule != self.rule:
            return False
        return self.location in finding.location


def load_waivers(path: str) -> List[Waiver]:
    """Parse ``checks-waivers.toml`` into :class:`Waiver` objects.

    Uses :mod:`tomllib` when available (Python 3.11+); otherwise falls
    back to a minimal parser that understands exactly the subset the
    waiver file uses: ``[[waiver]]`` array-of-table headers and
    ``key = "string"`` pairs.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    entries = _parse_waiver_toml(raw.decode("utf-8"))
    waivers = []
    for entry in entries:
        try:
            waivers.append(Waiver(
                rule=str(entry["rule"]),
                reason=str(entry.get("reason", "")),
                location=str(entry.get("location", "")),
            ))
        except KeyError as exc:
            raise ValueError("waiver entry missing %s: %r"
                             % (exc, entry)) from exc
    return waivers


def _parse_waiver_toml(text: str) -> List[Dict[str, str]]:
    try:
        import tomllib
    except ImportError:
        tomllib = None  # Python < 3.11: use the subset parser below.
    if tomllib is not None:
        data = tomllib.loads(text)
        items = data.get("waiver", [])
        if not isinstance(items, list):
            raise ValueError("'waiver' must be an array of tables")
        return [dict(item) for item in items]
    entries: List[Dict[str, str]] = []
    current: Optional[Dict[str, str]] = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "[[waiver]]":
            current = {}
            entries.append(current)
            continue
        if "=" in stripped and current is not None:
            key, _, value = stripped.partition("=")
            value = value.strip()
            if not (value.startswith('"') and value.endswith('"')):
                raise ValueError("line %d: only string values are "
                                 "supported in waivers" % lineno)
            current[key.strip()] = value[1:-1]
            continue
        raise ValueError("line %d: unsupported waiver syntax %r"
                         % (lineno, stripped))
    return entries


@dataclass
class CheckReport:
    """All findings of one ``dcpicheck`` run, with waivers applied."""

    findings: List[Finding] = field(default_factory=list)
    waivers: Sequence[Waiver] = ()
    layers: Tuple[str, ...] = LAYERS
    workloads: Tuple[str, ...] = ()
    runtime_s: Dict[str, float] = field(default_factory=dict)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def waiver_for(self, finding: Finding) -> Optional[Waiver]:
        for waiver in self.waivers:
            if waiver.matches(finding):
                return waiver
        return None

    def unwaived(self, severity: str = ERROR) -> List[Finding]:
        """Findings at least as severe as *severity* with no waiver."""
        rank = _SEV_RANK[severity]
        return [f for f in sorted(self.findings, key=Finding.sort_key)
                if _SEV_RANK[f.severity] <= rank
                and self.waiver_for(f) is None]

    def counts(self) -> Dict[str, int]:
        out = {sev: 0 for sev in SEVERITIES}
        waived = 0
        for finding in self.findings:
            if self.waiver_for(finding) is not None:
                waived += 1
            else:
                out[finding.severity] += 1
        out["waived"] = waived
        return out

    def to_dict(self) -> Dict[str, object]:
        rows = []
        for finding in sorted(self.findings, key=Finding.sort_key):
            row = finding.to_dict()
            waiver = self.waiver_for(finding)
            row["waived"] = waiver is not None
            if waiver is not None:
                row["waived_reason"] = waiver.reason
            rows.append(row)
        return {
            "layers": list(self.layers),
            "workloads": list(self.workloads),
            "counts": self.counts(),
            "findings": rows,
        }

    def summary(self) -> str:
        counts = self.counts()
        return ("%d error(s), %d warning(s), %d info, %d waived"
                % (counts[ERROR], counts[WARNING], counts[INFO],
                   counts["waived"]))
