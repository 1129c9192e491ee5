"""Profile -> plan -> validate -> rewrite -> verify -> measure.

:func:`optimize_workload` closes the paper's loop: the workload runs
under the DCPI collection system, the analysis explains where the
cycles went, the planning passes turn those explanations into a
rewrite, and two plain A/B runs measure the *realized* speedup while
the oracle (:mod:`repro.opt.oracle`) and the Layer-1 image checker
(:mod:`repro.check`) prove the rewritten program is still the same
program.

Acceptance has two gates, cheapest first (ISSUE 10):

1. **static** -- :mod:`repro.check.transval` proves each plan
   semantics-preserving without running anything.  A static rejection
   skips the dynamic oracle entirely and reports the per-block
   counterexamples;
2. **dynamic** -- the A/B oracle run.  Because the static gate already
   vouched for every plan, a *decidable* dynamic mismatch after a
   static accept means one of the two verifiers is wrong -- that is
   never a rejection to report, it is a bug to fix, so it raises
   :class:`TransvalDisagreement`.

A result is only reported as an optimization when all gates hold:
static acceptance, architectural identity, zero new non-INFO findings,
and the plan actually applied.

:func:`sweep_workload` repeats the whole loop across sampling periods
and injected collection-loss rates -- the experiment behind the
paper's "how good do the profiles have to be?" question: realized
speedup as a function of profile quality.
"""

import random
from collections import Counter
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from repro.check.findings import INFO, Finding
from repro.check.image_checks import check_image
from repro.collect.database import ImageProfile
from repro.collect.session import ProfileSession, SessionConfig
from repro.core.analyze import AnalysisConfig, analyze_image
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.opt.oracle import OracleReport, event_total, verify_identity
from repro.opt.passes import OptConfig, build_plan
from repro.opt.rewrite import RewritePlan
from repro.workloads import get_workload

if TYPE_CHECKING:
    from repro.check.transval import TransvalReport


class TransvalDisagreement(RuntimeError):
    """Static validator accepted; dynamic oracle decidably rejected.

    The two verifiers cross-check each other: the static proof says
    the rewritten program *must* behave identically, so a decidable
    A/B divergence means one of them is wrong.  That is a bug in this
    repository, never a property of the workload -- hence an
    exception, not a rejected report.
    """


class OptReport:
    """Everything one optimize run produced (JSON-ready via report())."""

    def __init__(self, workload_name: str, plans: List[RewritePlan],
                 oracle: Optional[OracleReport],
                 findings: Dict[str, List[Finding]],
                 profile_stats: Dict[str, Any],
                 pass_stats: Dict[str, int],
                 static: Optional[Dict[str, "TransvalReport"]] = None
                 ) -> None:
        self.workload_name = workload_name
        self.plans = plans
        #: None when the static gate rejected (no dynamic run happened).
        self.oracle = oracle
        #: {image name: [non-INFO Finding, ...]} on rewritten images.
        self.findings = findings
        self.profile_stats = profile_stats
        self.pass_stats = pass_stats
        #: {image name: TransvalReport} from the static gate.
        self.static = static or {}

    @property
    def static_ok(self) -> bool:
        """True when no plan was statically rejected."""
        return all(report.ok for report in self.static.values())

    @property
    def accepted(self) -> bool:
        """True when the rewrite is proven safe to ship."""
        return (self.static_ok
                and self.oracle is not None
                and self.oracle.identical
                and not any(self.findings.values()))

    @property
    def speedup(self) -> float:
        """Realized fractional cycle reduction (0.0 when rejected)."""
        if not self.accepted or self.oracle is None:
            return 0.0
        return self.oracle.speedup

    def report(self) -> Dict[str, Any]:
        """Plain-dict summary: the body of ``dcpiopt run``'s report."""
        oracle = self.oracle
        if oracle is not None:
            baseline = oracle.baseline_machine
            optimized = oracle.optimized_machine
            base_insts = sum(p.instructions for p in baseline.processes)
            opt_insts = sum(p.instructions for p in optimized.processes)
            baseline_block = {
                "cycles": oracle.baseline_cycles,
                "instructions": base_insts,
                "cpi": (oracle.baseline_cycles / base_insts
                        if base_insts else 0.0),
                "imiss": event_total(baseline, EventType.IMISS),
            }
            optimized_block = {
                "cycles": oracle.optimized_cycles,
                "instructions": opt_insts,
                "cpi": (oracle.optimized_cycles / opt_insts
                        if opt_insts else 0.0),
                "imiss": event_total(optimized, EventType.IMISS),
            }
            identical = oracle.identical
            mismatches = list(oracle.mismatches)
            skipped = list(oracle.skipped)
        else:
            zero = {"cycles": 0, "instructions": 0, "cpi": 0.0,
                    "imiss": 0}
            baseline_block = dict(zero)
            optimized_block = dict(zero)
            identical = False
            mismatches = []
            skipped = []
        return {
            "workload": self.workload_name,
            "accepted": self.accepted,
            "static_ok": self.static_ok,
            "static": {name: report.to_dict()
                       for name, report in sorted(self.static.items())},
            "identical": identical,
            "mismatches": mismatches,
            "skipped": skipped,
            "check_findings": {
                name: [str(f) for f in rows]
                for name, rows in self.findings.items() if rows
            },
            "baseline": baseline_block,
            "optimized": optimized_block,
            "speedup": self.speedup,
            "passes": dict(self.pass_stats),
            "profile": dict(self.profile_stats),
        }


def _finding_key(finding: Finding) -> Tuple[str, str, str]:
    # Instruction offsets shift when code moves, and reordering changes
    # *which* instruction first exhibits a pre-existing property (e.g.
    # which of several reads of a never-written register comes first),
    # so findings are budgeted by rule, severity and scope (location
    # minus the +0x offset): the rewrite must not increase any scope's
    # finding count.
    scope = ":".join(part for part in finding.location.split(":")
                     if not part.startswith("+"))
    return (finding.rule, finding.severity, scope)


def _new_findings(before: Sequence[Finding],
                  after: Sequence[Finding]) -> List[Finding]:
    """Non-INFO findings in *after* beyond *before*'s per-scope budget.

    The optimizer's contract is that it introduces no findings; it is
    not required to fix findings the input image always had (those
    belong to the workload's author).
    """
    budget = Counter(_finding_key(f) for f in before
                     if f.severity != INFO)
    fresh = []
    for finding in after:
        if finding.severity == INFO:
            continue
        key = _finding_key(finding)
        if budget[key] > 0:
            budget[key] -= 1
        else:
            fresh.append(finding)
    return fresh


def _subsample_profile(profile: ImageProfile, loss: float,
                       seed: int) -> ImageProfile:
    """Simulate collection loss: drop each sample with probability *loss*.

    Deterministic in (*seed*, image name, event, offset) so sweeps are
    reproducible; edge samples are thinned the same way.
    """
    if loss <= 0.0:
        return profile
    rng = random.Random("%d:%s" % (seed, profile.image.name))
    thinned = ImageProfile(profile.image, periods=dict(profile.periods))
    for event, by_offset in profile.counts.items():
        for offset in sorted(by_offset):
            count = by_offset[offset]
            kept = sum(1 for _ in range(count) if rng.random() >= loss)
            if kept:
                thinned.add(event, offset, kept)
    for key in sorted(profile.edge_counts):
        count = profile.edge_counts[key]
        kept = sum(1 for _ in range(count) if rng.random() >= loss)
        if kept:
            thinned.add_edge(key[0], key[1], kept)
    return thinned


def plan_session(collected: Any, opt_config: Optional[OptConfig] = None,
                 loss: float = 0.0, seed: int = 1
                 ) -> Tuple[List[RewritePlan], int]:
    """Rewrite plans from a profiled session's CYCLES samples.

    *collected* is a :class:`~repro.collect.session.SessionResult`;
    every loaded image with CYCLES samples (after *loss* thinning, see
    :func:`_subsample_profile`) is analysed and planned.  Returns
    ``(plans, analysed CYCLES samples)``.
    """
    plans: List[RewritePlan] = []
    analyzed_samples = 0
    for image in collected.machine.loader.images:
        profile = collected.profiles.get(image.name)
        if profile is None or not profile.total(EventType.CYCLES):
            continue
        profile = _subsample_profile(profile, loss, seed)
        if not profile.total(EventType.CYCLES):
            continue
        analyses = analyze_image(image, profile, AnalysisConfig())
        if not analyses:
            continue
        analyzed_samples += sum(a.total_samples for a in analyses.values())
        plans.append(build_plan(image, analyses, opt_config))
    return plans, analyzed_samples


def optimize_workload(workload: Any, mode: str = "cycles",
                      seed: int = 1, max_instructions: int = 200_000,
                      cycles_period: Tuple[int, int] = (240, 256),
                      opt_config: Optional[OptConfig] = None,
                      machine_config: Optional[MachineConfig] = None,
                      loss: float = 0.0,
                      verify_instructions: Optional[int] = None
                      ) -> OptReport:
    """Run the full profile-guided loop on *workload*.

    *workload* is a registry name or a Workload object; *loss* injects
    the given sample-loss fraction into the collected profiles before
    analysis (sweep support).  *max_instructions* caps the profiling
    run only; the oracle's A/B runs go to completion by default
    (*verify_instructions* = None) because architectural identity is
    only decidable on finished programs.  Returns an
    :class:`OptReport`; raises :class:`TransvalDisagreement` if the
    static and dynamic verifiers decidably contradict each other.
    """
    # Imported lazily: repro.check.transval imports repro.opt.rewrite,
    # so a module-level import here would make repro.check.__init__ hit
    # this module mid-initialization of transval itself.
    from repro.check.transval import validate_workload_plans

    if isinstance(workload, str):
        workload = get_workload(workload)
    machine_config = machine_config or MachineConfig()
    opt_config = opt_config or OptConfig()

    session = ProfileSession(
        machine_config,
        SessionConfig(mode=mode, seed=seed, cycles_period=cycles_period))
    collected = session.run(workload, max_instructions=max_instructions)

    pass_stats: Dict[str, int] = {}
    plans, analyzed_samples = plan_session(collected, opt_config, loss,
                                           seed)
    for plan in plans:
        for key, value in plan.stats.items():
            pass_stats[key] = pass_stats.get(key, 0) + value

    profile_stats: Dict[str, Any] = {
        "mode": mode,
        "seed": seed,
        "cycles_period": list(cycles_period),
        "max_instructions": max_instructions,
        "loss": loss,
        "samples": analyzed_samples,
        "profiled_cycles": collected.cycles,
    }

    # Gate 1: static translation validation (never runs anything).
    static = validate_workload_plans(
        workload, plans, machine_config=machine_config, seed=seed)
    if not all(report.ok for report in static.values()):
        return OptReport(workload.name, plans, None, {},
                         profile_stats, pass_stats, static=static)

    # Gate 2: the dynamic A/B oracle.
    oracle = verify_identity(workload, plans,
                             machine_config=machine_config, seed=seed,
                             max_instructions=verify_instructions)

    # Cross-check: the static gate vouched for every plan, so any
    # *decidable* dynamic divergence is a verifier bug, not a result.
    # (Truncated verify runs are undecidable, which is a rejection but
    # not a contradiction.)
    decidable = [m for m in oracle.mismatches if "undecidable" not in m]
    if decidable:
        raise TransvalDisagreement(
            "static validator accepted every plan for %r but the "
            "dynamic oracle found: %s"
            % (workload.name, "; ".join(decidable[:5])))

    findings: Dict[str, List[Finding]] = {}
    baseline_images = {image.name: image
                       for image in oracle.baseline_machine.loader.images}
    for name, result in oracle.rewriter.results.items():
        if not result.applied:
            continue
        for image in oracle.optimized_machine.loader.images:
            if image.name == name:
                original = baseline_images.get(name)
                before = (check_image(original)
                          if original is not None else [])
                findings[name] = _new_findings(before, check_image(image))
                break

    return OptReport(workload.name, plans, oracle, findings,
                     profile_stats, pass_stats, static=static)


#: The per-pass configurations `contributions` measures in isolation.
_SINGLE_PASS = (
    ("layout", OptConfig(layout=True, schedule=False, split=False)),
    ("schedule", OptConfig(layout=False, schedule=True, split=False)),
    ("split", OptConfig(layout=False, schedule=False, split=True)),
)


def pass_contributions(workload: Any, **kwargs: Any) -> Dict[str, float]:
    """Measure each pass's speedup in isolation.

    Returns {"layout": speedup, "schedule": ..., "split": ...} -- the
    contribution split the bench schema's ``opt`` block records.  The
    parts need not sum to the combined speedup (passes interact).
    """
    kwargs.pop("opt_config", None)
    out = {}
    for name, config in _SINGLE_PASS:
        report = optimize_workload(workload, opt_config=config, **kwargs)
        out[name] = report.speedup
    return out


def sweep_workload(workload: Any,
                   periods: Iterable[Tuple[int, int]] = (
                       (240, 256), (960, 1024), (3840, 4096)),
                   losses: Iterable[float] = (0.0, 0.1, 0.3),
                   **kwargs: Any) -> List[Dict[str, Any]]:
    """Realized speedup vs profile quality (sampling period x loss).

    Returns a list of rows ``{"period", "loss", "speedup", "accepted",
    "samples"}`` -- the curve the nightly ``opt-full`` job plots: as
    the period grows or collection loses samples, the profile thins and
    the realized speedup degrades gracefully rather than turning into
    wrong code (the validator and oracle guarantee the latter can't
    ship).
    """
    kwargs.pop("cycles_period", None)
    kwargs.pop("loss", None)
    rows = []
    for period in periods:
        for loss in losses:
            report = optimize_workload(workload, cycles_period=period,
                                       loss=loss, **kwargs)
            rows.append({
                "workload": report.workload_name,
                "period": (period[0] + period[1]) / 2.0,
                "loss": loss,
                "speedup": report.speedup,
                "accepted": report.accepted,
                "samples": report.profile_stats["samples"],
            })
    return rows
