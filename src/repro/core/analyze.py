"""Top-level analysis orchestration: samples in, explanations out.

``analyze_procedure`` runs the full pipeline of paper section 6 for one
procedure: CFG construction, static scheduling (M_i), frequency and CPI
estimation, and culprit identification.  ``analyze_image`` does so for
every procedure with samples.
"""

from dataclasses import dataclass

from repro.core.cfg import build_cfg
from repro.core.culprits import identify_culprits
from repro.core.frequency import estimate_frequencies
from repro.core.schedule import schedule_cfg
from repro.cpu.events import EventType
from repro.obs import NULL_OBS

#: Collection loss above this rate flags results as low-confidence
#: instead of crashing the analysis: frequency/CPI estimates built on a
#: lossy profile still rank hot code correctly, but their absolute
#: values are understated by roughly the loss rate.
LOSS_RATE_THRESHOLD = 0.02


@dataclass
class AnalysisConfig:
    """Settings for the full analysis pipeline."""

    # Section 6.1.4's experimental global constraint solver: adjust the
    # estimates where they violate flow constraints.
    global_solver: bool = False
    # Self-monitoring (a repro.obs Observability): every pass runs
    # under a trace span named for it.  None = disabled.
    obs: object = None
    # Run the repro.check invariant verifier on every analyzed
    # procedure (schedule slotting, culprit coverage, estimate flow);
    # findings land in ProcedureAnalysis.check_findings.
    verify_invariants: bool = False


class InstructionAnalysis:
    """Everything the tools report about one instruction."""

    __slots__ = ("inst", "samples", "m", "count", "cpi", "static_stalls",
                 "dyn_per_exec", "dyn_total", "culprits", "paired",
                 "confidence")

    def __init__(self, inst, samples, m, count, cpi, static_stalls,
                 culprits, paired, confidence):
        self.inst = inst
        self.samples = samples
        self.m = m
        self.count = count
        self.cpi = cpi
        self.static_stalls = static_stalls
        self.dyn_per_exec = max(0.0, cpi - m) if count > 0 else 0.0
        self.dyn_total = self.dyn_per_exec * count
        self.culprits = culprits
        self.paired = paired
        self.confidence = confidence


class ProcedureAnalysis:
    """Full analysis of one procedure."""

    def __init__(self, image, proc, profile, cfg, schedules, freq,
                 instructions, period):
        self.image = image
        self.proc = proc
        self.profile = profile
        self.cfg = cfg
        self.schedules = schedules
        self.freq = freq
        self.instructions = instructions
        self.period = period
        self.by_addr = {row.inst.addr: row for row in instructions}
        #: True when the collection run lost enough samples that the
        #: absolute estimates should not be trusted (graceful
        #: degradation; see LOSS_RATE_THRESHOLD).
        self.low_confidence = False
        #: Human-readable degradation notes (loss rate, quarantines).
        self.warnings = []
        #: repro.check findings when AnalysisConfig.verify_invariants
        #: is set (empty otherwise).
        self.check_findings = []

    @property
    def total_cycles(self):
        """Estimated cycles spent in this procedure (samples * period)."""
        return sum(row.samples for row in self.instructions) * self.period

    @property
    def total_samples(self):
        return sum(row.samples for row in self.instructions)

    @property
    def executed_instructions(self):
        return sum(row.count for row in self.instructions)

    @property
    def best_case_cycles(self):
        return sum(row.count * row.m for row in self.instructions)

    @property
    def best_case_cpi(self):
        executed = self.executed_instructions
        return self.best_case_cycles / executed if executed else 0.0

    @property
    def actual_cpi(self):
        executed = self.executed_instructions
        return self.total_cycles / executed if executed else 0.0

    def summary(self):
        """Return the Figure 4-style stall summary."""
        from repro.core.summarize import summarize_procedure

        return summarize_procedure(self)


def analyze_procedure(image, proc, profile, config=None):
    """Analyze one procedure.

    Args:
        image: the :class:`Image` containing the procedure.
        proc: a :class:`Procedure` or its name.
        profile: the image's :class:`ImageProfile`.
        config: optional :class:`AnalysisConfig`.
    """
    config = config or AnalysisConfig()
    obs = config.obs or NULL_OBS
    if isinstance(proc, str):
        proc = image.procedure(proc)
    period = profile.periods.get(EventType.CYCLES, 1.0)
    samples = profile.samples_for(proc, EventType.CYCLES)

    def phase(name):
        return obs.span(name, proc=proc.name)

    with phase("analyze.procedure"):
        with phase("analyze.cfg"):
            cfg = build_cfg(proc)
        with phase("analyze.schedule"):
            schedules = schedule_cfg(cfg)
        edge_samples = (profile.edges_by_addr()
                        if profile.edge_counts else None)
        with phase("analyze.frequency"):
            freq = estimate_frequencies(cfg, schedules, samples, period,
                                        edge_samples=edge_samples)
        if config.global_solver:
            from repro.core.solver import refine_global

            with phase("analyze.solver"):
                refine_global(cfg, freq.classes, freq)
        with phase("analyze.culprits"):
            culprits = identify_culprits(cfg, schedules, freq, samples,
                                         profile, proc)

        with phase("analyze.attribute"):
            instructions = []
            for block in cfg.blocks:
                count = freq.block_count(block.index)
                confidence = freq.block_confidence(block.index)
                for row in schedules[block.index].rows:
                    addr = row.inst.addr
                    s = samples.get(addr, 0)
                    cpi = s * period / count if count > 0 else 0.0
                    instructions.append(InstructionAnalysis(
                        row.inst, s, row.m, count, cpi, row.stalls,
                        culprits.get(addr, []), row.paired, confidence))
    analysis = ProcedureAnalysis(image, proc, profile, cfg, schedules,
                                 freq, instructions, period)
    if config.verify_invariants:
        from repro.check.analysis_checks import verify_procedure

        with phase("analyze.verify"):
            analysis.check_findings = verify_procedure(analysis)
    return analysis


def analyze_image(image, profile, config=None, min_samples=1,
                  loss_rate=0.0):
    """Analyze every procedure of *image* holding CYCLES samples.

    Returns {procedure name: ProcedureAnalysis}, ordered by decreasing
    sample count.  *loss_rate* is the collection run's accounted
    sample-loss fraction (``collect.loss_rate``); above
    :data:`LOSS_RATE_THRESHOLD` every analysis is flagged low-confidence
    with a warning rather than rejected -- a partial profile still
    ranks hot code.
    """
    config = config or AnalysisConfig()
    totals = profile.procedure_totals(EventType.CYCLES)
    result = {}
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        if total < min_samples:
            continue
        analysis = analyze_procedure(image, name, profile, config)
        if loss_rate > LOSS_RATE_THRESHOLD:
            analysis.low_confidence = True
            analysis.warnings.append(
                "collection lost %.2f%% of samples (threshold %.2f%%); "
                "absolute estimates are understated"
                % (loss_rate * 100.0,
                   LOSS_RATE_THRESHOLD * 100.0))
        result[name] = analysis
    return result
