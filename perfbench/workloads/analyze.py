"""``analyze-wide``: the analysis pipeline over every profiled image.

Set-up profiles eight programs once; the timed region runs
``analyze_procedure`` -- CFG, static schedule, equivalence classes,
frequency estimate, culprits -- on every procedure holding CYCLES
samples, in the order ``analyze_image`` visits them.  ``repro.core``
only: analysing gcc costs more than simulating it, and every
``dcpicalc``/``dcpiopt``/``dcpicheck`` run pays that.
"""

import traceback

from repro.collect.session import ProfileSession, SessionConfig
from repro.core import analyze
from repro.core.frequency import LOW
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.workloads.registry import get_workload

from perfbench.workloads import BUDGET, PERIOD, BenchWorkload

PROGRAMS = ("gcc", "bigcode", "x11perf", "timesharing", "specint95",
            "wave5", "altavista", "dss")


class AnalyzeWide(BenchWorkload):
    name = "analyze-wide"
    why = ("analyze_procedure over ~115 procedures of 16 profiled "
           "images: repro.core only, the cost every dcpicalc, dcpiopt "
           "and dcpicheck run pays after collection")
    unit = "procedures analysed"
    operation = "one analyze_procedure"

    def setup(self, seed, path):
        """[(image, profile, [procedure names, hottest first])]"""
        work = []
        for name in PROGRAMS:
            program = get_workload(name)
            session = ProfileSession(
                MachineConfig(num_cpus=program.num_cpus),
                SessionConfig(seed=seed, **PERIOD))
            result = session.run(program, max_instructions=BUDGET)
            for image in result.machine.loader.images:
                profile = result.profiles.get(image.name)
                if profile is None:
                    continue
                totals = profile.procedure_totals(EventType.CYCLES)
                procedures = [proc for proc, total in sorted(
                    totals.items(), key=lambda item: -item[1]) if total]
                if procedures:
                    work.append((image, profile, procedures))
        return work

    def round(self, work, rec):
        self._analyze(work, rec, analyze.AnalysisConfig(), timed=True)

    def extras(self, work, rec, trace):
        # One untimed pass with the invariant verifier on.  HEAD has
        # findings on these profiles (README, baseline findings), and a
        # benchmark's workloads must not fail at the commit that
        # defines them: findings are an exact count, not failures.
        self._analyze(work, rec,
                      analyze.AnalysisConfig(verify_invariants=True),
                      timed=False)

    @staticmethod
    def _analyze(work, rec, config, timed):
        for image, profile, procedures in work:
            for proc in procedures:
                # Looked up on the module at every call: that binding
                # is the one the tracer wraps.
                try:
                    if timed:
                        with rec.op():
                            analysis = analyze.analyze_procedure(
                                image, proc, profile, config)
                    else:
                        analysis = analyze.analyze_procedure(
                            image, proc, profile, config)
                except Exception:   # noqa: BLE001 - counted, reported
                    rec.fail("%s:%s raised\n%s" % (
                        image.name, proc, traceback.format_exc()))
                    continue
                if not timed:
                    rec.count("core.check_findings",
                              len(analysis.check_findings))
                    continue
                rec.work(1)
                rec.count("core.procedures", 1)
                rec.count("core.instructions_analyzed",
                          len(analysis.instructions))
                rec.count("core.culprits_reported",
                          sum(len(row.culprits)
                              for row in analysis.instructions))
                # No estimate of the procedure graded above "low".
                rec.count("core.low_confidence_procs",
                          int(all(row.confidence == LOW
                                  for row in analysis.instructions)))
                rec.count("core.estimated_cycles",
                          round(analysis.total_cycles))
