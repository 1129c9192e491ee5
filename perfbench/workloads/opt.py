"""``opt-loop``: the closed profile-guided loop, every layer at once.

``optimize_workload`` profiles a program (cpu, collect), analyses it
(core), plans (opt.passes), proves the rewrite statically
(check.transval), rewrites (opt.rewrite) and A/B-runs original against
rewritten (opt.oracle).  The only workload where transval and the
oracle run, and the cross-check that a gain on a single-layer workload
survives composition.
"""

from repro.opt.optimizer import TransvalDisagreement, optimize_workload

from perfbench.workloads import BenchWorkload

TARGETS = ("opt-branchy", "opt-icache", "opt-stall")
PROGRAMS = TARGETS + ("gcc", "x11perf")


class OptLoop(BenchWorkload):
    name = "opt-loop"
    why = ("optimize_workload on three opt targets, gcc and x11perf: "
           "profile, analyse, plan, transval, rewrite and A/B oracle "
           "in one call, so a single-layer gain must survive "
           "composition")
    unit = "images rewritten and validated"
    operation = "one optimize_workload"

    def setup(self, seed, path):
        # Warm every stage of the loop on the three small targets.
        for name in TARGETS:
            optimize_workload(name, seed=seed)
        return seed

    def round(self, seed, rec):
        speedups = {}
        for name in PROGRAMS:
            try:
                with rec.op():
                    # dcpiopt's defaults: CYCLES-only profile at the
                    # bench period, 200 000-instruction budget.
                    report = optimize_workload(name, seed=seed)
            except TransvalDisagreement as exc:
                rec.fail("%s: %s" % (name, exc))
                continue
            if not report.accepted:
                rec.fail("%s: rewrite not accepted: %s"
                         % (name, report.report()["mismatches"][:3]))
            summary = report.report()
            rejected = sum(1 for static in summary["static"].values()
                           if static["verdict"] == "rejected")
            rec.work(len(report.plans))
            rec.count("opt.reports", 1)
            rec.count("opt.plans_built", len(report.plans))
            rec.count("opt.rewrites_accepted",
                      len(report.plans) if report.accepted else 0)
            rec.count("opt.rewrites_rejected",
                      0 if report.accepted else len(report.plans))
            rec.count("check.transval_rejected", rejected)
            for side in ("baseline", "optimized"):
                rec.count("opt.oracle_%s_cycles" % side,
                          summary[side]["cycles"])
            rec.count("opt.speedup_sum", report.speedup)
            speedups[name] = report.speedup
        rec.note("opt.speedups", speedups)
