"""Realized speedup from the profile-guided optimizer (repro.opt).

The paper's closing argument is that continuous profiles are good
enough to *drive* optimization, not just explain cycles.  This
benchmark runs the full loop -- profile, plan, rewrite, verify,
re-run -- on the three optimization-target workloads, each built to
leave one kind of cycles on the table:

* ``opt-branchy``: hot-path unconditional branches (layout's cycles);
* ``opt-icache``:  conflicting hot procedures an I-cache apart
  (splitting's cycles);
* ``opt-stall``:   load-use serialization (scheduling's cycles).

Every reported speedup is *realized*: two plain runs to completion,
architectural identity proven by the oracle, zero new Layer-1
findings.  The per-pass contribution split (each pass measured in
isolation) lands with the combined numbers in the "opt" result
block; the simulator is deterministic, so ``dcpibench compare``
holds the speedups exact between runs.
"""

from conftest import clamp_budget, record_block, run_once, write_result
from repro.opt import optimize_workload, pass_contributions
from repro.workloads import OPT_TARGETS

BUDGET = 60_000

#: Acceptance floor per target at full budget (ISSUE: >= 5% on at
#: least two registry workloads; all three clear it with margin).
MIN_SPEEDUP = 0.05


def run_matrix():
    rows = []
    budget = clamp_budget(BUDGET)
    for name in OPT_TARGETS:
        report = optimize_workload(name, max_instructions=budget)
        split = pass_contributions(name, max_instructions=budget)
        rows.append((name, report.report(), split))
    return rows


def render(rows):
    lines = ["Profile-guided optimization: realized speedup "
             "(budget %d, verify to completion)" % clamp_budget(BUDGET),
             "%-14s %10s %10s %8s %8s %8s %8s  %s"
             % ("workload", "base_cyc", "opt_cyc", "speedup",
                "layout", "sched", "split", "accepted")]
    for name, report, split in rows:
        lines.append(
            "%-14s %10d %10d %7.2f%% %7.2f%% %7.2f%% %7.2f%%  %s"
            % (name, report["baseline"]["cycles"],
               report["optimized"]["cycles"],
               report["speedup"] * 100.0,
               split["layout"] * 100.0, split["schedule"] * 100.0,
               split["split"] * 100.0, report["accepted"]))
    return "\n".join(lines)


def test_opt_realized_speedup(benchmark):
    rows = run_once(benchmark, run_matrix)
    write_result("opt_speedup", render(rows))

    speedups = {}
    block = {}
    for name, report, split in rows:
        # The contract before any performance claim: same program
        # (oracle) and no new findings (Layer 1).
        assert report["accepted"], (name, report["mismatches"],
                                    report["check_findings"])
        assert report["identical"], (name, report["mismatches"])
        assert not report["check_findings"], (name,
                                              report["check_findings"])
        speedups[name] = report["speedup"]
        key = name.replace("-", "_")
        block["%s_speedup" % key] = round(report["speedup"], 6)
        block["%s_base_cycles" % key] = report["baseline"]["cycles"]
        block["%s_opt_cycles" % key] = report["optimized"]["cycles"]
        for pass_name, value in split.items():
            block["%s_%s" % (key, pass_name)] = round(value, 6)

    # Each target's headline pass reclaims its cycles: the combined
    # speedup clears the ISSUE's 5% floor on all three.
    for name, value in speedups.items():
        assert value >= MIN_SPEEDUP, (name, value)

    # opt-icache's win is conflict misses: splitting dominates.
    by_name = {name: split for name, _, split in rows}
    assert by_name["opt-icache"]["split"] >= \
        by_name["opt-icache"]["schedule"]
    # opt-stall's win is load-use stalls: scheduling dominates.
    assert by_name["opt-stall"]["schedule"] >= \
        by_name["opt-stall"]["layout"]

    block["accepted"] = sum(1 for _, r, _ in rows if r["accepted"])
    block["speedup_min"] = round(min(speedups.values()), 6)
    block["speedup_mean"] = round(
        sum(speedups.values()) / len(speedups), 6)
    record_block("opt", block)
