"""Table 3: overall slowdown (percent) per workload and configuration.

For each workload, runs a base (unprofiled) execution and one execution
per collection configuration -- ``cycles`` (one counter), ``default``
(cycles + imiss) and ``mux`` (cycles + multiplexed imiss/dmiss/
branchmp) -- on identical seeds, several seeds each.  The slowdown is
measured end-to-end on the simulated machine, with handler cycles
charged at the paper's 62K-cycle-period-equivalent rate, plus the
daemon's amortized share.

Paper shape to reproduce: overhead is a few percent or less everywhere,
``default`` and ``mux`` cost slightly more than ``cycles``, and gcc is
the most expensive workload (hash evictions).
"""

from conftest import (FAST_PERIOD, baseline_workload, mean_ci95,
                      profile_workload, run_once, write_result)
from repro.collect.driver import PAPER_MEAN_PERIOD
from repro.workloads.registry import get_workload

WORKLOADS = ("specint95", "specfp95", "x11perf", "mccalpin-assign",
             "mccalpin-scale", "wave5", "gcc", "altavista", "dss",
             "parallel-specfp")
MODES = ("cycles", "default", "mux")
SEEDS = (1, 2, 3)
BUDGET = 50_000


def run_table3():
    rows = []
    for name in WORKLOADS:
        row = {"workload": name}
        for mode in MODES:
            overheads = []
            for seed in SEEDS:
                base = baseline_workload(get_workload(name), seed=seed,
                                         max_instructions=BUDGET)
                prof = profile_workload(get_workload(name), mode=mode,
                                        seed=seed,
                                        max_instructions=BUDGET)
                overheads.append(
                    (prof.adjusted_cycles - base.cycles)
                    / base.cycles * 100.0)
            row[mode] = mean_ci95(overheads)
        rows.append(row)
    return rows


def render(rows):
    lines = ["Table 3: overall slowdown (percent), charged at the",
             "paper-equivalent sampling rate (mean period %d cycles"
             % PAPER_MEAN_PERIOD,
             "after scaling from the simulated %s-cycle period)"
             % (FAST_PERIOD,),
             "%-18s %14s %14s %14s"
             % ("Workload", "cycles", "default", "mux")]
    for row in rows:
        cells = ["%5.2f +/-%4.2f" % row[mode] for mode in MODES]
        lines.append("%-18s %14s %14s %14s"
                     % (row["workload"], *cells))
    return "\n".join(lines)


def test_table3_overhead(benchmark):
    rows = run_once(benchmark, run_table3)
    write_result("table3_overhead", render(rows))
    by_name = {row["workload"]: row for row in rows}
    # Overhead is small everywhere (the paper: 1-3%; allow <6% for the
    # scaled simulation).
    for row in rows:
        for mode in MODES:
            assert -1.0 < row[mode][0] < 6.0, (row["workload"], mode)
    # gcc (high eviction rate) costs more than AltaVista (lowest).
    assert (by_name["gcc"]["default"][0]
            > by_name["altavista"]["default"][0])
    # Monitoring more events costs at least as much as cycles-only,
    # on average across workloads.
    avg = {mode: sum(r[mode][0] for r in rows) / len(rows)
           for mode in MODES}
    assert avg["mux"] >= avg["cycles"] - 0.3
