"""Ablation: sampling-period sweep (the scaled-period substitution).

DESIGN.md scales the paper's 60-64K-cycle sampling period down so a
pure-Python simulation still gathers dense profiles, charging handler
costs at the period-equivalent rate.  This benchmark validates the two
relationships that make the substitution sound:

* measured slowdown is (approximately) independent of the simulated
  period once costs are charged at the period-equivalent rate, i.e.
  overhead ~ handler_cost / period on both axes;
* frequency-estimate accuracy improves monotonically as the period
  shrinks (more samples), which is why analysis benchmarks use dense
  periods while overhead benchmarks may use any.
"""

from conftest import (baseline_workload, profile_workload, run_once,
                      write_result)
from repro.core.analyze import analyze_image
from repro.core.validate import score, weight_within
from repro.workloads import mccalpin
from repro.workloads.generator import GeneratedProgram

PERIODS = (64, 128, 256, 512)


def run_sweep():
    rows = []
    base = baseline_workload(mccalpin.build("assign", n=4096,
                                            iterations=3),
                             max_instructions=None)
    for period in PERIODS:
        prof = profile_workload(
            mccalpin.build("assign", n=4096, iterations=3),
            mode="cycles", max_instructions=None,
            period=(int(period * 0.94), period))
        overhead = (prof.cycles - base.cycles) / base.cycles * 100

        accuracy_workload = GeneratedProgram(seed=321, rounds=200)
        result = profile_workload(accuracy_workload, mode="cycles",
                                  max_instructions=400_000,
                                  period=(int(period * 0.94), period),
                                  charge_overhead=False)
        profile = result.profile_for(accuracy_workload.name)
        within10 = 0.0
        samples = 0
        if profile is not None:
            image = result.daemon.images[accuracy_workload.name]
            points = score(result.machine,
                           analyze_image(image, profile))[0]
            within10 = weight_within(points, 10)
            samples = sum(w for _, w, _ in points)
        rows.append({"period": period, "overhead": overhead,
                     "within10": within10, "samples": samples})
    return rows


def render(rows):
    lines = ["Ablation: sampling-period sweep",
             "%8s %12s %12s %10s"
             % ("period", "overhead%", "within10%", "samples")]
    for row in rows:
        lines.append("%8d %11.3f%% %11.1f%% %10d"
                     % (row["period"], row["overhead"],
                        row["within10"] * 100, row["samples"]))
    return "\n".join(lines)


def test_period_sweep(benchmark):
    rows = run_once(benchmark, run_sweep)
    write_result("ext_period_sweep", render(rows))
    overheads = [row["overhead"] for row in rows]
    # Period-equivalent charging keeps the slowdown in one narrow band
    # across an 8x period range.
    assert max(overheads) - min(overheads) < 1.0
    # Denser sampling -> better (or equal) estimates, strongly better
    # across the full sweep.
    assert rows[0]["within10"] > rows[-1]["within10"] - 0.02
    assert rows[0]["samples"] > 3 * rows[-1]["samples"]
