"""Figure 10: correlation between attributed I-cache stall cycles and
IMISS event counts.

For every procedure of an instruction-cache-bound workload, culprit
analysis attributes a [bottom, top] range of stall cycles to I-cache
misses; independently, the simulator counts true IMISS events per
procedure.  The paper validates the culprit analysis by showing the two
correlate strongly (coefficients 0.91 / 0.86 / 0.90 for top / bottom /
midpoint); this benchmark reruns that validation.
"""

from conftest import profile_workload, run_once, write_result
from repro.core.analyze import analyze_image
from repro.core.validate import correlation, score
from repro.workloads import bigcode

BUDGET = 1_000_000
PERIOD = (60, 64)


def run_fig10():
    # Wide size spread (the paper's x-axis spans orders of magnitude)
    # with total code a few I-cache capacities but within the L2, so
    # the fill cost per miss stays roughly uniform.
    workload = bigcode.BigCode(procedures=14, min_insts=100,
                               max_insts=1500, rounds=80)
    result = profile_workload(workload, mode="default",
                              max_instructions=BUDGET, period=PERIOD,
                              event_period=16)
    image = result.daemon.images[workload.name]
    profile = result.profile_for(workload.name)
    return score(result.machine, analyze_image(image, profile))[2]


def render(points, r_top, r_bottom, r_mid):
    lines = ["Figure 10: I-cache stall cycles vs IMISS events "
             "(one row per procedure)",
             "%-10s %10s %12s %12s" % ("procedure", "IMISS",
                                       "stall bottom", "stall top")]
    for point in sorted(points, key=lambda p: -p["imiss"]):
        lines.append("%-10s %10d %12.0f %12.0f"
                     % (point["procedure"], point["imiss"],
                        point["lo"], point["hi"]))
    lines.append("")
    lines.append("correlation (top)      = %.3f" % r_top)
    lines.append("correlation (bottom)   = %.3f" % r_bottom)
    lines.append("correlation (midpoint) = %.3f" % r_mid)
    return "\n".join(lines)


def test_fig10_icache_correlation(benchmark):
    points = run_once(benchmark, run_fig10)
    leaves = [p for p in points if p["procedure"].startswith("leaf")]
    assert len(leaves) >= 10

    xs = [p["imiss"] for p in leaves]
    r_top = correlation(xs, [p["hi"] for p in leaves])
    r_bottom = correlation(xs, [p["lo"] for p in leaves])
    r_mid = correlation(xs, [(p["lo"] + p["hi"]) / 2 for p in leaves])
    write_result("fig10_icache_corr",
                 render(leaves, r_top, r_bottom, r_mid))

    # Paper: 0.91 / 0.86 / 0.90 -- strong linear correlation.
    assert r_top > 0.7
    assert r_mid > 0.7
    # Procedures with many IMISS events received nonzero attribution.
    hottest = max(leaves, key=lambda p: p["imiss"])
    assert hottest["hi"] > 0
