"""Quickstart: profile a program and explain where its cycles went.

Runs the paper's McCalpin copy loop under the continuous-profiling
infrastructure, then walks the full analysis chain:

1. dcpiprof  -- which procedures are hot;
2. dcpicalc  -- per-instruction CPI and stall culprits;
3. the Figure 4-style stall summary.

Run with:  python examples/quickstart.py
"""

import os

from repro import MachineConfig, ProfileSession, SessionConfig
from repro.core import analyze_procedure
from repro.obs import derive
from repro.tools import dcpicalc, dcpiprof
from repro.workloads import mccalpin

#: CI smoke runs set DCPI_EXAMPLE_BUDGET to cap simulated instructions;
#: unset (0) means run the workload to completion.
BUDGET = int(os.environ.get("DCPI_EXAMPLE_BUDGET", "0")) or None


def main():
    # The workload: c[i] = a[i] over arrays far larger than the caches,
    # unrolled 4x -- the exact loop of the paper's Figure 2.
    workload = mccalpin.build("assign", n=16384, iterations=2)

    # A profiling session: CYCLES + IMISS counters with randomized
    # periods (scaled down from the paper's 60-64K cycles so a pure-
    # Python simulation still gathers thousands of samples).
    session = ProfileSession(
        MachineConfig(),
        SessionConfig(mode="default", cycles_period=(120, 128),
                      event_period=64))
    result = session.run(workload, max_instructions=BUDGET)

    stats = derive(result.metrics())
    print("=== collection ===")
    print("instructions: %d   cycles: %d"
          % (result.instructions, result.cycles))
    print("samples: %d   hash miss rate: %.1f%%   handler avg: %.0f cyc"
          % (stats["driver.samples"], stats["driver.hash.miss_rate"] * 100,
             stats["driver.avg_cost"]))

    print()
    print("=== dcpiprof: samples per procedure ===")
    print(dcpiprof(result.profiles.values()))

    image = result.daemon.images["mccalpin"]
    profile = result.profile_for("mccalpin")
    analysis = analyze_procedure(image, "assign", profile)

    print()
    print("=== dcpicalc: instruction-level analysis ===")
    print(dcpicalc(image, "assign", profile, analysis=analysis))

    print()
    print("=== stall summary ===")
    print(analysis.summary().render())


if __name__ == "__main__":
    main()
