"""Continuous profiling with an on-disk database and offline tools.

Mirrors production use of the paper's system: the daemon runs for a
long period over a timeshared machine, periodically merging profiles
into the epoch-structured on-disk database; analysis happens later,
offline, from a saved session bundle -- possibly on another machine.

Run with:  python examples/continuous_daemon.py
"""

import os
import tempfile

from repro import MachineConfig, ProfileSession, SessionConfig
from repro.collect.bundle import load_bundle, save_bundle
from repro.cpu.events import EventType
from repro.obs import derive
from repro.tools import dcpiprof
from repro.workloads import timesharing

#: CI smoke runs set DCPI_EXAMPLE_BUDGET to cap simulated instructions.
BUDGET = int(os.environ.get("DCPI_EXAMPLE_BUDGET", "0")) or 300_000


def main():
    with tempfile.TemporaryDirectory(prefix="dcpi-example-") as root:
        db_root = os.path.join(root, "db")
        bundle_dir = os.path.join(root, "bundle")

        workload = timesharing.build(processes=16, scale=12)
        session = ProfileSession(
            MachineConfig(num_cpus=workload.num_cpus),
            SessionConfig(mode="default", cycles_period=(200, 256),
                          event_period=64, db_root=db_root,
                          drain_interval=50_000))
        result = session.run(workload, max_instructions=BUDGET)

        stats = derive(result.metrics())
        print("=== session ===")
        print("profiled %d instructions over %d CPUs; %d daemon drains"
              % (result.instructions, len(result.machine.cores),
                 result.daemon.drains))
        print("daemon resident: %.0f KB (peak %.0f KB)"
              % (stats["daemon.resident_bytes"] / 1024,
                 stats["daemon.resident_bytes.peak"] / 1024))
        print("unknown samples: %.2f%% (paper: ~0.05%%)"
              % (stats["daemon.unknown_fraction"] * 100))
        print("profile database: %d bytes on disk at %s"
              % (result.database.disk_bytes(), db_root))

        # Persist everything the offline tools need, then analyze "later".
        save_bundle(result, bundle_dir)
        profiles, meta = load_bundle(bundle_dir)
        print()
        print("=== offline dcpiprof from the saved bundle ===")
        print(dcpiprof(profiles.values(), limit=10))

        total = sum(p.total(EventType.CYCLES) for p in profiles.values())
        print()
        print("%d cycles samples across %d images reloaded from disk"
              % (total, len(profiles)))


if __name__ == "__main__":
    main()
