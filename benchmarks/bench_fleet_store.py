"""Fleet store: size under retention policies, and merge throughput.

The paper's deployment stored per-machine profile databases and noted
(section 5.4/Table 5) that compact profiles stay orders of magnitude
smaller than the executables they describe.  ``repro.fleet`` promotes
that to fleet scale: many machines ship epoch deltas into one central
store with keep-recent-full / merge-downsample-old retention.  This
benchmark measures what that costs:

* store size for the same fleet traffic under no retention, lossless
  window compaction, and lossy (count-divided) compaction -- the
  size/fidelity trade EXPERIMENTS.md reports;
* delta-merge throughput of the central store (samples merged per
  CPU-second through ``FleetStore.ingest``), the number that bounds
  how many machines one store can absorb.

The machine simulation dominates wall time, so the fleet runs here are
small; sizes and sample counts are deterministic and land in the
"fleet" result block, which ``dcpibench compare`` holds exact.
"""

import os
import shutil
import tempfile
import time

from conftest import clamp_budget, record_block, run_once, write_result
from repro.fleet import (FleetConfig, FleetSession, FleetStore,
                         RetentionPolicy)

MACHINES = 3
EPOCHS = 8
EPOCH_BUDGET = 12_000

#: Retention policies measured against identical fleet traffic.
POLICIES = (
    ("none", None),
    ("lossless 4:2:1", RetentionPolicy(keep_full=4, window=2,
                                       count_divisor=1)),
    ("lossy 2:2:4", RetentionPolicy(keep_full=2, window=2,
                                    count_divisor=4)),
)


def _run_fleet(retention):
    """One deterministic fleet run into a fresh store; return facts."""
    tmp = tempfile.mkdtemp(prefix="dcpi-fleet-bench-")
    try:
        config = FleetConfig(
            machines=MACHINES, epochs=EPOCHS, seed=1,
            epoch_instructions=clamp_budget(EPOCH_BUDGET),
            retention=retention)
        store = FleetStore(os.path.join(tmp, "store"))
        started = time.process_time()
        result = FleetSession(config).run(store)
        cpu_s = time.process_time() - started
        stats = store.stats()
        assert not result.findings, [str(f) for f in result.findings]
        return {
            "stats": stats,
            "epochs_on_disk": len(store.epochs()),
            "cpu_s": cpu_s,
        }
    finally:
        shutil.rmtree(tmp)


def run_fleet_matrix():
    return [(label, _run_fleet(retention))
            for label, retention in POLICIES]


def render(rows):
    lines = ["Fleet store size vs retention policy "
             "(%d machines x %d epochs, identical traffic)"
             % (MACHINES, EPOCHS),
             "%-16s %8s %10s %10s %9s %8s"
             % ("policy", "epochs", "ingested", "stored", "residue",
                "bytes")]
    for label, row in rows:
        stats = row["stats"]
        lines.append("%-16s %8d %10d %10d %9d %8d"
                     % (label, row["epochs_on_disk"],
                        stats["samples_ingested"],
                        stats["stored_samples"],
                        stats["downsample_residue"],
                        stats["disk_bytes"]))
    return "\n".join(lines)


def test_fleet_store_size(benchmark):
    rows = run_once(benchmark, run_fleet_matrix)
    write_result("fleet_store_size", render(rows))
    by_label = dict(rows)
    none = by_label["none"]["stats"]
    lossless = by_label["lossless 4:2:1"]["stats"]
    lossy = by_label["lossy 2:2:4"]["stats"]
    # Identical traffic reached every store.
    assert (none["samples_ingested"] == lossless["samples_ingested"]
            == lossy["samples_ingested"])
    # Lossless compaction keeps every sample; lossy records its residue.
    assert lossless["stored_samples"] == none["stored_samples"]
    assert lossless["downsample_residue"] == 0
    assert (lossy["stored_samples"] + lossy["downsample_residue"]
            == none["stored_samples"])
    # Compaction strictly reduces both epoch count and disk footprint.
    assert (by_label["lossless 4:2:1"]["epochs_on_disk"]
            < by_label["none"]["epochs_on_disk"])
    assert lossy["disk_bytes"] < none["disk_bytes"]
    record_block("fleet", {
        "machines": MACHINES,
        "epochs": EPOCHS,
        "samples_ingested": none["samples_ingested"],
        "deltas_applied": none["deltas_applied"],
        "duplicates_dropped": none["duplicates_dropped"],
        "downsample_residue": lossy["downsample_residue"],
        "disk_bytes_full": none["disk_bytes"],
        "disk_bytes_lossless": lossless["disk_bytes"],
        "disk_bytes_lossy": lossy["disk_bytes"],
    })


def test_fleet_merge_throughput(benchmark):
    """Replay one fleet's deltas into a fresh store, timed."""
    from repro.fleet.transport import DeltaTransport
    from repro.fleet.machine import FleetMachine, FleetConfig as FC

    config = FC(machines=MACHINES, epochs=EPOCHS, seed=1)
    machines = [
        FleetMachine("m%02d" % i, config.machine_workload(i),
                     config.machine_seed(i))
        for i in range(MACHINES)
    ]
    deltas = []
    budget = clamp_budget(EPOCH_BUDGET)
    for _ in range(EPOCHS):
        for machine in machines:
            deltas.append(machine.run_epoch(budget))

    def ingest_all():
        tmp = tempfile.mkdtemp(prefix="dcpi-fleet-merge-")
        try:
            store = FleetStore(os.path.join(tmp, "store"))
            transport = DeltaTransport()
            started = time.process_time()
            for delta in deltas:
                for delivery in transport.ship(delta):
                    store.ingest(delivery)
            cpu_s = time.process_time() - started
            return store.stats(), cpu_s
        finally:
            shutil.rmtree(tmp)

    stats, cpu_s = run_once(benchmark, ingest_all)
    total = stats["samples_ingested"]
    sps = total / cpu_s if cpu_s else 0.0
    dps = stats["deltas_applied"] / cpu_s if cpu_s else 0.0
    write_result(
        "fleet_merge_throughput",
        "Fleet store merge throughput\n"
        "%d deltas, %d samples in %.3f CPU-s\n"
        "%.0f samples/s, %.1f deltas/s"
        % (stats["deltas_applied"], total, cpu_s, sps, dps))
    assert stats["deltas_applied"] == len(deltas)
    assert total == sum(d.total_samples() for d in deltas)
    record_block("fleet", {
        "merge_deltas": stats["deltas_applied"],
        "merge_samples": total,
    }, timing={"merge_samples_per_sec": round(sps, 1)})
