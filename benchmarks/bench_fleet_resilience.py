"""Fleet resilience: concurrent sharded ingest vs the single lock,
and exact loss accounting under transport faults.

PR 9 made the fleet store shardable (machine-hash partitioned, one
advisory lock per shard) and gave the ship path a bounded retry spool
with seeded backoff.  This benchmark measures both claims:

* **Concurrent ingest scales past the single lock.**  Four real OS
  processes ingest the same delta corpus, once into a single-shard
  store (every writer contends on one ``INGEST.lock``, riding the
  bounded seeded-backoff retry) and once into a 4-shard store (writers
  mostly land on distinct shards).  The sharded layout must be
  byte-identical to the serial merge and must not be measurably slower
  than the single-lock baseline: the median of the per-pair speedups
  of alternating pairs, ``unresolved`` when the pairs' quartiles are
  further apart than its distance from 1.
* **Faults lose nothing silently.**  A fleet session run under seeded
  ship timeouts + drops must balance the conservation identity
  (stored + transit-lost + spool-dropped == shipped) exactly, with the
  retry/backoff counts reproducing run over run.

Deterministic facts (sample conservation, ship retries, fault losses)
land in the "resilience" result block, which ``dcpibench compare``
holds exact; wall-clock throughputs and the lock-retry count (it
depends on how the OS interleaves the four writers) go in the
block's "timing".
"""

import multiprocessing
import os
import shutil
import statistics
import tempfile
import time

from conftest import clamp_budget, record_block, run_once, write_result
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import (FleetConfig, FleetMachine, FleetSession,
                         FleetStore, IngestRetry)
from repro.tools.dcpimon import median_spread

MACHINES = 4
EPOCHS = 6
EPOCH_BUDGET = 8_000
WORKERS = 4
#: Alternating single-lock / sharded ingest pairs the verdict is
#: taken over.
PAIRS = 5

#: Generous bounded retry for the contended single-lock baseline: the
#: point is to measure the contention cost, not to time out under it.
RETRY = IngestRetry(attempts=16, base_ms=1.0, cap_ms=30.0, seed=0)


def _build_corpus():
    """Deterministic per-machine delta streams (machine-major)."""
    config = FleetConfig(machines=MACHINES, epochs=EPOCHS, seed=31)
    machines = [
        FleetMachine("m%02d" % i, config.machine_workload(i),
                     config.machine_seed(i))
        for i in range(MACHINES)
    ]
    budget = clamp_budget(EPOCH_BUDGET)
    streams = [[machine.run_epoch(budget) for _ in range(EPOCHS)]
               for machine in machines]
    shipped = sum(machine.shipped_samples for machine in machines)
    return streams, shipped


def _ingest_worker(root, deltas):
    store = FleetStore(root, retry=RETRY)
    for delta in deltas:
        store.ingest(delta)


def _concurrent_ingest(root, streams, shards):
    """Ingest every stream from its own OS process; return wall s."""
    FleetStore(root, shards=shards, retry=RETRY)  # create the layout
    ctx = multiprocessing.get_context("fork")
    workers = [ctx.Process(target=_ingest_worker, args=(root, stream))
               for stream in streams]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=300)
    elapsed = time.perf_counter() - started
    assert all(worker.exitcode == 0 for worker in workers)
    return elapsed


def _store_bytes(store):
    return store.merged().encode_all()


def test_concurrent_sharded_ingest_outperforms_single_lock(benchmark):
    streams, shipped = _build_corpus()
    deltas = sum(len(stream) for stream in streams)
    tmp = tempfile.mkdtemp(prefix="dcpi-resilience-bench-")
    try:
        serial = FleetStore(os.path.join(tmp, "serial"))
        for stream in streams:
            for delta in stream:
                serial.ingest(delta)

        def contended():
            """Alternating pairs, each layout into a fresh store, so
            drift on the host lands on both sides."""
            walls = {1: [], 4: []}
            for pair in range(PAIRS):
                for shards in ((1, 4) if pair % 2 == 0 else (4, 1)):
                    walls[shards].append(_concurrent_ingest(
                        os.path.join(tmp, "s%d.%d" % (shards, pair)),
                        streams, shards=shards))
            return walls[1], walls[4]

        single_walls, sharded_walls = run_once(benchmark, contended)
        single = FleetStore(os.path.join(tmp, "s1.0"))
        sharded = FleetStore(os.path.join(tmp, "s4.0"))
        oracle = _store_bytes(serial)
        # The tentpole identity: concurrency changes nothing durable.
        assert _store_bytes(single) == oracle
        assert _store_bytes(sharded) == oracle
        assert single.total_samples() == shipped
        assert sharded.total_samples() == shipped
        speedup, spread = median_spread(
            [one / four for one, four in zip(single_walls, sharded_walls)])
        # Sharding must not be measurably slower than everyone behind
        # one lock; pairs that disagree by more than the difference
        # cannot tell either way.
        if abs(speedup - 1.0) <= spread:
            verdict = "unresolved"
        else:
            assert speedup > 1.0, (
                "4-shard concurrent ingest is %.2fx the single-lock "
                "baseline (pairs' quartiles %.2f apart)" % (speedup, spread))
            verdict = "faster"
        single_s = statistics.median(single_walls)
        sharded_s = statistics.median(sharded_walls)
        lock_retries = single.stats()["lock_retries"]
        record_block("resilience", {
            "samples_conserved": 1,
            "corpus_deltas": deltas,
            "corpus_samples": shipped,
        }, timing={
            "single_lock_wall_s": round(single_s, 4),
            "sharded_wall_s": round(sharded_s, 4),
            "concurrent_speedup": round(speedup, 3),
            "concurrent_speedup_spread": round(spread, 3),
            "concurrent_verdict": verdict,
            "single_lock_retries": lock_retries,
            "single_deltas_per_sec": round(deltas / single_s, 1),
            "sharded_deltas_per_sec": round(deltas / sharded_s, 1),
        })
        write_result("fleet_resilience_ingest", "\n".join([
            "Concurrent ingest, %d worker processes, %d deltas "
            "(%d samples), median of %d alternating pairs"
            % (WORKERS, deltas, shipped, PAIRS),
            "  single-lock store : %.3fs wall (%d lock retries)"
            % (single_s, lock_retries),
            "  4-shard store     : %.3fs wall" % sharded_s,
            "  speedup           : %.2fx, quartiles %.2f apart: %s "
            "(byte-identical merges)" % (speedup, spread, verdict),
        ]))
    finally:
        shutil.rmtree(tmp)


def test_faulted_fleet_conserves_and_accounts():
    plan = FaultPlan(specs=(
        FaultSpec("fleet.ship", "transient", hits=(2, 5)),
        FaultSpec("fleet.ship", "drop", hits=(7,)),
    ), seed=9)
    tmp = tempfile.mkdtemp(prefix="dcpi-resilience-fault-")
    try:
        config = FleetConfig(
            machines=2, epochs=3, seed=9,
            epoch_instructions=clamp_budget(EPOCH_BUDGET),
            faults=plan)
        result = FleetSession(config).run(os.path.join(tmp, "store"))
        assert not result.findings, [str(f) for f in result.findings]
        resilience = result.resilience
        transport = result.transport_stats
        record_block("resilience", {
            "fault_shipped_samples": result.shipped_samples(),
            "fault_stored_samples": result.store.total_samples(),
            "transit_lost_samples": transport["lost_samples"],
            "spool_dropped_samples":
                resilience["spool_dropped_samples"],
            "ship_retries": resilience["ship_retries"],
            "backoff_ms": resilience["backoff_ms"],
        })
        write_result("fleet_resilience_faults", "\n".join([
            "Faulted fleet (2 timeouts + 1 drop, seeded):",
            "  shipped %d = stored %d + transit-lost %d + "
            "spool-dropped %d"
            % (result.shipped_samples(),
               result.store.total_samples(),
               transport["lost_samples"],
               resilience["spool_dropped_samples"]),
            "  ship retries %d, modelled backoff %.1fms"
            % (resilience["ship_retries"], resilience["backoff_ms"]),
        ]))
    finally:
        shutil.rmtree(tmp)
