"""``fleet-ingest``: deltas through transport -> sharded store -> query.

Set-up runs a few real ``FleetMachine``s for ``EPOCHS`` epochs and
clones every ``Delta`` under new machine ids into a ``FLEET``-machine
fleet.  The timed region ships each delta and ingests what arrives
into a fresh ``FleetStore(shards=4)``, epoch by epoch, re-shipping a
few deltas of every epoch (duplicates the store must drop); then it
queries the filled store.  ``repro.fleet`` plus the database commit
path, no simulation.  Per-delta ingest time grows with the store, so a
round fills a whole store: a shorter round would not see it.
"""

import dataclasses
import os
import statistics

from repro.fleet.machine import FleetConfig, FleetMachine
from repro.fleet.query import FleetQuery
from repro.fleet.store import FleetStore
from repro.fleet.transport import DeltaTransport

from perfbench.workloads import PERIOD, BenchWorkload

BASE_MACHINES = 4
EPOCHS = 8
FLEET = 64
RESHIPS_PER_EPOCH = 8
SHARDS = 4
#: Calls of each of top / movers / timeseries / regress per round.
QUERIES = 10


class FleetIngest(BenchWorkload):
    name = "fleet-ingest"
    why = ("512 deltas of a 64-machine fleet plus 64 duplicates "
           "shipped and ingested into a 4-shard store, then queried: "
           "repro.fleet and the database commit path, no simulation")
    unit = "deltas shipped and ingested"
    operation = "one DeltaTransport.ship + FleetStore.ingest"

    def setup(self, seed, path):
        """The shipment sequence: [Delta], epoch by epoch."""
        config = FleetConfig(machines=BASE_MACHINES, epochs=EPOCHS,
                             seed=seed, **PERIOD)
        base = []
        for index in range(BASE_MACHINES):
            machine = FleetMachine(
                "base%d" % index, config.machine_workload(index),
                config.machine_seed(index), mode=config.mode,
                cycles_period=config.cycles_period,
                event_period=config.event_period,
                drain_interval=config.drain_interval)
            base.append([machine.run_epoch(config.epoch_instructions)
                         for _ in range(EPOCHS)])
        shipments = []
        for epoch in range(EPOCHS):
            deltas = [dataclasses.replace(
                base[index % BASE_MACHINES][epoch],
                machine_id="m%03d" % index) for index in range(FLEET)]
            step = FLEET // RESHIPS_PER_EPOCH
            shipments.extend(deltas)
            shipments.extend(deltas[::step])
        return shipments

    def round(self, shipments, rec):
        transport = DeltaTransport()
        store = FleetStore(os.path.join(rec.round.path, "store"),
                           shards=SHARDS)
        for delta in shipments:
            with rec.op():
                for delivered in transport.ship(delta):
                    store.ingest(delivered)
        rec.work(len(shipments))
        ops = rec.round.ops
        tenth = max(len(ops) // 10, 1)
        rec.measure("fleet.store.ingest_ms_growth",
                    statistics.median(ops[-tenth:])
                    / statistics.median(ops[:tenth]))
        self.query(store, rec)

        stats = store.stats()
        for key in ("deltas_applied", "duplicates_dropped", "lock_retries",
                    "samples_ingested", "disk_bytes"):
            rec.count("fleet.store." + key, stats[key])
        rec.count("collect.database.commits", len(shipments))
        distinct = {delta.delta_id: delta for delta in shipments}
        shipped = sum(delta.total_samples() for delta in distinct.values())
        expected = {"deltas_applied": len(distinct),
                    "duplicates_dropped": len(shipments) - len(distinct),
                    "samples_ingested": shipped, "stored_samples": shipped,
                    "quarantined_samples": 0}
        for key, value in expected.items():
            if stats[key] != value:
                rec.fail("store.stats()[%r] is %d, expected %d"
                         % (key, stats[key], value))

    @staticmethod
    def query(store, rec):
        """The read side: what dcpifleet top/movers/... would run."""
        early = "0..%d" % (EPOCHS // 2 - 1)
        late = "%d..%d" % (EPOCHS // 2, EPOCHS - 1)
        digest = []
        for _ in range(QUERIES):
            with rec.side():
                query = FleetQuery(store)
                top = query.top(limit=10)
                movers = query.movers(early, late)
                series = query.timeseries()
                regress = query.regress(epochs=late, base_epochs=early)
            digest = [top["total_samples"], top["rows"][0]["name"],
                      len(movers["rows"]), len(series["series"]),
                      len(regress["regressions"])]
        rec.note("fleet.query.answers", digest)
