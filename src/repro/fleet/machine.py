"""Per-machine fleet daemons and the simulated fleet itself.

A :class:`FleetMachine` is one machine of the fleet: a simulated
:class:`~repro.cpu.machine.Machine` running a traffic-source workload
(AltaVista/timesharing/DSS by default) under the full collection stack
-- driver hash tables, daemon drains -- and it *is* the
:class:`~repro.collect.session.CollectionStack` a
:class:`~repro.collect.session.ProfileSession` runs, except that
instead of merging into a local database it closes an epoch after
every ``epoch_instructions`` and ships the epoch's samples upstream as
a :class:`~repro.fleet.transport.Delta`.  Traffic is continuous: when
the workload's processes finish, the traffic source respawns them (a
new loadmap generation), so every epoch carries samples.

Resilience (PR 9): a *durable* machine keeps a local
:class:`~repro.collect.database.ProfileDatabase` + write-ahead
:class:`~repro.collect.journal.DrainJournal` under the store's
``machines/<id>`` directory.  Its daemon can die mid-epoch
(``fleet.machine.run``) or between closing an epoch and shipping it
(``fleet.machine.ship``) and recovers through the session's path --
journal replay, in-flight redrain, catch-up drain -- so a crash moves
no sample across epochs and no cycle of machine time; closed epochs
stay in the local database until the store acknowledges them, so a
restarted machine re-extracts and re-ships unacked epochs (the store's
idempotent ``(machine, epoch, batch)`` dedupe absorbs replays).
Shipping rides a bounded :class:`~repro.fleet.transport.ShipSpool`
with deterministic seeded-jitter exponential backoff on timeouts and
exact drop-oldest overflow accounting.

:class:`FleetSession` stands up N machines with deterministic
per-machine seeds, runs them for E epochs, ships every delta through
one :class:`~repro.fleet.transport.DeltaTransport` into one (possibly
sharded) :class:`~repro.fleet.store.FleetStore`, reopening the store
if its writer crashes mid-ingest, and (optionally) applies the
retention policy as epochs age out.  Runs are reproducible end to end:
same config, same store bytes, same query output.
"""

import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.collect.session import CollectionStack, SessionConfig
from repro.cpu.config import MachineConfig
from repro.faults.injector import (DROP, FLEET_ACK, FLEET_MACHINE_CRASH,
                                   FLEET_PRESHIP_CRASH, InjectedCrash,
                                   NULL_INJECTOR)
from repro.fleet.retention import RetentionPolicy, compact
from repro.fleet.store import FleetStore
from repro.fleet.transport import (DEFAULT_SPOOL_CAPACITY, Delta,
                                   DeltaTransport, ShipSpool,
                                   ShipTimeoutError)

#: Default traffic sources: the paper's multi-process server workloads.
DEFAULT_WORKLOADS = ("altavista", "timesharing", "dss")

#: Deterministic per-machine seed spacing (any odd constant works; a
#: prime keeps seed streams visibly unrelated across machines).
SEED_STRIDE = 101

#: Post-session spool drain: bounded re-ship rounds before anything
#: still unacked is abandoned with exact loss accounting.
FINAL_SHIP_ROUNDS = 6

#: Store reopen attempts after an injected mid-ingest writer crash.
MAX_STORE_RECOVERIES = 4


@dataclass
class FleetConfig:
    """Settings for one simulated fleet session."""

    machines: int = 3
    epochs: int = 3
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    seed: int = 1
    #: instruction budget per machine per epoch.
    epoch_instructions: int = 24_000
    #: instructions between daemon drains within an epoch.
    drain_interval: int = 6_000
    mode: str = "default"
    cycles_period: tuple = (240, 256)
    event_period: int = 64
    #: fault plan applied to the fleet pipeline (fleet.* points); the
    #: machines' own drain-level chaos is PR 4's dcpichaos territory.
    faults: Optional[object] = None
    #: retention policy applied after every fleet epoch (None = keep
    #: everything at full resolution).
    retention: Optional[RetentionPolicy] = None
    #: thread the request-context dimension (repro.ctx) through every
    #: machine and ship each epoch's ledger inside its Delta, so the
    #: store can answer per-request-class queries fleet-wide.
    context: bool = False
    #: shard count for a store created by this session.
    shards: int = 1
    #: give every machine a local database + drain journal so it can
    #: crash and recover mid-epoch (fleet.machine.* fault points only
    #: arm when durable).
    durable: bool = False
    #: bounded unacked-delta spool capacity per machine.
    spool_capacity: int = DEFAULT_SPOOL_CAPACITY

    def machine_seed(self, index):
        return self.seed + SEED_STRIDE * index

    def machine_workload(self, index):
        return self.workloads[index % len(self.workloads)]


class FleetMachine(CollectionStack):
    """One machine: a collection stack run epoch by epoch into deltas.

    Build, drain-interval step and crash recovery are the
    :class:`~repro.collect.session.CollectionStack`'s; this class adds
    what is fleet: epochs, traffic respawn, delta extraction and the
    ship spool.
    """

    def __init__(self, machine_id, workload_name, seed,
                 mode="default", cycles_period=(240, 256),
                 event_period=64, drain_interval=6_000, context=False,
                 durable_root=None,
                 faults=None, spool_capacity=DEFAULT_SPOOL_CAPACITY):
        from repro.workloads.registry import get_workload

        self.machine_id = machine_id
        self.workload_name = workload_name
        self.seed = seed
        self.workload = get_workload(workload_name)
        durable = durable_root is not None
        config = SessionConfig(
            mode=mode, seed=seed, cycles_period=cycles_period,
            event_period=event_period, context=context,
            drain_interval=drain_interval,
            db_root=os.fspath(durable_root) if durable else None)
        # Crash faults only make sense on a durable machine.
        super().__init__(
            MachineConfig(num_cpus=self.workload.num_cpus), config,
            self.workload,
            faults=(faults or NULL_INJECTOR) if durable else NULL_INJECTOR,
            crash_point=FLEET_MACHINE_CRASH)
        #: bounded unacked-delta outbox, seeded per machine so the
        #: backoff jitter is deterministic fleet-wide.
        self.spool = ShipSpool(capacity=spool_capacity, seed=seed)
        #: loadmap generation: bumped every traffic respawn.
        self.generation = 1
        self._symbols_shipped_gen = 0
        self.batch = 0
        self.shipped_samples = 0
        self.respawns = 0

    def _symbols(self):
        """Offset-relative procedure tables of every loaded image."""
        symbols = {}
        for image in self.machine.loader.images:
            symbols[image.name] = sorted(
                (proc.name, proc.start - image.base,
                 proc.end - image.base)
                for proc in image.procedures)
        return symbols

    def _respawn(self):
        """The traffic source: fresh processes, new loadmap generation."""
        self.workload.setup(self.machine)
        self.generation += 1
        self.respawns += 1

    def run_epoch(self, instructions):
        """Run one epoch's worth of traffic; return its Delta.

        A durable machine survives injected daemon crashes here: one
        between two drains is recovered inside that step, exactly as
        in a ProfileSession; one between closing the epoch and
        shipping it rebuilds the daemon from the local database and
        closes the same epoch again.
        """
        ran_epoch = 0
        idle_streak = 0
        while ran_epoch < instructions:
            ran = self.step(min(self.config.drain_interval,
                                instructions - ran_epoch))
            ran_epoch += ran
            if ran == 0:
                idle_streak += 1
                if idle_streak > 1:
                    # A traffic source that produces no work even after
                    # a respawn: ship what we have rather than spin.
                    break
                self._respawn()
            else:
                idle_streak = 0
        while True:
            try:
                return self._close_epoch()
            except InjectedCrash as crash:
                self.recover(crash)

    def _close_epoch(self):
        """Checkpoint (durable), extract, and wrap the epoch's Delta."""
        # Fold the per-process request totals into the epoch's ledger
        # and make the epoch durable *before* shipping: a pre-ship
        # crash recovers the full epoch from the local database and
        # redoes the close (same delta id -> dedupe-safe).
        self.checkpoint()
        self.faults.check(FLEET_PRESHIP_CRASH)
        epoch, profiles, _, ctx_meta = self.daemon.extract_delta()
        if self.database is not None:
            # Commit the advanced-epoch watermarks so a later crash
            # recovers into the new epoch instead of resurrecting the
            # closed one (which now lives on as an unacked delta).
            self.database.update_checkpoint(self.daemon._checkpoint_meta())
        symbols = None
        if self.generation > self._symbols_shipped_gen:
            symbols = self._symbols()
            self._symbols_shipped_gen = self.generation
        # One delta per epoch: the batch number is derived, not
        # counted, so a crash-and-redo closes on the same delta id.
        self.batch = epoch + 1
        delta = self._delta(epoch, profiles, symbols=symbols, ctx=ctx_meta)
        self.shipped_samples += delta.total_samples()
        return delta

    def _delta(self, epoch, profiles, symbols=None, ctx=None):
        """Closed *epoch*'s Delta, carrying the machine's losses so far."""
        return Delta(
            machine_id=self.machine_id,
            epoch=epoch,
            batch=epoch + 1,
            generation=self.generation,
            workload=self.workload_name,
            seed=self.seed,
            profiles=profiles,
            periods=dict(self.daemon.periods),
            symbols=symbols,
            machine_lost=(self.daemon.lost_samples
                          + sum(cpu.dropped for cpu in self.driver.cpus)),
            ctx=ctx)

    # -- crash recovery ----------------------------------------------------

    def recover(self, crash):
        """The session's recovery, then re-spool unacked closed epochs."""
        super().recover(crash)
        self._respool_unacked()

    def _delta_from_database(self, epoch):
        """Rebuild a closed epoch's delta from the local database.

        Symbols and the context ledger are not re-derived for a
        rebuilt delta: the original shipment (if any copy got through)
        carried them, and the store's dedupe keys on the delta id
        alone.  ``shipped_samples`` is *not* recounted -- the epoch
        was counted when first extracted.
        """
        profiles = {}
        for image, event, counts, _ in self.database.load_all(epoch):
            profiles.setdefault(image, {})[event] = dict(counts)
        return self._delta(epoch, profiles)

    def _respool_unacked(self):
        """Re-spool closed-but-unacked epochs after a restart.

        Epochs still present in the local database below the current
        one were extracted but never acknowledged (acks drop them);
        "resume shipping from the journal" means re-extracting them as
        deltas.  Dedupe-by-id makes any overlap with a surviving spool
        entry or an already-applied shipment harmless.
        """
        spooled = {entry.delta.delta_id
                   for entry in self.spool.pending()}
        for epoch in self.database.epochs():
            if epoch >= self.daemon.epoch:
                continue
            delta = self._delta_from_database(epoch)
            if delta.delta_id not in spooled:
                self.spool.offer(delta)

    def on_acked(self, delta):
        """The store acknowledged *delta*: its epoch is off this box."""
        if self.database is not None and delta.epoch in \
                self.database.epochs():
            self.database.drop_epoch(delta.epoch)


@dataclass
class FleetResult:
    """Everything one fleet session produced (JSON-serializable)."""

    config: FleetConfig
    store: FleetStore
    machines: list
    transport_stats: dict
    retention_reports: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    resilience: dict = field(default_factory=dict)

    def shipped_samples(self):
        return sum(m["shipped_samples"] for m in self.machines)

    def _books(self, store=None):
        """The terms of the fleet conservation identity over *store*,
        by default the run's own.

        Shipped, transit-lost and spool-dropped samples are the run's;
        stored, residue and quarantined are read from *store*, so a
        reopened store re-checks the same run's books.
        """
        store = self.store if store is None else store
        return {
            "shipped": self.shipped_samples(),
            "stored": store.total_samples(),
            "transit_lost": self.transport_stats["lost_samples"],
            "residue": store.downsample_residue(),
            "quarantined": store.quarantined_samples(),
            "spool_dropped": self.resilience["spool_dropped_samples"],
        }

    def conservation(self, label, store=None):
        """Findings of the fleet conservation identity
        (:func:`repro.check.analysis_checks.check_fleet_conservation`)
        over *store*, by default the run's own."""
        from repro.check import analysis_checks

        return analysis_checks.check_fleet_conservation(
            label=label, **self._books(store))

    def loss_rate(self, store=None):
        """The loss side of the identity over the samples shipped:
        (transit-lost + spool-dropped + residue + quarantined) /
        shipped."""
        books = self._books(store)
        shipped = books.pop("shipped")
        books.pop("stored")
        return sum(books.values()) / shipped if shipped else 0.0

    def report(self):
        """The body of ``dcpifleet run``'s JSON report."""
        return {
            "config": {
                "machines": self.config.machines,
                "epochs": self.config.epochs,
                "workloads": list(self.config.workloads),
                "seed": self.config.seed,
                "epoch_instructions": self.config.epoch_instructions,
                "retention": (self.config.retention.spec()
                              if self.config.retention else None),
                "context": self.config.context,
                "shards": self.config.shards,
                "durable": self.config.durable,
                "spool_capacity": self.config.spool_capacity,
            },
            "machines": self.machines,
            "transport": dict(self.transport_stats),
            "store": self.store.stats(),
            "retention": self.retention_reports,
            "resilience": dict(self.resilience),
            "shipped_samples": self.shipped_samples(),
            "findings": [f.to_dict() for f in self.findings],
            "ok": not self.findings,
        }


class FleetSession:
    """Run a whole simulated fleet into one store."""

    def __init__(self, config=None):
        self.config = config or FleetConfig()

    def run(self, store, check=True):
        """Simulate the fleet; return a :class:`FleetResult`.

        *store* is a :class:`FleetStore` or a directory path.  With
        *check* (the default), the fleet-conservation invariant --
        stored samples + transit losses + spool drops + downsample
        residue + quarantined equals the sum of per-machine shipped
        samples -- is verified via :meth:`FleetResult.conservation` and
        any violation lands in ``result.findings``.
        """
        config = self.config
        # Per run: a second run() of this session reports its own.
        self._store_recoveries = 0
        self._acks_lost = 0
        if not isinstance(store, FleetStore):
            store = FleetStore(store, shards=config.shards)
        faults = (config.faults.build()
                  if getattr(config.faults, "build", None)
                  else (config.faults or NULL_INJECTOR))
        transport = DeltaTransport(faults=faults)
        machines = [
            FleetMachine(
                "m%02d" % index,
                config.machine_workload(index),
                config.machine_seed(index),
                mode=config.mode,
                cycles_period=config.cycles_period,
                event_period=config.event_period,
                drain_interval=config.drain_interval,
                context=config.context,
                durable_root=(os.path.join(store.root, "machines",
                                           "m%02d" % index)
                              if config.durable else None),
                faults=faults,
                spool_capacity=config.spool_capacity)
            for index in range(config.machines)
        ]
        retention_reports = []
        for _epoch in range(config.epochs):
            for machine in machines:
                delta = machine.run_epoch(config.epoch_instructions)
                for victim in machine.spool.offer(delta):
                    # Overflow drop is terminal (and accounted): also
                    # release the epoch from the machine's local
                    # database so a restart cannot re-spool it.
                    machine.on_acked(victim)
                store = self._ship_spooled(machine, transport, store,
                                           faults)
            if config.retention is not None:
                report = compact(store, config.retention)
                if report["windows"]:
                    retention_reports.append(report)
        store = self._drain_spools(machines, transport, store, faults)
        for delivery in transport.flush():
            store = self._deliver(store, delivery, faults)[0]
        machine_rows = [{
            "machine": machine.machine_id,
            "workload": machine.workload_name,
            "seed": machine.seed,
            "instructions": machine.instructions,
            "shipped_samples": machine.shipped_samples,
            "respawns": machine.respawns,
            "deltas": machine.batch,
            "recoveries": machine.daemon.recoveries,
            "spool": machine.spool.to_dict(),
        } for machine in machines]
        resilience = {
            "spool_dropped_deltas": sum(machine.spool.dropped_deltas
                                        for machine in machines),
            "spool_dropped_samples": sum(machine.spool.dropped_samples
                                         for machine in machines),
            "ship_retries": sum(machine.spool.retries
                                for machine in machines),
            "backoff_ms": round(sum(machine.spool.backoff_ms
                                    for machine in machines), 3),
            "machine_recoveries": sum(machine.daemon.recoveries
                                      for machine in machines),
            "store_recoveries": self._store_recoveries,
            "acks_lost": self._acks_lost,
        }
        result = FleetResult(
            config=config, store=store, machines=machine_rows,
            transport_stats=transport.stats.to_dict(),
            retention_reports=retention_reports, resilience=resilience)
        if check:
            result.findings = result.conservation(
                "fleet/%dx%d" % (config.machines, config.epochs))
        return result

    # -- shipping ----------------------------------------------------------

    def _deliver(self, store, delivery, faults):
        """Ingest one delivered delta, surviving writer crashes.

        An injected ``fleet.store.ingest`` crash kills the writer
        before the atomic commit; the session reopens the store (the
        staged in-memory ledger mutation dies with the process) and
        retries the same delivery.  Returns ``(store, applied)``.
        """
        for _attempt in range(MAX_STORE_RECOVERIES + 1):
            try:
                return store, store.ingest(delivery, faults=faults)
            except InjectedCrash:
                self._store_recoveries += 1
                store = FleetStore(store.root, shards=store.num_shards,
                                   retry=store.retry)
        return store, store.ingest(delivery, faults=faults)

    def _ship_spooled(self, machine, transport, store, faults):
        """Attempt to ship everything in *machine*'s spool, in order.

        A retryable timeout stops this round (head-of-line: later
        entries wait behind the backoff); a lost ack leaves the entry
        spooled for an idempotent re-ship next round.  Returns the
        (possibly reopened) store.
        """
        for entry in machine.spool.pending():
            try:
                deliveries = transport.ship(entry.delta)
            except ShipTimeoutError:
                machine.spool.backoff_for_retry(entry)
                break
            for delivery in deliveries:
                store, _applied = self._deliver(store, delivery, faults)
            if deliveries:
                machine.spool.mark_delivered(entry.delta.delta_id)
                spec = (faults.fires(FLEET_ACK)
                        if faults.enabled else None)
                if spec is not None and spec.action == DROP:
                    # The store applied the delta but the ack
                    # vanished: the sender keeps it spooled and
                    # re-ships; dedupe absorbs the replay.
                    self._acks_lost += 1
                    continue
            # Delivered-and-acked, or terminally dropped/delayed by
            # the transport (both accounted there): off the spool.
            machine.spool.ack(entry.delta.delta_id)
            machine.on_acked(entry.delta)
        return store

    def _drain_spools(self, machines, transport, store, faults):
        """Bounded end-of-session re-ship rounds, then abandon.

        Whatever is still unacked after :data:`FINAL_SHIP_ROUNDS`
        rounds is terminally dropped with its samples accounted in the
        spool (graceful degradation, never silent loss).
        """
        for _round in range(FINAL_SHIP_ROUNDS):
            if not any(len(machine.spool) for machine in machines):
                break
            for machine in machines:
                if len(machine.spool):
                    store = self._ship_spooled(machine, transport,
                                               store, faults)
        for machine in machines:
            for delta in machine.spool.abandon():
                machine.on_acked(delta)
        return store
