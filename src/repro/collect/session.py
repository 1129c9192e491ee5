"""Profiling sessions: machine + driver + daemon, orchestrated.

A :class:`ProfileSession` is the top-level user API: give it a workload
(a callable that spawns processes on a fresh machine) and it runs the
workload under the full collection system -- counters with randomized
periods, the driver's hash tables, the daemon's drain/merge cycle --
and returns the profiles plus every statistic the paper's evaluation
tables need.

``run_baseline`` runs the identical workload with profiling disabled,
so Table 3's slowdown is (profiled cycles - base cycles) / base cycles
on bit-identical instruction streams.
"""

import os
from dataclasses import dataclass, replace
from typing import Optional

from repro.collect.daemon import Daemon
from repro.collect.database import ProfileDatabase
from repro.collect.driver import Driver, DriverConfig
from repro.collect.journal import DrainJournal
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.cpu.machine import Machine
from repro.ctx import NULL_CTX, OTHER_CLASS, ContextLedger, span_id
from repro.faults.injector import (NULL_INJECTOR, FaultInjector, FaultPlan,
                                   InjectedCrash)
from repro.obs import NULL_OBS, ObsConfig, merge_metrics, session_metrics

#: Collection modes a session understands (paper sections 4.2 and 6).
SESSION_MODES = ("cycles", "default", "mux")


@dataclass
class SessionConfig:
    """Profiling-session settings (collection mode, periods, cadence)."""

    mode: str = "default"             # "cycles" | "default" | "mux"
    cycles_period: tuple = (1920, 2048)
    event_period: int = 256
    edge_sampling: bool = False       # section 7 edge-sample prototypes
    edge_mode: str = "double"         # "double" | "interpret"
    # Image names for which separate per-PID profiles are also kept
    # (paper section 4.3 "per-process profiles for specified images").
    per_process_images: tuple = ()
    drain_interval: int = 200_000     # instructions between daemon drains
    charge_overhead: bool = True
    seed: int = 1
    db_root: Optional[str] = None
    log_trace: bool = False
    driver: Optional[DriverConfig] = None
    #: Self-monitoring (repro.obs); None or disabled means zero-cost.
    obs: Optional[ObsConfig] = None
    #: Fault injection (repro.faults); a FaultPlan or None.
    faults: Optional[FaultPlan] = None
    #: Checkpoint the database every N drains (None = only at the end).
    checkpoint_drains: Optional[int] = None
    #: Keep a drain journal next to the database (crash replay).
    journal: bool = True
    #: Per-request attribution (repro.ctx): thread workload request
    #: classes through the driver/daemon path and persist the context
    #: ledger with every checkpoint.  Off = zero-cost, byte-identical.
    context: bool = False
    #: Driver-side context-table capacity (fixed, paper-style).
    ctx_slots: int = 64

    def make_faults(self):
        """Build the session's FaultInjector (NULL_INJECTOR when off)."""
        if self.faults is None:
            return NULL_INJECTOR
        if isinstance(self.faults, FaultPlan):
            return self.faults.build()
        if isinstance(self.faults, FaultInjector):
            return self.faults
        raise TypeError("SessionConfig.faults must be a FaultPlan or "
                        "None, not %r" % type(self.faults).__name__)

    def make_obs(self):
        """Build the session's Observability (NULL_OBS when off)."""
        if self.obs is None:
            return NULL_OBS
        if not isinstance(self.obs, ObsConfig):
            raise TypeError("SessionConfig.obs must be an ObsConfig or "
                            "None, not %r" % type(self.obs).__name__)
        return self.obs.build()

    def make_driver_config(self):
        if self.mode not in SESSION_MODES:
            raise ValueError("unknown session mode %r; expected one of %s"
                             % (self.mode, ", ".join(SESSION_MODES)))
        if self.driver is not None and not isinstance(self.driver,
                                                      DriverConfig):
            raise TypeError("SessionConfig.driver must be a DriverConfig "
                            "or None, not %r" % type(self.driver).__name__)
        if self.db_root is not None and not isinstance(
                self.db_root, (str, os.PathLike)):
            raise TypeError("SessionConfig.db_root must be a path or None, "
                            "not %r" % type(self.db_root).__name__)
        base = self.driver or DriverConfig()
        return replace(
            base,
            mode=self.mode,
            cycles_period=self.cycles_period,
            event_period=self.event_period,
            charge_overhead=self.charge_overhead,
            log_trace=self.log_trace,
            edge_sampling=self.edge_sampling,
            edge_mode=self.edge_mode,
            seed=self.seed,
            context=self.context,
            ctx_slots=self.ctx_slots,
        )


class SessionResult:
    """Everything a profiling run produced."""

    def __init__(self, machine, driver, daemon, database,
                 instructions, cycles, obs=NULL_OBS):
        self.machine = machine
        self.driver = driver
        self.daemon = daemon
        self.database = database
        self.instructions = instructions
        self.cycles = cycles
        self.obs = obs

    @property
    def profiles(self):
        """{image name: ImageProfile}"""
        return self.daemon.profiles

    def profile_for(self, image):
        name = image if isinstance(image, str) else image.name
        return self.daemon.profiles.get(name)

    def process_profile(self, pid, image):
        """The per-PID profile for (pid, image), if it was requested."""
        name = image if isinstance(image, str) else image.name
        return self.daemon.process_profiles.get((pid, name))

    def total_samples(self, event=EventType.CYCLES):
        return self.driver.event_samples.get(event, 0)

    def metrics(self):
        """Typed self-monitoring snapshot under the normalized schema.

        Always available -- the schema half reads counters the
        collection system maintains anyway; the live registry (drain
        timings, resident-gauge peaks) is merged in when the session
        ran with observability enabled.  Mergeable across shards via
        :func:`repro.obs.merge_metrics`.
        """
        return merge_metrics([session_metrics(self),
                              self.obs.registry.to_dict()])

    @property
    def ctx_ledger(self):
        """The daemon's context ledger (None when contexts are off)."""
        return self.daemon.ctx

    def export_mergeable(self):
        """Everything a parallel worker ships back, as plain dicts.

        The profiles are keyed exactly like the daemon's merge --
        (image, event, offset) -- so shards from different processes
        can be summed in any order (:mod:`repro.collect.parallel`).
        """
        return {
            "profiles": self.daemon.export_profiles(),
            "periods": dict(self.daemon.periods),
            "obs": self.metrics(),
            "ctx": (self.daemon.ctx.to_meta()
                    if self.daemon.ctx is not None else None),
        }


class BaselineResult:
    """An unprofiled run of the same workload (for overhead math)."""

    def __init__(self, machine, instructions, cycles):
        self.machine = machine
        self.instructions = instructions
        self.cycles = cycles


class ProfileSession:
    """Run workloads under the continuous-profiling infrastructure."""

    def __init__(self, machine_config=None, config=None):
        self.machine_config = machine_config or MachineConfig()
        self.config = config or SessionConfig()

    def _periods(self):
        lo, hi = self.config.cycles_period
        periods = {EventType.CYCLES: (lo + hi) / 2.0}
        for event in (EventType.IMISS, EventType.DMISS,
                      EventType.BRANCHMP, EventType.DTBMISS,
                      EventType.ITBMISS):
            periods[event] = float(self.config.event_period)
        return periods

    def _setup(self, workload, machine):
        setup = getattr(workload, "setup", None)
        if setup is not None:
            setup(machine)
        else:
            workload(machine)

    def run(self, workload, max_instructions=None, seed=None):
        """Profile *workload*; return a :class:`SessionResult`.

        *workload* is a callable(machine) or an object with a
        ``setup(machine)`` method that builds images and spawns
        processes.  It must build fresh images on every call (linking
        fixes absolute addresses per machine).
        """
        config = self.config
        obs = config.make_obs()
        faults = config.make_faults()
        started = obs.clock() if obs.enabled else None
        with obs.span("session.setup"):
            machine = Machine(self.machine_config,
                              seed=seed if seed is not None else config.seed)
            driver = Driver(self.machine_config.num_cpus,
                            config.make_driver_config(), obs=obs,
                            faults=faults)
            driver.install(machine)
            database = (ProfileDatabase(config.db_root, faults=faults)
                        if config.db_root else None)
            journal = None
            if database is not None and config.journal:
                journal = DrainJournal(database.journal_path())
                journal.truncate()
            # The daemon subscribes to loadmap events before any process
            # is spawned (the paper's daemon additionally scans already-
            # running processes at startup; our fallback path in
            # _find_image covers that case).
            daemon = Daemon(machine.loader, periods=self._periods(),
                            per_process_images=config.per_process_images,
                            obs=obs, faults=faults, journal=journal,
                            ctx=ContextLedger() if config.context
                            else None)
            self._setup(workload, machine)

        total = 0
        drains = 0
        with obs.span("session.execute"):
            while True:
                chunk = config.drain_interval
                if max_instructions is not None:
                    chunk = min(chunk, max_instructions - total)
                    if chunk <= 0:
                        break
                with obs.timeit("session.chunk_s"):
                    ran = machine.run(max_instructions=chunk)
                total += ran
                try:
                    # A machine restart kills everything volatile: the
                    # driver's buffers and the daemon's memory.  The
                    # database (disk) survives.
                    faults.check("session.restart")
                    with obs.timeit("session.drain_s"):
                        daemon.drain(driver)
                    drains += 1
                    if (database is not None and config.checkpoint_drains
                            and drains % config.checkpoint_drains == 0):
                        with obs.span("session.checkpoint"):
                            daemon.merge_to_disk(database)
                except InjectedCrash as crash:
                    daemon = self._recover_daemon(
                        crash, machine, driver, daemon, database,
                        journal, obs, faults)
                driver.rotate_mux()
                for proc in machine.processes:
                    if proc.exited:
                        daemon.reap(proc.pid)
                if ran == 0:
                    break
        self._fold_requests(machine, daemon)
        if database is not None:
            with obs.span("session.merge_to_disk"):
                while True:
                    try:
                        # Re-fold after any recovery: the recovered
                        # ledger reflects the last checkpoint, and the
                        # fold is idempotent (keyed assignment).
                        self._fold_requests(machine, daemon)
                        daemon.merge_to_disk(database)
                        break
                    except InjectedCrash as crash:
                        daemon = self._recover_daemon(
                            crash, machine, driver, daemon, database,
                            journal, obs, faults)
        if obs.enabled:
            if daemon.ctx is not None:
                # Span linkage: one instant per request class carrying
                # its deterministic span id, so dcpimon traces and the
                # sample profiles share identity (repro.ctx).
                for name in sorted(daemon.ctx.classes):
                    obs.trace.instant("ctx.class", cls=name,
                                      span=span_id(name))
            obs.gauge("session.wall_s").set(obs.clock() - started)
            obs.finish()
        return SessionResult(machine, driver, daemon, database,
                             total, machine.time, obs=obs)

    @staticmethod
    def _fold_requests(machine, daemon):
        """Fold per-process request totals into the context ledger.

        Each process is one "request" of its class (the workload's
        ctx label); its lifetime cycles/instructions feed the tail
        percentiles dcpitrace reports.  Keys are ``seed:pid`` so
        shards run with distinct seeds union cleanly, and the fold
        is a keyed assignment -- running it again (after a crash
        recovery, say) is a no-op, never a double count.
        """
        ledger = daemon.ctx
        if ledger is None:
            return
        for proc in machine.processes:
            ctx = proc.ctx
            name = str(ctx) if ctx is not NULL_CTX else OTHER_CLASS
            key = "%d:%d" % (machine.seed, proc.pid)
            ledger.add_request(name, key, proc.cpu_cycles,
                               proc.instructions, process=proc.name,
                               done=proc.exited)

    def _recover_daemon(self, crash, machine, driver, old, database,
                        journal, obs, faults):
        """Stand up a replacement daemon after an injected crash.

        With a database, recovery rebuilds from the last durable
        checkpoint plus the drain journal and then re-drains the
        batches the dead daemon left pinned in the driver.  Without
        one there is nothing durable: the old daemon's in-memory
        samples are accounted as lost and a fresh daemon takes over.
        A restart crash additionally wipes the driver's volatile
        state (accounted in its ``dropped`` counters).

        Recovery itself runs under the same crash protection: a fault
        that fires again during the catch-up re-drain (or the journal
        replay) triggers another recovery round rather than
        propagating, so any bounded fault plan converges on a live
        daemon.  (An unbounded always-crash plan recovers forever --
        by construction it never lets a daemon live.)
        """
        config = self.config
        while True:
            machine.loader.remove_listener(old.on_loadmap)
            if crash.point == "session.restart":
                driver.drop_all_pending()
            daemon = None
            try:
                if database is not None:
                    ctx_seed = None
                    if config.context:
                        # The driver (kernel side) survives a daemon
                        # crash, and its context table holds every id
                        # binding -- including ones newer than the
                        # last checkpoint, which the journal replay
                        # inside recover() needs to attribute.
                        ctx_seed = ContextLedger()
                        if driver.ctx_table is not None:
                            ctx_seed.absorb_table(driver.ctx_table)
                    daemon = Daemon.recover(
                        machine.loader, database, journal=journal,
                        periods=self._periods(),
                        per_process_images=config.per_process_images,
                        obs=obs, faults=faults, ctx=ctx_seed)
                    if journal is None:
                        # No journal to replay: whatever the old daemon
                        # held beyond the checkpoint is gone -- account
                        # it.
                        daemon.lost_samples += max(
                            0, old.total_samples - daemon.total_samples)
                    daemon.recoveries = max(daemon.recoveries,
                                            old.recoveries + 1)
                else:
                    daemon = Daemon(
                        machine.loader, periods=self._periods(),
                        per_process_images=config.per_process_images,
                        obs=obs, faults=faults,
                        ctx=ContextLedger() if config.context
                        else None)
                    daemon.epoch = old.epoch
                    daemon.recoveries = old.recoveries + 1
                    daemon.lost_samples = (old.lost_samples
                                           + old.total_samples)
                    daemon.drains = old.drains
                    daemon.drain_retries = old.drain_retries
                    daemon.drain_failures = old.drain_failures
                    daemon.loadmaps_dropped = old.loadmaps_dropped
                daemon.redrain_inflight(driver)
                # Catch-up drain: the crashed drain would have flushed
                # the driver's hash tables at this chunk boundary; do
                # it now so the table's hit/miss pattern -- and
                # therefore the charged handler cycles and the sample
                # stream -- stay identical to a fault-free run.
                # Collection faults must never perturb the machine,
                # only the collection side.
                daemon.drain(driver)
                return daemon
            except InjectedCrash as next_crash:
                crash = next_crash
                if daemon is not None:
                    old = daemon

    def run_baseline(self, workload, max_instructions=None, seed=None):
        """Run *workload* without any profiling (same seed, same stream)."""
        machine = Machine(self.machine_config,
                          seed=seed if seed is not None else self.config.seed)
        self._setup(workload, machine)
        total = 0
        while True:
            chunk = self.config.drain_interval
            if max_instructions is not None:
                chunk = min(chunk, max_instructions - total)
                if chunk <= 0:
                    break
            ran = machine.run(max_instructions=chunk)
            total += ran
            if ran == 0:
                break
        return BaselineResult(machine, total, machine.time)
