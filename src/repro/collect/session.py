"""Profiling sessions: machine + driver + daemon, orchestrated.

A :class:`ProfileSession` is the top-level user API: give it a workload
(a callable that spawns processes on a fresh machine) and it runs the
workload under the full collection system -- counters with randomized
periods, the driver's hash tables, the daemon's drain/merge cycle --
and returns the profiles plus every statistic the paper's evaluation
tables need.

The collection system is written once, as :class:`CollectionStack`: a
session steps one to its instruction budget, a fleet machine
(:mod:`repro.fleet.machine`) steps one epoch by epoch.

``run_baseline`` runs the identical workload with profiling disabled,
so Table 3's slowdown is (profiled cycles - base cycles) / base cycles
on bit-identical instruction streams.
"""

import os
from dataclasses import dataclass
from typing import Optional

from repro.collect.daemon import Daemon
from repro.collect.database import ProfileDatabase
from repro.collect.driver import Driver
from repro.collect.journal import DrainJournal
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.cpu.machine import Machine
from repro.ctx import NULL_CTX, OTHER_CLASS, ContextLedger, span_id
from repro.faults.injector import (NULL_INJECTOR, SESSION_RESTART,
                                   FaultInjector, FaultPlan, InjectedCrash)
from repro.obs import NULL_OBS, ObsConfig, session_metrics

#: Collection modes a session understands (paper sections 4.2 and 6).
SESSION_MODES = ("cycles", "default", "mux")


@dataclass
class SessionConfig:
    """Profiling-session settings: collection mode, periods, cadence,
    and the driver's table and overflow-buffer sizes."""

    mode: str = "default"             # "cycles" | "default" | "mux"
    cycles_period: tuple = (1920, 2048)
    event_period: int = 256
    # Section 7 edge samples.  "double": every CYCLES interrupt
    # schedules a second one that captures the next PC (an edge per
    # sample, an extra interrupt each); "interpret": the handler decodes
    # and evaluates the sampled control transfer (fewer edges, no extra
    # interrupt).
    edge_sampling: bool = False
    edge_mode: str = "double"
    # Image names for which separate per-PID profiles are also kept
    # (paper section 4.3 "per-process profiles for specified images").
    per_process_images: tuple = ()
    drain_interval: int = 200_000     # instructions between daemon drains
    charge_overhead: bool = True
    seed: int = 1
    db_root: Optional[str] = None
    log_trace: bool = False
    # The driver's per-CPU hash table (buckets x assoc entries, paper
    # section 4.2) and the capacity of each of its two overflow buffers.
    buckets: int = 4096
    assoc: int = 4
    overflow_capacity: int = 8192
    #: Self-monitoring (repro.obs); None or disabled means zero-cost.
    obs: Optional[ObsConfig] = None
    #: Fault injection (repro.faults); a FaultPlan or None.
    faults: Optional[FaultPlan] = None
    #: Checkpoint the database every N drains (None = only at the end).
    checkpoint_drains: Optional[int] = None
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
        """Validate the settings the driver reads; return this config."""
        if self.mode not in SESSION_MODES:
            raise ValueError("unknown session mode %r; expected one of %s"
                             % (self.mode, ", ".join(SESSION_MODES)))
        if self.db_root is not None and not isinstance(
                self.db_root, (str, os.PathLike)):
            raise TypeError("SessionConfig.db_root must be a path or None, "
                            "not %r" % type(self.db_root).__name__)
        return self


class CollectionStack:
    """One machine's live collection system: machine + driver + daemon
    (+ database + drain journal when ``config.db_root`` is set), with
    *workload*'s processes spawned on top.

    *crash_point* is the fault point consulted after every chunk, before
    the drain: a crash there kills the daemon between two drains.
    """

    def __init__(self, machine_config, config, workload, seed=None,
                 obs=NULL_OBS, faults=NULL_INJECTOR,
                 crash_point=SESSION_RESTART):
        self.config = config
        self.obs = obs
        self.faults = faults
        self.crash_point = crash_point
        self.machine = Machine(machine_config,
                               seed=seed if seed is not None else config.seed)
        self.driver = Driver(machine_config.num_cpus,
                             config.make_driver_config(), faults=faults)
        self.driver.install(self.machine)
        self.database = (ProfileDatabase(config.db_root, faults=faults)
                         if config.db_root else None)
        self.journal = None
        if self.database is not None:
            self.journal = DrainJournal(self.database.journal_path())
            self.journal.truncate()
        lo, hi = config.cycles_period
        self.periods = {EventType.CYCLES: (lo + hi) / 2.0}
        for event in (EventType.IMISS, EventType.DMISS,
                      EventType.BRANCHMP, EventType.DTBMISS,
                      EventType.ITBMISS):
            self.periods[event] = float(config.event_period)
        # The daemon subscribes to loadmap events before any process
        # is spawned (the paper's daemon additionally scans already-
        # running processes at startup; our fallback path in
        # _find_image covers that case).
        self.daemon = self._new_daemon()
        (getattr(workload, "setup", None) or workload)(self.machine)
        self.instructions = 0
        self._drains = 0

    @property
    def cycles(self):
        return self.machine.time

    def _new_daemon(self):
        return Daemon(self.machine.loader, periods=self.periods,
                      per_process_images=self.config.per_process_images,
                      faults=self.faults, journal=self.journal,
                      ctx=ContextLedger() if self.config.context else None)

    def step(self, chunk):
        """Run up to *chunk* instructions, then drain (and checkpoint
        every ``config.checkpoint_drains`` drains); return how many ran.

        A crash is recovered before the mux counter rotates and exited
        processes are reaped, so the step ends as a fault-free one does.
        """
        ran = self.machine.run(max_instructions=chunk)
        self.instructions += ran
        try:
            # The daemon dies between two drains (a machine restart
            # also kills the driver's buffers); the database (disk)
            # survives.
            self.faults.check(self.crash_point)
            self.daemon.drain(self.driver)
            self._drains += 1
            every = self.config.checkpoint_drains
            if (self.database is not None and every
                    and self._drains % every == 0):
                with self.obs.span("session.checkpoint"):
                    self.daemon.merge_to_disk(self.database)
        except InjectedCrash as crash:
            self.recover(crash)
        self.driver.rotate_mux()
        for proc in self.machine.processes:
            if proc.exited:
                self.daemon.reap(proc.pid)
        return ran

    def recover(self, crash):
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
        driver = self.driver
        old = self.daemon
        while True:
            # The dead daemon must stop hearing loadmap events: it
            # would keep filling its maps and overwrite the live
            # daemon's gauges.
            self.machine.loader.remove_listener(old.on_loadmap)
            if crash.point == SESSION_RESTART:
                driver.drop_all_pending()
            daemon = None
            try:
                if self.database is not None:
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
                        self.machine.loader, self.database,
                        journal=self.journal, periods=self.periods,
                        per_process_images=config.per_process_images,
                        faults=self.faults, ctx=ctx_seed)
                    daemon.recoveries = max(daemon.recoveries,
                                            old.recoveries + 1)
                else:
                    daemon = self._new_daemon()
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
                # stream -- stay identical to a fault-free run, and
                # the chunk's samples land in the epoch they ran in.
                # Collection faults must never perturb the machine,
                # only the collection side.
                daemon.drain(driver)
                self.daemon = daemon
                return
            except InjectedCrash as next_crash:
                crash = next_crash
                if daemon is not None:
                    old = daemon

    def fold_requests(self):
        """Fold per-process request totals into the context ledger.

        Each process is one "request" of its class (the workload's
        ctx label); its lifetime cycles/instructions feed the tail
        percentiles dcpitrace reports.  Keys are ``seed:pid`` so
        shards run with distinct seeds union cleanly, and the fold
        is a keyed assignment -- running it again (after a crash
        recovery, say) is a no-op, never a double count.
        """
        ledger = self.daemon.ctx
        if ledger is None:
            return
        machine = self.machine
        for proc in machine.processes:
            ctx = proc.ctx
            name = str(ctx) if ctx is not NULL_CTX else OTHER_CLASS
            key = "%d:%d" % (machine.seed, proc.pid)
            ledger.add_request(name, key, proc.cpu_cycles,
                               proc.instructions, process=proc.name,
                               done=proc.exited)

    def checkpoint(self):
        """Fold request totals, then merge the daemon into the database.

        Redone after any crash: the recovered ledger reflects the last
        checkpoint, the fold is a keyed assignment and the merge an
        idempotent replace, so a redo never double-counts.
        """
        while True:
            try:
                self.fold_requests()
                if self.database is not None:
                    self.daemon.merge_to_disk(self.database)
                return
            except InjectedCrash as crash:
                self.recover(crash)


class SessionResult(CollectionStack):
    """Everything a profiling run produced: the stack it ran on."""

    #: host wall-clock seconds of the run, timed only when it was
    #: observed (``SessionConfig.obs``); None otherwise.
    wall_s = None

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

    @property
    def adjusted_cycles(self):
        """Table 3's profiled time: machine cycles plus the daemon's
        cycles, charged at the period-scaled rate and amortized across
        the CPUs."""
        return (self.cycles + self.daemon.cycles * self.driver.cost_scale
                / len(self.machine.cores))

    def metrics(self):
        """Typed self-monitoring snapshot under the normalized schema.

        Read off the counts the driver, daemon and machine keep anyway,
        so it is the same with observability on or off -- except for
        ``session.wall_s``, which only an observed run times.
        Mergeable across shards via :func:`repro.obs.merge_metrics`.
        """
        return session_metrics(self)

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
    """Run workloads under the continuous-profiling infrastructure.

    :meth:`run` builds one :class:`SessionResult` -- the live
    :class:`CollectionStack` -- steps it one drain interval at a time
    to the instruction budget and checkpoints it; :meth:`run_baseline`
    spends the same budget in the same chunks on a bare machine.
    """

    def __init__(self, machine_config=None, config=None):
        self.machine_config = machine_config or MachineConfig()
        self.config = config or SessionConfig()

    def _spend(self, step, max_instructions):
        """Call ``step(chunk)`` one drain interval at a time until
        *max_instructions* ran or a chunk ran none; return the total."""
        total = 0
        while True:
            chunk = self.config.drain_interval
            if max_instructions is not None:
                chunk = min(chunk, max_instructions - total)
                if chunk <= 0:
                    break
            ran = step(chunk)
            total += ran
            if ran == 0:
                break
        return total

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
            result = SessionResult(self.machine_config, config, workload,
                                   seed=seed, obs=obs, faults=faults)
        with obs.span("session.execute"):
            self._spend(result.step, max_instructions)
        if result.database is None:
            result.fold_requests()
        else:
            with obs.span("session.merge_to_disk"):
                result.checkpoint()
        if obs.enabled:
            if result.daemon.ctx is not None:
                # Span linkage: one instant per request class carrying
                # its deterministic span id, so dcpimon traces and the
                # sample profiles share identity (repro.ctx).
                for name in sorted(result.daemon.ctx.classes):
                    obs.trace.instant("ctx.class", cls=name,
                                      span=span_id(name))
            result.wall_s = obs.clock() - started
        return result

    def run_baseline(self, workload, max_instructions=None, seed=None):
        """Run *workload* without any profiling (same seed, same stream)."""
        machine = Machine(self.machine_config,
                          seed=seed if seed is not None else self.config.seed)
        (getattr(workload, "setup", None) or workload)(machine)
        total = self._spend(machine.run, max_instructions)
        return BaselineResult(machine, total, machine.time)
