"""The registered chaos matrix: named fault scenarios + the runner.

One registry holds two fault families.  A *machine* scenario aims at
one failure mode of a machine's collection pipeline (daemon death
mid-drain, a torn database write, ...); it runs next to a fault-free
twin with the same seed, and :mod:`repro.faults.audit` checks that
recovered counts equal the twin's minus exactly the accounted losses.
A *fleet* scenario (one with a :class:`FleetShape`) aims at the
distribution layer (transport faults, spool overflow, machine and
store crashes, shard corruption, sharded-vs-serial ingest); it runs
twice with the same seed, must be bit-deterministic, and must balance
stored + transit-lost + spool-dropped + residue + quarantined ==
shipped.  Every case report carries the same common keys
(:func:`_case`).  ``dcpichaos`` is the CLI face of this module.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults import audit
from repro.faults.injector import (FaultPlan, FaultSpec, bitflip_at_rest,
                                   truncate_at_rest)

#: Chaos sessions run hot: a tiny hash table and overflow buffers, so
#: evictions and buffer-full events are frequent; frequent drains and
#: periodic checkpoints, so every fault point is exercised inside a
#: small instruction budget.
CHAOS_CYCLES_PERIOD = (240, 256)
CHAOS_EVENT_PERIOD = 64
CHAOS_DRAIN_INTERVAL = 4_000
CHAOS_BUCKETS = 4
CHAOS_ASSOC = 2
CHAOS_OVERFLOW_CAPACITY = 4
CHAOS_CHECKPOINT_DRAINS = 2

#: Instruction budgets of one collection run: a machine session
#: (quick or full), or one fleet epoch (the fleet family has one).
QUICK_BUDGET = 24_000
FULL_BUDGET = 60_000
FLEET_BUDGET = 12_000


@dataclass(frozen=True)
class FleetShape:
    """The small-but-hot fleet a fleet scenario runs."""

    machines: int = 2
    epochs: int = 3
    shards: int = 1
    #: give machines a local db + journal (arms fleet.machine.* crash
    #: points and unacked-epoch re-shipping).
    durable: bool = False
    spool_capacity: int = 8
    #: also re-run with shards=1 and require byte-identical merged
    #: profiles (the concurrent-sharded == serial identity).
    serial_check: bool = False


@dataclass(frozen=True)
class Scenario:
    """One registered fault case."""

    name: str
    description: str
    specs: Tuple[FaultSpec, ...] = ()
    #: at-rest corruption applied to one stored profile after the
    #: faulted run ends: None | "bitflip" | "truncate" | "manifest".
    post: Optional[str] = None
    #: include in the --quick (CI smoke) subset.
    quick: bool = False
    #: whether a machine scenario's session runs with a database.
    db: bool = True
    #: the fleet a fleet scenario runs; None for a machine scenario.
    fleet: Optional[FleetShape] = None


def _fleet(name, description, specs=(), post=None, **shape):
    """A fleet scenario.  The whole family is in the quick subset."""
    return Scenario(name, description, specs, post=post, quick=True,
                    fleet=FleetShape(**shape))


SCENARIOS = (
    Scenario(
        "overflow-burst",
        "three overflow buffers vanish as they fill (driver-side loss)",
        specs=(FaultSpec("driver.overflow", "drop", hits=(1, 2, 3)),),
        quick=True),
    Scenario(
        "drain-transient",
        "two flushes fail transiently; the retry/backoff loop recovers",
        specs=(FaultSpec("daemon.drain.flush", "transient", hits=(3, 5)),),
        quick=True),
    Scenario(
        "drain-fail",
        "flushes fail persistently; the daemon sheds the CPU's backlog",
        specs=(FaultSpec("daemon.drain.flush", "transient",
                         after=6, limit=4),)),
    Scenario(
        "crash-mid-drain",
        "daemon dies partway through a drain cycle",
        specs=(FaultSpec("daemon.drain.cpu", "crash", hits=(3,)),),
        quick=True),
    Scenario(
        "crash-before-ack",
        "daemon dies after journaling a batch, before merging it",
        specs=(FaultSpec("daemon.drain.merge", "crash", hits=(2,)),)),
    Scenario(
        "crash-before-merge",
        "daemon dies between a drain and merge_to_disk",
        specs=(FaultSpec("daemon.checkpoint", "crash", hits=(1,)),)),
    Scenario(
        "crash-mid-checkpoint",
        "machine dies after writing profile files, before the "
        "manifest commit",
        specs=(FaultSpec("db.checkpoint", "crash", hits=(1,)),),
        quick=True),
    Scenario(
        "machine-restart",
        "whole machine restarts: daemon memory and driver buffers gone",
        specs=(FaultSpec("session.restart", "crash", hits=(3,)),),
        quick=True),
    Scenario(
        "crash-no-db",
        "daemon dies with no database: in-memory samples are "
        "accounted as lost",
        specs=(FaultSpec("daemon.drain.cpu", "crash", hits=(4,)),),
        db=False),
    Scenario(
        "loadmap-drop",
        "a loadmap event is lost; samples degrade to the global map",
        specs=(FaultSpec("daemon.loadmap", "drop", hits=(1,)),)),
    Scenario(
        "loadmap-delay",
        "loadmap events arrive a drain late",
        specs=(FaultSpec("daemon.loadmap", "delay", hits=(1, 2)),)),
    Scenario(
        "torn-db-write",
        "a committed profile file is found truncated (torn write)",
        post="truncate", quick=True),
    Scenario(
        "bitflip-db",
        "a committed profile file has a flipped bit",
        post="bitflip"),
    Scenario(
        "torn-manifest",
        "the manifest itself is damaged at rest; the rebuild adopts "
        "the committed generation files instead of GC'ing them",
        post="manifest", quick=True),
    _fleet(
        "fleet-ship-drop",
        "a delta vanishes in transit; the loss is accounted exactly",
        specs=(FaultSpec("fleet.ship", "drop", hits=(2,)),)),
    _fleet(
        "fleet-ship-timeout",
        "ships time out transiently; seeded backoff re-ships from the "
        "spool with zero loss",
        specs=(FaultSpec("fleet.ship", "transient", hits=(2, 4)),)),
    _fleet(
        "fleet-ship-dup",
        "the transport delivers a delta twice; idempotent dedupe "
        "drops the replay",
        specs=(FaultSpec("fleet.ship", "duplicate", hits=(3,)),)),
    _fleet(
        "fleet-ack-lost",
        "the store applies a delta but the ack is lost; the re-ship "
        "is absorbed by (machine, epoch, batch) dedupe",
        specs=(FaultSpec("fleet.ack", "drop", hits=(1,)),)),
    _fleet(
        "fleet-spool-overflow",
        "persistent timeouts against a capacity-1 spool force "
        "drop-oldest evictions, every dropped sample accounted",
        specs=(FaultSpec("fleet.ship", "transient", after=1, limit=64),),
        spool_capacity=1),
    _fleet(
        "fleet-machine-crash",
        "a durable machine's daemon dies on an epoch's last drain chunk; "
        "journal replay + in-flight redrain + catch-up drain close the "
        "epoch without losing a sample or moving one to the next",
        specs=(FaultSpec("fleet.machine.run", "crash", hits=(4,)),),
        durable=True),
    _fleet(
        "fleet-preship-crash",
        "a durable machine dies after closing an epoch, before "
        "shipping it; the restart re-extracts and re-ships it",
        specs=(FaultSpec("fleet.machine.ship", "crash", hits=(2,)),),
        durable=True),
    _fleet(
        "fleet-store-crash",
        "the store writer dies mid-ingest before the manifest commit; "
        "the reopened store retries the same delivery",
        specs=(FaultSpec("fleet.store.ingest", "crash", hits=(2,)),)),
    _fleet(
        "fleet-shard-corrupt",
        "a committed profile in one shard is bit-flipped at rest; "
        "verify quarantines it with the loss accounted",
        shards=2, post="bitflip"),
    _fleet(
        "fleet-concurrent-ingest",
        "four shards ingest the interleaved fleet; merged profiles "
        "are byte-identical to the serial single-shard store",
        shards=4, serial_check=True),
)


def scenario_names(quick: bool = False) -> List[str]:
    return [s.name for s in SCENARIOS if s.quick or not quick]


def get_scenario(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError("unknown scenario %r; have: %s"
                   % (name, ", ".join(s.name for s in SCENARIOS)))


def _case(scenario: Scenario, workload: Optional[str], seed: int,
          budget: int, samples: int, kept: int, quarantined: int,
          recoveries: int, loss_rate: float, failures: List[str],
          **detail: Any) -> Dict[str, Any]:
    """One case report: the keys both families share, then *detail*.

    *samples* were taken (machine) or shipped (fleet); *kept* reached
    the database or the store; *failures* holds one line per broken
    invariant, naming it.
    """
    return dict(detail, scenario=scenario.name, workload=workload,
                seed=seed, budget=budget, samples=samples, kept=kept,
                quarantined=quarantined, recoveries=recoveries,
                loss_rate=loss_rate, failures=failures,
                ok=not failures)


def run_case(scenario: Scenario, workload: Optional[str], workdir: str,
             budget: int, seed: int = 1) -> Dict[str, Any]:
    """Run one scenario in the caller's *workdir*; return its report.

    *workload* names a machine scenario's workload (a fleet runs its
    own mix: pass None).  *budget* is one collection run's instruction
    budget: a machine session, or one fleet epoch.  The run's
    databases and stores stay in *workdir* for the caller to inspect
    or remove.
    """
    started = time.perf_counter()
    if scenario.fleet is None:
        case = _machine_case(scenario, workload, workdir, budget, seed)
    else:
        case = _fleet_case(scenario, workdir, budget, seed)
    case["elapsed_s"] = round(time.perf_counter() - started, 3)
    return case


def run_matrix(workloads: Sequence[str] = ("gcc",),
               quick: bool = False, seed: int = 1,
               budget: Optional[int] = None,
               names: Optional[Sequence[str]] = None
               ) -> List[Dict[str, Any]]:
    """Run the registered scenarios (machine ones once per workload,
    fleet ones once) in throwaway directories; return the reports.

    *budget* overrides every family's preset for one collection run.
    """
    cases: List[Dict[str, Any]] = []
    for scenario in SCENARIOS:
        if names is not None and scenario.name not in names:
            continue
        if quick and not scenario.quick and names is None:
            continue
        if scenario.fleet is None:
            preset = QUICK_BUDGET if quick else FULL_BUDGET
            targets: Sequence[Optional[str]] = workloads
        else:
            preset, targets = FLEET_BUDGET, (None,)
        for workload_name in targets:
            workdir = tempfile.mkdtemp(prefix="dcpichaos-")
            try:
                cases.append(run_case(scenario, workload_name, workdir,
                                      budget or preset, seed=seed))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return cases


def _corrupt_at_rest(db_root: str, kind: str,
                     seed: int) -> Optional[str]:
    """Corrupt the segment file that holds the largest committed
    profile in *db_root* (the damage lands anywhere in the file, so a
    truncation also takes the records behind it).

    ``kind="manifest"`` instead damages ``MANIFEST.json`` itself: the
    cold re-open must rebuild it by adopting the committed generation
    files, losing nothing.
    """
    from repro.collect.database import MANIFEST_NAME, ProfileDatabase

    if kind == "manifest":
        path = os.path.join(db_root, MANIFEST_NAME)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(truncate_at_rest(data, seed=seed))
        return MANIFEST_NAME

    database = ProfileDatabase(db_root)
    records = database._load_manifest()["records"]
    if not records:
        return None
    victim = max(records.values(), key=lambda rec: rec.get("total", 0))
    path = os.path.join(db_root, victim["file"])
    with open(path, "rb") as handle:
        data = handle.read()
    mangle = bitflip_at_rest if kind == "bitflip" else truncate_at_rest
    with open(path, "wb") as handle:
        handle.write(mangle(data, seed=seed))
    return victim["file"]


# -- the machine family ------------------------------------------------------


def _run_session(workload_name: str, seed: int, budget: int,
                 db_root: Optional[str],
                 plan: Optional[FaultPlan]) -> Any:
    from repro.collect.session import ProfileSession, SessionConfig
    from repro.cpu.config import MachineConfig
    from repro.workloads.registry import get_workload

    workload = get_workload(workload_name)
    config = SessionConfig(
        mode="default",
        cycles_period=CHAOS_CYCLES_PERIOD,
        event_period=CHAOS_EVENT_PERIOD,
        drain_interval=CHAOS_DRAIN_INTERVAL,
        seed=seed,
        db_root=db_root,
        checkpoint_drains=CHAOS_CHECKPOINT_DRAINS,
        buckets=CHAOS_BUCKETS,
        assoc=CHAOS_ASSOC,
        overflow_capacity=CHAOS_OVERFLOW_CAPACITY,
        faults=plan)
    session = ProfileSession(MachineConfig(num_cpus=workload.num_cpus),
                             config)
    return session.run(workload, max_instructions=budget)


def _machine_case(scenario: Scenario, workload_name: str, workdir: str,
                  budget: int, seed: int) -> Dict[str, Any]:
    """The fault-free reference and the faulted run with the same seed
    (in ``workdir/ref`` and ``workdir/fault``), any at-rest corruption,
    then the audit of both runs and of the cross-run invariant."""
    from repro.collect.database import ProfileDatabase

    ref_root = os.path.join(workdir, "ref") if scenario.db else None
    fault_root = os.path.join(workdir, "fault") if scenario.db else None
    reference = _run_session(workload_name, seed, budget, ref_root, None)
    plan = FaultPlan(specs=scenario.specs, seed=seed)
    faulted = _run_session(workload_name, seed, budget, fault_root, plan)
    corrupted_file = None
    if scenario.post and fault_root is not None:
        corrupted_file = _corrupt_at_rest(fault_root, scenario.post, seed)
        # Re-open cold (a fresh reader, like an offline analysis
        # tool) and verify: the corrupt file must be quarantined
        # with its loss accounted, not decoded into garbage.
        faulted.database = ProfileDatabase(fault_root)
        faulted.database.verify()
    ref_report = audit.sample_conservation(reference)
    fault_report = audit.sample_conservation(faulted)
    comparison = audit.compare_runs(fault_report, ref_report)
    return _case(
        scenario, workload_name, seed, budget,
        samples=fault_report["driver_samples"],
        kept=comparison["kept_faulted"],
        quarantined=fault_report.get("quarantined_samples", 0),
        recoveries=fault_report["recoveries"],
        loss_rate=audit.loss_rate(fault_report),
        failures=_machine_failures(ref_report, fault_report, comparison),
        reference=ref_report, faulted=fault_report, comparison=comparison,
        fired={"%s:%s" % key: count
               for key, count in faulted.driver.faults.stats().items()},
        corrupted_file=corrupted_file,
        overhead_pct=_recovery_overhead(reference, faulted))


def _machine_failures(reference: Dict[str, Any], faulted: Dict[str, Any],
                      comparison: Dict[str, Any]) -> List[str]:
    failures = ["%s run unbalanced: %s"
                % (side, json.dumps(report, sort_keys=True))
                for side, report in (("reference", reference),
                                     ("faulted", faulted))
                if not report["ok"]]
    if not comparison["identical_streams"]:
        failures.append(
            "sample streams diverged: faulted=%d reference=%d (faults "
            "perturbed the machine)" % (faulted["driver_samples"],
                                        reference["driver_samples"]))
    if not comparison["counts_conserved"]:
        failures.append(
            "unaccounted loss: kept %d -> %d but accounted delta is %d "
            "(+%d unknown-shift)" % (
                comparison["kept_reference"], comparison["kept_faulted"],
                comparison["accounted_delta"],
                comparison["unknown_delta"]))
    return failures


def _recovery_overhead(reference: Any, faulted: Any) -> float:
    """Extra modelled daemon cycles the faulted run paid, in percent."""
    base = reference.daemon.cycles
    if not base:
        return 0.0
    return (faulted.daemon.cycles - base) / base * 100.0


# -- the fleet family --------------------------------------------------------


def _run_fleet(scenario: Scenario, seed: int, budget: int, root: str,
               shards: Optional[int] = None) -> Any:
    from repro.fleet.machine import FleetConfig, FleetSession

    shape = scenario.fleet
    return FleetSession(FleetConfig(
        machines=shape.machines,
        epochs=shape.epochs,
        seed=seed,
        epoch_instructions=budget,
        drain_interval=max(budget // 4, 1),
        faults=(FaultPlan(specs=scenario.specs, seed=seed)
                if scenario.specs else None),
        shards=shape.shards if shards is None else shards,
        durable=shape.durable,
        spool_capacity=shape.spool_capacity)).run(root)


def _store_bytes(store: Any, epochs: Optional[List[int]] = None) -> bytes:
    """Canonical merged-profile bytes of a fleet store (over *epochs*)."""
    blobs = store.merged(epochs).encode_all()
    return b"".join(blobs[key] for key in sorted(blobs))


def _epoch_bytes(store: Any) -> Dict[int, bytes]:
    """Each epoch's canonical merged-profile bytes."""
    return {epoch: _store_bytes(store, [epoch]) for epoch in store.epochs()}


def _fleet_fingerprint(result: Any) -> Dict[str, Any]:
    """The determinism surface of one fleet run (no wall-clock)."""
    return {
        "merged": _store_bytes(result.store),
        "resilience": result.resilience,
        "transport": result.transport_stats,
        "shipped": result.shipped_samples(),
        "stored": result.store.total_samples(),
    }


def _fleet_case(scenario: Scenario, workdir: str, budget: int,
                seed: int) -> Dict[str, Any]:
    """The faulted fleet run twice with the same seed (``workdir/a``,
    ``workdir/b``): identical merged bytes and resilience reports
    (bit-determinism under faults), the conservation identity balanced.

    ``post`` scenarios then corrupt one committed shard profile at
    rest, reopen the store cold, and require verify() to quarantine
    the damage with the identity still balanced.  ``serial_check``
    re-runs with ``shards=1`` and requires byte-identical merged
    profiles; ``durable`` re-runs without faults and requires every
    epoch's stored bytes to equal the fault-free run's: a recovered
    crash moves no sample.
    """
    from repro.fleet.store import FleetStore

    shape = scenario.fleet
    result = _run_fleet(scenario, seed, budget, os.path.join(workdir, "a"))
    twin = _run_fleet(scenario, seed, budget, os.path.join(workdir, "b"))
    fingerprint = _fleet_fingerprint(result)
    failures = ["conservation violated: %s" % finding.message
                for finding in result.findings]
    if fingerprint != _fleet_fingerprint(twin):
        failures.append("twin run diverged: merged bytes or resilience "
                        "report differ under the same seed")

    store = result.store
    corrupted_file = None
    if scenario.post is not None:
        shard = max(store.shards, key=lambda s: s.db.total_samples())
        corrupted_file = _corrupt_at_rest(
            os.path.join(shard.root, "db"), scenario.post, seed)
        # A cold reader (offline query tool) must quarantine the
        # damage, and the conservation identity must re-balance with
        # the quarantined samples on the loss side.
        store = FleetStore(store.root, shards=store.num_shards)
        for reopened in store.shards:
            reopened.db.verify()
        store = FleetStore(store.root, shards=store.num_shards)
        failures += ["conservation violated after reopen: %s"
                     % finding.message
                     for finding in result.conservation(
                         "fleet-chaos/%s" % scenario.name, store)]
        if not store.quarantined_samples():
            failures.append("corruption not quarantined: %s reads back "
                            "without a quarantine entry"
                            % corrupted_file)

    if shape.serial_check:
        serial = _run_fleet(scenario, seed, budget,
                            os.path.join(workdir, "serial"), shards=1)
        if _store_bytes(serial.store) != fingerprint["merged"]:
            failures.append("sharded merge != serial merge: %d-shard "
                            "store is not byte-identical to shards=1"
                            % shape.shards)
    if shape.durable:
        clean = _run_fleet(replace(scenario, specs=()), seed, budget,
                           os.path.join(workdir, "clean"))
        if _epoch_bytes(clean.store) != _epoch_bytes(result.store):
            failures.append("crash not transparent: an epoch's stored "
                            "bytes differ from the fault-free run's")

    return _case(
        scenario, None, seed, budget,
        samples=fingerprint["shipped"],
        kept=store.total_samples(),
        quarantined=store.quarantined_samples(),
        recoveries=(result.resilience["machine_recoveries"]
                    + result.resilience["store_recoveries"]),
        loss_rate=result.loss_rate(store),
        failures=failures,
        machines=shape.machines, epochs=shape.epochs, shards=shape.shards,
        durable=shape.durable, transport=result.transport_stats,
        resilience=result.resilience, corrupted_file=corrupted_file)
