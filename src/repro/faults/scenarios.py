"""The registered chaos matrix: named fault scenarios + the runner.

Each :class:`Scenario` is a fault plan aimed at one failure mode of
the collection pipeline (daemon death mid-drain, a machine restart
between drain and merge, a torn database write, ...).  The runner
executes every scenario twice -- once fault-free, once faulted, same
seed -- and checks the conservation invariant from
:mod:`repro.faults.audit`: identical sample streams, and recovered
profile counts equal to fault-free counts minus exactly the accounted
losses.  ``dcpichaos`` is the CLI face of this module.
"""

from __future__ import annotations

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

QUICK_BUDGET = 24_000
FULL_BUDGET = 60_000


@dataclass(frozen=True)
class Scenario:
    """One registered fault case."""

    name: str
    description: str
    specs: Tuple[FaultSpec, ...] = ()
    #: at-rest corruption applied to one stored profile after the
    #: faulted session ends: None | "bitflip" | "truncate".
    post: Optional[str] = None
    #: whether the session runs with a profile database.
    db: bool = True
    #: include in the --quick (CI smoke) subset.
    quick: bool = False


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
)


def scenario_names(quick: bool = False) -> List[str]:
    return [s.name for s in SCENARIOS if s.quick or not quick]


def get_scenario(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError("unknown scenario %r; have: %s"
                   % (name, ", ".join(s.name for s in SCENARIOS)))


def _run_session(workload_name: str, seed: int, budget: int,
                 db_root: Optional[str],
                 plan: Optional[FaultPlan]) -> Any:
    from repro.collect.driver import DriverConfig
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
        driver=DriverConfig(buckets=CHAOS_BUCKETS, assoc=CHAOS_ASSOC,
                            overflow_capacity=CHAOS_OVERFLOW_CAPACITY),
        faults=plan)
    session = ProfileSession(MachineConfig(num_cpus=workload.num_cpus),
                             config)
    return session.run(workload, max_instructions=budget)


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


def run_case(scenario: Scenario, workload_name: str,
             budget: int = FULL_BUDGET, seed: int = 1,
             keep_dirs: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run one scenario on one workload; return the case report.

    Executes the fault-free reference and the faulted run with the
    same seed in throwaway database directories, applies any at-rest
    corruption, then audits both runs and the cross-run invariant.
    """
    from repro.collect.database import ProfileDatabase

    started = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix="dcpichaos-")
    try:
        ref_root = (os.path.join(tmp, "ref") if scenario.db else None)
        fault_root = (os.path.join(tmp, "fault") if scenario.db else None)
        reference = _run_session(workload_name, seed, budget, ref_root,
                                 None)
        plan = FaultPlan(specs=scenario.specs, seed=seed)
        faulted = _run_session(workload_name, seed, budget, fault_root,
                               plan)
        corrupted_file = None
        if scenario.post and fault_root is not None:
            corrupted_file = _corrupt_at_rest(fault_root, scenario.post,
                                              seed)
            # Re-open cold (a fresh reader, like an offline analysis
            # tool) and verify: the corrupt file must be quarantined
            # with its loss accounted, not decoded into garbage.
            faulted.database = ProfileDatabase(fault_root)
            faulted.database.verify()
        ref_report = audit.sample_conservation(reference)
        fault_report = audit.sample_conservation(faulted)
        comparison = audit.compare_runs(fault_report, ref_report)
        return {
            "scenario": scenario.name,
            "workload": workload_name,
            "seed": seed,
            "budget": budget,
            "elapsed_s": round(time.perf_counter() - started, 3),
            "reference": ref_report,
            "faulted": fault_report,
            "comparison": comparison,
            "fired": {"%s:%s" % key: count
                      for key, count
                      in faulted.driver.faults.stats().items()},
            "corrupted_file": corrupted_file,
            "recoveries": fault_report["recoveries"],
            "accounted_loss": audit.accounted_loss(fault_report),
            "loss_rate": (audit.accounted_loss(fault_report)
                          / fault_report["driver_samples"]
                          if fault_report["driver_samples"] else 0.0),
            "overhead_pct": _recovery_overhead(reference, faulted),
            "ok": comparison["ok"],
        }
    finally:
        if keep_dirs:
            keep_dirs.append(tmp)
        else:
            shutil.rmtree(tmp, ignore_errors=True)


def _recovery_overhead(reference: Any, faulted: Any) -> float:
    """Extra modelled daemon cycles the faulted run paid, in percent."""
    base = reference.daemon.cycles
    if not base:
        return 0.0
    return (faulted.daemon.cycles - base) / base * 100.0


def run_matrix(workloads: Sequence[str] = ("gcc",),
               quick: bool = False, seed: int = 1,
               budget: Optional[int] = None,
               names: Optional[Sequence[str]] = None
               ) -> List[Dict[str, Any]]:
    """Run scenarios x workloads; return the list of case reports."""
    if budget is None:
        budget = QUICK_BUDGET if quick else FULL_BUDGET
    cases: List[Dict[str, Any]] = []
    for scenario in SCENARIOS:
        if names is not None and scenario.name not in names:
            continue
        if quick and not scenario.quick and names is None:
            continue
        for workload_name in workloads:
            cases.append(run_case(scenario, workload_name,
                                  budget=budget, seed=seed))
    return cases


# -- the fleet matrix (PR 9) -------------------------------------------------
#
# Where the scenarios above attack one machine's collection pipeline,
# the fleet matrix attacks the distribution layer: ship/ack transport
# faults, bounded-spool overflow, machine crash/recovery, store writer
# crashes, at-rest shard corruption, and sharded-vs-serial ingest
# identity.  Every case must hold the fleet conservation invariant
# (stored + transit-lost + spool-dropped + residue + quarantined ==
# shipped) *and* be bit-deterministic: the same scenario run twice with
# the same seed must produce byte-identical merged store profiles and
# an identical resilience report.

#: Fleet chaos sessions are sized small-but-hot, like the single
#: machine matrix: few machines, few epochs, tight budgets.
FLEET_QUICK_BUDGET = 6_000
FLEET_FULL_BUDGET = 12_000


@dataclass(frozen=True)
class FleetScenario:
    """One registered fleet-level fault case."""

    name: str
    description: str
    specs: Tuple[FaultSpec, ...] = ()
    machines: int = 2
    epochs: int = 3
    shards: int = 1
    #: give machines a local db + journal (arms fleet.machine.* crash
    #: points and unacked-epoch re-shipping).
    durable: bool = False
    spool_capacity: int = 8
    #: at-rest corruption of one committed shard profile after the run:
    #: None | "bitflip" | "truncate".
    post: Optional[str] = None
    #: also re-run with shards=1 and assert byte-identical merged
    #: profiles (the concurrent-sharded == serial identity).
    serial_check: bool = False
    #: include in the --quick (CI smoke) subset.
    quick: bool = False


FLEET_SCENARIOS = (
    FleetScenario(
        "fleet-ship-drop",
        "a delta vanishes in transit; the loss is accounted exactly",
        specs=(FaultSpec("fleet.ship", "drop", hits=(2,)),)),
    FleetScenario(
        "fleet-ship-timeout",
        "ships time out transiently; seeded backoff re-ships from the "
        "spool with zero loss",
        specs=(FaultSpec("fleet.ship", "transient", hits=(2, 4)),),
        quick=True),
    FleetScenario(
        "fleet-ship-dup",
        "the transport delivers a delta twice; idempotent dedupe "
        "drops the replay",
        specs=(FaultSpec("fleet.ship", "duplicate", hits=(3,)),)),
    FleetScenario(
        "fleet-ack-lost",
        "the store applies a delta but the ack is lost; the re-ship "
        "is absorbed by (machine, epoch, batch) dedupe",
        specs=(FaultSpec("fleet.ack", "drop", hits=(1,)),)),
    FleetScenario(
        "fleet-spool-overflow",
        "persistent timeouts against a capacity-1 spool force "
        "drop-oldest evictions, every dropped sample accounted",
        specs=(FaultSpec("fleet.ship", "transient", after=1, limit=64),),
        spool_capacity=1),
    FleetScenario(
        "fleet-machine-crash",
        "a durable machine's daemon dies on an epoch's last drain chunk; "
        "journal replay + in-flight redrain + catch-up drain close the "
        "epoch without losing a sample or moving one to the next",
        specs=(FaultSpec("fleet.machine.run", "crash", hits=(4,)),),
        durable=True),
    FleetScenario(
        "fleet-preship-crash",
        "a durable machine dies after closing an epoch, before "
        "shipping it; the restart re-extracts and re-ships it",
        specs=(FaultSpec("fleet.machine.ship", "crash", hits=(2,)),),
        durable=True),
    FleetScenario(
        "fleet-store-crash",
        "the store writer dies mid-ingest before the manifest commit; "
        "the reopened store retries the same delivery",
        specs=(FaultSpec("fleet.store.ingest", "crash", hits=(2,)),)),
    FleetScenario(
        "fleet-shard-corrupt",
        "a committed profile in one shard is bit-flipped at rest; "
        "verify quarantines it with the loss accounted",
        shards=2, post="bitflip", quick=True),
    FleetScenario(
        "fleet-concurrent-ingest",
        "four shards ingest the interleaved fleet; merged profiles "
        "are byte-identical to the serial single-shard store",
        shards=4, serial_check=True),
)


def fleet_scenario_names(quick: bool = False) -> List[str]:
    return [s.name for s in FLEET_SCENARIOS if s.quick or not quick]


def get_fleet_scenario(name: str) -> FleetScenario:
    for scenario in FLEET_SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError("unknown fleet scenario %r; have: %s"
                   % (name, ", ".join(s.name
                                      for s in FLEET_SCENARIOS)))


def _fleet_config(scenario: FleetScenario, seed: int,
                  budget: int, shards: Optional[int] = None) -> Any:
    from repro.fleet.machine import FleetConfig

    return FleetConfig(
        machines=scenario.machines,
        epochs=scenario.epochs,
        seed=seed,
        epoch_instructions=budget,
        drain_interval=max(budget // 4, 1),
        faults=(FaultPlan(specs=scenario.specs, seed=seed)
                if scenario.specs else None),
        shards=shards if shards is not None else scenario.shards,
        durable=scenario.durable,
        spool_capacity=scenario.spool_capacity)


def _run_fleet_session(scenario: FleetScenario, seed: int, budget: int,
                       root: str,
                       shards: Optional[int] = None) -> Any:
    from repro.fleet.machine import FleetSession

    config = _fleet_config(scenario, seed, budget, shards=shards)
    return FleetSession(config).run(root)


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
        "merged": _store_bytes(result.store).hex(),
        "resilience": result.resilience,
        "transport": result.transport_stats,
        "shipped": result.shipped_samples(),
        "stored": result.store.total_samples(),
    }


def run_fleet_case(scenario: FleetScenario, budget: int = FLEET_FULL_BUDGET,
                   seed: int = 1) -> Dict[str, Any]:
    """Run one fleet scenario; return the case report.

    Every case runs the faulted session *twice* with the same seed in
    fresh store roots and requires identical merged bytes and
    resilience reports (bit-determinism under faults).  ``post``
    scenarios then corrupt one committed shard profile at rest, reopen
    the store cold, and require verify() to quarantine the damage with
    the fleet conservation identity still exactly balanced.
    ``serial_check`` scenarios additionally re-run with ``shards=1``
    and require byte-identical merged profiles (sharded == serial).
    ``durable`` scenarios additionally run without their faults and
    require every epoch's stored bytes to equal the fault-free run's
    (``crash_transparent``): a recovered crash moves no sample.
    """
    from repro.fleet.store import FleetStore

    started = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix="dcpichaos-fleet-")
    try:
        result = _run_fleet_session(scenario, seed, budget,
                                    os.path.join(tmp, "a"))
        twin = _run_fleet_session(scenario, seed, budget,
                                  os.path.join(tmp, "b"))
        fingerprint = _fleet_fingerprint(result)
        deterministic = fingerprint == _fleet_fingerprint(twin)
        conservation_ok = not result.findings
        findings = [f.to_dict() for f in result.findings]
        store = result.store

        corrupted_file = None
        quarantined = store.quarantined_samples()
        if scenario.post is not None:
            shard = max(store.shards,
                        key=lambda s: s.db.total_samples())
            corrupted_file = _corrupt_at_rest(
                os.path.join(shard.root, "db"), scenario.post, seed)
            # A cold reader (offline query tool) must quarantine the
            # damage, and the conservation identity must re-balance
            # with the quarantined samples on the loss side.
            store = FleetStore(store.root, shards=store.num_shards)
            for reopened in store.shards:
                reopened.db.verify()
            store = FleetStore(store.root, shards=store.num_shards)
            quarantined = store.quarantined_samples()
            post_findings = result.conservation(
                "fleet-chaos/%s" % scenario.name, store)
            conservation_ok = conservation_ok and not post_findings
            findings += [f.to_dict() for f in post_findings]
            if scenario.post == "bitflip" and not quarantined:
                conservation_ok = False
                findings.append({"check": "fleet-chaos",
                                 "detail": "corruption not quarantined"})

        serial_identical = None
        if scenario.serial_check:
            serial = _run_fleet_session(scenario, seed, budget,
                                        os.path.join(tmp, "serial"),
                                        shards=1)
            serial_identical = (_store_bytes(serial.store)
                                == bytes.fromhex(fingerprint["merged"]))

        crash_transparent = None
        if scenario.durable:
            clean = _run_fleet_session(replace(scenario, specs=()), seed,
                                       budget, os.path.join(tmp, "clean"))
            crash_transparent = (_epoch_bytes(clean.store)
                                 == _epoch_bytes(result.store))

        ok = (conservation_ok and deterministic
              and serial_identical is not False
              and crash_transparent is not False)
        return {
            "scenario": scenario.name,
            "fleet": True,
            "seed": seed,
            "budget": budget,
            "machines": scenario.machines,
            "epochs": scenario.epochs,
            "shards": scenario.shards,
            "durable": scenario.durable,
            "elapsed_s": round(time.perf_counter() - started, 3),
            "shipped_samples": fingerprint["shipped"],
            "stored_samples": store.total_samples(),
            "transport": result.transport_stats,
            "resilience": result.resilience,
            "quarantined_samples": quarantined,
            "corrupted_file": corrupted_file,
            "recoveries": (result.resilience["machine_recoveries"]
                           + result.resilience["store_recoveries"]),
            "loss_rate": result.loss_rate(),
            "conservation_ok": conservation_ok,
            "deterministic": deterministic,
            "serial_identical": serial_identical,
            "crash_transparent": crash_transparent,
            "findings": findings,
            "ok": ok,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_fleet_matrix(quick: bool = False, seed: int = 1,
                     budget: Optional[int] = None,
                     names: Optional[Sequence[str]] = None
                     ) -> List[Dict[str, Any]]:
    """Run the registered fleet scenarios; return the case reports."""
    if budget is None:
        budget = FLEET_QUICK_BUDGET if quick else FLEET_FULL_BUDGET
    cases: List[Dict[str, Any]] = []
    for scenario in FLEET_SCENARIOS:
        if names is not None and scenario.name not in names:
            continue
        if quick and not scenario.quick and names is None:
            continue
        cases.append(run_fleet_case(scenario, budget=budget, seed=seed))
    return cases
