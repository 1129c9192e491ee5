"""Fleet resilience (PR 9): sharded concurrent ingest identity, spool
overflow conservation, deterministic backoff, and crash recovery.

The load-bearing invariants:

* a sharded store's merged bytes are identical to the serial
  single-shard store's, for any shard count, any delta interleaving,
  and real concurrent multi-process writers;
* the bounded ship spool never loses a sample silently -- offered
  samples always split exactly into pending + acked + dropped;
* every backoff schedule (ingest-lock retry and ship retry) is a pure
  function of its seed;
* an injected machine / store crash recovers to byte-identical store
  contents, epoch by epoch, with the conservation identity exactly
  balanced -- and never moves a cycle of machine time.
"""

import multiprocessing
import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import (Delta, FleetConfig, FleetMachine, FleetSession,
                         FleetStore, IngestRetry, ShipSpool)

MACHINES = 4
EPOCHS = 2
BUDGET = 6_000


@pytest.fixture(scope="module")
def fleet_deltas():
    config = FleetConfig(machines=MACHINES, epochs=EPOCHS, seed=23)
    machines = [
        FleetMachine("m%02d" % i, config.machine_workload(i),
                     config.machine_seed(i))
        for i in range(MACHINES)
    ]
    deltas = []
    for _ in range(EPOCHS):
        for machine in machines:
            deltas.append(machine.run_epoch(BUDGET))
    shipped = sum(machine.shipped_samples for machine in machines)
    assert shipped > 0
    return deltas, shipped


def _store_bytes(store):
    return store.merged().encode_all()


def _tiny_delta(batch, samples=10):
    return Delta(machine_id="m00", epoch=batch - 1, batch=batch,
                 generation=1, workload="w", seed=1,
                 profiles={"img": {"cycles": {0: samples}}},
                 periods={"cycles": 4.0})


# -- sharded == serial (the tentpole identity) ------------------------------


@settings(max_examples=examples(10), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sharded_ingest_byte_identical_to_serial(fleet_deltas,
                                                 tmp_path_factory, data):
    """Any shard count, any interleaving: same merged bytes."""
    deltas, shipped = fleet_deltas
    shards = data.draw(st.sampled_from([2, 3, 4]))
    order = data.draw(st.permutations(list(range(len(deltas)))))
    serial = FleetStore(str(tmp_path_factory.mktemp("serial")))
    for delta in deltas:
        serial.ingest(delta)
    sharded = FleetStore(str(tmp_path_factory.mktemp("sharded")),
                         shards=shards)
    for index in order:
        sharded.ingest(deltas[index])
    assert _store_bytes(sharded) == _store_bytes(serial)
    assert sharded.total_samples() == shipped
    assert sharded.epochs() == serial.epochs()


def test_shard_routing_is_stable_and_partitioned(fleet_deltas, tmp_path):
    """A machine always routes to the same shard, in every process
    that opens the store (the hash is unsalted), and a shard only
    holds its own machines."""
    deltas, _ = fleet_deltas
    root = str(tmp_path / "store")
    store = FleetStore(root, shards=4)
    for delta in deltas:
        store.ingest(delta)
    reopened = FleetStore(root)
    assert reopened.num_shards == 4
    for delta in deltas:
        assert (store.shard_for(delta.machine_id).index
                == reopened.shard_for(delta.machine_id).index)
    for shard in reopened.shards:
        for machine_id in shard.ledger["machines"]:
            assert reopened.shard_for(machine_id).index == shard.index


def test_reshard_of_existing_store_is_refused(fleet_deltas, tmp_path):
    deltas, _ = fleet_deltas
    root = str(tmp_path / "store")
    store = FleetStore(root, shards=2)
    store.ingest(deltas[0])
    with pytest.raises(ValueError, match="shards"):
        FleetStore(root, shards=3)


def test_one_layout_for_every_shard_count(tmp_path):
    """K=1 is one shard directory under shards/, like any other K."""
    for shards in (1, 3):
        root = str(tmp_path / ("k%d" % shards))
        FleetStore(root, shards=shards).ingest(_tiny_delta(1))
        assert sorted(os.listdir(root)) == ["STORE.json", "shards"]
        assert sorted(os.listdir(os.path.join(root, "shards"))) == [
            "s%02d" % index for index in range(shards)]
        assert FleetStore(root).num_shards == shards


@pytest.mark.parametrize("garbage", ["{trunc", "", '{"shards": 0}',
                                     '{"schema": 1}', "[4]"])
def test_unreadable_store_meta_is_refused(tmp_path, garbage):
    """A truncated STORE.json must not reopen a 4-shard store as an
    empty single-shard one."""
    root = str(tmp_path / "store")
    store = FleetStore(root, shards=4)
    store.ingest(_tiny_delta(1))
    meta = os.path.join(root, "STORE.json")
    with open(meta, "w") as handle:
        handle.write(garbage)
    with pytest.raises(ValueError, match="STORE.json"):
        FleetStore(root)
    assert sorted(os.listdir(root)) == ["STORE.json", "shards"]


@pytest.mark.parametrize("stray", ["db", "shards"])
def test_data_without_store_meta_is_refused(tmp_path, stray):
    root = tmp_path / "store"
    (root / stray).mkdir(parents=True)
    with pytest.raises(ValueError, match=str(root)):
        FleetStore(str(root))


def _ingest_worker(root, deltas, in_step, refreshes):
    store = FleetStore(root, retry=IngestRetry(
        attempts=12, base_ms=1.0, cap_ms=40.0, seed=0))
    for delta in deltas:
        # In step: whoever committed first to a shared shard last
        # round now holds a view the other writer has since replaced.
        in_step.wait()
        store.ingest(delta)
    refreshes.put(sum((shard.refreshes for shard in store.shards),
                      Counter()))


def test_four_process_concurrent_ingest_matches_serial(fleet_deltas,
                                                       tmp_path):
    """Four real OS processes ingest concurrently into one 4-shard
    store; contention rides the bounded lock retry, and the result is
    byte-identical to the serial single-shard store.  Machines m00/m02
    and m01/m03 share a shard, so each process must notice the commits
    of another (``foreign_commit`` refreshes) to get there."""
    deltas, shipped = fleet_deltas
    serial = FleetStore(str(tmp_path / "serial"))
    for delta in deltas:
        serial.ingest(delta)
    root = str(tmp_path / "concurrent")
    FleetStore(root, shards=4)   # create layout + persist shard meta
    ctx = multiprocessing.get_context("fork")
    in_step = ctx.Barrier(4)
    refreshes = ctx.SimpleQueue()
    workers = [
        ctx.Process(target=_ingest_worker,
                    args=(root, deltas[index::4], in_step, refreshes))
        for index in range(4)
    ]
    for worker in workers:
        worker.start()
    counts = sum((refreshes.get() for _ in workers), Counter())
    for worker in workers:
        worker.join(timeout=120)
    assert all(worker.exitcode == 0 for worker in workers)
    assert counts["foreign_commit"] > 0
    store = FleetStore(root)
    assert store.total_samples() == shipped
    assert _store_bytes(store) == _store_bytes(serial)
    assert not any(store.verify()[index]["quarantined"]
                   for index in range(4))


# -- spool overflow conservation --------------------------------------------


@given(capacity=st.integers(min_value=1, max_value=5),
       sizes=st.lists(st.integers(min_value=1, max_value=50),
                      max_size=12))
def test_spool_overflow_conserves_samples(capacity, sizes):
    """offered == pending + evicted, sample-exact, oldest dropped."""
    spool = ShipSpool(capacity=capacity, seed=3)
    offered = 0
    evicted_samples = 0
    for batch, samples in enumerate(sizes, 1):
        delta = _tiny_delta(batch, samples=samples)
        offered += samples
        for victim in spool.offer(delta):
            evicted_samples += victim.total_samples()
    pending = sum(entry.delta.total_samples()
                  for entry in spool.pending())
    assert offered == pending + evicted_samples
    assert spool.dropped_samples == evicted_samples
    assert spool.dropped_deltas == max(0, len(sizes) - capacity)
    assert len(spool) == min(len(sizes), capacity)
    # Drop-oldest: the survivors are exactly the newest offers.
    expected = list(range(1, len(sizes) + 1))[-capacity:]
    assert [entry.delta.batch
            for entry in spool.pending()] == expected


def test_spool_does_not_account_delivered_entries_as_lost():
    """An entry whose copy reached the store (ack lost) is not loss."""
    spool = ShipSpool(capacity=1, seed=1)
    first = _tiny_delta(1, samples=7)
    spool.offer(first)
    spool.mark_delivered(first.delta_id)
    evicted = spool.offer(_tiny_delta(2, samples=9))
    assert [d.delta_id for d in evicted] == [first.delta_id]
    assert spool.dropped_deltas == 1
    assert spool.dropped_samples == 0   # stored upstream, not lost
    assert spool.abandon()[0].total_samples() == 9
    assert spool.dropped_samples == 9


# -- deterministic backoff ---------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_ingest_backoff_schedule_is_pure_function_of_seed(seed):
    retry = IngestRetry(attempts=6, base_ms=2.0, cap_ms=20.0, seed=seed)
    first = retry.backoff_schedule()
    assert first == retry.backoff_schedule()
    assert first == IngestRetry(attempts=6, base_ms=2.0, cap_ms=20.0,
                                seed=seed).backoff_schedule()
    assert len(first) == retry.attempts - 1
    for attempt, delay in enumerate(first):
        ceiling = min(20.0, 2.0 * 2 ** attempt)
        assert ceiling * 0.5 <= delay < ceiling
    assert abs(retry.budget_ms() - sum(first)) < 1e-9


@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_ship_backoff_is_pure_function_of_seed(seed):
    def schedule(spool):
        entry = spool.pending()[0]
        return [spool.backoff_for_retry(entry) for _ in range(8)]

    first = ShipSpool(capacity=2, seed=seed)
    twin = ShipSpool(capacity=2, seed=seed)
    for spool in (first, twin):
        spool.offer(_tiny_delta(1))
    delays = schedule(first)
    assert delays == schedule(twin)
    for attempt, delay in enumerate(delays):
        ceiling = min(first.cap_ms, first.base_ms * 2 ** attempt)
        assert ceiling * 0.5 <= delay < ceiling
    assert first.retries == 8
    assert abs(first.backoff_ms - sum(delays)) < 1e-9


#: The schedules the two backoff loops produced before they shared
#: ``seeded_backoff``: the default policies and every policy these
#: tests build (the spool's at its default base and cap).
PINNED_INGEST = [
    ({}, (1.8444218515250481, 3.515908805880605, 5.68228632332338,
          10.071334002343708, 24.180395541897738, 35.12335343626036,
          44.59496472586931)),
    (dict(attempts=12, base_ms=1.0, cap_ms=40.0, seed=0),
     (0.9222109257625241, 1.7579544029403025, 2.84114316166169,
      5.035667001171854, 12.090197770948869, 22.47894619920663,
      35.67597178069545, 26.06625452157855, 29.531939083047117,
      31.667640789100624, 38.162257703906704)),
    (dict(attempts=6, base_ms=2.0, cap_ms=20.0, seed=0),
     (1.8444218515250481, 3.515908805880605, 5.68228632332338,
      10.071334002343708, 15.112747213686086)),
    (dict(attempts=3, base_ms=2.0, cap_ms=8.0, seed=7),
     (1.3238327648331625, 2.301698347849004)),
    (dict(attempts=4, base_ms=1.0, cap_ms=4.0, seed=3),
     (0.6189823135459457, 1.5442292252959517, 2.7399103330961587)),
]
PINNED_SPOOL = {
    0: [3.6888437030500962, 7.03181761176121, 11.36457264664676,
        20.142668004687415, 48.360791083795476, 89.91578479682651,
        222.97482362934656, 162.91409075986593],
    1: [2.268728488224802, 7.389734947748931, 14.110196951812913,
        20.081104411830747, 47.85392278694211, 92.76742814647923,
        206.44912159034536, 223.59041889193915],
    3: [2.4759292541837827, 6.176916901183807, 10.959641332384635,
        25.66272061753911, 52.02304973145773, 68.19384699134804,
        126.64599894435926, 229.6836352620575],
}


@pytest.mark.parametrize("policy, schedule", PINNED_INGEST)
def test_ingest_backoff_schedule_is_pinned(policy, schedule):
    assert IngestRetry(**policy).backoff_schedule() == schedule


@pytest.mark.parametrize("seed", sorted(PINNED_SPOOL))
def test_ship_backoff_is_pinned(seed):
    spool = ShipSpool(seed=seed)
    spool.offer(_tiny_delta(1))
    entry = spool.pending()[0]
    assert ([spool.backoff_for_retry(entry) for _ in range(8)]
            == PINNED_SPOOL[seed])


# -- crash recovery, end to end ---------------------------------------------


def _fleet_config(seed=7, faults=None, **overrides):
    settings = dict(machines=2, epochs=2, seed=seed,
                    epoch_instructions=4_000, drain_interval=1_000,
                    durable=True, faults=faults)
    settings.update(overrides)
    return FleetConfig(**settings)


def _run(root, config):
    return FleetSession(config).run(str(root))


def _epoch_bytes(store):
    return {epoch: store.merged(epochs=[epoch]).encode_all()
            for epoch in store.epochs()}


@pytest.fixture(scope="module")
def clean_fleet(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("clean"), _fleet_config())


def _crash_case(clean, tmp_path, point, hits):
    """Run the crash-faulted twin of *clean*: it must store identical
    bytes, epoch by epoch, with conservation balanced."""
    plan = FaultPlan(specs=(FaultSpec(point, "crash", hits=hits),),
                     seed=5)
    faulted = _run(tmp_path / "faulted", _fleet_config(faults=plan))
    assert clean.findings == [] and faulted.findings == []
    assert _store_bytes(faulted.store) == _store_bytes(clean.store)
    assert _epoch_bytes(faulted.store) == _epoch_bytes(clean.store)
    assert faulted.store.total_samples() == clean.store.total_samples()
    return faulted


def test_machine_crash_mid_epoch_recovers_losslessly(clean_fleet,
                                                     tmp_path):
    faulted = _crash_case(clean_fleet, tmp_path, "fleet.machine.run", (3,))
    assert faulted.resilience["machine_recoveries"] >= 1


#: Every crash position of the crash-case fleet: 2 machines x 2 epochs
#: x 4 drain chunks of ``fleet.machine.run`` (hits 4, 8, 12 and 16 end
#: an epoch), 2 x 2 epoch closes of ``fleet.machine.ship``, and one
#: double crash of each.
CRASH_POSITIONS = (
    [("fleet.machine.run", (hit,)) for hit in range(1, 17)]
    + [("fleet.machine.ship", (hit,)) for hit in range(1, 5)]
    + [("fleet.machine.run", (2, 4)), ("fleet.machine.ship", (2, 4))])


@pytest.mark.parametrize(
    "point, hits", CRASH_POSITIONS,
    ids=["%s@%s" % (point.rsplit(".", 1)[1], "+".join(map(str, hits)))
         for point, hits in CRASH_POSITIONS])
def test_crash_at_any_chunk_position_keeps_every_epoch(clean_fleet,
                                                       tmp_path, point,
                                                       hits):
    """A crash on an epoch's last chunk must not ship that chunk's
    samples with the next epoch."""
    faulted = _crash_case(clean_fleet, tmp_path, point, hits)
    assert faulted.resilience["machine_recoveries"] == len(hits)


def test_collection_crash_never_moves_a_machine_cycle(tmp_path):
    """A daemon crash is a collection fault: the machine runs on as if
    nothing happened, so every delta and the final machine time equal
    the clean run's."""
    def run(name, faults):
        machine = FleetMachine("m00", "dss", 7, drain_interval=1_000,
                               durable_root=tmp_path / name, faults=faults)
        deltas = [machine.run_epoch(4_000) for _ in range(3)]
        return deltas, machine.machine.time

    plan = FaultPlan(specs=(FaultSpec("fleet.machine.run", "crash",
                                      hits=(3,)),), seed=5)
    assert run("crashed", plan.build()) == run("clean", None)


def test_recovered_daemon_replaces_the_dead_ones_listener(tmp_path):
    # Two crashes, then traffic respawns that fire loadmap events: only
    # the live daemon may hear them, and they grow its resident gauge.
    plan = FaultPlan(specs=(FaultSpec("fleet.machine.run", "crash",
                                      hits=(2, 4)),), seed=5)
    machine = FleetMachine("m00", "gcc", 7, drain_interval=1_000,
                           durable_root=tmp_path / "m00",
                           faults=plan.build())
    for _ in range(3):
        machine.run_epoch(4_000)
    assert machine.daemon.recoveries == 2
    assert machine.machine.loader._listeners == [
        machine.daemon.on_loadmap]
    before = machine.daemon.metrics()["daemon.resident_bytes"]
    machine._respawn()
    after = machine.daemon.metrics()["daemon.resident_bytes"]
    assert after["value"] > before["value"]
    assert after["peak"] >= after["value"]


def test_preship_crash_reships_the_closed_epoch(clean_fleet, tmp_path):
    faulted = _crash_case(clean_fleet, tmp_path, "fleet.machine.ship", (2,))
    assert faulted.resilience["machine_recoveries"] >= 1


def test_store_crash_mid_ingest_recovers_on_reopen(clean_fleet, tmp_path):
    faulted = _crash_case(clean_fleet, tmp_path, "fleet.store.ingest",
                          (2,))
    assert faulted.resilience["store_recoveries"] >= 1


def test_lost_ack_reship_is_absorbed_by_dedupe(tmp_path):
    clean = _run(tmp_path / "clean", _fleet_config())
    plan = FaultPlan(specs=(FaultSpec("fleet.ack", "drop",
                                      hits=(1,)),), seed=5)
    faulted = _run(tmp_path / "faulted", _fleet_config(faults=plan))
    assert faulted.findings == []
    assert faulted.resilience["acks_lost"] == 1
    assert faulted.store.stats()["duplicates_dropped"] >= 1
    assert _store_bytes(faulted.store) == _store_bytes(clean.store)


def test_evicted_delivered_deltas_are_not_spool_loss(tmp_path):
    """Lost acks against a capacity-1 spool evict deltas the store
    already holds; persistent timeouts then strand the rest.  The spool
    accounts only samples the store never got."""
    def run(name):
        plan = FaultPlan(specs=(
            FaultSpec("fleet.ack", "drop", hits=(1, 3)),
            FaultSpec("fleet.ship", "transient", after=6)), seed=5)
        return _run(tmp_path / name, _fleet_config(
            faults=plan, durable=False, epochs=4, spool_capacity=1))

    result = run("first")
    assert result.findings == []
    assert result.resilience["acks_lost"] == 2
    ledger = result.store.machines()
    never_stored = 0
    for row in result.machines:
        stored = ledger[row["machine"]]
        assert row["spool"]["dropped_samples"] == (
            row["shipped_samples"] - stored["samples"])
        never_stored += row["deltas"] - stored["deltas"]
    # Some dropped deltas had reached the store, and they cost nothing.
    assert result.resilience["spool_dropped_deltas"] > never_stored > 0
    twin = run("twin")
    assert twin.report() == result.report()
    assert _store_bytes(twin.store) == _store_bytes(result.store)


def test_a_second_run_reports_only_its_own_recoveries(tmp_path):
    plan = FaultPlan(specs=(
        FaultSpec("fleet.store.ingest", "crash", hits=(2,)),
        FaultSpec("fleet.ack", "drop", hits=(1,))), seed=5)
    session = FleetSession(_fleet_config(faults=plan, durable=False))
    first = session.run(str(tmp_path / "first"))
    assert first.resilience["store_recoveries"] == 1
    assert first.resilience["acks_lost"] == 1
    assert session.run(str(tmp_path / "second")).resilience == \
        first.resilience


def test_ship_timeouts_drain_through_seeded_backoff(tmp_path):
    clean = _run(tmp_path / "clean", _fleet_config())
    plan = FaultPlan(specs=(FaultSpec("fleet.ship", "transient",
                                      hits=(1, 3)),), seed=5)
    faulted = _run(tmp_path / "faulted", _fleet_config(faults=plan))
    assert faulted.findings == []
    assert faulted.resilience["ship_retries"] == 2
    assert faulted.resilience["backoff_ms"] > 0
    assert _store_bytes(faulted.store) == _store_bytes(clean.store)
    # Same seed, same faults: the modelled backoff charge replays.
    twin = _run(tmp_path / "twin", _fleet_config(
        faults=FaultPlan(specs=(FaultSpec("fleet.ship", "transient",
                                          hits=(1, 3)),), seed=5)))
    assert twin.resilience == faulted.resilience


def test_durable_machine_releases_acked_epochs(tmp_path):
    """Acked epochs leave the machine's local database (bounded local
    footprint) while unacked ones would survive for re-shipping."""
    from repro.collect.database import ProfileDatabase

    _run(tmp_path / "store", _fleet_config())
    for index in range(2):
        local = os.path.join(str(tmp_path / "store"), "machines",
                             "m%02d" % index)
        assert ProfileDatabase(local).epochs() == []
