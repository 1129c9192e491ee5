"""Fleet ingest pays for the delta, not for the store (PR 15).

Deterministic *counts*, never clocks:

* a long-lived ingest handle parses its manifest once, sweeps its
  directories once, sizes each delta once -- and still fsyncs every
  byte a manifest names before that manifest (one segment per delta,
  then the manifest: two fsyncs however many profiles it carries);
* the cached view is dropped exactly when it must be: another handle
  committed, or this handle's previous locked section failed;
* retention compaction runs under the same lock + staleness check as
  ingest, so a stale handle can no longer publish an old manifest over
  another writer's commit.
"""

import json
import os
from collections import Counter

import pytest

import repro.fleet.store as store_module
import repro.fleet.transport as transport_module
from repro.collect import database
from repro.faults import FaultPlan, FaultSpec
from repro.faults.injector import InjectedCrash
from repro.fleet import Delta, FleetStore
from repro.fleet.retention import RetentionPolicy, compact
from repro.fleet.transport import DeltaTransport

pytestmark = pytest.mark.skipif(
    store_module.fcntl is None,
    reason="the cached view needs the ingest lock (fcntl)")


def _delta(machine, epoch, images=("img", "lib"), base=10):
    """A small delta: one profile per image, distinct per (m, e)."""
    profiles = {
        image: {"cycles": {4 * slot: base + epoch + slot + index
                           for slot in range(6)}}
        for index, image in enumerate(images)}
    return Delta(machine_id=machine, epoch=epoch, batch=epoch + 1,
                 generation=1, workload="w", seed=1, profiles=profiles,
                 periods={"cycles": 4.0})


def _profiles_in(delta):
    return sum(len(by_event) for by_event in delta.profiles.values())


def _refreshes(store):
    """{reason: count} ("skip": no reload) over *store*'s shards."""
    return sum((shard.refreshes for shard in store.shards), Counter())


class _Calls:
    """Count calls of the functions an ingest must not repeat."""

    def __init__(self, monkeypatch):
        self.manifest_loads = []
        self.listdirs = []
        self.fsyncs = 0
        self.encodes = 0
        real_load, real_listdir = json.load, os.listdir
        real_fsync, real_encode = os.fsync, database.encode_profile

        def load(handle, *args, **kwargs):
            if handle.name.endswith(database.MANIFEST_NAME):
                self.manifest_loads.append(handle.name)
            return real_load(handle, *args, **kwargs)

        def listdir(path="."):
            self.listdirs.append(os.fspath(path))
            return real_listdir(path)

        def fsync(fd):
            self.fsyncs += 1
            return real_fsync(fd)

        def encode(*args, **kwargs):
            self.encodes += 1
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(json, "load", load)
        monkeypatch.setattr(os, "listdir", listdir)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(database, "encode_profile", encode)
        monkeypatch.setattr(transport_module, "encode_profile", encode)


# -- (a) one handle: cost counts ---------------------------------------------


def test_one_handle_pays_per_delta_not_per_store(tmp_path, monkeypatch):
    root = str(tmp_path / "store")
    machines = ["m%02d" % index for index in range(5)]
    seeded = FleetStore(root, shards=2)
    for machine in machines:            # every shard has a manifest
        seeded.ingest(_delta(machine, 0))
    store = FleetStore(root)
    transport = DeltaTransport()
    deltas = [_delta(machine, epoch)
              for epoch in range(1, 11) for machine in machines]
    assert len(deltas) == 50
    shipments = deltas + deltas[::10]    # five duplicate deliveries

    calls = _Calls(monkeypatch)
    committed = set()                    # shards this handle committed to
    applied = 0
    for delta in shipments:
        shard = store.shard_for(delta.machine_id)
        fsyncs, listdirs = calls.fsyncs, len(calls.listdirs)
        for delivered in transport.ship(delta):
            was_applied = store.ingest(delivered)
        applied += was_applied
        # Durability not traded: the delta's profiles are one fsynced
        # segment, then the manifest; a duplicate commits its counter.
        assert calls.fsyncs - fsyncs == (2 if was_applied else 1)
        # The directory sweep belongs to the first commit only.
        if shard.index in committed:
            assert len(calls.listdirs) == listdirs
        else:
            assert len(calls.listdirs) > listdirs
        committed.add(shard.index)
    assert applied == 50

    # The manifest is parsed once per shard (the first locked section
    # distrusts what was loaded at open), not once per ingest.
    assert sorted(calls.manifest_loads) == sorted(
        os.path.join(shard.db.root, database.MANIFEST_NAME)
        for shard in store.shards)
    # One encode per profile stored, one per profile carried by
    # a delta object (its wire size) -- shipped, delivered, duplicated
    # and ingested without being sized again.
    carried = sum(_profiles_in(delta) for delta in deltas)
    assert calls.encodes == carried + carried
    assert _refreshes(store) == Counter(open=2, skip=len(shipments) - 2)
    assert store.stats()["duplicates_dropped"] == 5
    assert FleetStore(root).total_samples() == (
        sum(d.total_samples() for d in deltas)
        + sum(_delta(m, 0).total_samples() for m in machines))


# -- (b) two handles, one shard ----------------------------------------------


def test_alternating_handles_lose_nothing(tmp_path):
    """Each handle's view is invalidated by the other's every commit."""
    deltas = [_delta(machine, epoch) for epoch in range(6)
              for machine in ("m00", "m01")]
    serial = FleetStore(str(tmp_path / "serial"))
    for delta in deltas:
        serial.ingest(delta)

    root = str(tmp_path / "shared")
    handles = [FleetStore(root), FleetStore(root)]
    for index, delta in enumerate(deltas):
        assert handles[index % 2].ingest(delta) is True
    # A duplicate offered to the *other* handle is still recognized.
    assert handles[0].ingest(deltas[-1]) is False

    fresh = FleetStore(root)
    assert fresh.merged().encode_all() == serial.merged().encode_all()
    assert fresh.total_samples() == sum(d.total_samples() for d in deltas)
    assert len(fresh.ledger["applied"]) == len(deltas)
    for counts in map(_refreshes, handles):
        assert counts["open"] == 1
        assert counts["foreign_commit"] >= 5
        assert counts["skip"] == 0


def test_unlocked_commit_by_another_handle_invalidates(tmp_path):
    """A reader's quarantine commit goes through no lock, yet the
    writer must notice it: detection rides on ``_commit`` itself."""
    root = str(tmp_path / "store")
    writer = FleetStore(root)
    writer.ingest(_delta("m00", 0))
    writer.ingest(_delta("m00", 1))
    assert _refreshes(writer) == Counter(open=1, skip=1)

    reader = FleetStore(root)
    record = next(iter(
        reader.shards[0].db._load_manifest()["records"].values()))
    os.unlink(os.path.join(reader.shards[0].db.root, record["file"]))
    list(reader.load_all(record["epoch"]))       # quarantines + commits
    lost = reader.quarantined_samples()
    assert lost > 0

    writer.ingest(_delta("m00", 2))
    assert _refreshes(writer)["foreign_commit"] == 1
    # The writer republished the reader's quarantine, not its own
    # pre-quarantine view.
    assert FleetStore(root).quarantined_samples() == lost


def test_crash_between_sidecar_and_rename_only_costs_a_reload(tmp_path):
    root = str(tmp_path / "store")
    first = FleetStore(root)
    first.ingest(_delta("m00", 0))
    # Another writer dies after moving the sidecar, before the rename.
    second = FleetStore(root)
    second.shards[0].db._advance_mark(b"never published")
    assert first.ingest(_delta("m00", 1)) is True
    assert _refreshes(first)["foreign_commit"] == 1
    assert FleetStore(root).total_samples() == (
        _delta("m00", 0).total_samples() + _delta("m00", 1).total_samples())


# -- (c) a failed locked section drops the view ------------------------------


@pytest.mark.parametrize("point", ["db.checkpoint", "fleet.store.ingest"])
def test_failed_section_reloads_the_committed_ledger(tmp_path, point):
    """A commit that dies before the rename, and a writer crash after
    staging the ledger, both leave the handle's view untrusted."""
    root = str(tmp_path / "store")
    store = FleetStore(root)
    first, lost, after = (_delta("m00", epoch) for epoch in range(3))
    store.ingest(first)
    faults = FaultPlan(specs=(FaultSpec(point, "crash", hits=(1,)),),
                       seed=1).build()
    store.shards[0].db.faults = faults       # fires db.checkpoint
    with pytest.raises(InjectedCrash):
        store.ingest(lost, faults=faults)    # fires fleet.store.ingest
    # The next ingest starts from the last *committed* state: the
    # staged ledger entry of the failed delta is gone, on this handle
    # and on disk alike.
    assert store.ingest(after) is True
    # (The one skip is the failed section itself: its view was fine.)
    assert _refreshes(store) == Counter(open=1, failed_commit=1, skip=1)
    for view in (store, FleetStore(root)):
        assert sorted(view.ledger["applied"]) == [first.delta_id,
                                                  after.delta_id]
        assert view.ledger["samples_ingested"] == (
            first.total_samples() + after.total_samples())
    # ... and the failed delta is simply re-shipped, with no orphan of
    # its first attempt left behind.
    assert store.ingest(lost) is True
    db = store.shards[0].db
    on_disk = {os.path.join(os.path.basename(dirpath), name)
               for dirpath, _, names in os.walk(db.root)
               for name in names if name.endswith((".prof", ".tmp"))}
    assert on_disk == {record["file"] for record
                       in db._load_manifest()["records"].values()}
    assert FleetStore(root).total_samples() == sum(
        d.total_samples() for d in (first, lost, after))


def test_without_fcntl_every_section_reloads(tmp_path, monkeypatch):
    """No lock, no exclusion: keep reload-always."""
    monkeypatch.setattr(store_module, "fcntl", None)
    store = FleetStore(str(tmp_path / "store"))
    for epoch in range(3):
        assert store.ingest(_delta("m00", epoch)) is True
    assert _refreshes(store) == Counter(no_fcntl=3, skip=0)


# -- retention goes through the same entry point -----------------------------


def test_compaction_through_a_stale_handle_loses_nothing(tmp_path):
    """Regression: ``compact`` committed through ``shard.db`` without
    the lock or a refresh, so a handle opened before another writer's
    commit published its stale manifest + ledger and GC'd the other
    writer's files (2 194 of 2 570 samples left, nothing accounted)."""
    root = str(tmp_path / "store")
    stale = FleetStore(root)
    shipped = 0
    for epoch in range(8):
        delta = _delta("m00", epoch)
        shipped += delta.total_samples()
        stale.ingest(delta)
    late = _delta("m01", 3)
    shipped += late.total_samples()
    assert FleetStore(root).ingest(late) is True

    report = compact(stale, RetentionPolicy(2, 2, 1))
    assert report["residue"] == 0 and report["windows"]

    fresh = FleetStore(root)
    assert fresh.total_samples() == shipped
    assert len(fresh.ledger["applied"]) == 9
    assert late.delta_id in fresh.ledger["applied"]
    assert stale.total_samples() == shipped


# -- STORE.json is durable before it is visible ------------------------------


def test_store_layout_file_is_fsynced_before_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync")
        return real_fsync(fd)

    def replace(src, dst):
        events.append("rename " + os.path.basename(dst))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    FleetStore(str(tmp_path / "store"), shards=3)
    assert events == ["fsync", "rename STORE.json"]
    assert FleetStore(str(tmp_path / "store")).num_shards == 3
