"""The request-context dimension (repro.ctx).

The two load-bearing guarantees:

* disabled (the default) is *zero-cost and byte-identical*: a session
  with ``context=False`` produces a database byte-for-byte equal to
  one whose workload never heard of contexts;
* enabled, attribution is exact and durable: every sample lands in
  its request class, the ledger commits atomically with the samples,
  survives crash recovery, and merges order-independently.
"""

import hashlib
import json
import os

import pytest

from repro.collect.hashtable import SampleHashTable
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.ctx import (NULL_CTX, OTHER_CLASS, OTHER_ID, ContextLedger,
                       ContextTable, canonical_ledger_bytes,
                       merge_ledger_meta, span_id)
from repro.faults.injector import FaultPlan, FaultSpec
from repro.workloads.asmgen import caller_proc, loop_proc

BUDGET = 30_000


def _server_image():
    from repro.alpha.assembler import assemble

    text = ".image srv\n.data heap, 65536\n"
    text += loop_proc("fast_path", 40, "int")
    text += loop_proc("slow_path", 40, "mem", buf="heap", wrap=1024,
                      stride=32)
    text += caller_proc("serve", ["fast_path", "slow_path"], rounds=3)
    return assemble(text, image_name="srv")


def _workload(ctx_labels=True):
    """Two request classes plus one unlabeled background process."""

    def setup(machine):
        image = machine.load_image(_server_image())
        for index in range(2):
            machine.spawn(image, entry="srv:serve",
                          name="api.%d" % index,
                          **({"ctx": "req.api"} if ctx_labels else {}))
        machine.spawn(image, entry="srv:serve", name="batch.0",
                      **({"ctx": "req.batch"} if ctx_labels else {}))
        machine.spawn(image, entry="srv:serve", name="bg.0")

    return setup


def _session(tmp_path=None, context=True, **overrides):
    config = SessionConfig(context=context, seed=5,
                           db_root=(str(tmp_path) if tmp_path else None),
                           **overrides)
    return ProfileSession(MachineConfig(num_cpus=2), config)


def _tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


# -- the context table (fixed slots, paper-style accounting) ---------------


class TestContextTable:
    def test_intern_issues_monotonic_ids(self):
        table = ContextTable(slots=4)
        a = table.intern("req.a")
        b = table.intern("req.b")
        assert a == OTHER_ID + 1
        assert b == a + 1
        assert table.intern("req.a") == a  # hit
        assert table.hits == 1
        assert table.interns == 2

    def test_id_zero_is_reserved_for_other(self):
        table = ContextTable(slots=4)
        assert table.names[OTHER_ID] == OTHER_CLASS
        assert table.intern("req.a") != OTHER_ID

    def test_eviction_accounts_and_never_reuses_ids(self):
        table = ContextTable(slots=2)
        issued = {table.intern("req.%d" % n) for n in range(5)}
        assert len(issued) == 5  # ids are never reused
        assert table.evictions == 3
        assert table.resident == 2
        # A re-interned evicted class gets a *fresh* id: thrash costs
        # ids and accounted evictions, never aliased attribution.
        again = table.intern("req.0")
        assert again not in issued

    def test_names_remember_evicted_classes(self):
        table = ContextTable(slots=1)
        a = table.intern("req.a")
        b = table.intern("req.b")
        assert table.names[a] == "req.a"
        assert table.names[b] == "req.b"

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            ContextTable(slots=0)

    def test_stats_shape(self):
        table = ContextTable(slots=8)
        table.intern("x")
        stats = table.stats()
        assert stats["slots"] == 8
        assert stats["resident"] == 1
        assert stats["interns"] == 1


def test_span_id_is_a_pure_function_of_the_name():
    assert span_id("req.api") == span_id("req.api")
    assert span_id("req.api") != span_id("req.batch")
    assert len(span_id("anything")) == 8
    int(span_id("anything"), 16)  # hex


# -- the hash table's context key --------------------------------------------


class TestHashtableCtxKey:
    def test_default_keys_stay_three_tuples(self):
        table = SampleHashTable(buckets=4096, assoc=4)
        table.record(1, 0x1000, 0)
        assert dict(table.flush()) == {(1, 0x1000, 0): 1}

    def test_ctx_widens_the_key(self):
        table = SampleHashTable(buckets=4096, assoc=4)
        table.record(1, 0x1000, 0, ctx=3)
        assert dict(table.flush()) == {(1, 0x1000, 0, 3): 1}

    def test_distinct_contexts_do_not_merge(self):
        table = SampleHashTable(buckets=4096, assoc=4)
        for ctx in (1, 2, 1):
            table.record(7, 0x2000, 0, ctx=ctx)
        counts = dict(table.flush())
        assert counts[(7, 0x2000, 0, 1)] == 2
        assert counts[(7, 0x2000, 0, 2)] == 1


# -- end-to-end attribution ---------------------------------------------------


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        return _session().run(_workload(), max_instructions=BUDGET)

    def test_samples_attribute_to_classes(self, result):
        ledger = result.ctx_ledger
        assert set(ledger.classes) >= {"req.api", "req.batch"}
        assert all(sum(by_event.values()) > 0
                   for by_event in ledger.classes.values())

    def test_unlabeled_process_lands_in_other(self, result):
        ledger = result.ctx_ledger
        assert OTHER_CLASS in ledger.classes
        # <other> is the reserved id, not an unknown one.
        assert ledger.other_samples == 0

    def test_requests_fold_with_os_accounting(self, result):
        ledger = result.ctx_ledger
        api = ledger.requests["req.api"]
        assert len(api) == 2
        for entry in api.values():
            assert entry["cycles"] > 0
            assert entry["instructions"] > 0
        assert len(ledger.requests["req.batch"]) == 1
        assert len(ledger.requests[OTHER_CLASS]) == 1

    def test_culprits_name_real_procedures(self, result):
        culprits = result.ctx_ledger.culprits
        procedures = {proc for by_proc in culprits.values()
                      for proc in by_proc}
        assert any(proc.startswith("srv:") for proc in procedures)

    def test_driver_table_snapshot_is_absorbed(self, result):
        ledger = result.ctx_ledger
        assert ledger.table_slots == 64
        assert ledger.table_interns == 2
        assert ledger.ids["1"] in ("req.api", "req.batch")

    def test_attribution_is_deterministic(self):
        first = _session().run(_workload(), max_instructions=BUDGET)
        second = _session().run(_workload(), max_instructions=BUDGET)
        assert canonical_ledger_bytes(
            first.ctx_ledger) == canonical_ledger_bytes(
                second.ctx_ledger)

    def test_ctx_off_has_no_ledger(self):
        result = _session(context=False).run(_workload(),
                                             max_instructions=BUDGET)
        assert result.ctx_ledger is None


# -- persistence: atomic commit, recovery, epochs ----------------------------


class TestPersistence:
    def test_ledger_commits_with_the_manifest(self, tmp_path):
        result = _session(tmp_path / "db").run(_workload(),
                                               max_instructions=BUDGET)
        manifest = json.load(open(tmp_path / "db" / "MANIFEST.json"))
        blob = manifest["ctx"]
        assert blob["schema"] == 1
        meta = blob["epochs"]["0000"]
        assert meta == result.ctx_ledger.to_meta()

    def test_ctx_off_manifest_has_no_ctx_key(self, tmp_path):
        _session(tmp_path / "db", context=False).run(
            _workload(), max_instructions=BUDGET)
        manifest = json.load(open(tmp_path / "db" / "MANIFEST.json"))
        assert "ctx" not in manifest

    def test_from_meta_round_trips(self, tmp_path):
        result = _session(tmp_path / "db").run(_workload(),
                                               max_instructions=BUDGET)
        meta = result.ctx_ledger.to_meta()
        assert ContextLedger.from_meta(meta).to_meta() == meta

    def test_from_meta_rejects_newer_schema(self):
        with pytest.raises(ValueError):
            ContextLedger.from_meta({"schema": 99})

    def test_crash_recovery_preserves_attribution(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec("daemon.drain.merge", "crash", hits=(2,)),),
            seed=1)
        faulted = _session(tmp_path / "crash", faults=plan,
                           checkpoint_drains=1).run(
            _workload(), max_instructions=BUDGET)
        clean = _session(tmp_path / "clean", checkpoint_drains=1).run(
            _workload(), max_instructions=BUDGET)
        assert faulted.daemon.recoveries >= 1
        assert canonical_ledger_bytes(
            faulted.ctx_ledger) == canonical_ledger_bytes(
                clean.ctx_ledger)

    def test_epoch_advance_closes_the_ledger(self, tmp_path):
        session = _session(tmp_path / "db")
        result = session.run(_workload(), max_instructions=BUDGET)
        daemon, database = result.daemon, result.database
        closed = daemon.ctx.to_meta()
        daemon.advance_epoch()
        assert daemon.ctx.to_meta() == ContextLedger().to_meta()
        daemon.merge_to_disk(database)
        blob = database.get_meta("ctx")
        assert blob["epochs"]["0000"] == closed
        assert "0001" in blob["epochs"]


# -- disabled-path byte identity ---------------------------------------------


class TestDisabledByteIdentity:
    def test_ctx_labels_cost_nothing_when_disabled(self, tmp_path):
        """ctx= spawn labels with context=False leave the database
        byte-identical to a run whose workload has no labels at all
        (the pre-context pipeline, dcpiab-style)."""
        _session(tmp_path / "labeled", context=False).run(
            _workload(ctx_labels=True), max_instructions=BUDGET)
        _session(tmp_path / "plain", context=False).run(
            _workload(ctx_labels=False), max_instructions=BUDGET)
        assert _tree_digest(tmp_path / "labeled") == _tree_digest(
            tmp_path / "plain")

    def test_enabled_run_does_not_perturb_the_machine(self, tmp_path):
        """The context dimension observes; it must never change the
        simulated machine's instruction stream or cycle count."""
        on = _session(tmp_path / "on", context=True).run(
            _workload(), max_instructions=BUDGET)
        off = _session(tmp_path / "off", context=False).run(
            _workload(), max_instructions=BUDGET)
        assert on.cycles == off.cycles
        assert on.instructions == off.instructions


# -- ledger merge algebra -----------------------------------------------------


class TestLedgerMerge:
    def _meta(self, name, samples, key="1:100", cycles=10):
        ledger = ContextLedger()
        ledger.bind(1, name)
        ledger.add_sample(1, EventType.CYCLES, samples)
        ledger.add_request(name, key, cycles, cycles * 2)
        return ledger.to_meta()

    def test_counts_sum_and_requests_union(self):
        merged = merge_ledger_meta([self._meta("a", 3, key="1:100"),
                                    self._meta("a", 4, key="2:100")])
        assert merged["classes"]["a"][str(EventType.CYCLES.value)] == 7
        assert len(merged["requests"]["a"]) == 2

    def test_duplicate_shard_is_idempotent_on_requests(self):
        meta = self._meta("a", 3)
        merged = merge_ledger_meta([meta, meta])
        assert len(merged["requests"]["a"]) == 1
        assert merged["requests"]["a"]["1:100"]["cycles"] == 10

    def test_merge_drops_per_run_ids(self):
        meta = self._meta("a", 3)
        merged = merge_ledger_meta([meta])
        assert merged["ids"] == {str(OTHER_ID): OTHER_CLASS}

    def test_unknown_id_samples_land_in_other(self):
        ledger = ContextLedger()
        assert ledger.add_sample(42, EventType.CYCLES, 5) == OTHER_CLASS
        assert ledger.other_samples == 5


# -- ctx-slot thrash: attribution survives a tiny table ----------------------


def test_slot_thrash_accounts_evictions_without_aliasing():
    result = _session(ctx_slots=1).run(_workload(),
                                       max_instructions=BUDGET)
    ledger = result.ctx_ledger
    assert ledger.table_slots == 1
    assert ledger.table_evictions >= 1
    # Every sample still lands in a *named* class -- evicted classes
    # re-intern under fresh ids, they are never aliased.
    assert ledger.other_samples == 0
    assert set(ledger.classes) >= {"req.api", "req.batch"}


def test_null_ctx_publish_keeps_the_other_register():
    result = _session().run(_workload(), max_instructions=BUDGET)
    table = result.driver.ctx_table
    # Only the two labeled classes were interned; NULL_CTX processes
    # ride the reserved register, guarded by the lint-enforced
    # 'is not NULL_CTX' pattern.
    assert table.interns == 2
    assert not NULL_CTX  # falsy sentinel, compared with 'is'
