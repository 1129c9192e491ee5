"""Tests for the device driver and the user-mode daemon."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from conftest import examples
from repro.alpha.assembler import assemble
from repro.collect.daemon import Daemon
from repro.collect.driver import (EDGE_PATH, EVENT_ORDINAL, EVICT_COST,
                                  HIT_COST, INSERT_COST, INTERRUPT_SETUP,
                                  JITTER_MASK, Driver)
from repro.collect.hashtable import SampleHashTable
from repro.collect.session import SessionConfig
from repro.cpu.events import EventType
from repro.ctx.context import NULL_CTX
from repro.faults.injector import FaultPlan, FaultSpec
from repro.obs import derive
from repro.osim.loader import Loader


def make_driver(num_cpus=1, faults=None, cost_scale=1.0, **overrides):
    """A driver with small tables that charges *cost_scale* of the
    handler cost (1.0 = the full cost, not the period-derived scale)."""
    settings = dict(buckets=16, assoc=4, overflow_capacity=8)
    settings.update(overrides)
    driver = Driver(num_cpus, SessionConfig(**settings), faults=faults)
    driver.cost_scale = cost_scale
    return driver


class TestDriverRecord:
    def test_cost_includes_setup(self):
        driver = make_driver()
        cost = driver.record(0, 1, 0x100, EventType.CYCLES, 0)
        assert cost >= INTERRUPT_SETUP

    def test_hit_cheaper_than_eviction(self):
        driver = make_driver(buckets=1)
        driver.record(0, 1, 0x100, EventType.CYCLES, 0)
        hit_cost = driver.record(0, 1, 0x100, EventType.CYCLES, 1)
        for i in range(4):
            driver.record(0, 10 + i, 0x100, EventType.CYCLES, 2 + i)
        evict_cost = driver.record(0, 99, 0x100, EventType.CYCLES, 10)
        assert evict_cost > hit_cost

    def test_charge_overhead_false_returns_zero(self):
        driver = make_driver(charge_overhead=False)
        assert driver.record(0, 1, 0x100, EventType.CYCLES, 0) == 0
        # ... but statistics still accumulate.
        assert derive(driver.metrics())["driver.samples"] == 1

    def test_cost_scaling(self):
        full = make_driver(cost_scale=1.0)
        scaled = make_driver(cost_scale=0.1)
        c_full = full.record(0, 1, 0x100, EventType.CYCLES, 0)
        c_scaled = scaled.record(0, 1, 0x100, EventType.CYCLES, 0)
        assert c_scaled <= c_full * 0.11 + 1

    def test_event_sample_accounting(self):
        driver = make_driver()
        driver.record(0, 1, 0x100, EventType.CYCLES, 0)
        driver.record(0, 1, 0x100, EventType.IMISS, 1)
        assert driver.event_samples[EventType.CYCLES] == 1
        assert driver.event_samples[EventType.IMISS] == 1

    def test_trace_logging(self):
        driver = make_driver(log_trace=True)
        driver.record(0, 7, 0x104, EventType.CYCLES, 0)
        assert driver.trace == [(0, 7, 0x104,
                                 EVENT_ORDINAL[EventType.CYCLES])]

    def test_overflow_buffer_fills_and_notifies(self):
        driver = make_driver(buckets=1, assoc=1, overflow_capacity=2)
        for i in range(10):
            driver.record(0, i, 0x100, EventType.CYCLES, i)
        # Nine evictions into two-entry buffers: four buffer swaps.
        assert driver.cpus[0].spills == 4

    def test_flush_returns_everything_once(self):
        driver = make_driver(buckets=1, assoc=2, overflow_capacity=4)
        for i in range(10):
            driver.record(0, i, 0x100, EventType.CYCLES, i)
        seq, entries = driver.begin_flush(0)
        driver.ack(0, seq)
        total = sum(count for _, count in entries)
        assert total + driver.cpus[0].dropped == 10
        assert driver.begin_flush(0)[1] == []

    def test_stats_shape(self):
        driver = make_driver()
        for i in range(5):
            driver.record(0, 1, 0x100 + 4 * i, EventType.CYCLES, i)
        stats = derive(driver.metrics())
        assert stats["driver.samples"] == 5
        assert 0.0 <= stats["driver.hash.miss_rate"] <= 1.0
        assert (stats["driver.avg_miss_cost"]
                >= stats["driver.avg_hit_cost"] >= 0)

    def test_kernel_memory_matches_paper_scale(self):
        # Paper section 5.3: 512 KB of kernel memory per processor with
        # 16K-entry tables and 8K-sample overflow buffers.
        driver = Driver(1, SessionConfig(buckets=4096, assoc=4,
                                         overflow_capacity=8192))
        assert driver.kernel_memory_bytes() == 512 * 1024


class TestTwoPhaseFlush:
    """Flush batches stay pinned in the driver until acknowledged."""

    def loaded_driver(self, samples=10, **overrides):
        driver = make_driver(buckets=1, assoc=2, overflow_capacity=4,
                             **overrides)
        for i in range(samples):
            driver.record(0, i, 0x100, EventType.CYCLES, i)
        return driver

    def test_begin_flush_pins_until_ack(self):
        driver = self.loaded_driver()
        seq, entries = driver.begin_flush(0)
        assert entries
        assert driver.recover_inflight(0) == [(seq, entries)]
        driver.ack(0, seq)
        assert driver.recover_inflight(0) == []

    def test_flush_seqs_increase(self):
        driver = self.loaded_driver()
        seq1, _ = driver.begin_flush(0)
        for i in range(10):
            driver.record(0, 50 + i, 0x200, EventType.CYCLES, i)
        seq2, _ = driver.begin_flush(0)
        assert seq2 > seq1

    def test_unacked_batches_survive_for_recovery(self):
        """A dead daemon's flushed-but-unacked samples are exactly
        recover_inflight's payload -- nothing needs re-sampling."""
        driver = self.loaded_driver()
        seq, entries = driver.begin_flush(0)
        flushed = sum(count for _, count in entries)
        recovered = driver.recover_inflight(0)
        assert sum(count for _, count in recovered[0][1]) == flushed

    def test_drop_pending_accounts_everything(self):
        driver = self.loaded_driver(samples=20)
        driver.begin_flush(0)           # pinned inflight, never acked
        for i in range(10):
            driver.record(0, 90 + i, 0x300, EventType.CYCLES, i)
        driver.drop_pending(0)
        state = driver.cpus[0]
        assert state.samples == 30
        assert state.dropped == 30      # every sample accounted
        assert driver.begin_flush(0)[1] == []
        assert driver.recover_inflight(0) == []

    def test_drop_all_pending_sums_cpus(self):
        driver = make_driver(num_cpus=2, buckets=1, assoc=2,
                             overflow_capacity=4)
        for cpu in (0, 1):
            for i in range(5):
                driver.record(cpu, i, 0x100, EventType.CYCLES, i)
        dropped = driver.drop_all_pending()
        assert dropped == 10
        assert sum(s.dropped for s in driver.cpus) == 10

    def test_injected_overflow_burst_is_accounted(self):
        plan = FaultPlan(specs=(
            FaultSpec("driver.overflow", "drop", hits=(1,)),), seed=1)
        driver = make_driver(buckets=1, assoc=1, overflow_capacity=2,
                             faults=plan.build())
        for i in range(12):
            driver.record(0, i, 0x100, EventType.CYCLES, i)
        state = driver.cpus[0]
        assert state.dropped > 0
        seq, entries = driver.begin_flush(0)
        driver.ack(0, seq)
        kept = sum(count for _, count in entries)
        assert kept + state.dropped == state.samples


#: One driver call: a sample (cpu, pid, pc index, event, context) or
#: a flush of one CPU (cpu, None, ...).
DRIVER_CALLS = st.lists(
    st.tuples(st.integers(0, 1), st.one_of(st.none(), st.integers(0, 3)),
              st.integers(0, 12), st.sampled_from(list(EventType)),
              st.sampled_from([NULL_CTX, "get", "put"])),
    min_size=1, max_size=150)


class TestDerivedCounts:
    """The driver keeps one book per count: samples, hits, misses, the
    per-event counts and the handler cost are read off the tables' hits
    and misses and the per-path cycles.  Each must equal a naive tally
    of the same stream, classified by a reference table fed every
    sample through ``SampleHashTable.record``."""

    @settings(max_examples=examples(150), deadline=None)
    @given(calls=DRIVER_CALLS, context=st.booleans(),
           double=st.booleans(),
           shape=st.sampled_from([(1, 1, 2), (2, 2, 3), (16, 4, 8)]))
    def test_derived_counts_equal_a_naive_tally(self, calls, context,
                                                double, shape):
        buckets, assoc, capacity = shape
        driver = make_driver(num_cpus=2, buckets=buckets, assoc=assoc,
                             overflow_capacity=capacity, context=context,
                             edge_sampling=double, edge_mode="double")
        reference = [SampleHashTable(buckets, assoc) for _ in range(2)]
        samples, hits, misses = Counter(), Counter(), Counter()
        events = Counter()
        cycles = 0
        for cpu, pid, pc_index, event, ctx in calls:
            table = reference[cpu]
            if pid is None:
                driver.begin_flush(cpu)
                table.flush()
                continue
            if context:
                driver.publish_ctx(cpu, pid, ctx)
            pc = 0x1000 + 4 * pc_index
            ctx_id = driver.cpus[cpu].ctx_reg if context else None
            before = (table.hits, table.evictions)
            table.record(pid, pc, EVENT_ORDINAL[event], ctx=ctx_id)
            jitter = ((pc >> 2) * 2654435761 >> 20) & JITTER_MASK
            if table.hits != before[0]:
                cost = HIT_COST + jitter
                hits[cpu] += 1
            else:
                cost = (INSERT_COST if table.evictions == before[1]
                        else EVICT_COST) + jitter
                misses[cpu] += 1
            if double and event is EventType.CYCLES:
                cost += EDGE_PATH
            # cost_scale 1.0 charges the whole cost, no carry.
            assert driver.record(cpu, pid, pc, event, 0) == cost
            samples[cpu] += 1
            events[event] += 1
            cycles += cost
        flat = derive(driver.metrics())
        assert flat["driver.samples"] == sum(samples.values())
        assert flat["driver.hash.hits"] == sum(hits.values())
        assert flat["driver.hash.misses"] == sum(misses.values())
        assert flat["driver.handler_cycles"] == cycles
        for cpu in (0, 1):
            assert flat["driver.cpu%d.samples" % cpu] == samples[cpu]
            assert driver.cpus[cpu].samples == samples[cpu]
            assert (driver.cpus[cpu].table.evictions
                    == reference[cpu].evictions)
        assert driver.event_samples == dict(events)


class TestLossAccountingPinned:
    """Exact spill and drop numbers of one skewed stream through a
    four-entry table and four-entry overflow buffers: what a change to
    the table or to the handler's branch order must leave alone."""

    def loaded_driver(self):
        driver = make_driver(buckets=2, assoc=2, overflow_capacity=4)
        for i in range(60):
            if i % 3:       # two in three samples hit one hot key
                driver.record(0, 1, 0x100, EventType.CYCLES, i)
            else:
                driver.record(0, i % 11, 0x100 + 4 * (i % 5),
                              EventType.CYCLES, i)
        return driver

    def test_spills_with_no_drain(self):
        driver = self.loaded_driver()
        state = driver.cpus[0]
        assert (state.table.hits, state.table.misses) == (35, 25)
        assert state.table.evictions == 21
        assert state.spills == 5
        assert state.dropped == 29      # three full buffers shed
        assert state.handler_cycles == 28128
        assert [len(buf) for buf in state.full] == [4, 4]
        seq, entries = driver.begin_flush(0)
        # Oldest full buffer first, then the active one, then the table
        # in bucket then slot order.
        assert entries == [
            ((1, 256, 0), 4), ((8, 256, 0), 1), ((3, 260, 0), 1),
            ((0, 268, 0), 1), ((5, 264, 0), 1), ((1, 256, 0), 11),
            ((6, 272, 0), 1), ((7, 260, 0), 1), ((4, 268, 0), 1),
            ((2, 264, 0), 1), ((9, 264, 0), 1), ((1, 256, 0), 6),
            ((10, 272, 0), 1)]
        assert sum(count for _, count in entries) + state.dropped == 60

    def test_drop_pending_after_a_pinned_flush(self):
        driver = self.loaded_driver()
        driver.begin_flush(0)           # 31 samples pinned, never acked
        for i in range(9):
            driver.record(0, 50 + i, 0x200, EventType.CYCLES, i)
        assert driver.drop_pending(0) == 40
        state = driver.cpus[0]
        assert state.samples == state.dropped == 69
        assert driver.begin_flush(0)[1] == []
        assert driver.recover_inflight(0) == []


class TestDaemon:
    def make_env(self):
        loader = Loader()
        daemon = Daemon(loader, periods={EventType.CYCLES: 100.0})
        image = loader.link(assemble(
            ".image app\n.proc main\n    nop\n    ret\n.end"))
        loader.notify_exec(7, [image])
        return loader, daemon, image

    def test_samples_mapped_to_image(self):
        loader, daemon, image = self.make_env()
        driver = make_driver()
        driver.record(0, 7, image.base + 4, EventType.CYCLES, 0)
        daemon.drain(driver)
        profile = daemon.profiles["app"]
        assert profile.counts[EventType.CYCLES][4] == 1

    def test_unknown_pc_counted(self):
        loader, daemon, image = self.make_env()
        driver = make_driver()
        driver.record(0, 7, 0xDEAD0000, EventType.CYCLES, 0)
        daemon.drain(driver)
        assert daemon.unknown_samples == 1
        assert "app" not in daemon.profiles

    def test_fallback_to_global_map_for_unknown_pid(self):
        loader, daemon, image = self.make_env()
        driver = make_driver()
        driver.record(0, 999, image.base, EventType.CYCLES, 0)
        daemon.drain(driver)
        assert daemon.profiles["app"].total(EventType.CYCLES) == 1

    def test_reap_forgets_mappings(self):
        loader, daemon, image = self.make_env()
        daemon.reap(7)
        assert 7 not in daemon._maps

    def test_aggregated_counts_preserved(self):
        loader, daemon, image = self.make_env()
        driver = make_driver()
        for _ in range(17):
            driver.record(0, 7, image.base, EventType.CYCLES, 0)
        daemon.drain(driver)
        assert daemon.profiles["app"].total(EventType.CYCLES) == 17
        assert daemon.total_samples == 17
        assert daemon.entries_processed < 17  # aggregation worked

    def test_cost_per_sample_decreases_with_aggregation(self):
        loader, daemon, image = self.make_env()
        driver = make_driver()
        for _ in range(100):
            driver.record(0, 7, image.base, EventType.CYCLES, 0)
        daemon.drain(driver)
        aggregated_cost = derive(
            daemon.metrics())["daemon.cost_per_sample"]

        loader2 = Loader()
        daemon2 = Daemon(loader2, periods={EventType.CYCLES: 100.0})
        image2 = loader2.link(assemble(
            ".image app2\n.proc main\n" + "    nop\n" * 120 + "    ret\n.end"))
        loader2.notify_exec(8, [image2])
        driver2 = make_driver(buckets=4, assoc=1)
        for i in range(100):
            driver2.record(0, 8, image2.base + (i % 100) * 4,
                           EventType.CYCLES, i)
        daemon2.drain(driver2)
        spread_cost = derive(daemon2.metrics())["daemon.cost_per_sample"]
        assert spread_cost > aggregated_cost

    def test_resident_memory_grows_with_profiles(self):
        loader, daemon, image = self.make_env()
        before = daemon.resident_bytes()
        driver = make_driver()
        for i in range(50):
            driver.record(0, 7, image.base + 4 * (i % 2),
                          EventType.CYCLES, i)
        daemon.drain(driver)
        assert daemon.resident_bytes() > before
        assert daemon.peak_resident_bytes() >= daemon.resident_bytes()

    def test_merge_to_disk(self, tmp_path):
        from repro.collect.database import ProfileDatabase

        loader, daemon, image = self.make_env()
        driver = make_driver()
        driver.record(0, 7, image.base, EventType.CYCLES, 0)
        daemon.drain(driver)
        db = ProfileDatabase(str(tmp_path / "db"))
        daemon.merge_to_disk(db)
        counts, period = db.load("app", EventType.CYCLES)
        assert counts == {0: 1}
        assert period == 100


class TestDaemonLossAccounting:
    """Satellite 1: driver drops surface on the daemon and in obs."""

    def make_env(self):
        loader = Loader()
        daemon = Daemon(loader, periods={EventType.CYCLES: 100.0})
        image = loader.link(assemble(
            ".image app\n.proc main\n    nop\n    ret\n.end"))
        loader.notify_exec(7, [image])
        return loader, daemon, image

    def test_driver_drops_reach_daemon_stats(self):
        loader, daemon, image = self.make_env()
        driver = make_driver(buckets=1, assoc=1, overflow_capacity=2)
        for i in range(40):
            driver.record(0, i, image.base, EventType.CYCLES, i)
        driver.drop_pending(0)
        daemon.drain(driver)
        # The driver's per-CPU count is the one book for drops: what
        # the daemon drained plus what the driver shed is every sample.
        dropped = sum(s.dropped for s in driver.cpus)
        assert dropped > 0
        assert daemon.total_samples + dropped == 40

    def test_per_cpu_dropped_in_driver_metrics(self):
        driver = make_driver(num_cpus=2, buckets=1, assoc=1,
                             overflow_capacity=2)
        for i in range(20):
            driver.record(1, i, 0x100, EventType.CYCLES, i)
        driver.drop_pending(1)
        flat = driver.metrics()
        assert flat["driver.cpu1.overflow.dropped"]["value"] > 0
        assert flat["driver.cpu0.overflow.dropped"]["value"] == 0
        assert (flat["driver.overflow.dropped"]["value"]
                == driver.cpus[1].dropped)

    def test_retry_backoff_charges_cycles(self):
        loader, daemon, image = self.make_env()
        daemon.faults = FaultPlan(specs=(
            FaultSpec("daemon.drain.flush", "transient", hits=(1,)),),
            seed=1).build()
        driver = make_driver()
        driver.record(0, 7, image.base, EventType.CYCLES, 0)
        before = daemon.cycles
        daemon.drain(driver)
        assert daemon.drain_retries == 1
        assert daemon.cycles - before >= 10_000   # backoff charged
        assert daemon.total_samples == 1          # nothing lost

    def test_exhausted_retries_shed_backlog(self):
        loader, daemon, image = self.make_env()
        daemon.faults = FaultPlan(specs=(
            FaultSpec("daemon.drain.flush", "transient",
                      after=1, limit=4),), seed=1).build()
        driver = make_driver()
        for i in range(6):
            driver.record(0, 7, image.base, EventType.CYCLES, i)
        daemon.drain(driver)
        assert daemon.drain_failures == 1
        assert daemon.total_samples == 0
        assert driver.cpus[0].dropped == 6        # accounted, not silent

    def test_journal_replay_with_watermark_is_idempotent(self, tmp_path):
        """Batches at or below the recovered watermark replay from the
        journal only; the re-drain acks them without re-merging."""
        from repro.collect.database import ProfileDatabase
        from repro.collect.journal import DrainJournal

        loader, daemon, image = self.make_env()
        db = ProfileDatabase(str(tmp_path / "db"))
        journal = DrainJournal(db.journal_path())
        daemon.journal = journal
        driver = make_driver()
        for i in range(8):
            driver.record(0, 7, image.base + 4 * (i % 2),
                          EventType.CYCLES, i)
        # Journal + merge, but never ack (daemon dies before the ack).
        seq, entries = driver.begin_flush(0)
        journal.append(0, seq, entries)
        daemon._process(entries)
        daemon._drained_seq[0] = seq

        recovered = Daemon.recover(loader, db, journal=journal,
                                   periods={EventType.CYCLES: 100.0})
        # Journal replay: watermark in db meta is absent, so replay
        # delivers the batch exactly once...
        assert recovered.total_samples == 8
        recovered._drained_seq[0] = seq
        # ... and the re-drain sees the pinned batch already merged.
        recovered.redrain_inflight(driver)
        assert recovered.total_samples == 8
        assert driver.recover_inflight(0) == []
