"""Tests for the driver's sample-aggregation hash table."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from repro.collect.hashtable import (HASH_FUNCTIONS, MOD_COUNTER,
                                     POLICIES, SWAP_TO_FRONT,
                                     SampleHashTable)


def fill_bucket(table, pid_base=0):
    """Insert enough distinct keys with one hash bucket to fill it."""
    # With one bucket (buckets=1) everything collides.
    for i in range(table.assoc):
        table.record(pid_base + i, 0x1000, 0)


class TestAggregation:
    def test_hit_increments_count(self):
        table = SampleHashTable(buckets=16, assoc=4)
        table.record(1, 0x100, 0)
        table.record(1, 0x100, 0)
        entries = table.flush()
        assert entries == [((1, 0x100, 0), 2)]

    def test_distinct_keys_do_not_merge(self):
        table = SampleHashTable(buckets=16, assoc=4)
        table.record(1, 0x100, 0)
        table.record(2, 0x100, 0)  # different PID
        table.record(1, 0x100, 1)  # different event
        assert len(table.flush()) == 3

    def test_flush_clears(self):
        table = SampleHashTable(buckets=16, assoc=4)
        table.record(1, 0x100, 0)
        table.flush()
        assert table.flush() == []

    def test_eviction_returns_victim(self):
        table = SampleHashTable(buckets=1, assoc=4)
        fill_bucket(table)
        victim = table.record(99, 0x1000, 0)
        assert victim is not None
        key, count = victim
        assert count == 1

    def test_mod_counter_rotates_victims(self):
        table = SampleHashTable(buckets=1, assoc=4, policy=MOD_COUNTER)
        fill_bucket(table)
        victims = [table.record(100 + i, 0x1000, 0)[0] for i in range(4)]
        slots = {v[0] for v in victims}
        assert len(slots) == 4  # four distinct victims

    def test_swap_to_front_protects_hot_entry(self):
        table = SampleHashTable(buckets=1, assoc=2, policy=SWAP_TO_FRONT)
        table.record(1, 0x100, 0)
        table.record(2, 0x100, 0)
        table.record(1, 0x100, 0)  # hot key moves to front
        victim = table.record(3, 0x100, 0)
        assert victim[0][0] == 2  # the cold key was evicted

    def test_miss_rate(self):
        table = SampleHashTable(buckets=16, assoc=4)
        table.record(1, 0x100, 0)
        table.record(1, 0x100, 0)
        assert table.miss_rate == pytest.approx(0.5)

    def test_aggregation_factor(self):
        table = SampleHashTable(buckets=16, assoc=4)
        for _ in range(20):
            table.record(1, 0x100, 0)
        assert table.aggregation_factor == pytest.approx(20.0)

    def test_last_was_hit_flag(self):
        table = SampleHashTable(buckets=16, assoc=4)
        table.record(1, 0x100, 0)
        assert table.last_was_hit is False
        table.record(1, 0x100, 0)
        assert table.last_was_hit is True

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SampleHashTable(buckets=3, assoc=4)
        with pytest.raises(ValueError):
            SampleHashTable(buckets=16, assoc=4, policy="random")


class TestConservation:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 40)),
                    min_size=1, max_size=300))
    def test_no_sample_lost(self, stream):
        """Property: every recorded sample is either resident in the
        table or was returned in an eviction."""
        table = SampleHashTable(buckets=4, assoc=2)
        evicted_total = 0
        for pid, pc_index in stream:
            victim = table.record(pid, 0x1000 + pc_index * 4, 0)
            if victim is not None:
                evicted_total += victim[1]
        resident = sum(count for _, count in table.flush())
        assert evicted_total + resident == len(stream)

    @given(st.integers(1, 4), st.sampled_from([MOD_COUNTER, SWAP_TO_FRONT]))
    def test_policies_never_exceed_capacity(self, assoc, policy):
        table = SampleHashTable(buckets=2, assoc=assoc, policy=policy)
        for i in range(100):
            table.record(i, 0x100, 0)
        resident = len(table.flush())
        assert resident <= 2 * assoc


class ScanTable:
    """The table as the paper describes it and nothing else: every
    sample hashes and scans its bucket, every flush walks the whole
    array.  The reference :class:`SampleHashTable` must agree with,
    call for call."""

    def __init__(self, buckets, assoc, policy, hash_name="multiplicative"):
        self.assoc = assoc
        self.policy = policy
        self._hash = HASH_FUNCTIONS[hash_name]
        self._mask = buckets - 1
        self._buckets = [[] for _ in range(buckets)]
        self._mod_counter = 0
        self.hits = self.misses = self.evictions = 0
        self.last_was_hit = False

    def record(self, pid, pc, event_ord, count=1, ctx=None):
        if ctx is None:
            index = self._hash(pid, pc, event_ord, self._mask)
            key = (pid, pc, event_ord)
        else:
            index = self._hash(pid ^ (ctx << 21), pc, event_ord,
                               self._mask)
            key = (pid, pc, event_ord, ctx)
        bucket = self._buckets[index]
        for slot, entry in enumerate(bucket):
            if entry[0] == key:
                entry[1] += count
                self.hits += 1
                self.last_was_hit = True
                if self.policy == SWAP_TO_FRONT and slot != 0:
                    bucket.insert(0, bucket.pop(slot))
                return None
        self.misses += 1
        self.last_was_hit = False
        if len(bucket) < self.assoc:
            if self.policy == MOD_COUNTER:
                bucket.append([key, count])
            else:
                bucket.insert(0, [key, count])
            return None
        self.evictions += 1
        if self.policy == MOD_COUNTER:
            victim_slot = self._mod_counter % self.assoc
            self._mod_counter += 1
            victim = bucket[victim_slot]
            bucket[victim_slot] = [key, count]
        else:
            victim = bucket.pop()
            bucket.insert(0, [key, count])
        return (victim[0], victim[1])

    def flush(self):
        entries = []
        for bucket in self._buckets:
            for key, count in bucket:
                entries.append((key, count))
            bucket.clear()
        return entries


def assert_index_in_step(table):
    """The resident index holds exactly the buckets' own entries."""
    resident = [entry for bucket in table._buckets for entry in bucket]
    assert len(table._index) == len(resident)
    for entry in resident:
        assert table._index[entry[0]] is entry
    assert sorted(table._used) == [
        index for index, bucket in enumerate(table._buckets) if bucket]


#: One table call: a sample (pid, pc index, event ordinal, count,
#: context id) or None for a flush.
CALLS = st.lists(
    st.one_of(st.none(),
              st.tuples(st.integers(0, 3), st.integers(0, 24),
                        st.integers(0, 2), st.integers(1, 3),
                        st.integers(0, 2))),
    min_size=1, max_size=200)


class TestAgainstScanTable:
    @settings(max_examples=examples(300), deadline=None)
    @given(calls=CALLS, policy=st.sampled_from(POLICIES),
           with_ctx=st.booleans(), assoc=st.sampled_from([1, 2, 4, 6]),
           buckets=st.sampled_from([1, 2, 4, 8, 16]),
           hash_name=st.sampled_from(sorted(HASH_FUNCTIONS)))
    def test_every_call_agrees(self, calls, policy, with_ctx, assoc,
                               buckets, hash_name):
        table = SampleHashTable(buckets, assoc, policy, hash_name)
        reference = ScanTable(buckets, assoc, policy, hash_name)
        for call in calls:
            if call is None:
                assert table.flush() == reference.flush()  # order too
                assert not table._index
            else:
                pid, pc_index, event_ord, count, ctx = call
                args = (pid, 0x1000 + 4 * pc_index, event_ord, count,
                        ctx if with_ctx else None)
                evicted = table.record(*args)
                assert evicted == reference.record(*args)
                if evicted is not None:
                    assert evicted[0] not in table._index
            assert ((table.hits, table.misses, table.evictions,
                     table.last_was_hit)
                    == (reference.hits, reference.misses,
                        reference.evictions, reference.last_was_hit))
            assert_index_in_step(table)
        assert table.flush() == reference.flush()


class UnwalkableBuckets(list):
    """A bucket array that counts lookups and refuses to be walked."""

    lookups = 0

    def __iter__(self):
        raise AssertionError("flush walked the whole bucket array")

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


class TestFlushCost:
    KEYS = [(pid, 0x4000 + 4 * pc_index, 0)
            for pid in range(3) for pc_index in range(20)]

    def loaded(self, cls):
        table = cls(65536, 4, MOD_COUNTER)
        for key in self.KEYS:
            table.record(*key)
        table._buckets = UnwalkableBuckets(table._buckets)
        return table

    def test_flush_touches_only_used_buckets(self):
        table = self.loaded(SampleHashTable)
        entries = table.flush()
        assert table._buckets.lookups <= len(self.KEYS)
        assert sorted(key for key, _ in entries) == sorted(self.KEYS)
        positions = [table._hash(*key, table._mask) for key, _ in entries]
        assert positions == sorted(positions)   # bucket-index order
        assert table.flush() == []
        assert table._buckets.lookups <= len(self.KEYS)

    def test_a_walk_of_the_array_is_caught(self):
        """Red path: the whole-array loop trips the same harness."""
        with pytest.raises(AssertionError, match="walked"):
            self.loaded(ScanTable).flush()
