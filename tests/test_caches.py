"""Tests for the cache models."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu.caches import Cache, Hierarchy
from repro.cpu.config import CacheConfig


def make_cache(size=1024, line=32, assoc=1, latency=2):
    return Cache(CacheConfig(size, line, assoc, latency))


class TestDirectMapped:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0x100) is False
        assert cache.lookup(0x100) is True

    def test_same_line_hits(self):
        cache = make_cache(line=32)
        cache.lookup(0x100)
        assert cache.lookup(0x11F) is True  # same 32-byte line

    def test_adjacent_line_misses(self):
        cache = make_cache(line=32)
        cache.lookup(0x100)
        assert cache.lookup(0x120) is False

    def test_conflict_eviction(self):
        cache = make_cache(size=1024, line=32)  # 32 sets
        cache.lookup(0x0)
        cache.lookup(0x0 + 1024)  # same set, different tag
        assert cache.lookup(0x0) is False

    def test_no_allocate_leaves_cache_unchanged(self):
        cache = make_cache()
        cache.lookup(0x40, allocate=False)
        assert cache.contains(0x40) is False

    def test_flush(self):
        cache = make_cache()
        sets = cache.sets
        cache.lookup(0x100)
        cache.flush()
        assert cache.contains(0x100) is False
        # Cleared in place: Core.run binds ``sets`` once per run.
        assert cache.sets is sets
        assert sets == [None] * cache.num_sets

    def test_stats(self):
        cache = make_cache()
        cache.lookup(0)
        cache.lookup(0)
        cache.lookup(4096)
        assert cache.hits == 1
        assert cache.misses == 2

    def test_bad_line_size_rejected(self):
        with pytest.raises(ValueError):
            make_cache(line=48)


class TestSetAssociative:
    def test_ways_avoid_conflict(self):
        cache = make_cache(size=2048, line=32, assoc=2)  # 32 sets
        span = 32 * 32
        cache.lookup(0)
        cache.lookup(span)
        assert cache.lookup(0) is True
        assert cache.lookup(span) is True

    def test_lru_eviction_order(self):
        cache = make_cache(size=2048, line=32, assoc=2)
        span = 32 * 32
        cache.lookup(0)          # A
        cache.lookup(span)       # B
        cache.lookup(0)          # touch A -> B is LRU
        cache.lookup(2 * span)   # evicts B
        assert cache.contains(0) is True
        assert cache.contains(span) is False

    def test_three_way_modulo_indexing(self):
        # 96KB 3-way with 64B lines: 512 sets (power of two here, but
        # exercise the modulo path with a non-power-of-two set count).
        cache = Cache(CacheConfig(96 * 1024, 64, 4, 8))
        assert cache.num_sets == 384
        for addr in range(0, 96 * 1024, 64):
            cache.lookup(addr)
        hits = sum(cache.lookup(addr)
                   for addr in range(0, 96 * 1024, 64))
        assert hits == 96 * 1024 // 64  # everything fits

    def test_flush_keeps_the_set_lists(self):
        cache = make_cache(size=2048, line=32, assoc=2)
        sets = cache.sets
        cache.lookup(0)
        cache.flush()
        assert cache.sets is sets
        assert cache.contains(0) is False


class TestHierarchy:
    def make(self):
        l1 = make_cache(size=256, line=32, assoc=1, latency=2)
        l2 = make_cache(size=1024, line=32, assoc=2, latency=8)
        board = make_cache(size=4096, line=32, assoc=1, latency=20)
        return Hierarchy(l1, l2, board, memory_latency=60)

    def test_full_miss_latency(self):
        h = self.make()
        latency, missed = h.access(0x100)
        assert missed is True
        assert latency == 2 + 8 + 20 + 60

    def test_l1_hit_latency(self):
        h = self.make()
        h.access(0x100)
        latency, missed = h.access(0x100)
        assert missed is False
        assert latency == 2

    def test_l2_hit_after_l1_conflict(self):
        h = self.make()
        h.access(0x0)
        h.access(0x0 + 256)  # evicts L1 line, both now in L2
        latency, missed = h.access(0x0)
        assert missed is True
        assert latency == 2 + 8

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=60))
    def test_latency_always_bounded(self, addrs):
        h = self.make()
        for addr in addrs:
            latency, _ = h.access(addr)
            assert 2 <= latency <= 90
