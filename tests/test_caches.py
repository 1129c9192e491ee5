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
        assert cache.lookup(0x40, allocate=False) is False
        assert cache.lookup(0x40) is False  # not installed
        assert (cache.hits, cache.misses) == (0, 2)

    def test_flush(self):
        cache = make_cache()
        sets = cache.sets
        cache.lookup(0x100)
        cache.flush()
        assert sets == [None] * cache.num_sets
        assert cache.lookup(0x100) is False
        assert (cache.hits, cache.misses) == (0, 2)
        # Cleared in place: Core.run binds ``sets`` once per run.
        assert cache.sets is sets

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
        assert cache.lookup(0) is True
        assert cache.lookup(span) is False
        assert (cache.hits, cache.misses) == (2, 4)

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
        assert cache.lookup(0) is False
        assert (cache.hits, cache.misses) == (0, 2)


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


class RefCache:
    """A cache as first principles put it: every set a list of line
    numbers in MRU..LRU order, indexed by modulo whatever the geometry,
    one code path for every associativity."""

    def __init__(self, size, line, assoc, latency):
        self.line = line
        self.assoc = assoc
        self.latency = latency
        self.sets = [[] for _ in range(size // (line * assoc))]
        self.hits = self.misses = 0

    def lookup(self, addr, allocate=True):
        line = addr // self.line
        ways = self.sets[line % len(self.sets)]
        if line in ways:
            self.hits += 1
            ways.remove(line)
            ways.insert(0, line)
            return True
        self.misses += 1
        if allocate:
            ways.insert(0, line)
            del ways[self.assoc:]
        return False


def ref_access(levels, memory_latency, addr, allocate):
    """The hierarchy, level by level: ``(latency, l1_missed)``."""
    latency = 0
    for level in levels:
        latency += level.latency
        if level.lookup(addr, allocate):
            return latency, level is not levels[0]
    return latency + memory_latency, True


#: (size, line, assoc): direct-mapped with power-of-two sets,
#: direct-mapped with 6 sets, 3-way with 6 sets (modulo), 3-way and
#: 2-way with power-of-two sets.
GEOMETRIES = ((256, 32, 1), (192, 32, 1), (576, 32, 3), (768, 64, 3),
              (512, 32, 2))


class TestHierarchyReference:
    """``Cache.lookup`` and ``Hierarchy.access`` -- each geometry's
    probe folded into one function -- against
    :class:`RefCache` on random address streams: every return value,
    every level's hits and misses, and every set's lines in LRU order."""

    @staticmethod
    def sets(cache):
        if cache.assoc == 1:
            return [[] if tag is None else [tag] for tag in cache.sets]
        return [list(ways) for ways in cache.sets]

    @given(st.lists(st.sampled_from(GEOMETRIES), min_size=3, max_size=3),
           st.lists(st.tuples(st.integers(min_value=0, max_value=4095),
                              st.booleans(), st.booleans()),
                    min_size=1, max_size=150))
    def test_equals_reference(self, geoms, accesses):
        latencies = (2, 8, 20)
        model = [Cache(CacheConfig(size, line, assoc, lat))
                 for (size, line, assoc), lat in zip(geoms, latencies)]
        ref = [RefCache(size, line, assoc, lat)
               for (size, line, assoc), lat in zip(geoms, latencies)]
        h = Hierarchy(*model, memory_latency=60)
        l1 = model[0]
        for addr, allocate, compare in accesses:
            if compare and l1.tag_mask is not None:
                # As Core.run probes the L1: the tag in line, the model
                # only on a miss.
                line = addr // l1.line_size
                if l1.sets[line & l1.tag_mask] == line:
                    l1.hits += 1
                    got = (l1.latency, False)
                else:
                    got = h.access(addr, allocate)
            else:
                got = h.access(addr, allocate)
            assert got == ref_access(ref, 60, addr, allocate)
            for cache, want in zip(model, ref):
                assert (cache.hits, cache.misses) == (want.hits, want.misses)
        for cache, want in zip(model, ref):
            assert self.sets(cache) == want.sets

    @given(st.sampled_from(GEOMETRIES),
           st.lists(st.tuples(st.integers(min_value=0, max_value=4095),
                              st.booleans()),
                    min_size=1, max_size=150))
    def test_lookup_equals_reference(self, geom, accesses):
        cache = Cache(CacheConfig(*geom, 2))
        ref = RefCache(*geom, 2)
        for addr, allocate in accesses:
            assert cache.lookup(addr, allocate) == ref.lookup(addr, allocate)
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert self.sets(cache) == ref.sets
