"""The driver's per-CPU sample-aggregation hash table.

The paper's table is an array of fixed-size buckets of four 16-byte
entries (one 64-byte cache line per bucket); each entry holds a
(PID, PC, EVENT) triple and a count.  A hit increments the count; a miss
evicts one entry -- chosen by a mod counter bumped on every eviction --
into an overflow buffer.  Aggregation reduces the sample stream handed
to the daemon by a factor of 20 or more for most workloads.

Associativity, replacement policy, table size and hash function are all
parameters here because section 5.4 explores exactly that design space
(their conclusion: 6-way plus swap-to-front would cut total cost
10-20%); ``benchmarks/bench_sec54_hashtable.py`` reruns the study.
Under swap-to-front a hit moves its entry to slot 0 and a newcomer
goes in at slot 0, so the last slot is always the least recently used
entry and a miss evicts it: swap-to-front *is* LRU within a bucket.

The bucket array is the model: hits, misses, evictions, victims and
slot order are what the paper's table would produce.  What the *host*
pays per sample is kept apart from it: a resident index finds a hit
with one probe instead of a hash and a bucket scan, and a flush visits
the buckets in use, not the array.  The driver's tables are
mod-counter, where a hit reorders nothing, so the driver probes the
index and bumps the entry and ``hits`` itself, and calls
:meth:`SampleHashTable.record` only on a miss.
"""

MOD_COUNTER = "mod-counter"
SWAP_TO_FRONT = "swap-to-front"

POLICIES = (MOD_COUNTER, SWAP_TO_FRONT)


def _hash_multiplicative(pid, pc, event_ord, mask):
    # Fibonacci-style multiplicative hash of the packed triple.
    key = (pid << 40) ^ (pc >> 2) ^ (event_ord << 56)
    return ((key * 0x9E3779B97F4A7C15) >> 32) & mask


def _hash_xor_fold(pid, pc, event_ord, mask):
    key = (pc >> 2) ^ (pid * 131) ^ (event_ord * 7919)
    return (key ^ (key >> 16)) & mask


HASH_FUNCTIONS = {
    "multiplicative": _hash_multiplicative,
    "xor-fold": _hash_xor_fold,
}


class SampleHashTable:
    """Aggregates (pid, pc, event) samples into counted entries."""

    def __init__(self, buckets, assoc, policy=MOD_COUNTER,
                 hash_name="multiplicative"):
        if buckets & (buckets - 1):
            raise ValueError("bucket count must be a power of two")
        if policy not in POLICIES:
            raise ValueError("unknown policy %r" % policy)
        self.num_buckets = buckets
        self.assoc = assoc
        self.policy = policy
        self.hash_name = hash_name
        self._hash = HASH_FUNCTIONS[hash_name]
        self._mask = buckets - 1
        # bucket -> list of [key, count, bucket index] in slot order:
        # the paper's table.  Victim choice and slot order live here.
        # A bucket never used is the shared empty tuple; its list is
        # made on first insert, so a table costs what it holds.
        self._buckets = [()] * buckets
        # The resident index: key -> the bucket's own entry, so a hit is
        # one probe however the table is shaped.  Holds exactly the
        # entries the buckets hold.
        self._index = {}
        # Indices of the buckets holding something, in first-use order.
        self._used = []
        self._reorders = policy != MOD_COUNTER
        self._mod_counter = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self):
        return self.num_buckets * self.assoc

    def record(self, pid, pc, event_ord, count=1, ctx=None):
        """Aggregate one sample; return an evicted (key, count) or None.

        *ctx* is the interned request-context id (repro.ctx).  When
        None (the default, and the only case when the context dimension
        is off) keys and hashing are the classic 3-tuples, bit
        identical to a build without the dimension; a context id folds
        into the hash and widens the key to a 4-tuple, so per-class
        attribution survives aggregation exactly like the PID does.
        """
        key = ((pid, pc, event_ord) if ctx is None
               else (pid, pc, event_ord, ctx))
        entry = self._index.get(key)
        if entry is not None:
            entry[1] += count
            self.hits += 1
            if self._reorders:
                bucket = self._buckets[entry[2]]
                if bucket[0] is not entry:
                    bucket.insert(0, bucket.pop(bucket.index(entry)))
            return None
        self.misses += 1
        if ctx is None:
            index = self._hash(pid, pc, event_ord, self._mask)
        else:
            index = self._hash(pid ^ (ctx << 21), pc, event_ord,
                               self._mask)
        bucket = self._buckets[index]
        self._index[key] = entry = [key, count, index]
        if len(bucket) < self.assoc:
            if not bucket:
                self._used.append(index)
                bucket = self._buckets[index] = []
            if self._reorders:
                bucket.insert(0, entry)
            else:
                bucket.append(entry)
            return None
        self.evictions += 1
        if self._reorders:
            # Evict the last (least recently hit) slot and insert the
            # newcomer at the front.
            victim = bucket.pop()
            bucket.insert(0, entry)
        else:
            victim_slot = self._mod_counter % self.assoc
            self._mod_counter += 1
            victim = bucket[victim_slot]
            bucket[victim_slot] = entry
        del self._index[victim[0]]
        return (victim[0], victim[1])

    def flush(self):
        """Return all resident entries as (key, count) pairs and clear.

        Visits only the buckets in use, in bucket then slot order, so a
        drain costs what it drains, not the size of the table.
        """
        entries = []
        buckets = self._buckets
        for index in sorted(self._used):
            bucket = buckets[index]
            for key, count, _ in bucket:
                entries.append((key, count))
            bucket.clear()
        self._used.clear()
        self._index.clear()
        return entries

    def metrics(self, prefix="hashtable"):
        """Typed metric snapshot, mergeable across tables/shards."""
        from repro.obs.schema import hashtable_metrics

        return hashtable_metrics(self, prefix=prefix)

    @property
    def miss_rate(self):
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    @property
    def aggregation_factor(self):
        """Average samples folded into each entry leaving the table."""
        leaving = self.misses  # every miss creates exactly one new entry
        total = self.hits + self.misses
        return total / leaving if leaving else float(total or 1)
