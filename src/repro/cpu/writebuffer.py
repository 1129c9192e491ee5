"""The 21164-style six-entry merging write buffer.

Stores are write-through: each store deposits its data in a write-buffer
entry keyed by the 32-byte block address.  A store to a resident block
merges for free.  Otherwise it needs a free entry; when all entries are
busy the store stalls at the head of the issue queue until the oldest
entry finishes draining -- the "write buffer overflow" stall of the
paper's copy-loop example.
"""


class WriteBuffer:
    """Merging write buffer with sequential drain."""

    BLOCK_SHIFT = 5  # 32-byte blocks

    def __init__(self, entries=6, drain_cycles=24):
        self.capacity = entries
        self.drain_cycles = drain_cycles
        # block -> completion time of the drain of that entry.
        self._entries = {}
        # Time at which the memory port finishes the last scheduled drain.
        self._port_free = 0
        self.merges = 0
        self.allocations = 0
        self.overflow_stalls = 0

    def earliest_issue(self, block_addr, now):
        """Return the earliest cycle a store to *block_addr* can issue.

        Does not change state; the pipeline calls :meth:`commit` once the
        actual issue time is known.
        """
        block = block_addr >> self.BLOCK_SHIFT
        if block in self._entries:
            return now
        self._expire(now)
        if len(self._entries) < self.capacity:
            return now
        # Full: the store waits for the oldest drain, the first entry.
        return next(iter(self._entries.values()))

    def commit(self, block_addr, issue_time):
        """Record a store issued at *issue_time*; return True if it merged."""
        block = block_addr >> self.BLOCK_SHIFT
        self._expire(issue_time)
        if block in self._entries:
            self.merges += 1
            return True
        self.allocations += 1
        # Drains are sequential, so completion times strictly increase
        # in insertion order: the dict is a FIFO by completion time.
        start = max(issue_time, self._port_free)
        done = start + self.drain_cycles
        self._port_free = done
        self._entries[block] = done
        return False

    def _expire(self, now):
        """Retire entries whose drain completed before *now*, oldest
        first (see :meth:`commit`)."""
        entries = self._entries
        while entries:
            block = next(iter(entries))
            if entries[block] > now:
                return
            del entries[block]

    def occupancy(self, now):
        self._expire(now)
        return len(self._entries)
