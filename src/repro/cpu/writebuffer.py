"""The 21164-style six-entry merging write buffer.

Stores are write-through: each store deposits its data in a write-buffer
entry keyed by the 32-byte block address.  A store to a resident block
merges for free.  Otherwise it needs a free entry; when all entries are
busy the store stalls at the head of the issue queue until the oldest
entry finishes draining -- the "write buffer overflow" stall of the
paper's copy-loop example.
"""

#: ``WriteBuffer._oldest`` of an empty buffer: later than any cycle.
_NEVER = 1 << 62


class WriteBuffer:
    """Merging write buffer with sequential drain."""

    BLOCK_SHIFT = 5  # 32-byte blocks

    def __init__(self, entries=6, drain_cycles=24):
        self.capacity = entries
        self.drain_cycles = drain_cycles
        # block -> completion time of the drain of that entry.  Drains
        # are sequential, so completion times strictly increase in
        # insertion order: the dict is a FIFO by completion time, and
        # ``_oldest`` is its first entry's (``_NEVER`` when empty).
        # Expired lazily, by commit, and only once the oldest drain has
        # completed: a finished drain left here changes nothing, because
        # earliest_issue counts it free and commit expires first.
        # ``Core.run`` probes it in line: a store to a resident block
        # skips earliest_issue, and merges without commit when the
        # block's drain ends after the store issues.
        self._entries = {}
        self._oldest = _NEVER
        # Time at which the memory port finishes the last scheduled drain.
        self._port_free = 0
        self.merges = 0
        self.allocations = 0

    def earliest_issue(self, block_addr, now):
        """Return the earliest cycle a store to *block_addr* can issue.

        Does not change state; the pipeline calls :meth:`commit` once the
        actual issue time is known.
        """
        if (self._oldest <= now or len(self._entries) < self.capacity
                or block_addr >> self.BLOCK_SHIFT in self._entries):
            return now
        # Full, and the oldest drain still running: the store waits
        # for it.
        return self._oldest

    def commit(self, block_addr, issue_time):
        """Record a store issued at *issue_time*; return True if it merged."""
        entries = self._entries
        if self._oldest <= issue_time:
            # Retire the drains completed by issue_time, oldest first.
            while True:
                del entries[next(iter(entries))]
                if not entries:
                    oldest = _NEVER
                    break
                oldest = next(iter(entries.values()))
                if oldest > issue_time:
                    break
            self._oldest = oldest
        block = block_addr >> self.BLOCK_SHIFT
        if block in entries:
            self.merges += 1
            return True
        self.allocations += 1
        port_free = self._port_free
        done = (issue_time if issue_time > port_free
                else port_free) + self.drain_cycles
        self._port_free = done
        if not entries:
            self._oldest = done
        entries[block] = done
        return False
