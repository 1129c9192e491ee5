"""Cache models: single levels and the three-level hierarchy.

Caches are physically indexed and physically tagged, so the per-run
virtual-to-physical page assignment (see :mod:`repro.osim.process`)
changes conflict behaviour between runs -- the effect the paper uses to
explain wave5's run-to-run variance.
"""


class Cache:
    """A set-associative cache with LRU replacement.

    Associativity 1 degenerates to a direct-mapped cache whose set holds
    one tag.  For a direct-mapped L1 with a power-of-two set count both
    ``Core.run`` paths compare that tag in line and call :meth:`lookup`
    only when it does not match, so lookups here are L1 misses, L2 and
    board accesses, and every access to an L1 of any other geometry.
    """

    def __init__(self, config):
        self.config = config
        self.line_size = config.line_size
        self._line_shift = config.line_size.bit_length() - 1
        if (1 << self._line_shift) != config.line_size:
            raise ValueError("line size must be a power of two")
        self.num_sets = config.size // (config.line_size * config.assoc)
        if self.num_sets & (self.num_sets - 1):
            # Non-power-of-two set counts (e.g. 3-way 96KB) index by modulo.
            self._set_mask = None
        else:
            self._set_mask = self.num_sets - 1
        self.assoc = config.assoc
        self.latency = config.latency
        # For assoc == 1: sets[i] is the resident tag (or None).
        # Otherwise: sets[i] is a list of tags in MRU..LRU order.
        if self.assoc == 1:
            self.sets = [None] * self.num_sets
        else:
            self.sets = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, addr, allocate=True):
        """Access the line containing *addr*; return True on hit.

        When *allocate* is false (write-through, no-write-allocate
        stores), a miss does not install the line.
        """
        line = addr >> self._line_shift
        mask = self._set_mask
        index = line & mask if mask is not None else line % self.num_sets
        if self.assoc == 1:
            if self.sets[index] == line:
                self.hits += 1
                return True
            self.misses += 1
            if allocate:
                self.sets[index] = line
            return False
        ways = self.sets[index]
        if line in ways:
            self.hits += 1
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            return True
        self.misses += 1
        if allocate:
            ways.insert(0, line)
            if len(ways) > self.assoc:
                ways.pop()
        return False

    def contains(self, addr):
        """Return True if the line holding *addr* is resident (no update)."""
        line = addr >> self._line_shift
        mask = self._set_mask
        index = line & mask if mask is not None else line % self.num_sets
        if self.assoc == 1:
            return self.sets[index] == line
        return line in self.sets[index]

    def flush(self):
        """Invalidate the entire cache.  ``sets`` is cleared in place:
        ``Core.run`` and replay code hold it across calls."""
        if self.assoc == 1:
            self.sets[:] = [None] * self.num_sets
        else:
            for ways in self.sets:
                ways.clear()

    def evict_random(self, rng, count):
        """Evict *count* pseudo-random lines (interrupt-handler pollution)."""
        for _ in range(count):
            index = rng.randrange(self.num_sets)
            if self.assoc == 1:
                self.sets[index] = None
            elif self.sets[index]:
                self.sets[index].pop()


class Hierarchy:
    """L1 (I or D) + unified L2 + board cache + memory.

    ``access`` returns the total added latency of a fill and the set of
    levels that missed; the pipeline turns those into events.
    """

    def __init__(self, l1, l2, board, memory_latency):
        self.l1 = l1
        self.l2 = l2
        self.board = board
        self.memory_latency = memory_latency

    def access(self, paddr, allocate=True):
        """Access *paddr*; return (latency, l1_missed).

        Latency is the full load-to-use latency including the L1 hit
        latency, i.e. ``l1.latency`` on a primary hit.
        """
        latency = self.l1.latency
        if self.l1.lookup(paddr, allocate):
            return latency, False
        latency += self.l2.latency
        if self.l2.lookup(paddr, allocate):
            return latency, True
        latency += self.board.latency
        if self.board.lookup(paddr, allocate):
            return latency, True
        return latency + self.memory_latency, True
