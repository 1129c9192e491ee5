"""The kernel device driver of the collection system.

Responsibilities mirror the paper's section 4.2: field performance-
counter overflow interrupts at high rate, aggregate samples in per-CPU
hash tables, spill evictions to a pair of overflow buffers, and hand
filled buffers to the user-mode daemon.

The *cost* of each interrupt is modelled and charged to the simulated
machine (the pipeline stalls its front end for the handler's cycles), so
the slowdown measured in the Table 3 benchmark is an emergent property
of this code, not an asserted constant.  Cost constants follow the
paper's measurements: a 214-cycle interrupt setup/teardown floor, a
cheap hit path, and a miss path that pays for the eviction and an extra
cache miss.
"""

from repro.collect.hashtable import SampleHashTable
from repro.collect.prng import period_sampler
from repro.cpu.events import EventType
from repro.ctx.context import NULL_CTX, OTHER_ID, ContextTable

#: Event ordinal encoding used in hash-table keys (2 bits in the paper).
EVENT_ORDINAL = {ev: i for i, ev in enumerate(EventType)}
ORDINAL_EVENT = list(EventType)
CYCLES_ORDINAL = EVENT_ORDINAL[EventType.CYCLES]

# Cost model (cycles), calibrated to the paper's Table 4.
INTERRUPT_SETUP = 214      # best-case setup + teardown (paper section 5.2)
HIT_PATH = 120             # hash-table hit handling
MISS_PATH = 420            # eviction + overflow-buffer append
EDGE_PATH = 240            # the second interrupt of a double sample
JITTER_MASK = 63           # deterministic per-PC cache-behaviour jitter

# What a sample costs by outcome, before its per-PC jitter.  A "miss"
# is any sample that creates a new entry: an insert into an empty slot
# does more work than a hit, and an eviction additionally pays for
# writing the victim to the overflow buffer (an extra cache line).
HIT_COST = INTERRUPT_SETUP + HIT_PATH
INSERT_COST = INTERRUPT_SETUP + HIT_PATH + 40
EVICT_COST = INTERRUPT_SETUP + MISS_PATH


#: The paper's mean CYCLES sampling period (uniform on [60K, 64K]).
PAPER_MEAN_PERIOD = 62 * 1024


#: The events the ``mux`` mode's second counter rotates through, one
#: step per drain.
MUX_EVENTS = (EventType.IMISS, EventType.DMISS, EventType.BRANCHMP)


class _CpuState:
    """Per-CPU driver data (the paper's figure 5 'per-cpu data').

    The table's ``hits`` / ``misses`` are the CPU's hit, miss and
    sample books; ``samples`` and ``handler_cycles`` are read off them.
    """

    __slots__ = ("table", "resident", "events", "edge_cost", "active",
                 "shadow", "full", "dropped", "spills", "hit_cycles",
                 "miss_cycles", "cost_carry", "edges", "edge_samples",
                 "inflight", "flush_seq", "ctx_reg")

    def __init__(self, config):
        self.table = SampleHashTable(config.buckets, config.assoc)
        # The table's resident index (key -> entry), probed by the
        # driver's hit path; the table clears it in place on a flush.
        self.resident = self.table._index
        #: Samples by event ordinal.
        self.events = [0] * len(ORDINAL_EVENT)
        # What each CYCLES sample's second interrupt costs (double
        # sampling), 0 otherwise.
        self.edge_cost = (EDGE_PATH if config.edge_sampling
                          and config.edge_mode == "double" else 0)
        self.active = []
        self.shadow = []
        self.full = []
        self.dropped = 0
        # Flushed-but-unacknowledged batches, keyed by flush sequence
        # number: the driver pins a batch until the daemon acknowledges
        # the merge, so a daemon death mid-drain loses nothing.
        self.inflight = {}
        self.flush_seq = 0
        self.spills = 0
        self.hit_cycles = 0
        self.miss_cycles = 0
        self.cost_carry = 0.0
        # (pid, from_pc, to_pc) -> count (double-sampling prototype).
        self.edges = {}
        self.edge_samples = 0
        # The per-CPU context register (repro.ctx): the interned id of
        # the request class running on this CPU, latched on dispatch.
        self.ctx_reg = OTHER_ID

    @property
    def samples(self):
        """Interrupts handled: every sample hits or misses once."""
        return self.table.hits + self.table.misses

    @property
    def handler_cycles(self):
        """Total handler cost: both paths plus the second interrupts."""
        return (self.hit_cycles + self.miss_cycles
                + self.edge_cost * self.events[CYCLES_ORDINAL])


class Driver:
    """The performance-counter device driver.

    *config* is the :class:`~repro.collect.session.SessionConfig` the
    collection stack is built from: its sampling mode and periods, the
    table and overflow-buffer sizes, and the trace, context and
    charge-overhead switches.
    """

    def __init__(self, num_cpus, config, faults=None):
        from repro.faults.injector import NULL_INJECTOR

        self.config = config
        #: Fault injection (repro.faults); NULL_INJECTOR is zero-cost.
        self.faults = faults or NULL_INJECTOR
        # Simulations run with periods far below the paper's 60-64K
        # cycles (pure-Python cycle simulation is slow), which would
        # make handler cost dominate the run.  Charged handler cycles
        # are therefore scaled by (simulated period / paper period) so
        # that the measured *slowdown percentage* matches what the
        # full-rate system would exhibit; set 1.0 to charge full cost.
        lo, hi = config.cycles_period
        self.cost_scale = (lo + hi) / 2.0 / PAPER_MEAN_PERIOD
        # What record() would re-read per sample, fixed at construction.
        self._charge_overhead = self.config.charge_overhead
        self._overflow_capacity = self.config.overflow_capacity
        #: Request-context interning table (repro.ctx); None when the
        #: context dimension is off -- the hot path tests exactly that.
        self.ctx_table = (ContextTable(self.config.ctx_slots)
                          if self.config.context else None)
        self.cpus = [_CpuState(self.config) for _ in range(num_cpus)]
        self.trace = [] if self.config.log_trace else None
        self._mux_index = 0
        self._mux_slot = None
        self._machine = None

    @property
    def event_samples(self):
        """{EventType: samples handled} over every CPU, sampled events
        only."""
        totals = {}
        for ordinal, event in enumerate(ORDINAL_EVENT):
            count = sum(state.events[ordinal] for state in self.cpus)
            if count:
                totals[event] = count
        return totals

    # -- installation -----------------------------------------------------

    def install(self, machine):
        """Configure counters on every core and hook the sample sink."""
        config = self.config
        self._machine = machine
        lo, hi = config.cycles_period
        for core in machine.cores:
            core.counters.configure(
                EventType.CYCLES,
                period_sampler(lo, hi, config.seed + core.cpu_id * 7919))
            if config.mode == "default":
                core.counters.configure(
                    EventType.IMISS,
                    period_sampler(config.event_period, config.event_period))
            elif config.mode == "mux":
                self._mux_slot = core.counters.configure(
                    MUX_EVENTS[0],
                    period_sampler(config.event_period, config.event_period))
            if config.edge_sampling:
                core.edge_sink = self.record_edge
                core.edge_interpret = config.edge_mode == "interpret"
        machine.set_sample_sink(self.record)
        if self.ctx_table is not None:
            machine.ctx_sink = self.publish_ctx
        return self

    def publish_ctx(self, cpu_id, pid, ctx):
        """Latch *ctx*'s interned id into *cpu_id*'s context register.

        Called by the OS simulator on every dispatch (the paper-style
        "context register" published on context switch).  Writes to the
        context table only under the guarded NULL_CTX check -- the
        pattern dcpicheck's ``lint/unguarded-ctx-write`` rule enforces.
        """
        if ctx is not NULL_CTX:
            ident = self.ctx_table.intern(ctx)
        else:
            ident = OTHER_ID
        self.cpus[cpu_id].ctx_reg = ident

    def record_edge(self, cpu_id, pid, from_pc, to_pc, time):
        """Aggregate one (from, to) edge sample (double sampling)."""
        state = self.cpus[cpu_id]
        state.edge_samples += 1
        key = (pid, from_pc, to_pc)
        state.edges[key] = state.edges.get(key, 0) + 1

    def flush_edges(self, cpu_id):
        """Drain the aggregated edge samples for *cpu_id*."""
        state = self.cpus[cpu_id]
        edges = state.edges
        state.edges = {}
        return edges

    def rotate_mux(self):
        """Advance the multiplexed counter to the next event type."""
        if self.config.mode != "mux" or self._machine is None:
            return
        self._mux_index = (self._mux_index + 1) % len(MUX_EVENTS)
        event = MUX_EVENTS[self._mux_index]
        for core in self._machine.cores:
            core.counters.set_event(self._mux_slot, event)

    # -- the interrupt handler ---------------------------------------------

    def record(self, cpu_id, pid, pc, event, time):
        """Handle one counter-overflow interrupt; return handler cycles.

        This is the hot path the paper engineered so carefully; the
        returned cost stalls the interrupted core's front end.  A hit
        is handled here: the driver's tables are mod-counter, so a hit
        only bumps a count.  A miss goes to the table's ``record``, the
        one implementation of insert, eviction and victim order.
        """
        state = self.cpus[cpu_id]
        event_ord = EVENT_ORDINAL[event]
        state.events[event_ord] += 1
        if self.trace is not None:
            self.trace.append((cpu_id, pid, pc, event_ord))
        if self.ctx_table is None:
            ctx = None
            key = (pid, pc, event_ord)
        else:
            # The context register joins the hash key (alongside the
            # PID), so per-request attribution survives aggregation.
            ctx = state.ctx_reg
            key = (pid, pc, event_ord, ctx)
        jitter = ((pc >> 2) * 2654435761 >> 20) & JITTER_MASK
        entry = state.resident.get(key)
        if entry is not None:
            entry[1] += 1
            state.table.hits += 1
            cost = HIT_COST + jitter
            state.hit_cycles += cost
        else:
            evicted = state.table.record(pid, pc, event_ord, 1, ctx)
            if evicted is None:
                cost = INSERT_COST + jitter
            else:
                cost = EVICT_COST + jitter
                state.active.append(evicted)
                if len(state.active) >= self._overflow_capacity:
                    self._buffer_full(state)
            state.miss_cycles += cost
        if not self._charge_overhead:
            return 0
        if state.edge_cost and event_ord == CYCLES_ORDINAL:
            # Double sampling pays for the second interrupt; the
            # interpretation variant only decodes in the handler
            # (negligible next to the setup cost).
            cost += state.edge_cost
        # Charge the period-scaled cost, carrying fractional cycles so
        # the long-run average is exact.
        scaled = cost * self.cost_scale + state.cost_carry
        charged = int(scaled)
        state.cost_carry = scaled - charged
        return charged

    def _buffer_full(self, state):
        """Swap buffers and notify the daemon (paper section 4.2.1)."""
        state.spills += 1
        state.full.append(state.active)
        # Swap to the other buffer of the pair; the daemon copies the
        # full one out asynchronously.
        state.active, state.shadow = state.shadow, []
        if self.faults.enabled and self.faults.fires("driver.overflow"):
            # Injected loss burst: the just-filled buffer vanishes
            # before the daemon can copy it out.  Accounted, like every
            # loss in this driver.
            lost = state.full.pop()
            state.dropped += sum(count for _, count in lost)
        if len(state.full) > 2:
            # Both buffers backed up and the daemon hasn't drained: drop.
            # The loss lands in the per-CPU `dropped` counter, which
            # flows into ``driver.overflow.dropped``, dcpimon and
            # BENCH_*.json --
            # dropped samples are accounted, never silent.
            lost = state.full.pop(0)
            state.dropped += sum(count for _, count in lost)

    # -- the flush path (daemon side) ---------------------------------------

    def begin_flush(self, cpu_id):
        """Start draining *cpu_id*; return (seq, entries).

        Models the IPI-protected flush of section 4.2.3: the handler
        never synchronizes; the flusher interrupts the target CPU.
        The batch stays pinned in the driver (``inflight``) until
        :meth:`ack` -- if the daemon dies between flush and merge, a
        recovered daemon re-reads it via :meth:`recover_inflight`.
        """
        state = self.cpus[cpu_id]
        entries = []
        for buf in state.full:
            entries.extend(buf)
        state.full = []
        entries.extend(state.active)
        state.active = []
        entries.extend(state.table.flush())
        state.flush_seq += 1
        seq = state.flush_seq
        if entries:
            state.inflight[seq] = entries
        return seq, entries

    def ack(self, cpu_id, seq):
        """The daemon durably owns batch *seq*; unpin it."""
        self.cpus[cpu_id].inflight.pop(seq, None)

    def recover_inflight(self, cpu_id):
        """Flushed-but-unacked batches as sorted (seq, entries) pairs."""
        return sorted(self.cpus[cpu_id].inflight.items())

    def drop_pending(self, cpu_id):
        """Discard everything pending for *cpu_id*; return samples lost.

        The give-up path when the daemon cannot drain (persistent
        failure): buffers, table and pinned batches are cleared and the
        loss is charged to the per-CPU ``dropped`` counter.
        """
        state = self.cpus[cpu_id]
        lost = 0
        for buf in state.full:
            lost += sum(count for _, count in buf)
        lost += sum(count for _, count in state.active)
        lost += sum(count for _, count in state.table.flush())
        for entries in state.inflight.values():
            lost += sum(count for _, count in entries)
        state.full = []
        state.active = []
        state.inflight = {}
        state.dropped += lost
        return lost

    def drop_all_pending(self):
        """Discard pending state on every CPU (a machine restart)."""
        return sum(self.drop_pending(cpu_id)
                   for cpu_id in range(len(self.cpus)))

    # -- statistics ----------------------------------------------------------

    def metrics(self):
        """Typed metric snapshot (normalized names, shard-mergeable)."""
        from repro.obs.schema import driver_metrics

        return driver_metrics(self)

    def kernel_memory_bytes(self):
        """Non-pageable kernel memory: tables + overflow buffer pairs."""
        config = self.config
        per_cpu = (config.buckets * config.assoc * 16
                   + 2 * config.overflow_capacity * 16)
        return per_cpu * len(self.cpus)
