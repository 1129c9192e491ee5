"""The in-order dual-issue pipeline core.

The model follows the paper's abstraction of the 21164: instructions
stall only at the head of the issue queue, an instruction's CYCLES sample
count is proportional to the time it spends there, and a dual-issued
younger instruction spends zero cycles at the head ("0 (dual issue)" in
the paper's Figure 2 listing).

Per dynamic instruction the core computes:

* ``arrival`` -- the first cycle the instruction can occupy the head
  (delayed by I-cache/ITB fetch misses, branch-mispredict bubbles, and
  the profiling interrupt handler's own cycles);
* ``issue``   -- when its operands are ready and a pipe plus any needed
  unit (IMUL, FDIV, a write-buffer slot) is available;
* ``issue - arrival + 1`` cycles at the head, decomposed into the exact
  stall reasons (the simulator's *ground truth*, which validates the
  analysis tools but is never shown to them).

Performance-counter overflows are delivered ``interrupt_skew`` cycles
late and attributed to whatever instruction holds the head at delivery
time, reproducing the paper's section 4.1.2 semantics (IMISS samples
land on the missing instruction; DMISS/BRANCHMP samples skew a few
instructions down the stream).

A run executes in one of three ways, all on one unit of straight-line
code, the run (:class:`_Run`, cached per start address in
``Machine.runs``, looked up once per loop iteration).  They share this
accounting, and all inline the same hit probes -- a same-page I-L1 tag
hit at a fetch-line cross, a D-TLB entry, an L1D tag hit, a store to a
write-buffer block still draining -- as a hit-counter bump.  Only a
probe that does not hit calls the model, one call per miss: ``_fetch``
(which goes on to ``Hierarchy.access``), ``TLB.translate``,
``Hierarchy.access`` for a load's L1D tag miss (the L1, L2, the board
and memory in one frame), ``WriteBuffer.earliest_issue`` for a store to
a block not in the buffer and ``commit`` for one that does not merge.
A store's L1D tag miss is only counted (no-write-allocate), and an L1
whose tag the paths cannot compare in line (``Cache.tag_mask`` None)
goes to ``Hierarchy.access`` / ``Cache.lookup`` on every access:

* **interpreted**: the dispatch loop's body walks the run's predecoded
  records (:mod:`repro.alpha.predecode`) from the PC to the next
  control transfer and handles every dynamic event.  The loop-top
  exit, budget and gate tests, the run lookup and the fetch-line test
  are paid once per run (the line test once per I-cache line in it);
  the deadline is still checked after every instruction, and a budget
  that ends inside a run cuts the run short.  Execution counts are paid
  once per run visit: a complete visit bumps the run's ``hits``,
  expanded into ``gt_count`` at run exit like the replays' deferred
  hits, and a visit stopped inside the run counts its prefix per
  instruction.  It is the reference, and the only way with the fast
  path off;
* **a generated step**: once a run's interpreted visits times its
  length reach ``COMPILE_RUN_AT``, :func:`repro.cpu.step.compile_run`
  gives it a function that *is* the interpreter for its records, with
  register numbers, opcode semantics, fetch-line chunks and pairing rows
  as constants; the models, counters, ground truth and sample delivery
  are read and written as the interpreter does them, and the function
  returns where the run ends or the deadline stops it, with the loop
  state.  When the run's dominant successors lead back to it, the step
  spans that *region* of runs, with a direction guard at each interior
  terminator that returns where control leaves; the dispatch loop books
  each member's visits as if it had run them one by one.  A loop (a run
  or a region) whose gate refuses its head for the head's own cause
  runs further visits as laps within one call.  Cold runs, visits that
  record a schedule for the gate and visits the budget cuts short stay
  interpreted.  The step leaves the loop state as the interpreter does,
  so the loop continues alike after either.  The rules both share --
  stall decomposition, event counting, sample delivery -- are functions
  in :mod:`repro.cpu.step`;
* **replayed**: the fast path replays an issue schedule, recorded by
  one complete interpreted visit of a block -- a run with a body that
  ends in a control transfer (:mod:`repro.cpu.fastpath`) -- when the
  block's entry conditions match, batching its CYCLES into one
  contiguous span.  The gate at a block head is the only way into a
  replay; a clean exit returns to it.  When the block heads a trace --
  the blocks the gate would pick back to back, compiled into one
  function -- the gate enters the trace.  A replay is a clean prefix:
  the compiled code holds hit paths only and stops *before* the first
  instruction whose fetch, translation, D-cache probe or write-buffer
  probe does not hit, with nothing of that instruction applied.  So
  every result is the clean exit of a prefix of the unit's steps -- the
  whole unit, the members through the terminator where a trace left its
  path, or the steps before a bail -- and the replay applies that
  prefix's precomputed unit (:meth:`repro.cpu.fastpath.FastPath.outcome`),
  a loop trace's whole laps before it.  A step -- the only
  implementation of what a miss does -- takes over after a bail, so
  counters, samples and ground-truth attributions stay byte-identical.

The generated ways write each record from one emitter,
:mod:`repro.cpu.codegen`: its effect, address, store merge, predictor
update and the hoisted probe handles are the same text in a replay and
in a step, which add only their own timing -- schedule constants and
bails, or computed issue and model calls.  The interpreter's copy is
written by hand, and it is the reference both are tested against.

CYCLES are held as a watermark on every path: the slots have counted
every cycle up to ``cyc_base``, and ``cyc_mark`` is ``cyc_base`` plus
the fewest cycles that overflow a CYCLES slot
(:meth:`CounterUnit.headroom`).  The cycles not yet counted are always
``prev_issue - cyc_base``, so a replay or an instruction that issues
below ``cyc_mark`` only moves ``prev_issue``; one that issues at or
after it hands the cycles since ``cyc_base`` to ``CounterUnit.add``
and raises both marks, and run exit hands over the rest.  Discrete
events are held back the same way: one that overflows no slot only
lowers ``CounterUnit.room`` (:func:`repro.cpu.step.post_events`), and
run exit hands the slots what is left (``CounterUnit.settle``).

Within a visit, interpreted or generated, an instruction's tail is one
test: ``issue >= due`` (or an event was posted), where *due* is the
least of ``cyc_mark``, the deadline ``stop`` and the earliest pending
delivery, set at the visit's start.  Only then does the tail count the
CYCLES overflow, post the events, deliver what is due
(:func:`repro.cpu.step.deliver` returns the next *due*) and stop the
visit at the deadline; the interpreter's tail and the generated one
have the same shape.
"""

from repro.alpha.opcodes import MASK64
from repro.alpha.predecode import PAIR_OK_ID
from repro.cpu.branch import BranchPredictor
from repro.cpu.caches import Cache, Hierarchy
from repro.cpu.counters import UNBOUNDED, CounterUnit
from repro.cpu.events import EventType
from repro.cpu.fastpath import (
    BAIL_TAIL, BUDGET_EDGE, CLEAN, COLD_VARIANT, FALLBACK, FRONT_EXTRA,
    HEADROOM, MAX_RUN, PENDING, VARIANT_MISS)
from repro.cpu.step import (charge_slotting, charge_stalls, compile_run,
                            count_cycles, deliver, loops, post_events)
from repro.cpu.tlb import TLB
from repro.cpu.writebuffer import WriteBuffer

# Run-status results of Core.run().
EXITED = "exited"
QUANTUM = "quantum"
BUDGET = "budget"

_EV_CYCLES = EventType.CYCLES
_EV_IMISS = EventType.IMISS
_EV_DMISS = EventType.DMISS
_EV_BRANCHMP = EventType.BRANCHMP
_EV_DTBMISS = EventType.DTBMISS
_EV_ITBMISS = EventType.ITBMISS

#: The sets of an L1 tag probe that never hits (set mask 0).
_NEVER_HITS = (None,)


def _tag_probe(cache):
    """``(sets, set_mask)`` for ``Core.run``'s inlined L1 tag probe;
    an L1 whose tag callers do not compare (``Cache.tag_mask`` is None)
    gets one that never hits, so every access takes the model call."""
    if cache.tag_mask is None:
        return _NEVER_HITS, 0
    return cache.sets, cache.tag_mask


#: Bound on cached runs (``Machine.runs``); a full cache is emptied
#: (``Machine.invalidate_runs``), as ``MAX_RUN`` bounds a run's size.
MAX_RUNS = 1 << 15

#: Tier-up: a run gets its generated step (:func:`compile_run`) once
#: its interpreted visits times its length reach this many
#: instructions.  Generating and compiling a step costs 0.4-0.7 ms per
#: record, and the step saves 0.65-1.5 us per instruction against the
#: interpreter (the streaming kernels, dss and altavista; EXPERIMENTS.md
#: "The slow path by section"), so a run repays its code after 270 to
#: 1 100 visits.  This takes the top of that range for a 12-record
#: run, 1 000 visits: a run must also repay its code in the session it
#: tiers up in, and cold sessions are where that binds.  At 4 000,
#: wave5's two hottest runs (9 912 and 4 886 interpreted instructions
#: in its 77 k-instruction session) tier up, and the cold
#: bench_sim_throughput row reads 8 % lower.  The streaming programs'
#: hot runs (76 k-110 k a 200 k session) tier up after 11-16 % of
#: their work, a longer run sooner (a ``MAX_RUN`` run after 245
#: visits), and bigcode's (24 visits at most) never.  The threshold
#: reads nothing of the code cache: which instructions run compiled,
#: and so every ``sim.fastpath.compiled_*`` count, is the same whether
#: a function is generated or found.
COMPILE_RUN_AT = 12000


class _Run:
    """The one unit of straight-line code: the predecoded records
    ``recs`` from ``pc`` through the next control transfer, or up to
    ``MAX_RUN`` records, unmapped code or the exit address.

    ``chunks`` groups them by I-cache line, ``((line, records), ...)``:
    only a chunk's first record can cross a fetch line.  ``hits``
    counts the complete visits whose execution counts are not yet in
    ``gt_count`` (:func:`_count_visits`).  ``ctrl`` says the run ends in
    a control transfer.  ``cold`` counts down the interpreted visits
    before the run gets its generated ``step`` (``COMPILE_RUN_AT``);
    from then on ``members`` holds the runs the step spans (the run
    first: its region), ``span`` their records and ``loops`` whether
    the last leads back to the first.  The fast path's slots are unset
    until its gate first meets the run and
    ``refusal`` stops being None
    (:meth:`repro.cpu.fastpath.FastPath.discover`).
    """

    __slots__ = ("pc", "n", "end", "ctrl", "recs", "chunks", "hits", "cold",
                 "step", "members", "span", "loops", "refusal", "live_ins",
                 "has_imul", "has_fdiv", "variants", "failed")

    def __init__(self, recs, line_shift):
        self.pc = recs[0][14]                           # R_ADDR
        self.n = len(recs)
        self.recs = tuple(recs)
        self.end = self.pc + 4 * self.n
        self.ctrl = recs[-1][13]                        # R_CTRL
        chunks = []
        for rec in recs:
            line = rec[14] >> line_shift
            if chunks and chunks[-1][0] == line:
                chunks[-1][1].append(rec)
            else:
                chunks.append((line, [rec]))
        self.chunks = tuple((line, tuple(rs)) for line, rs in chunks)
        self.hits = 0
        # Interpreted visits left before the run's step is generated.
        self.cold = -(-COMPILE_RUN_AT // self.n)
        self.step = None
        self.refusal = None

    def prefix(self, k):
        """``chunks`` cut after the first *k* records."""
        out = []
        for line, recs in self.chunks:
            if k <= len(recs):
                out.append((line, recs[:k]))
                return out
            out.append((line, recs))
            k -= len(recs)
        return out


def _walk(decode_map, pc, exit_addr, line_shift):
    """The :class:`_Run` starting at *pc*, or None if *pc* is unmapped.

    Every process exits to the same address (``Process.EXIT_ADDR``), so
    one run cache serves them all."""
    recs = []
    rec = decode_map.get(pc)
    while rec is not None:
        recs.append(rec)
        pc += 4
        if rec[13] or len(recs) == MAX_RUN or pc == exit_addr:  # R_CTRL
            break
        rec = decode_map.get(pc)
    return _Run(recs, line_shift) if recs else None


def _book_visits(members, k, laps, visited, gt_count):
    """Book a generated step's visits: *laps* whole laps of the runs
    *members*, then the first *k* instructions of the last pass.  A
    complete visit goes to the run's ``hits``, a cut one counts its
    prefix.  Returns whether the step returned after a member's control
    transfer: at a block head, for the gate."""
    at_head = False
    for run in members:
        hits = laps
        if k >= run.n:
            k -= run.n
            hits += 1
            at_head = run.ctrl
        elif k:
            for addr in range(run.pc, run.pc + 4 * k, 4):
                gt_count[addr] = gt_count.get(addr, 0) + 1
            k = 0
            at_head = False
        if hits:
            if not run.hits:
                visited.append(run)
            run.hits += hits
    return at_head


def _count_visits(visited, gt_count):
    """Fold the complete visits of the runs in *visited* into
    *gt_count*, one count per visit and instruction."""
    for run in visited:
        hits = run.hits
        run.hits = 0
        for addr in range(run.pc, run.end, 4):
            gt_count[addr] = gt_count.get(addr, 0) + hits
    del visited[:]


class Core:
    """One simulated CPU: private caches, TLBs, predictor, counters."""

    def __init__(self, cpu_id, config, machine):
        self.cpu_id = cpu_id
        self.config = config
        self.machine = machine
        self.l2 = Cache(config.l2)
        self.board = Cache(config.board)
        self.ihier = Hierarchy(Cache(config.l1i), self.l2, self.board,
                               config.memory_latency)
        self.dhier = Hierarchy(Cache(config.l1d), self.l2, self.board,
                               config.memory_latency)
        self.itb = TLB(config.itb_entries, config.tlb_miss_penalty)
        self.dtb = TLB(config.dtb_entries, config.tlb_miss_penalty)
        self.wb = WriteBuffer(config.write_buffer_entries,
                              config.write_buffer_drain)
        self.bp = BranchPredictor(config.branch_table_size)
        self.counters = CounterUnit()
        #: callable(cpu_id, pid, pc, event, time) -> handler cost cycles,
        #: or None when profiling is off.
        self.sample_sink = None
        #: callable(cpu_id, pid, from_pc, to_pc, time) for the paper's
        #: section 7 edge-sample prototypes.  None disables edge
        #: sampling.
        self.edge_sink = None
        #: False -> "double sampling" (a second interrupt captures the
        #: next executed PC; costs an extra interrupt).  True ->
        #: "instruction interpretation" (the handler decodes a sampled
        #: control transfer and evaluates its direction; edge samples
        #: only arrive when the sample lands on a control instruction,
        #: but no second interrupt is needed).
        self.edge_interpret = False
        self._edge_from = None
        self.time = 0
        self.instructions_retired = 0
        self._pending = []  # (deliver_time, event) interrupt deliveries
        self._last_fetch_line = -1
        self._last_code_page = -1
        self._last_code_ppage = 0
        # Sequential-prefetch stream buffer (physical line numbers).
        self._istream = []
        # What a generated step (repro.cpu.step.compile_run) folds in:
        # the page and L1 geometry, the L1D hit latency, the mispredict
        # penalty and the interrupt skew.
        self.shape = (config.page_bits, self.ihier.l1._line_shift,
                      self.dhier.l1._line_shift,
                      _tag_probe(self.ihier.l1)[1],
                      _tag_probe(self.dhier.l1)[1], config.l1d.latency,
                      config.mispredict_penalty, config.interrupt_skew)

    # ------------------------------------------------------------------

    def _fetch(self, pc, prev_issue):
        """Fetch the line holding *pc* (the caller saw a line cross).

        Returns ``(itb_penalty, icache_penalty, events_or_None)``; the
        caller has already updated ``_last_fetch_line``.  Both paths
        of :meth:`run` inline the fetch that charges nothing (same
        code page, I-L1 tag hit, not a stream-buffer line); every other
        fetch comes here.
        """
        config = self.config
        page_bits = config.page_bits
        itb_fetch_pen = 0
        icache_pen = 0
        events_now = None
        vpage = pc >> page_bits
        if vpage != self._last_code_page:
            ppage, itb_pen, itb_miss = self.itb.translate(
                0, vpage, self.machine.translate_code)
            self._last_code_page = vpage
            self._last_code_ppage = ppage
            if itb_miss:
                itb_fetch_pen = itb_pen
                events_now = [(_EV_ITBMISS, prev_issue + 1)]
        line_shift = self.ihier.l1._line_shift
        paddr = ((self._last_code_ppage << page_bits)
                 | (pc & ((1 << page_bits) - 1)))
        pline = paddr >> line_shift
        istream = self._istream
        if pline in istream:
            # Stream-buffer hit: the line was prefetched.  The I-cache
            # still missed (the event counts), but the fill is nearly
            # free.
            istream.remove(pline)
            self.ihier.l1.lookup(paddr)  # install in L1
            icache_pen = config.istream_hit_latency
            imiss = True
        else:
            ilat, imiss = self.ihier.access(paddr)
            if imiss:
                icache_pen = ilat
        if imiss:
            ev = (_EV_IMISS, prev_issue + 1)
            if events_now is None:
                events_now = [ev]
            else:
                events_now.append(ev)
            if config.istream_entries:
                # Prefetch the next sequential line (within the same
                # page -- the prefetcher has no translation of its own).
                nline = pline + 1
                lines_per_page = (1 << page_bits) >> line_shift
                if (nline % lines_per_page != 0
                        and nline not in istream):
                    istream.append(nline)
                    if len(istream) > config.istream_entries:
                        istream.pop(0)
        return itb_fetch_pen, icache_pen, events_now

    # ------------------------------------------------------------------

    def run(self, proc, cycle_limit=None, inst_limit=None):
        """Run *proc* on this core until it exits or a budget expires.

        Returns one of EXITED / QUANTUM / BUDGET.  All process state
        (registers, PC, scoreboard) lives on *proc*, so runs interleave
        across context switches.
        """
        config = self.config
        machine = self.machine
        decode_map = machine.decode_map
        runs = machine.runs
        gt_count = machine.gt_count
        gt_head = machine.gt_head
        gt_stall = machine.gt_stall
        gt_events = machine.gt_events
        gt_edges = machine.gt_edges
        counters = self.counters
        pending = self._pending
        edge_sink = self.edge_sink
        # A pending double-sample does not survive a context switch (the
        # second PC would belong to a different process).
        edge_from = None
        skew = config.interrupt_skew
        page_bits = config.page_bits
        page_mask = (1 << page_bits) - 1
        mispredict_penalty = config.mispredict_penalty
        pair_ok = PAIR_OK_ID
        dtb = self.dtb
        dhier = self.dhier
        wb = self.wb
        bp = self.bp
        l1i = self.ihier.l1
        l1d = dhier.l1
        l1d_latency = l1d.latency
        line_shift = l1i._line_shift
        dline_shift = l1d._line_shift
        # A fetch line's page and its line within the page.
        line_page_shift = page_bits - line_shift
        line_page_mask = (1 << line_page_shift) - 1
        # The interpreter's inlined hit probes, bound once: Cache.flush
        # and TLB.flush clear in place, and the write buffer's dict is
        # never replaced.
        ics, imask = _tag_probe(l1i)
        dcs, dmask = _tag_probe(l1d)
        istream = self._istream
        dtb_entries = dtb._entries
        wb_entries = wb._entries
        wb_shift = wb.BLOCK_SHIFT
        # Front-end penalties and dynamic events of the current
        # instruction (repro.cpu.step: zero / None between them).
        itb_pen = icache_pen = 0
        events_now = None
        res_reason = None

        iregs = proc.iregs
        fregs = proc.fregs
        mem = proc.memory
        reg_ready = proc.reg_ready
        reg_ready_static = proc.reg_ready_static
        reg_dyn_reason = proc.reg_dyn_reason
        asn = proc.asn
        translate_data = proc.translate_data
        pc = proc.pc
        exit_addr = proc.exit_addr

        prev_issue = max(self.time, proc.resume_time)
        # The CYCLES watermark (module docstring): the slots have
        # counted every cycle up to cyc_base, and a span ending at or
        # after cyc_mark overflows one of them.
        cyc_base = prev_issue
        cyc_mark = prev_issue + counters.headroom(_EV_CYCLES)
        # pair_open: the previous instruction issued alone in its cycle
        # and a compatible follower could still join it.
        pair_open = False
        prev_cls = -1
        leader_pc = proc.last_pc
        # Mispredict and handler cycles delaying the next instruction's
        # arrival; front_reason names the first kind.
        front_extra = 0
        front_reason = None
        imul_free = proc.imul_free
        fdiv_free = proc.fdiv_free
        retired = 0
        # Runs whose complete visits are not yet in gt_count.
        visited = []

        fp = machine.fastpath
        fp_on = fp is not None
        # Folded into fp where flush_deferred runs, at run exit.
        fp_dispatches = 0
        fp_replayed = 0
        fp_trace_entries = 0
        fp_compiled = 0
        fp_calls = 0
        at_head = fp_on  # a run entry is always a block boundary
        replay_var = None  # variant or trace the gate chose this iteration
        # A trace's cycle room (CYCLES headroom or deadline) and the laps
        # the instruction budget allows after its first.
        room = laps = 0
        # The variant a clean, correctly predicted exit left from, for
        # the gate's successor link (FastPath.link).
        link_tail = None
        link_taken = False
        # The slow-path segment running since the gate refused at
        # retired == slow_from (SLOW_CAUSES index, -1 for none).
        slow_cause = -1
        slow_from = 0
        slow_counts = fp.slow_instructions if fp_on else None
        compile_uses = fp.COMPILE_USES if fp_on else 0
        trace_uses = fp.TRACE_USES if fp_on else 0
        # The schedule this iteration's run visit records for the gate's
        # (run, key), issue cycles relative to its t0, and the current
        # instruction's stalls.
        rec_list = rec_stalls = None

        deadline = (prev_issue + cycle_limit if cycle_limit is not None
                    else UNBOUNDED)
        insts_left = inst_limit if inst_limit is not None else -1
        status = BUDGET

        while True:
            if pc == exit_addr:
                status = EXITED
                break
            if insts_left == 0:
                status = BUDGET
                break
            if prev_issue >= deadline:
                status = QUANTUM
                break

            # ---- the run at pc: the gate's unit and the step's ----------
            run = runs.get(pc)
            if run is None:
                run = _walk(decode_map, pc, exit_addr, line_shift)
                if run is None:
                    _count_visits(visited, gt_count)
                    raise RuntimeError(
                        "pid %d jumped to unmapped pc %#x" % (proc.pid, pc))
                if len(runs) >= MAX_RUNS:
                    machine.invalidate_runs()
                runs[pc] = run

            # ---- fast path: replay a cached schedule, or record one ----
            if at_head:
                at_head = False
                if slow_cause >= 0:
                    slow_counts[slow_cause] += retired - slow_from
                slow_from = retired
                # Replay may not interact with sampling machinery:
                # nothing pending, no front-end debt, no half-taken
                # double sample.
                if front_extra:
                    slow_cause = FRONT_EXTRA
                elif pending or edge_from is not None:
                    slow_cause = PENDING
                else:
                    slow_cause = run.refusal
                    if slow_cause is None:
                        slow_cause = fp.discover(run)
                    if slow_cause < 0:
                        t0 = prev_issue
                        live_parts = None
                        for reg in run.live_ins:
                            rel = reg_ready[reg] - t0
                            if rel > 0:
                                part = (reg, rel,
                                        max(reg_ready_static[reg] - t0, 0),
                                        reg_dyn_reason.get(reg))
                                if live_parts is None:
                                    live_parts = [part]
                                else:
                                    live_parts.append(part)
                        key = (
                            prev_cls if pair_open else -1,
                            tuple(live_parts) if live_parts else None,
                            (imul_free - t0
                             if run.has_imul and imul_free > t0 else 0),
                            (fdiv_free - t0
                             if run.has_fdiv and fdiv_free > t0 else 0))
                        var = run.variants.get(key)
                        if var is None:
                            slow_cause = VARIANT_MISS
                            fp.variant_misses += 1
                            if fp.variant_count < fp.MAX_VARIANTS:
                                rec_list = []
                                rec_stalls = None
                            else:
                                fp.dropped_variants += 1
                        else:
                            slow_cause = COLD_VARIANT
                            if var.fn is None:
                                # Cold variant: the slow path keeps
                                # executing the block until it recurs
                                # enough to be worth a compile().
                                var.uses += 1
                                if var.uses >= compile_uses:
                                    fp.compile_variant(var)
                            if var.fn is not None:
                                tr = var.trace
                                if tr is not None and tr.fn is None:
                                    # A cold trace: the head replays on
                                    # its own until the trace recurs
                                    # enough to be worth its code.
                                    tr.uses += 1
                                    if tr.uses >= trace_uses:
                                        fp.compile_trace(tr)
                                    else:
                                        tr = None
                                end = t0 + var.total_rel
                                if (tr is not None
                                        and (insts_left < 0
                                             or insts_left >= tr.n)
                                        and end < deadline
                                        and end < cyc_mark):
                                    # The head fits and the instruction
                                    # budget covers a lap; the trace
                                    # checks each later block's end
                                    # against room, and starts another
                                    # lap only within laps.
                                    replay_var = tr
                                    fp_trace_entries += 1
                                    room = (cyc_mark if cyc_mark < deadline
                                            else deadline) - t0
                                    laps = (insts_left // tr.n - 1
                                            if insts_left >= 0
                                            else UNBOUNDED)
                                elif (0 <= insts_left < var.n
                                        or end >= deadline):
                                    # Too close to a budget edge to
                                    # commit to a whole block; the slow
                                    # path paces itself per
                                    # instruction.
                                    slow_cause = BUDGET_EDGE
                                elif end >= cyc_mark:
                                    # The block could overflow a
                                    # CYCLES counter mid-replay; let
                                    # the slow path pace the delivery.
                                    fp.headroom_skips += 1
                                    slow_cause = HEADROOM
                                else:
                                    replay_var = var
                                    if tr is not None:
                                        fp_trace_entries += 1
                                        fp.trace_exits[FALLBACK] += 1
                                if replay_var is not None:
                                    slow_cause = -1
                                    if (link_tail is not None
                                            and link_tail.succ_uses
                                            < compile_uses):
                                        fp.link(link_tail, link_taken, var)
                link_tail = None

            if replay_var is not None:
                # ---- replay ----------------------------------------
                # The compiled function executes the unit's semantics
                # and the model's hit paths with schedule constants and
                # the final scoreboard inlined, or stops before the
                # first probe that misses.  Every result is the clean
                # exit of a prefix of the unit's steps, applied in bulk
                # from that prefix's precomputed unit (pairing state,
                # deferred ground truth, the contiguous CYCLES span).
                v = replay_var
                replay_var = None
                res = v.fn(self, bp, dtb, l1d, wb, mem, iregs, fregs,
                           reg_ready, reg_ready_static, reg_dyn_reason,
                           asn, t0, room, laps)
                fp_dispatches += 1
                lapped = res[-1]
                if lapped:
                    # A loop trace ran that many whole laps before the
                    # result: hits of the lap, each closed by its edge
                    # back into the head (the code settled the
                    # scoreboard each lap).  The last lap's IMUL / FDIV
                    # backlog and leader stand unless the result's
                    # prefix sets its own.
                    if v.hits == 0:
                        fp.deferred.append(v)
                    v.hits += lapped
                    n = v.n * lapped
                    fp_replayed += n
                    insts_left -= n
                    retired += n
                    edge = (v.term_addr, run.pc)
                    gt_edges[edge] = gt_edges.get(edge, 0) + lapped
                    t0 += v.total_rel * (lapped - 1)
                    if v.imul_rel:
                        imul_free = t0 + v.imul_rel
                    if v.fdiv_rel:
                        fdiv_free = t0 + v.fdiv_rel
                    leader_pc = v.leader
                    t0 += v.total_rel
                r0 = res[0]
                if r0 == CLEAN:
                    u = v
                else:
                    # A bail, or a trace leaving its path at an interior
                    # terminator: the code settled none of the
                    # prefix's scoreboard.
                    u = fp.outcome(v, res, room)
                    for reg, done in u.sb:
                        done += t0
                        reg_ready[reg] = done
                        reg_ready_static[reg] = done
                        reg_dyn_reason[reg] = None
                n = u.n
                fp_replayed += n
                insts_left -= n
                retired += n
                if u.hits == 0:
                    fp.deferred.append(u)
                u.hits += 1
                if u.imul_rel:
                    imul_free = t0 + u.imul_rel
                if u.fdiv_rel:
                    fdiv_free = t0 + u.fdiv_rel
                prev_cls = u.prev_cls
                pair_open = u.pair_open
                if u.leader is not None:
                    leader_pc = u.leader
                # One contiguous CYCLES span, or a prefix of it; the
                # headroom gate proved it ends below cyc_mark.
                prev_issue = t0 + u.total_rel
                if r0 < CLEAN:
                    # The slow path runs the instruction that missed.
                    pc = u.next_pc
                    slow_cause = BAIL_TAIL
                    slow_from = retired
                    continue
                # res carries the terminator's dynamic direction; its
                # target is a block head, so back to the gate.
                pc = res[1]
                if res[2]:
                    pair_open = False
                if u.term_edge_always or pc != exit_addr:
                    edge = (u.term_addr, pc)
                    gt_edges[edge] = gt_edges.get(edge, 0) + 1
                if res[3]:
                    front_extra = mispredict_penalty
                    front_reason = "branchmp"
                    post_events(gt_events, u.term_addr,
                                ((_EV_BRANCHMP, prev_issue),), counters,
                                pending, skew)
                else:
                    link_tail = u.tail
                    link_taken = res[2]
                at_head = True
                continue

            # ---- step: one visit of the run ------------------------------
            if edge_from is not None:
                # Second half of a double sample: this is the next PC
                # executed after the first interrupt returned.
                edge_sink(self.cpu_id, proc.pid, edge_from, pc,
                          prev_issue)
                edge_from = None
            if front_reason is not None and not front_extra:
                # The mispredict owes no cycles (a zero penalty): a
                # later handler delay must not be charged to it.
                front_reason = None
            n = run.n
            step = run.step
            if step is None and fp_on:
                # Tier-up: a run that has run COMPILE_RUN_AT
                # instructions interpreted gets its generated step, over
                # its region when its hot path loops back to it.
                run.cold -= 1
                if run.cold <= 0:
                    members, step = compile_run(run, runs, gt_edges,
                                                self.shape)
                    run.step = step
                    run.members = members
                    run.span = sum(member.n for member in members)
                    run.loops = loops(tuple(member.recs
                                            for member in members))
                    fp.compiled_runs += 1
            if step is not None and rec_list is None and not (
                    0 <= insts_left < run.span):
                # A loop whose gate refuses it for its own cause may run
                # whole further visits (laps of its region) while the
                # budget covers.
                span = run.span
                laps = 0
                if run.loops and run.refusal is not None and run.refusal >= 0:
                    laps = (insts_left // span - 1 if insts_left >= 0
                            else UNBOUNDED)
                (k, laps, pc, prev_issue, pair_open, prev_cls, leader_pc,
                 front_extra, front_reason, imul_free, fdiv_free, cyc_base,
                 cyc_mark, edge_from) = step(
                    self, proc, iregs, fregs, mem, reg_ready,
                    reg_ready_static, reg_dyn_reason, dtb, l1d, dhier, wb,
                    bp, l1i, gt_head, gt_stall, gt_events, gt_edges,
                    pending, prev_issue, pair_open, prev_cls, leader_pc,
                    front_extra, front_reason, imul_free, fdiv_free,
                    cyc_base, cyc_mark, deadline, laps)
                fp_calls += 1
                fp_compiled += k
                at_head = _book_visits(run.members, k, laps, visited,
                                       gt_count)
                if laps:
                    # Each lap began at the run's head with nothing owed
                    # or pending: the gate would have refused it for the
                    # run's own cause.
                    if slow_cause != run.refusal:
                        slow_counts[slow_cause] += retired + span - slow_from
                        slow_from = retired + span
                        slow_cause = run.refusal
                    laps *= span
                    fp_compiled += laps
                    insts_left -= laps
                    retired += laps
                insts_left -= k
                retired += k
                continue

            # ---- interpreted: cold, recording, or cut by the budget ----
            # due: the first cycle at which a CYCLES overflow, a
            # delivery or the deadline is due (stop falls to -1 after a
            # double sample's first half).
            stop = deadline
            due = cyc_mark if cyc_mark < stop else stop
            for p in pending:
                if p[0] < due:
                    due = p[0]
            chunks = (run.prefix(insts_left) if 0 <= insts_left < n
                      else run.chunks)
            next_pc = run.end  # the fall-through; a taken transfer sets it
            for fline, recs in chunks:
                # ---- fetch ----------------------------------------------
                if fline != self._last_fetch_line:
                    self._last_fetch_line = fline
                    il = ((self._last_code_ppage << line_page_shift)
                          | (fline & line_page_mask))
                    if (fline >> line_page_shift == self._last_code_page
                            and ics[il & imask] == il
                            and il not in istream):
                        l1i.hits += 1
                    else:
                        itb_pen, icache_pen, events_now = self._fetch(
                            recs[0][14], prev_issue)
                        front_extra += itb_pen + icache_pen

                # ---- walk the chunk: one record per instruction ------
                for (kind, cls_id, lat, srcs, f1, f2, f3, dst, imm, target,
                     fn, unit, busy, ctrl, pc, nsrc) in recs:
                    # ---- operand readiness ----------------------------
                    if nsrc == 1:
                        rdy = reg_ready[srcs[0]]
                    elif nsrc == 2:
                        src, s1 = srcs
                        rdy = reg_ready[src]
                        r = reg_ready[s1]
                        if r > rdy:
                            rdy = r
                    else:
                        rdy = 0
                        for src in srcs:
                            r = reg_ready[src]
                            if r > rdy:
                                rdy = r

                    # ---- resources ------------------------------------
                    # res_reason is read only when res > 0.
                    res = 0
                    if unit:
                        if unit == 1:
                            res = imul_free
                            res_reason = "imul"
                        else:
                            res = fdiv_free
                            res_reason = "fdiv"
                    elif kind >= 7 and kind <= 9:  # stores use no unit
                        vaddr = (iregs[f2] + imm) & MASK64
                        # A store to a resident block issues at once.
                        wb_done = wb_entries.get(vaddr >> wb_shift)
                        res = prev_issue + 1
                        if wb_done is None:
                            res = wb.earliest_issue(vaddr, res)
                            if (res != prev_issue + 1
                                    and rec_list is not None):
                                # The store waited: this visit's
                                # schedule is not the stall-free one.
                                rec_list = None
                                fp.abort_recording(run)
                        res_reason = "wb"

                    # ---- issue / pairing ------------------------------
                    # Paired exactly when issue == prev_issue.
                    if (pair_open and not front_extra and rdy <= prev_issue
                            and res <= prev_issue
                            and pair_ok[prev_cls][cls_id]):
                        issue = prev_issue
                        pair_open = False
                    else:
                        arrival = prev_issue + 1 + front_extra
                        issue = arrival
                        if rdy > issue:
                            issue = rdy
                        if res > issue:
                            issue = res
                        cycles_head = issue - arrival + 1
                        try:
                            gt_head[pc] += cycles_head
                        except KeyError:
                            gt_head[pc] = cycles_head
                        leader_before = leader_pc
                        leader_pc = pc

                        # ---- ground-truth stall decomposition ---------
                        if cycles_head > 1 or front_extra:
                            rec_stalls = charge_stalls(
                                gt_stall, pc, front_extra, front_reason,
                                itb_pen, icache_pen, arrival, issue, rdy,
                                res, res_reason, srcs, proc,
                                rec_list is not None)
                            front_extra = 0
                            front_reason = None
                            itb_pen = icache_pen = 0
                        elif (pair_open and prev_cls >= 0
                              and not pair_ok[prev_cls][cls_id]):
                            try:
                                gt_stall[pc]["slotting"] += 1
                            except KeyError:
                                charge_slotting(gt_stall, pc)
                            if rec_list is not None:
                                rec_stalls = [("slotting", 1)]
                        pair_open = True
                    prev_cls = cls_id

                    # ---- execute --------------------------------------
                    if kind <= 3:
                        if kind == 0:  # op
                            value = fn(iregs[f1],
                                       iregs[f2] if f2 is not None else imm)
                            if dst is not None:
                                iregs[dst] = value
                                reg_ready[dst] = reg_ready_static[dst] = (
                                    issue + lat)
                                reg_dyn_reason[dst] = None
                            if unit == 1:
                                imul_free = issue + busy
                        elif kind == 3:  # lda
                            if dst is not None:
                                iregs[dst] = ((iregs[f2] if f2 is not None
                                               else 0) + imm) & MASK64
                                reg_ready[dst] = reg_ready_static[dst] = (
                                    issue + lat)
                                reg_dyn_reason[dst] = None
                        elif kind == 1:  # cmov
                            if dst is not None:
                                iregs[dst] = (
                                    (iregs[f2] if f2 is not None else imm)
                                    if fn(iregs[f1]) else iregs[f3])
                                reg_ready[dst] = reg_ready_static[dst] = (
                                    issue + lat)
                                reg_dyn_reason[dst] = None
                        else:  # fop
                            value = fn(fregs[f1] if f1 is not None else 0.0,
                                       fregs[f2])
                            if dst is not None:
                                fregs[dst - 32] = value
                                reg_ready[dst] = reg_ready_static[dst] = (
                                    issue + lat)
                                reg_dyn_reason[dst] = None
                            if unit == 2:
                                fdiv_free = issue + busy
                    elif kind <= 6:  # loads
                        vaddr = (iregs[f2] + imm) & MASK64
                        vpage = vaddr >> page_bits
                        ppage = dtb_entries.get((asn, vpage))
                        if ppage is None:
                            ppage, dtb_pen, dtb_miss = dtb.translate(
                                asn, vpage, translate_data)
                        else:
                            dtb.hits += 1
                            dtb_pen = 0
                            dtb_miss = False
                        paddr = (ppage << page_bits) | (vaddr & page_mask)
                        dline = paddr >> dline_shift
                        if dcs[dline & dmask] == dline:
                            l1d.hits += 1
                            dlat = l1d_latency
                            dmiss = False
                        else:
                            dlat, dmiss = dhier.access(paddr)
                        if kind == 4:  # ldq
                            value = mem.get(vaddr & ~7, 0)
                        elif kind == 5:  # ldl
                            value = mem.get(vaddr & ~3, 0) & 0xFFFFFFFF
                            if value >> 31:
                                value = (value | ~0xFFFFFFFF) & MASK64
                        else:  # ldt
                            value = mem.get(vaddr & ~7, 0)
                            if not isinstance(value, float):
                                value = float(value)
                        if dst is not None:
                            if kind == 6:
                                fregs[dst - 32] = value
                            else:
                                iregs[dst] = value
                            reg_ready[dst] = issue + dtb_pen + dlat
                            reg_ready_static[dst] = issue + l1d_latency
                            if dmiss:
                                reg_dyn_reason[dst] = "dcache"
                            elif dtb_miss:
                                reg_dyn_reason[dst] = "dtb"
                            else:
                                reg_dyn_reason[dst] = None
                        if dmiss or dtb_miss:
                            if events_now is None:
                                events_now = []
                            if dmiss:
                                events_now.append((_EV_DMISS, issue))
                            if dtb_miss:
                                events_now.append((_EV_DTBMISS, issue))
                    elif kind <= 9:  # stores
                        vpage = vaddr >> page_bits
                        ppage = dtb_entries.get((asn, vpage))
                        if ppage is None:
                            ppage, dtb_pen, dtb_miss = dtb.translate(
                                asn, vpage, translate_data)
                            if dtb_miss:
                                if events_now is None:
                                    events_now = []
                                events_now.append((_EV_DTBMISS, issue))
                        else:
                            dtb.hits += 1
                        paddr = (ppage << page_bits) | (vaddr & page_mask)
                        # Write-through, no-write-allocate: probe
                        # without filling.
                        dline = paddr >> dline_shift
                        if dcs[dline & dmask] == dline:
                            l1d.hits += 1
                        elif dcs is _NEVER_HITS:
                            l1d.lookup(paddr, allocate=False)
                        else:
                            l1d.misses += 1
                        if wb_done is not None and wb_done > issue:
                            # Still draining at issue: the store merges.
                            wb.merges += 1
                        else:
                            wb.commit(vaddr, issue)
                        if kind == 7:  # stq
                            mem[vaddr & ~7] = iregs[f1]
                        elif kind == 8:  # stl
                            mem[vaddr & ~3] = iregs[f1] & 0xFFFFFFFF
                        else:  # stt
                            mem[vaddr & ~7] = fregs[f1]
                    elif kind == 11 or kind == 12:  # cbranch / fbranch
                        taken = fn(iregs[f1] if kind == 11 else fregs[f1])
                        if taken:
                            next_pc = target
                            pair_open = False
                        if not bp.predict_conditional(pc, taken):
                            front_extra = mispredict_penalty
                            front_reason = "branchmp"
                            if events_now is None:
                                events_now = []
                            events_now.append((_EV_BRANCHMP, issue))
                        edge = (pc, next_pc)
                        gt_edges[edge] = gt_edges.get(edge, 0) + 1
                    elif kind == 13 or kind == 14:  # br / bsr
                        if dst is not None:
                            iregs[dst] = pc + 4
                            reg_ready[dst] = reg_ready_static[dst] = issue + 1
                            reg_dyn_reason[dst] = None
                        if kind == 14:
                            bp.push_call(pc + 4)
                        next_pc = target
                        pair_open = False
                        edge = (pc, next_pc)
                        gt_edges[edge] = gt_edges.get(edge, 0) + 1
                    elif kind >= 15:  # jmp / jsr / ret
                        next_pc = iregs[f2] & ~3
                        if dst is not None:
                            iregs[dst] = pc + 4
                            reg_ready[dst] = reg_ready_static[dst] = issue + 1
                            reg_dyn_reason[dst] = None
                        if kind == 16:
                            bp.push_call(pc + 4)
                            correct = bp.predict_indirect(pc, next_pc)
                        elif kind == 17:
                            correct = bp.predict_return(next_pc)
                        else:
                            correct = bp.predict_indirect(pc, next_pc)
                        if not correct:
                            front_extra = mispredict_penalty
                            front_reason = "branchmp"
                            if events_now is None:
                                events_now = []
                            events_now.append((_EV_BRANCHMP, issue))
                        pair_open = False
                        if next_pc != exit_addr:
                            edge = (pc, next_pc)
                            gt_edges[edge] = gt_edges.get(edge, 0) + 1
                    # kind == 10 (nop / call_pal): timing only.

                    # ---- recording ------------------------------------
                    if rec_list is not None:
                        paired = issue == prev_issue
                        rec_list.append(
                            (issue - t0, 0 if paired else cycles_head,
                             paired,
                             tuple(rec_stalls) if rec_stalls else None))
                        rec_stalls = None

                    # ---- performance counters, deliveries, deadline ---
                    if issue >= due or events_now:
                        if issue >= cyc_mark:
                            # An overflow is due: the slots take the
                            # cycles since cyc_base (one contiguous run).
                            cyc_mark = count_cycles(counters, pending, skew,
                                                    issue - cyc_base, issue)
                            cyc_base = issue
                        if events_now:
                            if rec_list is not None:
                                # A dynamic event landed inside the
                                # block: this visit's schedule is not
                                # the stall-free one.
                                rec_list = None
                                fp.abort_recording(run)
                            post_events(gt_events, pc, events_now, counters,
                                        pending, skew)
                            events_now = None
                        due = cyc_mark if cyc_mark < stop else stop
                        if pending:
                            # An interrupt due reports the leader before
                            # this instruction unless this one paired.
                            waiting = len(pending)
                            front_extra, edge_from, stop, due = deliver(
                                self, proc.pid, pending, issue, prev_issue,
                                pc, leader_pc if issue == prev_issue
                                else leader_before, ctrl, next_pc,
                                front_extra, edge_from, stop, due)
                            if rec_list is not None and len(pending) < waiting:
                                rec_list = None
                                fp.abort_recording(run)
                        if issue >= stop:
                            prev_issue = issue
                            break

                    # ---- advance --------------------------------------
                    prev_issue = issue
                else:
                    continue
                break

            # ---- run exit: count the visit ------------------------------
            if ctrl:
                pc = next_pc
                at_head = fp_on
                k = n
            else:
                pc += 4
                k = (pc - run.pc) >> 2
            if rec_list is not None:
                # A recording is one complete visit of the block's run.
                # The terminator's issue slot and pairing are
                # entry-invariant even though its direction is dynamic.
                if ctrl:
                    fp.store(run, key, rec_list)
                rec_list = None
            if k == n:
                if not run.hits:
                    visited.append(run)
                run.hits += 1
            else:
                # Stopped mid-run: count the prefix that ran.
                for addr in range(run.pc, pc, 4):
                    gt_count[addr] = gt_count.get(addr, 0) + 1
            insts_left -= k
            retired += k

        # Below cyc_mark, so this overflows no slot; the slots take the
        # events counted in line too, so counts read between runs are
        # exact.
        counters.add(_EV_CYCLES, prev_issue - cyc_base, prev_issue)
        counters.settle()
        # Fold deferred ground truth in before anything can read the
        # maps (pure addition, so totals match per-instruction counts).
        _count_visits(visited, gt_count)
        if fp_on:
            fp.flush_deferred(gt_count, gt_head, gt_stall, gt_edges)
            fp.replayed_instructions += fp_replayed
            fp.dispatches += fp_dispatches
            fp.trace_entries += fp_trace_entries
            fp.compiled_instructions += fp_compiled
            fp.compiled_calls += fp_calls
            if slow_cause >= 0:
                slow_counts[slow_cause] += retired - slow_from

        # Save resumable state.
        proc.pc = pc
        proc.last_pc = leader_pc
        proc.resume_time = prev_issue + 1
        proc.imul_free = imul_free
        proc.fdiv_free = fdiv_free
        self.time = prev_issue + 1
        self.instructions_retired += retired
        return status
