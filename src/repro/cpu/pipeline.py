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

Two execution paths share this accounting, and both inline the same
hit probes -- a same-page I-L1 tag hit at a fetch-line cross, a D-TLB
entry, an L1D tag hit, a store to a write-buffer block still draining
-- as a hit-counter bump.  Only a probe that does not hit calls the
model (``_fetch``, ``TLB.translate``, ``Hierarchy.access``,
``Cache.lookup``, ``WriteBuffer.earliest_issue`` / ``commit``):

* the **slow path** walks predecoded records
  (:mod:`repro.alpha.predecode`) a straight-line run at a time -- from
  the PC to the next control transfer (:class:`_Run`, cached per start
  address in ``Machine.runs``) -- and handles every dynamic event.
  The loop-top exit, budget and gate tests, the run lookup and the
  fetch-line test are paid once per run (the line test once per I-cache
  line in it); the deadline is still checked after every instruction,
  and a budget that ends inside a run cuts the run short.  Execution
  counts are paid once per run visit: a complete visit bumps the run's
  ``hits``, expanded into ``gt_count`` at run exit like the replays'
  deferred hits, and a visit stopped inside the run counts its prefix
  per instruction;
* the **fast path** replays a cached per-block issue schedule
  (:mod:`repro.cpu.fastpath`) when the block's entry conditions match a
  prior visit, batching the block's CYCLES into one contiguous span.
  The gate at a block head is the only way into a replay; a clean exit
  returns to it.  When the block heads a trace -- the blocks the gate
  would pick back to back, compiled into one function -- the gate
  enters the trace, and an exit or a bail inside it is applied as the
  clean exit of the members before it.  A replay is a clean prefix:
  the compiled code holds hit paths only and stops *before* the first
  instruction whose fetch, translation, D-cache probe or write-buffer
  probe does not hit, with nothing of that instruction applied.  The
  slow path -- the only implementation of what a miss does -- takes
  over from there, so counters, samples and ground-truth attributions
  stay byte-identical.

CYCLES are held as a watermark on both paths: the slots have counted
every cycle up to ``cyc_base``, and ``cyc_mark`` is ``cyc_base`` plus
the fewest cycles that overflow a CYCLES slot
(:meth:`CounterUnit.headroom`).  The cycles not yet counted are always
``prev_issue - cyc_base``, so a replay or an instruction that issues
below ``cyc_mark`` only moves ``prev_issue``; one that issues at or
after it hands the cycles since ``cyc_base`` to ``CounterUnit.add``
and raises both marks, and run exit hands over the rest.
"""

from bisect import bisect_right

from repro.alpha.opcodes import MASK64
from repro.alpha.predecode import PAIR_OK_ID
from repro.cpu.branch import BranchPredictor
from repro.cpu.caches import Cache, Hierarchy
from repro.cpu.counters import UNBOUNDED, CounterUnit
from repro.cpu.events import EventType
from repro.cpu.fastpath import (
    BAIL_HEAD, BAIL_LATER, BAIL_TAIL, BUDGET_EDGE, CLEAN, COLD_VARIANT,
    FALLBACK, FRONT_EXTRA, GUARD, HEADROOM, MISPREDICT, NO_BLOCK, PENDING,
    ROOM, VARIANT_MISS, cache_geometry)
from repro.cpu.issue import DEP_REASON
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
    an L1 that :func:`cache_geometry` cannot describe gets one that
    never hits, so every access takes the model call."""
    geom = cache_geometry(cache.config)
    if geom is None:
        return _NEVER_HITS, 0
    return cache.sets, geom[1]


#: Longest run :class:`_Run` holds; a longer straight line continues
#: in the next run.  Bounds a run's size, as ``MAX_RUNS`` bounds their
#: number.
MAX_RUN = 64
#: Bound on cached runs (``Machine.runs``); a full cache is emptied.
MAX_RUNS = 1 << 15


class _Run:
    """The predecoded records the slow path walks in one go: from
    ``pc`` through the next control transfer, or up to ``MAX_RUN``
    records, unmapped code or the exit address.

    ``chunks`` groups them by I-cache line, ``((line, records), ...)``:
    only a chunk's first record can cross a fetch line.  ``hits``
    counts the complete visits whose execution counts are not yet in
    ``gt_count`` (:func:`_count_visits`).
    """

    __slots__ = ("pc", "n", "end", "chunks", "hits")

    def __init__(self, recs, line_shift):
        self.pc = recs[0][14]                           # R_ADDR
        self.n = len(recs)
        self.end = self.pc + 4 * self.n
        chunks = []
        for rec in recs:
            line = rec[14] >> line_shift
            if chunks and chunks[-1][0] == line:
                chunks[-1][1].append(rec)
            else:
                chunks.append((line, [rec]))
        self.chunks = tuple((line, tuple(rs)) for line, rs in chunks)
        self.hits = 0

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
        sink = self.sample_sink
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
        # The slow path's inlined hit probes, bound once: Cache.flush
        # and TLB.flush clear in place, and the write buffer's dict is
        # never replaced.
        ics, imask = _tag_probe(l1i)
        dcs, dmask = _tag_probe(l1d)
        istream = self._istream
        dtb_entries = dtb._entries
        wb_entries = wb._entries
        wb_shift = wb.BLOCK_SHIFT

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
        # Mispredict, handler and fetch cycles delaying the next
        # instruction's arrival; front_reason names the first kind,
        # itb_pen and icache_pen are the last.
        front_extra = 0
        front_reason = None
        itb_pen = icache_pen = 0
        events_now = None  # [(event, time)] of the current instruction
        rec_stalls = None  # its stalls, while a schedule is recording
        imul_free = proc.imul_free
        fdiv_free = proc.fdiv_free
        retired = 0
        # Runs whose complete visits are not yet in gt_count.
        visited = []

        fp = machine.fastpath
        fp_on = fp is not None
        fp_blocks = fp.blocks if fp_on else None
        # Folded into fp where flush_deferred runs, at run exit.
        fp_dispatches = 0
        fp_replays = 0  # blocks begun by replays that bailed
        fp_replayed = 0
        fp_trace_entries = 0
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
        refusals = fp.refusals if fp_on else None
        compile_uses = fp.COMPILE_USES if fp_on else 0
        trace_uses = fp.TRACE_USES if fp_on else 0
        rec_list = None  # schedule being recorded for (rec_block, rec_key)
        rec_block = None
        rec_key = None
        rec_t0 = 0

        deadline = (prev_issue + cycle_limit if cycle_limit is not None
                    else UNBOUNDED)
        # A run stops after the instruction that issues at or after
        # stop: the deadline, or at once when a double sample awaits
        # its second half.
        stop = deadline
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
                    block = fp_blocks.get(pc)
                    if block is None:
                        block = fp.discover(pc)
                    if block is False:
                        slow_cause = refusals.get(pc, NO_BLOCK)
                    else:
                        t0 = prev_issue
                        live_parts = None
                        for reg in block.live_ins:
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
                             if block.has_imul and imul_free > t0 else 0),
                            (fdiv_free - t0
                             if block.has_fdiv and fdiv_free > t0 else 0))
                        var = block.variants.get(key)
                        if var is None:
                            slow_cause = VARIANT_MISS
                            fp.variant_misses += 1
                            if fp.variant_count < fp.MAX_VARIANTS:
                                rec_list = []
                                rec_stalls = None
                                rec_block = block
                                rec_key = key
                                rec_t0 = t0
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
                # The compiled function executes the whole block's (or
                # trace's) semantics and the model's hit paths with
                # schedule constants and the final scoreboard inlined,
                # or stops before the first probe that misses;
                # everything else (pairing state, deferred ground truth,
                # the contiguous CYCLES span) is applied in bulk from
                # the dispatch unit's precomputed structures.
                v = replay_var
                replay_var = None
                res = v.fn(self, bp, dtb, l1d, wb, mem, iregs, fregs,
                           reg_ready, reg_ready_static, reg_dyn_reason,
                           asn, t0, room, laps)
                fp_dispatches += 1
                if v.loop and res[-1]:
                    # A loop trace ran res[-1] whole laps before the
                    # result: apply them as that many clean, correctly
                    # predicted passes back into its head (the code
                    # settled the scoreboard each lap).
                    lapped = res[-1]
                    if v.hits == 0:
                        fp.deferred.append(v)
                    v.hits += lapped
                    n = v.n * lapped
                    fp_replayed += n
                    insts_left -= n
                    retired += n
                    t0 += v.total_rel * lapped
                    if v.imul_rel:
                        imul_free = t0 - v.total_rel + v.imul_rel
                    if v.fdiv_rel:
                        fdiv_free = t0 - v.total_rel + v.fdiv_rel
                    prev_issue = t0
                    prev_cls = v.prev_cls_end
                    leader_pc = v.leader_addr
                    first = v.parts[0]
                    pair_open = first.key[0] >= 0
                    edge = (v.term_addr, first.block.head)
                    gt_edges[edge] = gt_edges.get(edge, 0) + lapped
                r0 = res[0]
                if r0 >= CLEAN:
                    if r0 != CLEAN:
                        # A trace left its path at member k's
                        # terminator: members 0..k ran, which is the
                        # unit exit_unit(k) describes.
                        k = res[4]
                        if res[3]:
                            fp.trace_exits[MISPREDICT] += 1
                        elif res[1] != v.parts[k + 1].block.head:
                            fp.trace_exits[GUARD] += 1
                        elif (cyc_mark - t0 <= v.ends[k + 1]
                              or deadline - t0 <= v.ends[k + 1]):
                            fp.trace_exits[ROOM] += 1
                        else:
                            fp.trace_exits[FALLBACK] += 1
                        v = v.exit_unit(k)
                        for reg, done in v.sb:
                            done += t0
                            reg_ready[reg] = done
                            reg_ready_static[reg] = done
                            reg_dyn_reason[reg] = None
                    # res carries the terminator's dynamic direction;
                    # its target is a block head, so back to the gate.
                    n = v.n
                    fp_replayed += n
                    insts_left -= n
                    retired += n
                    if v.hits == 0:
                        fp.deferred.append(v)
                    v.hits += 1
                    if v.imul_rel:
                        imul_free = t0 + v.imul_rel
                    if v.fdiv_rel:
                        fdiv_free = t0 + v.fdiv_rel
                    prev_cls = v.prev_cls_end
                    if v.leader_addr is not None:
                        leader_pc = v.leader_addr
                    # One contiguous CYCLES span; the headroom gate
                    # proved it ends below cyc_mark.
                    prev_issue = t0 + v.total_rel
                    pc = res[1]
                    pair_open = v.term_open and not res[2]
                    if v.term_edge_always or pc != exit_addr:
                        edge = (v.term_addr, pc)
                        gt_edges[edge] = gt_edges.get(edge, 0) + 1
                    if res[3]:
                        front_extra = mispredict_penalty
                        front_reason = "branchmp"
                        row = gt_events.get(v.term_addr)
                        if row is None:
                            row = {}
                            gt_events[v.term_addr] = row
                        row[_EV_BRANCHMP] = row.get(_EV_BRANCHMP, 0) + 1
                        for oev, otime in counters.add(
                                _EV_BRANCHMP, 1, prev_issue):
                            pending.append((otime + skew, oev))
                    else:
                        link_tail = v.tail or v
                        link_taken = res[2]
                    at_head = True
                    continue

                # ---- bail: the replay stopped before instruction i ----
                # Whatever probe stopped it (res[0] only names it),
                # exactly the first i steps ran, all of them clean.  In
                # a trace, the members before the one that bailed, m,
                # are the unit exit_unit(m - 1): apply it as a clean,
                # correctly predicted exit into member m, whose own
                # steps i counts from then on.
                i = res[1]
                if v.parts is not None:
                    m = bisect_right(v.firsts, i)
                    if m:
                        u = v.exit_unit(m - 1)
                        for reg, done in u.sb:
                            done += t0
                            reg_ready[reg] = done
                            reg_ready_static[reg] = done
                            reg_dyn_reason[reg] = None
                        if u.hits == 0:
                            fp.deferred.append(u)
                        u.hits += 1
                        if u.imul_rel:
                            imul_free = t0 + u.imul_rel
                        if u.fdiv_rel:
                            fdiv_free = t0 + u.fdiv_rel
                        prev_cls = u.prev_cls_end
                        leader_pc = u.leader_addr
                        part = v.parts[m]
                        edge = (u.term_addr, part.block.head)
                        gt_edges[edge] = gt_edges.get(edge, 0) + 1
                        pair_open = part.key[0] >= 0
                        n = v.firsts[m - 1]
                        fp_replayed += n
                        insts_left -= n
                        retired += n
                        i -= n
                        t0 += u.total_rel
                        prev_issue = t0
                        v = part
                        fp.trace_exits[BAIL_LATER] += 1
                    else:
                        v = v.parts[0]
                        fp.trace_exits[BAIL_HEAD] += 1
                steps = v.steps
                for j in range(i):
                    step = steps[j]
                    srec_j = step[0]
                    addr_j = srec_j[14]
                    gt_count[addr_j] = gt_count.get(addr_j, 0) + 1
                    ch = step[2]
                    if ch:
                        gt_head[addr_j] = gt_head.get(addr_j, 0) + ch
                    sitems = step[4]
                    if sitems is not None:
                        srow = gt_stall.get(addr_j)
                        if srow is None:
                            srow = {}
                            gt_stall[addr_j] = srow
                        for reason, amount in sitems:
                            srow[reason] = srow.get(reason, 0) + amount
                    dst_j = srec_j[7]
                    if dst_j is not None:
                        done = t0 + step[1] + (srec_j[2]
                                               if srec_j[0] <= 3
                                               else l1d_latency)
                        reg_ready[dst_j] = done
                        reg_ready_static[dst_j] = done
                        reg_dyn_reason[dst_j] = None
                    unit_j = srec_j[11]
                    if unit_j == 1:
                        imul_free = t0 + step[1] + srec_j[12]
                    elif unit_j == 2:
                        fdiv_free = t0 + step[1] + srec_j[12]
                if i:
                    last_step = steps[i - 1]
                    pair_open = not last_step[3]
                    prev_cls = last_step[0][1]
                    for j in range(i - 1, -1, -1):
                        if not steps[j][3]:
                            leader_pc = steps[j][0][14]
                            break
                    # A prefix of the span the gate cleared.
                    prev_issue = t0 + last_step[1]
                fp_replays += 1
                fp_replayed += i
                fp.bails[r0] += 1
                insts_left -= i
                retired += i
                pc = steps[i][0][14]
                slow_cause = BAIL_TAIL
                slow_from = retired
                continue

            # ---- slow path: one straight-line run ------------------------
            run = runs.get(pc)
            if run is None:
                run = _walk(decode_map, pc, exit_addr, line_shift)
                if run is None:
                    _count_visits(visited, gt_count)
                    raise RuntimeError(
                        "pid %d jumped to unmapped pc %#x" % (proc.pid, pc))
                if len(runs) >= MAX_RUNS:
                    runs.clear()
                runs[pc] = run
            if edge_from is not None:
                # Second half of a double sample: this is the next PC
                # executed after the first interrupt returned.
                edge_sink(self.cpu_id, proc.pid, edge_from, pc,
                          prev_issue)
                edge_from = None
                stop = deadline
            if front_reason is not None and not front_extra:
                # The mispredict owes no cycles (a zero penalty): a
                # later handler delay must not be charged to it.
                front_reason = None
            n = run.n
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
                        src, = srcs
                        rdy = reg_ready[src]
                        rdy_static = reg_ready_static[src]
                    elif nsrc == 2:
                        src, s1 = srcs
                        rdy = reg_ready[src]
                        r = reg_ready[s1]
                        if r > rdy:
                            rdy = r
                        rdy_static = reg_ready_static[src]
                        r = reg_ready_static[s1]
                        if r > rdy_static:
                            rdy_static = r
                    else:
                        rdy = rdy_static = 0
                        for src in srcs:
                            r = reg_ready[src]
                            if r > rdy:
                                rdy = r
                            r = reg_ready_static[src]
                            if r > rdy_static:
                                rdy_static = r

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
                                fp.abort_recording(rec_block)
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
                            stall_row = gt_stall.get(pc)
                            if stall_row is None:
                                stall_row = {}
                                gt_stall[pc] = stall_row
                            if front_extra:
                                fetch_pen = itb_pen + icache_pen
                                if front_extra != fetch_pen and front_reason:
                                    stall_row[front_reason] = (
                                        stall_row.get(front_reason, 0)
                                        + front_extra - fetch_pen)
                                if itb_pen:
                                    stall_row["itb"] = (
                                        stall_row.get("itb", 0) + itb_pen)
                                    itb_pen = 0
                                if icache_pen:
                                    stall_row["icache"] = (
                                        stall_row.get("icache", 0)
                                        + icache_pen)
                                    icache_pen = 0
                                front_extra = 0
                                front_reason = None
                            base = arrival
                            d_static = (rdy_static if rdy_static < issue
                                        else issue) - base
                            if d_static > 0:
                                # The first source holding the latest
                                # static ready time.
                                dep_index = 0
                                for src in srcs:
                                    if reg_ready_static[src] == rdy_static:
                                        break
                                    dep_index += 1
                                reason = DEP_REASON[dep_index]
                                stall_row[reason] = (
                                    stall_row.get(reason, 0) + d_static)
                                if rec_list is not None:
                                    rec_stalls = [(reason, d_static)]
                                base += d_static
                            d_dyn = rdy - base  # issue >= rdy
                            if d_dyn > 0:
                                for src in srcs:
                                    if reg_ready[src] == rdy:
                                        break
                                reason = reg_dyn_reason.get(src) or "dcache"
                                stall_row[reason] = (
                                    stall_row.get(reason, 0) + d_dyn)
                                if rec_list is not None:
                                    if rec_stalls is None:
                                        rec_stalls = []
                                    rec_stalls.append((reason, d_dyn))
                                base = rdy
                            if res > base:
                                stall_row[res_reason] = (
                                    stall_row.get(res_reason, 0)
                                    + (res - base))
                                if rec_list is not None:
                                    if rec_stalls is None:
                                        rec_stalls = []
                                    rec_stalls.append((res_reason, res - base))
                        elif (pair_open and prev_cls >= 0
                              and not pair_ok[prev_cls][cls_id]):
                            # Pairing failed purely on pipe assignment:
                            # slotting.
                            stall_row = gt_stall.get(pc)
                            if stall_row is None:
                                stall_row = {}
                                gt_stall[pc] = stall_row
                            stall_row["slotting"] = (
                                stall_row.get("slotting", 0) + 1)
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
                        else:
                            l1d.lookup(paddr, allocate=False)
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

                    # ---- performance counters -------------------------
                    if issue >= cyc_mark:
                        # An overflow is due: the slots take the cycles
                        # since cyc_base (all one contiguous run).
                        for ev, otime in counters.add(
                                _EV_CYCLES, issue - cyc_base, issue):
                            pending.append((otime + skew, ev))
                        cyc_base = issue
                        cyc_mark = issue + counters.headroom(_EV_CYCLES)
                    if events_now:
                        if rec_list is not None:
                            # A dynamic event landed inside the block:
                            # this visit's schedule is not the
                            # stall-free one.
                            rec_list = None
                            fp.abort_recording(rec_block)
                        row = gt_events.get(pc)
                        if row is None:
                            row = {}
                            gt_events[pc] = row
                        for ev, etime in events_now:
                            row[ev] = row.get(ev, 0) + 1
                            for oev, otime in counters.add(ev, 1, etime):
                                pending.append((otime + skew, oev))
                        events_now = None
                    if pending:
                        ready = [p for p in pending if p[0] <= issue]
                        if ready:
                            if rec_list is not None:
                                rec_list = None
                                fp.abort_recording(rec_block)
                            pending[:] = [p for p in pending if p[0] > issue]
                            for dtime, ev in ready:
                                # Deliveries while the previous
                                # instruction still held the head belong
                                # to it (to the leader of a dual issue);
                                # anything later -- including the
                                # fetch-stall gap, when the issue queue
                                # is empty -- reports the PC of the next
                                # instruction to execute (paper section
                                # 4.1.2: this is what makes IMISS
                                # samples land on the missing
                                # instruction).
                                if dtime > prev_issue:
                                    attr_pc = pc
                                elif issue == prev_issue:
                                    attr_pc = leader_pc
                                else:
                                    attr_pc = leader_before
                                if sink is not None:
                                    cost = sink(self.cpu_id, proc.pid,
                                                attr_pc, ev, dtime)
                                    if cost:
                                        front_extra += cost
                                if edge_sink is not None and ev is _EV_CYCLES:
                                    if self.edge_interpret:
                                        # Decode the sampled instruction;
                                        # if it transfers control, its
                                        # direction is computable from
                                        # register state (we executed it
                                        # already: next_pc).
                                        if attr_pc == pc and ctrl:
                                            edge_sink(self.cpu_id, proc.pid,
                                                      pc, next_pc, dtime)
                                    else:
                                        edge_from = attr_pc
                                        stop = -1

                    # ---- recording ------------------------------------
                    if rec_list is not None:
                        paired = issue == prev_issue
                        rec_list.append(
                            (issue - rec_t0, 0 if paired else cycles_head,
                             paired,
                             tuple(rec_stalls) if rec_stalls else None))
                        rec_stalls = None
                        if ctrl:
                            # The terminator completes the recording:
                            # its issue slot and pairing are
                            # entry-invariant even though its direction
                            # is dynamic.
                            fp.store(rec_block, rec_key, tuple(rec_list))
                            rec_list = None

                    # ---- advance --------------------------------------
                    prev_issue = issue
                    if issue >= stop:
                        break
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

        # Below cyc_mark, so this overflows no slot.
        counters.add(_EV_CYCLES, prev_issue - cyc_base, prev_issue)
        # Fold deferred ground truth in before anything can read the
        # maps (pure addition, so totals match per-instruction counts).
        _count_visits(visited, gt_count)
        if fp_on:
            fp.flush_deferred(gt_count, gt_head, gt_stall, gt_edges)
            fp.replays += fp_replays
            fp.replayed_instructions += fp_replayed
            fp.dispatches += fp_dispatches
            fp.trace_entries += fp_trace_entries
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
