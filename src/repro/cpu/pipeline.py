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

Two execution paths share this accounting:

* the **slow path** walks predecoded records
  (:mod:`repro.alpha.predecode`) one instruction at a time and handles
  every dynamic event;
* the **fast path** replays a cached per-block issue schedule
  (:mod:`repro.cpu.fastpath`) when the block's entry conditions match a
  prior visit, batching the block's CYCLES counter updates into one
  contiguous span.  The gate at a block head is the only way into a
  replay; a clean exit returns to it.  A replay is a clean prefix: the compiled code holds
  hit paths only and stops *before* the first instruction whose fetch,
  translation, D-cache probe or write-buffer probe does not hit, with
  nothing of that instruction applied.  The slow path -- the only
  implementation of what a miss does -- takes over from there, so
  counters, samples and ground-truth attributions stay byte-identical.
"""

from repro.alpha.opcodes import MASK64
from repro.alpha.predecode import PAIR_OK_ID
from repro.cpu.branch import BranchPredictor
from repro.cpu.caches import Cache, Hierarchy
from repro.cpu.counters import CounterUnit
from repro.cpu.events import EventType
from repro.cpu.fastpath import CLEAN
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
        caller has already updated ``_last_fetch_line``.  Replay code
        inlines only the fetch that charges nothing (same page, L1 hit)
        and leaves every other one to the slow path and this method.
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
        gt_count = machine.gt_count
        gt_head = machine.gt_head
        gt_stall = machine.gt_stall
        gt_events = machine.gt_events
        gt_edges = machine.gt_edges
        counters = self.counters
        cycles_slots = counters.live_slots(_EV_CYCLES)
        pending = self._pending
        sink = self.sample_sink
        edge_sink = self.edge_sink
        # A pending double-sample does not survive a context switch (the
        # second PC would belong to a different process).
        edge_from = None
        skew = config.interrupt_skew
        page_bits = config.page_bits
        page_mask = (1 << page_bits) - 1
        line_shift = self.ihier.l1._line_shift
        mispredict_penalty = config.mispredict_penalty
        pair_ok = PAIR_OK_ID
        dtb = self.dtb
        dhier = self.dhier
        wb = self.wb
        bp = self.bp
        l1d = dhier.l1
        l1d_latency = l1d.latency

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
        # pair_open: the previous instruction issued alone in its cycle
        # and a compatible follower could still join it.
        pair_open = False
        prev_cls = -1
        leader_pc = proc.last_pc
        front_extra = 0  # mispredict + handler cycles delaying the front end
        front_reason = None
        imul_free = proc.imul_free
        fdiv_free = proc.fdiv_free
        retired = 0

        fp = machine.fastpath
        fp_on = fp is not None
        fp_blocks = fp.blocks if fp_on else None
        # Folded into fp where flush_deferred runs, at run exit.
        fp_replays = 0
        fp_replayed = 0
        at_head = fp_on  # a run entry is always a block boundary
        replay_var = None  # schedule selected by the gate this iteration
        rec_list = None  # schedule being recorded for (rec_block, rec_key)
        rec_block = None
        rec_key = None
        rec_t0 = 0

        deadline = None
        if cycle_limit is not None:
            deadline = prev_issue + cycle_limit
        insts_left = inst_limit if inst_limit is not None else -1
        status = BUDGET

        while True:
            if pc == exit_addr:
                status = EXITED
                break
            if insts_left == 0:
                status = BUDGET
                break
            if deadline is not None and prev_issue >= deadline:
                status = QUANTUM
                break

            # ---- fast path: replay a cached schedule, or record one ----
            if at_head:
                at_head = False
                # Replay may not interact with sampling machinery:
                # nothing pending, no front-end debt, no half-taken
                # double sample.
                if front_extra == 0 and not pending and edge_from is None:
                    block = fp_blocks.get(pc)
                    if block is None:
                        block = fp.discover(pc)
                    if block is not False:
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
                            fp.variant_misses += 1
                            if fp.variant_count < fp.MAX_VARIANTS:
                                rec_list = []
                                rec_block = block
                                rec_key = key
                                rec_t0 = t0
                        else:
                            if var.fn is None:
                                # Cold variant: the slow path keeps
                                # executing the block until it recurs
                                # enough to be worth a compile().
                                var.uses += 1
                                if var.uses >= fp.COMPILE_USES:
                                    fp.compile_variant(var)
                            if var.fn is not None:
                                total_rel = var.total_rel
                                if (0 <= insts_left < var.n
                                        or (deadline is not None
                                            and t0 + total_rel
                                            >= deadline)):
                                    # Too close to a budget edge to
                                    # commit to a whole block; the slow
                                    # path paces itself per
                                    # instruction.
                                    pass
                                else:
                                    replay_var = var
                                    for _slot in cycles_slots:
                                        if (total_rel >= _slot.period
                                                - _slot.count):
                                            # The block could overflow
                                            # a CYCLES counter
                                            # mid-replay; let the slow
                                            # path pace the delivery.
                                            fp.headroom_skips += 1
                                            replay_var = None
                                            break

            if replay_var is not None:
                # ---- replay ----------------------------------------
                # The compiled function executes the whole block's
                # semantics and the model's hit paths with schedule
                # constants and the final scoreboard inlined, or stops
                # before the first probe that misses; everything else
                # (pairing state, deferred ground truth, the block's
                # contiguous CYCLES span) is applied in bulk from the
                # variant's precomputed structures.
                v = replay_var
                replay_var = None
                res = v.fn(self, bp, dtb, l1d, wb, mem, iregs, fregs,
                           reg_ready, reg_ready_static, reg_dyn_reason,
                           asn, t0)
                fp_replays += 1
                if res[0] == CLEAN:
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
                    total_rel = v.total_rel
                    prev_issue = t0 + total_rel
                    if total_rel:
                        # One contiguous CYCLES span; the headroom gate
                        # proved it overflows no slot.
                        for _slot in cycles_slots:
                            _slot.count += total_rel
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
                    at_head = True
                    continue

                # ---- bail: the replay stopped before instruction i ----
                # Whatever probe stopped it (res[0] only names it),
                # exactly steps[:i] ran, all of them clean: apply their
                # accounting and let the slow path run instruction i.
                i = res[1]
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
                    prev_issue = t0 + last_step[1]
                    delta = last_step[1]
                    if delta:
                        # A prefix of the span the gate cleared.
                        for _slot in cycles_slots:
                            _slot.count += delta
                fp_replayed += i
                fp.bails[res[0]] += 1
                insts_left -= i
                retired += i
                pc = steps[i][0][14]
                continue

            # ---- slow path -------------------------------------------
            insts_left -= 1
            srec = decode_map.get(pc)
            if srec is None:
                raise RuntimeError(
                    "pid %d jumped to unmapped pc %#x" % (proc.pid, pc))
            if edge_from is not None:
                # Second half of a double sample: this is the next PC
                # executed after the first interrupt returned.
                edge_sink(self.cpu_id, proc.pid, edge_from, pc,
                          prev_issue)
                edge_from = None
            kind = srec[0]
            cls_id = srec[1]
            addr = pc
            rec_stalls = None
            delivered = False
            wb_clean = True

            # ---- fetch --------------------------------------------------
            itb_fetch_pen = 0
            icache_pen = 0
            events_now = None  # [(event, time)] for this instruction
            fline = pc >> line_shift
            if fline != self._last_fetch_line:
                self._last_fetch_line = fline
                itb_fetch_pen, icache_pen, events_now = self._fetch(
                    pc, prev_issue)
            fetch_pen = itb_fetch_pen + icache_pen

            # ---- operand readiness --------------------------------------
            rdy = 0
            rdy_static = 0
            dep_index = 0
            dyn_reg = -1
            srcs = srec[3]
            if srcs:
                index = 0
                for src in srcs:
                    r = reg_ready[src]
                    if r > rdy:
                        rdy = r
                        dyn_reg = src
                    rs = reg_ready_static[src]
                    if rs > rdy_static:
                        rdy_static = rs
                        dep_index = index
                    index += 1

            # ---- resources ----------------------------------------------
            res = 0
            res_reason = None
            unit = srec[11]
            if unit == 1:
                if imul_free > res:
                    res = imul_free
                    res_reason = "imul"
            elif unit == 2:
                if fdiv_free > res:
                    res = fdiv_free
                    res_reason = "fdiv"

            vaddr = -1
            if 4 <= kind <= 9:
                vaddr = (iregs[srec[5]] + srec[8]) & MASK64
                if kind >= 7:
                    wb_ready = wb.earliest_issue(vaddr, prev_issue + 1)
                    if wb_ready != prev_issue + 1:
                        wb_clean = False
                    if wb_ready > res:
                        res = wb_ready
                        res_reason = "wb"

            # ---- issue / pairing ----------------------------------------
            total_front = fetch_pen + front_extra
            if (pair_open and total_front == 0 and rdy <= prev_issue
                    and res <= prev_issue and pair_ok[prev_cls][cls_id]):
                issue = prev_issue
                paired = True
                cycles_head = 0
                pair_open = False
            else:
                arrival = prev_issue + 1 + total_front
                issue = arrival
                if rdy > issue:
                    issue = rdy
                if res > issue:
                    issue = res
                paired = False
                cycles_head = issue - arrival + 1

                # ---- ground-truth stall decomposition -------------------
                if cycles_head > 1 or total_front or fetch_pen:
                    stall_row = gt_stall.get(addr)
                    if stall_row is None:
                        stall_row = {}
                        gt_stall[addr] = stall_row
                    if front_extra and front_reason:
                        stall_row[front_reason] = (
                            stall_row.get(front_reason, 0) + front_extra)
                    if itb_fetch_pen:
                        stall_row["itb"] = (
                            stall_row.get("itb", 0) + itb_fetch_pen)
                    if icache_pen:
                        stall_row["icache"] = (
                            stall_row.get("icache", 0) + icache_pen)
                    base = arrival
                    d_static = min(rdy_static, issue) - base
                    if d_static > 0:
                        reason = DEP_REASON[dep_index]
                        stall_row[reason] = stall_row.get(reason, 0) + d_static
                        if rec_list is not None:
                            if rec_stalls is None:
                                rec_stalls = []
                            rec_stalls.append((reason, d_static))
                        base += d_static
                    d_dyn = min(rdy, issue) - base
                    if d_dyn > 0:
                        reason = reg_dyn_reason.get(dyn_reg) or "dcache"
                        stall_row[reason] = stall_row.get(reason, 0) + d_dyn
                        if rec_list is not None:
                            if rec_stalls is None:
                                rec_stalls = []
                            rec_stalls.append((reason, d_dyn))
                        base = min(rdy, issue)
                    if res > base and res_reason:
                        stall_row[res_reason] = (
                            stall_row.get(res_reason, 0) + (res - base))
                        if rec_list is not None:
                            if rec_stalls is None:
                                rec_stalls = []
                            rec_stalls.append((res_reason, res - base))
                elif (pair_open and prev_cls >= 0
                      and not pair_ok[prev_cls][cls_id]):
                    # Pairing failed purely on pipe assignment: slotting.
                    stall_row = gt_stall.get(addr)
                    if stall_row is None:
                        stall_row = {}
                        gt_stall[addr] = stall_row
                    stall_row["slotting"] = stall_row.get("slotting", 0) + 1
                    if rec_list is not None:
                        rec_stalls = [("slotting", 1)]
                pair_open = True
            front_extra = 0
            front_reason = None
            prev_cls = cls_id

            # ---- execute -------------------------------------------------
            next_pc = pc + 4
            if kind == 0:  # op
                f2 = srec[5]
                value = srec[10](iregs[srec[4]],
                                 iregs[f2] if f2 is not None else srec[8])
                dst = srec[7]
                if dst is not None:
                    iregs[dst] = value
                    done = issue + srec[2]
                    reg_ready[dst] = done
                    reg_ready_static[dst] = done
                    reg_dyn_reason[dst] = None
                if unit == 1:
                    imul_free = issue + srec[12]
            elif kind == 3:  # lda
                f2 = srec[5]
                value = ((iregs[f2] if f2 is not None else 0)
                         + srec[8]) & MASK64
                dst = srec[7]
                if dst is not None:
                    iregs[dst] = value
                    done = issue + srec[2]
                    reg_ready[dst] = done
                    reg_ready_static[dst] = done
                    reg_dyn_reason[dst] = None
            elif kind == 1:  # cmov
                f2 = srec[5]
                b = iregs[f2] if f2 is not None else srec[8]
                value = b if srec[10](iregs[srec[4]]) else iregs[srec[6]]
                dst = srec[7]
                if dst is not None:
                    iregs[dst] = value
                    done = issue + srec[2]
                    reg_ready[dst] = done
                    reg_ready_static[dst] = done
                    reg_dyn_reason[dst] = None
            elif kind == 2:  # fop
                f1 = srec[4]
                a = fregs[f1] if f1 is not None else 0.0
                value = srec[10](a, fregs[srec[5]])
                dst = srec[7]
                if dst is not None:
                    fregs[dst - 32] = value
                    done = issue + srec[2]
                    reg_ready[dst] = done
                    reg_ready_static[dst] = done
                    reg_dyn_reason[dst] = None
                if unit == 2:
                    fdiv_free = issue + srec[12]
            elif kind <= 6:  # loads
                ppage, dtb_pen, dtb_miss = dtb.translate(
                    asn, vaddr >> page_bits, translate_data)
                paddr = (ppage << page_bits) | (vaddr & page_mask)
                dlat, dmiss = dhier.access(paddr)
                dst = srec[7]
                if kind == 4:  # ldq
                    value = mem.get(vaddr & ~7, 0)
                    if dst is not None:
                        iregs[dst] = value
                elif kind == 5:  # ldl
                    value = mem.get(vaddr & ~3, 0) & 0xFFFFFFFF
                    if value >> 31:
                        value = (value | ~0xFFFFFFFF) & MASK64
                    if dst is not None:
                        iregs[dst] = value
                else:  # ldt
                    value = mem.get(vaddr & ~7, 0)
                    if not isinstance(value, float):
                        value = float(value)
                    if dst is not None:
                        fregs[dst - 32] = value
                if dst is not None:
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
                ppage, dtb_pen, dtb_miss = dtb.translate(
                    asn, vaddr >> page_bits, translate_data)
                paddr = (ppage << page_bits) | (vaddr & page_mask)
                # Write-through, no-write-allocate: probe without filling.
                dhier.l1.lookup(paddr, allocate=False)
                wb.commit(vaddr, issue)
                if kind == 7:  # stq
                    mem[vaddr & ~7] = iregs[srec[4]]
                elif kind == 8:  # stl
                    mem[vaddr & ~3] = iregs[srec[4]] & 0xFFFFFFFF
                else:  # stt
                    mem[vaddr & ~7] = fregs[srec[4]]
                if dtb_miss:
                    if events_now is None:
                        events_now = []
                    events_now.append((_EV_DTBMISS, issue))
            elif kind == 11 or kind == 12:  # cbranch / fbranch
                if kind == 11:
                    taken = srec[10](iregs[srec[4]])
                else:
                    taken = srec[10](fregs[srec[4]])
                if taken:
                    next_pc = srec[9]
                    pair_open = False
                correct = bp.predict_conditional(pc, taken)
                if not correct:
                    front_extra = mispredict_penalty
                    front_reason = "branchmp"
                    if events_now is None:
                        events_now = []
                    events_now.append((_EV_BRANCHMP, issue))
                edge = (addr, next_pc)
                gt_edges[edge] = gt_edges.get(edge, 0) + 1
            elif kind == 13 or kind == 14:  # br / bsr
                dst = srec[7]
                if dst is not None:
                    iregs[dst] = pc + 4
                    reg_ready[dst] = issue + 1
                    reg_ready_static[dst] = issue + 1
                    reg_dyn_reason[dst] = None
                if kind == 14:
                    bp.push_call(pc + 4)
                next_pc = srec[9]
                pair_open = False
                edge = (addr, next_pc)
                gt_edges[edge] = gt_edges.get(edge, 0) + 1
            elif kind >= 15:  # jmp / jsr / ret
                target = iregs[srec[5]] & ~3
                dst = srec[7]
                if dst is not None:
                    iregs[dst] = pc + 4
                    reg_ready[dst] = issue + 1
                    reg_ready_static[dst] = issue + 1
                    reg_dyn_reason[dst] = None
                if kind == 16:
                    bp.push_call(pc + 4)
                    correct = bp.predict_indirect(pc, target)
                elif kind == 17:
                    correct = bp.predict_return(target)
                else:
                    correct = bp.predict_indirect(pc, target)
                if not correct:
                    front_extra = mispredict_penalty
                    front_reason = "branchmp"
                    if events_now is None:
                        events_now = []
                    events_now.append((_EV_BRANCHMP, issue))
                next_pc = target
                pair_open = False
                if target != exit_addr:
                    edge = (addr, target)
                    gt_edges[edge] = gt_edges.get(edge, 0) + 1
            # kind == 10 (nop / call_pal): timing only.

            # ---- ground truth --------------------------------------------
            gt_count[addr] = gt_count.get(addr, 0) + 1
            if cycles_head:
                gt_head[addr] = gt_head.get(addr, 0) + cycles_head

            # ---- performance counters ------------------------------------
            delta = issue - prev_issue
            if delta:
                # No call unless an overflow is due: counters.add only
                # when some slot would reach its period.
                for _slot in cycles_slots:
                    if delta >= _slot.period - _slot.count:
                        for ev, otime in counters.add(
                                _EV_CYCLES, delta, issue):
                            pending.append((otime + skew, ev))
                        break
                else:
                    for _slot in cycles_slots:
                        _slot.count += delta
            if events_now:
                for ev, etime in events_now:
                    row = gt_events.get(addr)
                    if row is None:
                        row = {}
                        gt_events[addr] = row
                    row[ev] = row.get(ev, 0) + 1
                    for oev, otime in counters.add(ev, 1, etime):
                        pending.append((otime + skew, oev))
            if pending:
                ready = [p for p in pending if p[0] <= issue]
                if ready:
                    delivered = True
                    pending[:] = [p for p in pending if p[0] > issue]
                    for dtime, ev in ready:
                        # Deliveries while the previous instruction still
                        # held the head belong to it; anything later --
                        # including the fetch-stall gap, when the issue
                        # queue is empty -- reports the PC of the next
                        # instruction to execute (paper section 4.1.2:
                        # this is what makes IMISS samples land on the
                        # missing instruction).
                        if paired or dtime <= prev_issue:
                            attr_pc = leader_pc
                        else:
                            attr_pc = pc
                        if sink is not None:
                            cost = sink(self.cpu_id, proc.pid, attr_pc,
                                        ev, dtime)
                            if cost:
                                front_extra += cost
                        if edge_sink is not None and ev is _EV_CYCLES:
                            if self.edge_interpret:
                                # Decode the sampled instruction; if it
                                # transfers control, its direction is
                                # computable from register state (we
                                # executed it already: next_pc).
                                if attr_pc == pc and srec[13]:
                                    edge_sink(self.cpu_id, proc.pid,
                                              pc, next_pc, dtime)
                            else:
                                edge_from = attr_pc
            if not paired:
                leader_pc = pc

            # ---- recording -----------------------------------------------
            if rec_list is not None:
                if fetch_pen or events_now or delivered or not wb_clean:
                    # A dynamic event landed inside the block: this
                    # visit's schedule is not the stall-free one.
                    rec_list = None
                    fp.abort_recording(rec_block)
                else:
                    rec_list.append(
                        (issue - rec_t0, cycles_head, paired,
                         tuple(rec_stalls) if rec_stalls else None))
                    if srec[13]:
                        # The terminator completes the recording: its
                        # issue slot and pairing are entry-invariant
                        # even though its direction is dynamic.
                        fp.store(rec_block, rec_key, tuple(rec_list))
                        rec_list = None

            # ---- advance -------------------------------------------------
            retired += 1
            prev_issue = issue
            pc = next_pc
            if srec[13]:
                at_head = fp_on

        # Fold deferred fast-path ground truth in before anything can
        # read the maps (pure addition, so totals match the slow path).
        if fp_on:
            fp.flush_deferred(gt_count, gt_head, gt_stall)
            fp.replays += fp_replays
            fp.replayed_instructions += fp_replayed

        # Save resumable state.
        proc.pc = pc
        proc.last_pc = leader_pc
        proc.resume_time = prev_issue + 1
        proc.imul_free = imul_free
        proc.fdiv_free = fdiv_free
        self.time = prev_issue + 1
        self.instructions_retired += retired
        return status
