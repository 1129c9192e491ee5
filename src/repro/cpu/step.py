"""Visits of a hot run or region, in generated code, and the rules the
interpreter and the generated code share.

``Core.run``'s dispatch loop (:mod:`repro.cpu.pipeline`) runs every run
visit the gate does not replay in one of two ways.  Its loop body
*interprets* the run's predecoded records: the reference, the only way
with the fast path off, and the way of cold runs, of visits that record
a schedule for the gate and of visits the instruction budget cuts
short.  A hot run instead gets a *generated step*
(:func:`compile_run`): one function that is the interpreter for that
run's records -- register numbers, opcode semantics (``open_code`` of
the record's callable), fetch-line chunks and pairing rows folded in as
constants -- which probes, misses and counts the models as the
interpreter does.

When the run's dominant successor edges lead back to it (:func:`region`),
the step spans that *region*: the members' records in path order, each
member's terminator guarding the direction into the next.  A step
returns where the last member ends, where control leaves the region at
an interior terminator, or where ``issue >= stop`` stops the visit,
with the loop state the next iteration continues from, as the
interpreter leaves it::

    (k, laps, next_pc, prev_issue, pair_open, prev_cls, leader_pc,
     front_extra, front_reason, imul_free, fdiv_free, cyc_base,
     cyc_mark, edge_from)

*k* is the number of the region's records the (last) pass ran, in path
order, and *next_pc* the address the loop continues at; *laps* counts
the complete passes before it that the step of a loop ran from the
head without returning (at most the *laps* it was given).

Where the issue rule would live twice, one source feeds both: stall
decomposition (:func:`charge_stalls`), slotting (:func:`charge_slotting`
-- both keep a one-line in-line case for a row that already counts
slotting), CYCLES overflow (:func:`count_cycles`), event counting
(:func:`post_events`) and sample delivery (:func:`deliver`) are
functions both call; :func:`deliver` makes one pass over what is
pending, and event counting calls ``CounterUnit.add`` only for an
occurrence that overflows a slot.
Both tails test one due cycle per instruction -- the least of
``cyc_mark``, ``stop`` and the earliest pending delivery -- and run the
counters, deliveries and the deadline only when it is reached (or an
event was posted), in the same shape.  What stays written twice is the
common path the generator folds: operand readiness, the pairing test,
arrival / issue and ``gt_head``, the hit probes (a miss is one model
call, ``Hierarchy.access``) and each kind's execute.  The interpreter's
copy is written by hand and is the reference; the generator's is
:mod:`repro.cpu.codegen`'s text -- each kind's effect, the address, a
store's merge-or-commit, the predictor update and the hoisted handles
-- which replay code (:mod:`repro.cpu.fastpath`) emits too, so a step
adds only its issue timing, its model calls on a miss and its counting.
"""

from repro.alpha.predecode import PAIR_OK_ID
from repro.cpu import codegen
from repro.cpu.codegen import (access, code_page, effect, handles, l1d_hit,
                               l1i_set, merge_or_commit, predict, settle,
                               translate)
from repro.cpu.events import EventType
from repro.cpu.issue import DEP_REASON

_EV_CYCLES = EventType.CYCLES
_EV_DMISS = EventType.DMISS
_EV_BRANCHMP = EventType.BRANCHMP
_EV_DTBMISS = EventType.DTBMISS


# ---- the rules both steps call ------------------------------------------


def charge_stalls(gt_stall, pc, front_extra, front_reason, itb_pen,
                  icache_pen, arrival, issue, rdy, res, res_reason, srcs,
                  proc, recording):
    """Decompose an unpaired instruction's head cycles into ground-truth
    stall reasons; the caller then owes no front-end cycles.

    The front end's debt goes first (mispredict or handler cycles under
    *front_reason*, then the ITB and I-cache fetch penalties), then the
    static dependency on the first source holding the latest static
    ready time, the dynamic rest (a miss) and the resource wait.  With
    *recording*, returns the instruction's ``(reason, cycles)`` stalls
    after the front end's, for the gate's schedule."""
    stall_row = gt_stall.get(pc)
    if stall_row is None:
        stall_row = {}
        gt_stall[pc] = stall_row
    stalls = [] if recording else None
    if front_extra:
        fetch_pen = itb_pen + icache_pen
        if front_extra != fetch_pen and front_reason:
            stall_row[front_reason] = (stall_row.get(front_reason, 0)
                                       + front_extra - fetch_pen)
        if itb_pen:
            stall_row["itb"] = stall_row.get("itb", 0) + itb_pen
        if icache_pen:
            stall_row["icache"] = stall_row.get("icache", 0) + icache_pen
    base = arrival
    if rdy > base:
        # A source not ready at arrival: its static part (a register
        # dependence; static ready times never exceed dynamic ones),
        # then the dynamic rest.
        reg_ready_static = proc.reg_ready_static
        rdy_static = 0
        for src in srcs:
            r = reg_ready_static[src]
            if r > rdy_static:
                rdy_static = r
        d_static = (rdy_static if rdy_static < issue else issue) - base
        if d_static > 0:
            dep_index = 0
            for src in srcs:
                if reg_ready_static[src] == rdy_static:
                    break
                dep_index += 1
            reason = DEP_REASON[dep_index]
            stall_row[reason] = stall_row.get(reason, 0) + d_static
            if recording:
                stalls.append((reason, d_static))
            base += d_static
        d_dyn = rdy - base  # issue >= rdy
        if d_dyn > 0:
            reg_ready = proc.reg_ready
            for src in srcs:
                if reg_ready[src] == rdy:
                    break
            reason = proc.reg_dyn_reason.get(src) or "dcache"
            stall_row[reason] = stall_row.get(reason, 0) + d_dyn
            if recording:
                stalls.append((reason, d_dyn))
            base = rdy
    if res > base:
        stall_row[res_reason] = stall_row.get(res_reason, 0) + (res - base)
        if recording:
            stalls.append((res_reason, res - base))
    return stalls


def charge_slotting(gt_stall, pc):
    """An unpaired instruction that stalled on nothing but could not
    join the open issue slot: pairing failed purely on pipe
    assignment."""
    stall_row = gt_stall.get(pc)
    if stall_row is None:
        stall_row = {}
        gt_stall[pc] = stall_row
    stall_row["slotting"] = stall_row.get("slotting", 0) + 1


def count_cycles(counters, pending, skew, amount, issue):
    """Hand the CYCLES slots the *amount* cycles ending at *issue* (an
    overflow is due); return the new watermark ``cyc_mark``."""
    for ev, otime in counters.add(_EV_CYCLES, amount, issue):
        pending.append((otime + skew, ev))
    return issue + counters.room[_EV_CYCLES]


def post_events(gt_events, pc, events, counters, pending, skew):
    """Count the instruction's dynamic *events* ``[(event, time)]`` in
    ground truth and on the counters.  An occurrence that overflows no
    slot only lowers the event's ``CounterUnit.room``; the one that
    brings it to 0 goes to ``CounterUnit.add``, which hands the slots
    every occurrence counted here since."""
    row = gt_events.get(pc)
    if row is None:
        row = {}
        gt_events[pc] = row
    room = counters.room
    for ev, etime in events:
        row[ev] = row.get(ev, 0) + 1
        left = room[ev] - 1
        if left:
            room[ev] = left
        else:
            for oev, otime in counters.add(ev, 1, etime):
                pending.append((otime + skew, oev))


def deliver(core, pid, pending, issue, prev_issue, pc, leader, ctrl,
            next_pc, front_extra, edge_from, stop, due):
    """Deliver the interrupts in *pending* due by *issue*, in the order
    they were posted, and keep the others.  Returns ``(front_extra,
    edge_from, stop, due)``: the front-end debt with the handlers'
    cycles added; after a CYCLES sample under double sampling, the PC
    awaiting the second half and a stop right after this instruction;
    and the next due cycle, the least of *due* (the caller's least of
    ``cyc_mark`` and *stop*), the new stop and the deliveries kept.

    Deliveries while the previous instruction still held the head
    belong to it (to *leader*, the leader of a dual issue); anything
    later -- including the fetch-stall gap, when the issue queue is
    empty -- reports the PC of the next instruction to execute (paper
    section 4.1.2: this is what makes IMISS samples land on the missing
    instruction)."""
    ready = []
    kept = 0
    for entry in pending:
        dtime = entry[0]
        if dtime <= issue:
            ready.append(entry)
        else:
            pending[kept] = entry
            kept += 1
            if dtime < due:
                due = dtime
    if not ready:
        return front_extra, edge_from, stop, due
    del pending[kept:]
    sink = core.sample_sink
    edge_sink = core.edge_sink
    for dtime, ev in ready:
        attr_pc = pc if dtime > prev_issue else leader
        if sink is not None:
            cost = sink(core.cpu_id, pid, attr_pc, ev, dtime)
            if cost:
                front_extra += cost
        if edge_sink is not None and ev is _EV_CYCLES:
            if core.edge_interpret:
                # Decode the sampled instruction; if it transfers
                # control, its direction is computable from register
                # state (we executed it already: next_pc).
                if attr_pc == pc and ctrl:
                    edge_sink(core.cpu_id, pid, pc, next_pc, dtime)
            else:
                edge_from = attr_pc
                stop = due = -1
    return front_extra, edge_from, stop, due


# ---- the generated step -------------------------------------------------


def load_miss(core, proc, vaddr, issue, events):
    """A load with no D-TLB entry, for generated steps: the models
    translate and access, counting hits and misses as the interpreter
    does.  Returns the cycles until the value is ready after *issue*,
    the destination's dynamic ready reason and *events* with the misses
    added."""
    page_bits = core.shape[0]
    ppage, dtb_pen, dtb_miss = core.dtb.translate(
        proc.asn, vaddr >> page_bits, proc.translate_data)
    dlat, dmiss = core.dhier.access(
        (ppage << page_bits) | (vaddr & ((1 << page_bits) - 1)))
    if dmiss or dtb_miss:
        if events is None:
            events = []
        if dmiss:
            events.append((_EV_DMISS, issue))
        if dtb_miss:
            events.append((_EV_DTBMISS, issue))
    return (dtb_pen + dlat, "dcache" if dmiss else "dtb" if dtb_miss
            else None, events)


def store_translate(core, proc, vaddr, issue, events):
    """A store with no D-TLB entry, for generated steps: the D-TLB
    translates.  Returns the physical page and *events* with the miss
    added."""
    ppage, _, dtb_miss = core.dtb.translate(
        proc.asn, vaddr >> core.shape[0], proc.translate_data)
    if dtb_miss:
        if events is None:
            events = []
        events.append((_EV_DTBMISS, issue))
    return ppage, events


# What generated steps call besides their arguments: the rules above.
codegen.GLOBALS.update(
    charge_stalls=charge_stalls, charge_slotting=charge_slotting,
    count_cycles=count_cycles, post_events=post_events, deliver=deliver,
    load_miss=load_miss, store_translate=store_translate,
    _EV_DMISS=_EV_DMISS, _EV_BRANCHMP=_EV_BRANCHMP)


def compile_run(run, runs, gt_edges, shape):
    """The generated step for *run* on a core of *shape*
    (``Core.shape``): ``Core.run``'s interpreter without the recording,
    for every visit the budget does not cut.  Returns ``(members, fn)``:
    the runs the step spans, *run* first (its region, :func:`region`),
    and the function.  Functions are kept in the process-wide code
    cache (:func:`repro.cpu.codegen.function`), keyed by the generator's
    whole input."""
    members = region(run, runs, gt_edges)
    parts = tuple(member.recs for member in members)
    return members, codegen.function(("run", parts, shape), "<compiled-run>",
                                     lambda: _run_source(parts, shape))


#: Most records a region step spans.  The regions the registry forms in
#: a 200 000-instruction session span 7 to 16 records in two to four
#: runs (altavista's and dss's scan loop: an 8-record run and a 2-record
#: tail), with replay on or refused for every run.  A region costs
#: 0.4-0.7 ms per record to generate and compile when its head tiers up
#: (``pipeline.COMPILE_RUN_AT``); twice the largest measured region
#: bounds that at 23 ms, and longer paths stay single-run steps.
MAX_REGION = 32


def region(run, runs, gt_edges):
    """The runs a generated step for *run* spans: *run*, then each
    run's dominant successor in turn (:func:`_successor`), when that
    path comes back to *run* within ``MAX_REGION`` records through runs
    already in *runs*; else *run* alone.  It reads the Machine's own
    edge counts, never the code cache, so which instructions run
    compiled is the same whether a function is generated or found."""
    members = [run]
    size = run.n
    cur = run
    while True:
        pc = _successor(cur, gt_edges)
        if pc == run.pc:
            return tuple(members)
        nxt = runs.get(pc)
        if nxt is None or nxt in members or size + nxt.n > MAX_REGION:
            return (run,)
        members.append(nxt)
        size += nxt.n
        cur = nxt


def _successor(run, gt_edges):
    """Where *run* most often continued: its fall-through or static
    target, None after an indirect transfer, and after a conditional
    branch the direction *gt_edges* counted more often -- on a tie (a
    branch not yet counted), taken backward and not taken forward, as
    a loop's back edge goes."""
    last = run.recs[-1]
    kind = last[0]
    if kind <= 10:
        return run.end
    target = last[9]
    if kind == 13 or kind == 14:
        return target
    if kind >= 15:
        return None
    pc = last[14]
    taken = gt_edges.get((pc, target), 0)
    fall = gt_edges.get((pc, pc + 4), 0)
    if taken > fall or (taken == fall and target <= pc):
        return target
    return pc + 4


def _run_source(parts, shape):
    """The text of :func:`compile_run`'s function for *parts*, the
    records of each run it spans, section by section as ``Core.run``'s
    interpreter runs them.

    Facts of the interpreter's loop make constants of what it tests:

    * only a chunk's first record can cross a fetch line, and only the
      step's first chunk can start on a line not fetched just before;
    * ``_last_code_page`` is the page of ``_last_fetch_line`` (only
      ``Core._fetch`` moves it, after that line is set), so after the
      first chunk the code page is known, and so is its physical page
      until a chunk on another page;
    * the front end's reason and fetch penalties are consumed by the
      first unpaired instruction after they arise -- so after a run's
      first instruction ``front_reason`` is None until the terminator,
      and the penalties are 0 but at a chunk's first record;
    * within the step, a member's first instruction follows the
      previous member's terminator, so its pairing row is a constant.

    A member's terminator guards the direction into the next member and
    returns where control leaves.  D-TLB and L1D hits of the inlined
    probes are counted in locals and added to the models when the
    visit returns.  ``due`` is set in the prologue and kept by each
    tail; a lap needs nothing pending, so it leaves ``due`` as it is."""
    (page_bits, ishift, dshift, imask, dmask, l1d_latency,
     mispredict_penalty, skew) = shape
    lps = page_bits - ishift
    body = []

    def out(line):
        body.append("        " + line)
    recs = [rec for part in parts for rec in part]
    n = len(recs)
    # The indices of the members' first records.
    firsts = set()
    j = 0
    for part in parts:
        firsts.add(j)
        j += len(part)
    lap = loops(parts)
    lines = {rec[14] >> ishift for rec in recs}
    prev_line = None
    prev_cls = None
    for j, rec in enumerate(recs):
        (kind, cls_id, lat, srcs, _, _, _, dst, _, target, _, unit, busy,
         ctrl, pc, nsrc) = rec
        first = j in firsts
        if first and j and not mispredict_penalty:
            # Core.run drops a reason that owes no cycles before a run.
            out("if not front_extra: front_reason = None")
        # ---- fetch (the first record's: at entry, and with each lap)
        fline = pc >> ishift
        head = fline != prev_line
        if head and j:
            for line in _fetch_source(pc, prev_line, shape, len(lines) > 1):
                out(line)
        prev_line = fline
        # Whether events_now may hold something in this instruction.
        events = head

        # ---- operand readiness
        rdy = "0"
        if nsrc:
            rdy = "rdy"
            out("rdy = reg_ready[%d]" % srcs[0])
            for src in srcs[1:]:
                out("if reg_ready[%d] > rdy: rdy = reg_ready[%d]"
                    % (src, src))

        # ---- resources
        res = "0"
        res_reason = None
        if unit == 1:
            res, res_reason = "imul_free", "imul"
        elif unit == 2:
            res, res_reason = "fdiv_free", "fdiv"
        elif 7 <= kind <= 9:
            res, res_reason = "res", "wb"
            for line in access(rec):
                out(line)
            out("res = prev_issue + 1 if _wd is not None else"
                " wb.earliest_issue(_va, prev_issue + 1)")

        # ---- issue / pairing: the pairing row is a constant but at the
        # step's first instruction, whose leader is the entry's.
        column = tuple(row[cls_id] for row in PAIR_OK_ID)
        if prev_cls is not None:
            pair_ok = column[prev_cls]
        elif all(column) or not any(column):
            pair_ok = column[0]
        else:
            pair_ok = "%r[prev_cls]" % (column,)
        pre = ""
        if pair_ok:
            tests = ["pair_open", "not front_extra"]
            if nsrc:
                tests.append("rdy <= prev_issue")
            if res != "0":
                tests.append("%s <= prev_issue" % res)
            if pair_ok is not True:
                tests.append(pair_ok)
            out("if %s:" % " and ".join(tests))
            out("    issue = prev_issue")
            out("    pair_open = False")
            out("else:")
            pre = "    "
        out(pre + "arrival = prev_issue + 1 + front_extra")
        out(pre + ("issue = rdy if rdy > arrival else arrival" if nsrc
                   else "issue = arrival"))
        if res != "0":
            out(pre + "if %s > issue: issue = %s" % (res, res))
        # The head cycles, issue - arrival + 1, go to ground truth (a
        # loop's add up over its laps, for gt_head at return); more than
        # one, or a front end owed, is a stall.
        if lap:
            out(pre + "_g%d += issue - arrival + 1" % j)
        else:
            out(pre + "try: gt_head[%d] += issue - arrival + 1" % pc)
            out(pre + "except KeyError: gt_head[%d] = issue - arrival + 1"
                % pc)
        out(pre + "leader_before = leader_pc")
        out(pre + "leader_pc = %d" % pc)
        owed = "front_extra = 0"
        if head:
            owed += "; itb_pen = icache_pen = 0"
        if first:
            owed += "; front_reason = None"
        out(pre + "if issue > arrival or front_extra: charge_stalls("
            "gt_stall, %d, front_extra, %s, %s, arrival, issue, %s, %s, %r,"
            " %r, proc, False); %s"
            % (pc, "front_reason" if first else "None",
               "itb_pen, icache_pen" if head else "0, 0", rdy, res,
               res_reason, srcs, owed))
        if pair_ok is not True:
            # pair_open implies a leader, so prev_cls >= 0.  A row that
            # already counts slotting takes the cycle in line.
            out(pre + ("elif pair_open and not %s:" % pair_ok
                       if pair_ok else "elif pair_open:"))
            out(pre + '    try: gt_stall[%d]["slotting"] += 1' % pc)
            out(pre + "    except KeyError: charge_slotting(gt_stall, %d)"
                % pc)
        out(pre + "pair_open = True")
        prev_cls = cls_id

        # ---- execute (a control transfer sets next_pc's text): the
        # hit probes in line, the record's effect, its ready times
        next_pc = None
        if 4 <= kind <= 6:
            out(access(rec)[0])
        if 4 <= kind <= 9:
            out(translate(page_bits))
            hit = l1d_hit(page_bits, dshift, dmask)
            if kind <= 6:
                out("if _pp is not None and %s:" % hit)
                out("    _th += 1; _lh += 1")
                if dst is not None:
                    out("    " + settle(dst, "issue + %d" % l1d_latency))
                # An L1D miss under a D-TLB entry: the hierarchy decides
                # the latency, and it is a miss (it compares the tag
                # just compared here).
                out("elif _pp is not None:")
                out("    _th += 1")
                dl = ("dhier.access((_pp << %d) | (_va & %d))"
                      % (page_bits, (1 << page_bits) - 1))
                if dst is not None:
                    out("    reg_ready[%d] = issue + %s[0]; reg_ready_static"
                        "[%d] = issue + %d; reg_dyn_reason[%d] = 'dcache'"
                        % (dst, dl, dst, l1d_latency, dst))
                else:
                    out("    " + dl)
                _post(out, events, "_EV_DMISS", "    ")
                if dst is not None:
                    out("else:")
                    out("    _dl, reg_dyn_reason[%d], events_now = "
                        "load_miss(core, proc, _va, issue, events_now)" % dst)
                    out("    reg_ready[%d] = issue + _dl; reg_ready_static"
                        "[%d] = issue + %d" % (dst, dst, l1d_latency))
                else:
                    out("else: events_now = load_miss(core, proc, _va, issue,"
                        " events_now)[2]")
            else:
                out("if _pp is None: _pp, events_now = store_translate("
                    "core, proc, _va, issue, events_now)")
                out("else: _th += 1")
                # Write-through, no-write-allocate: a miss installs
                # nothing (Cache.lookup with allocate=False).
                out("if %s: _lh += 1" % hit)
                out("else: _lm += 1")
                for line in merge_or_commit("issue"):
                    out(line)
            events = True
        for line in effect(rec):
            out(line)
        if dst is not None and (kind <= 3 or kind >= 13):
            out(settle(dst, "issue + %d" % (lat if kind <= 3 else 1)))
        if unit == 1:
            out("imul_free = issue + %d" % busy)
        elif unit == 2:
            out("fdiv_free = issue + %d" % busy)
        if kind >= 11:
            if kind <= 12:
                out("if _t: next_pc = %d; pair_open = False" % target)
                out("else: next_pc = %d" % (pc + 4))
            update, test, miss = predict(rec)
            for line in update:
                out(line)
            if test:
                out("if %s:" % test)
                for line in miss:
                    out("    " + line)
                out("    front_extra = %d; front_reason = 'branchmp'"
                    % mispredict_penalty)
                _post(out, events, "_EV_BRANCHMP", "    ")
                events = True
            if kind >= 13:
                out("pair_open = False")
            if kind <= 12:
                out("_e = (%d, next_pc); gt_edges[_e] = gt_edges.get(_e, 0)"
                    " + 1" % pc)
            elif kind <= 14:
                out("gt_edges[%r] = gt_edges.get(%r, 0) + 1"
                    % ((pc, target), (pc, target)))
            else:
                out("if next_pc != proc.exit_addr: _e = (%d, next_pc);"
                    " gt_edges[_e] = gt_edges.get(_e, 0) + 1" % pc)
            next_pc = str(target) if kind == 13 or kind == 14 else "next_pc"
        # kind == 10 (nop / call_pal): timing only.

        # ---- performance counters, deliveries and the deadline: only
        # when due (or an event was posted)
        out("if issue >= due%s:" % (" or events_now" if events else ""))
        out("    if issue >= cyc_mark: cyc_base, cyc_mark = issue,"
            " count_cycles(core.counters, pending, %d, issue - cyc_base,"
            " issue)" % skew)
        if events:
            out("    if events_now: post_events(gt_events, %d, events_now,"
                " core.counters, pending, %d); events_now = None" % (pc, skew))
        out("    due = cyc_mark if cyc_mark < stop else stop")
        out("    if pending: front_extra, edge_from, stop, due = deliver(core,"
            " proc.pid, pending, issue, prev_issue, %d, %s, %r, %s,"
            " front_extra, edge_from, stop, due)"
            % (pc, "leader_pc if issue == prev_issue else leader_before"
               if pair_ok else "leader_before", bool(ctrl),
               next_pc if ctrl else None))
        if j < n - 1:
            # The deadline stops the visit after this instruction.
            succ = recs[j + 1][14]
            out("    if issue >= stop: prev_issue = issue; _k = %d;%s break"
                % (j + 1, "" if next_pc == "next_pc" and j + 1 in firsts
                   else " next_pc = %d;" % (succ if j + 1 in firsts
                                            else pc + 4)))

        # ---- advance
        out("prev_issue = issue")
        if j + 1 in firsts and next_pc == "next_pc":
            # An interior terminator: the step goes on only into the
            # next member.
            out("if next_pc != %d: _k = %d; break" % (recs[j + 1][14], j + 1))
    start = recs[0][14]
    if not ctrl:
        next_pc = str(pc + 4)
    head = ["def _step(%s):" % _STEP_ARGS,
            "    itb_pen = icache_pen = 0",
            "    events_now = edge_from = None",
            # The first cycle at which an overflow, a delivery or the
            # deadline is due.
            "    due = cyc_mark if cyc_mark < stop else stop",
            "    for _p in pending:",
            "        if _p[0] < due: due = _p[0]"]
    kinds = [rec[0] for rec in recs]
    tail = []
    lapped = "0"
    if lap:
        head.append("    _laps = 0")
        head.append("    %s = 0" % " = ".join("_g%d" % j for j in range(n)))
        lapped = "_laps"
        # Another visit from the head, as the dispatch loop would start
        # it: nothing owed or pending, no double sample awaiting its
        # second half, the deadline not reached, and a lap allowed.
        out("if %s_laps < laps and not front_extra and not pending and"
            " edge_from is None and issue < stop:"
            % ("next_pc == %d and " % start if next_pc == "next_pc"
               else ""))
        # A taken transfer closed the issue slot, and the first
        # instruction reads no prev_cls; a fall-through left it open.
        out("    _laps += 1; front_reason = None%s"
            % ("; prev_cls = %d" % cls_id if pc + 4 == start else ""))
        # The line fetched last is the last record's.
        for line in _fetch_source(start, prev_line, shape, len(lines) > 1):
            out("    " + line)
        out("    continue")
    tail.append("        _k = %d" % n)
    if next_pc != "next_pc":
        tail.append("        next_pc = %s" % next_pc)
    tail.append("        break")
    # Hoisted probe handles: the I-L1's when a fetch within the step
    # can stay on its page.
    head += ["    " + line for line in handles(
        kinds, len({line >> lps for line in lines}) < len(lines))]
    if any(4 <= kind <= 9 for kind in kinds):
        head.append("    asn = proc.asn; _th = _lh = 0")
        tail.append("    dtb.hits += _th; l1d.hits += _lh")
    if any(7 <= kind <= 9 for kind in kinds):
        head.append("    _lm = 0")
        tail.append("    l1d.misses += _lm")
    head += ["    " + line for line in _fetch_source(start, None, shape,
                                                      len(lines) > 1)]
    head.append("    while True:")
    if lap:
        # An unpaired visit adds at least one head cycle, so a zero sum
        # leaves gt_head without the entry, as the interpreter does.
        for j, rec in enumerate(recs):
            tail += ["    if _g%d:" % j,
                     "        try: gt_head[%d] += _g%d" % (rec[14], j),
                     "        except KeyError: gt_head[%d] = _g%d"
                     % (rec[14], j)]
    tail += [
            "    return (_k, %s, next_pc, prev_issue, pair_open, %r[_k - 1],"
            " leader_pc, front_extra, front_reason, imul_free, fdiv_free,"
            " cyc_base, cyc_mark, edge_from)"
            % (lapped, tuple(rec[1] for rec in recs))]
    return "\n".join(head + body + tail)


_STEP_ARGS = ("core, proc, iregs, fregs, mem, reg_ready, reg_ready_static,"
              " reg_dyn_reason, dtb, l1d, dhier, wb, bp, l1i, gt_head,"
              " gt_stall, gt_events, gt_edges, pending, prev_issue,"
              " pair_open, prev_cls, leader_pc, front_extra, front_reason,"
              " imul_free, fdiv_free, cyc_base, cyc_mark, stop, laps")


def loops(parts):
    """Whether the runs of records *parts* come back to their first
    instruction from their last: by its static target or by its
    fall-through.  A generated step over them (:func:`compile_run`) may
    then lap."""
    start = parts[0][0][14]
    last = parts[-1][-1]
    kind = last[0]
    return ((11 <= kind <= 14 and last[9] == start)
            or (kind <= 12 and last[14] + 4 == start))


def _fetch_source(pc, prev_line, shape, many_lines):
    """The lines of the fetch at a chunk's first record, at *pc*, after
    a fetch of line *prev_line* (None: not known)."""
    (page_bits, ishift, _, imask, _, _, _, _) = shape
    lps = page_bits - ishift
    fline = pc >> ishift
    if fline == prev_line:
        return []
    offset = fline & ((1 << lps) - 1)
    fetch = ("else: itb_pen, icache_pen, events_now = core._fetch(%d,"
             " prev_issue); front_extra += itb_pen + icache_pen" % pc)
    if prev_line is not None and fline >> lps == prev_line >> lps:
        # The page is the previous chunk's.
        return ["core._last_fetch_line = %d" % fline,
                "_il = _cl | %d" % offset,
                "if _ics[%s] == _il and _il not in _ist: l1i.hits += 1"
                % l1i_set(offset, imask, lps),
                fetch]
    pre = ""
    src = []
    if prev_line is None:
        src.append("if core._last_fetch_line != %d:" % fline)
        pre = "    "
    src += [pre + "core._last_fetch_line = %d" % fline,
            pre + "_il = (core._last_code_ppage << %d) | %d" % (lps, offset),
            pre + "if (core._last_code_page == %d and l1i.sets[%s] == _il"
            " and _il not in core._istream): l1i.hits += 1"
            % (fline >> lps, l1i_set(offset, imask, lps)),
            pre + fetch]
    if many_lines:
        src.append(code_page(lps))
    return src


def _post(out, events, ev, pre=""):
    """The lines that post event *ev* at issue; *events*: whether
    ``events_now`` may hold something already."""
    if events:
        out(pre + "if events_now is None: events_now = []")
        out(pre + "events_now.append((%s, issue))" % ev)
    else:
        out(pre + "events_now = [(%s, issue)]" % ev)
