"""Basic-block issue cache: memoized stall-free dual-issue schedules.

The pipeline's slow path recomputes pairing, head-of-queue stalls and
counter updates for every dynamic instruction.  But straight-line code
whose entry conditions repeat -- same open issue slot, same *relative*
operand-readiness of the live-in registers, same functional-unit
backlog -- schedules identically every time.  :class:`FastPath` caches
that schedule per (block, entry key) and lets ``Core.run()`` replay it.
*A replay is a clean prefix*: compiled replay code holds hit paths
only, and every dynamic event (I-fetch that is not a same-page L1 hit,
D-TLB or D-cache miss, write buffer busy) stops it *before* the
instruction, with nothing of that instruction applied; the slow path
-- the reference -- then fetches, translates and misses by itself.

Design notes (see README "Performance"):

* The unit is the slow path's straight-line run
  (:class:`repro.cpu.pipeline._Run`): one walker, one cache, one
  bound.  A *block* is a run with a body that ends in a control
  transfer, whose *schedule* (issue slot, pairing) is entry-invariant
  even though its direction is dynamic.  The gate classifies a run the
  first time it meets it (:meth:`FastPath.discover`); the run then
  carries the block's live-ins, schedules and refusal cause.
* Variant keys are *relative* to the entry cycle, so context switches
  need no invalidation: everything time-like in the key (operand
  readiness, IMUL/FDIV backlog) is an offset from the entry cycle, and
  all per-process scoreboard state lives on the Process.  Loading an
  image rebuilds the static code map, so it conservatively drops every
  cached run, as a full run cache does (``Machine.invalidate_runs``).
* Each cached variant is *compiled* to a specialized Python function
  (:func:`_replay_source`): operand fields, issue offsets, fetch-line
  crossings and the I-fetch / D-TLB / L1D *hit* probes become
  straight-line code with inlined constants, so a replayed instruction
  costs one open-coded expression plus a register write instead of the
  slow path's full dispatch.  The probes are inlined tag compares, so
  the fast path exists only for direct-mapped power-of-two L1s
  (:func:`repro.cpu.caches.cache_geometry`); any other ``Machine`` has
  ``fastpath = None``.  Generated code never calls ``Core._fetch``,
  ``TLB.translate``, ``Hierarchy.access`` or ``Cache.lookup``
  (``tests/test_fastpath.py::TestCleanPrefix``).
  What each record does -- its effect, address, store merge,
  predictor update and the hoisted probe handles -- is text from
  :mod:`repro.cpu.codegen`, shared with generated steps; opcode
  semantics come from :mod:`repro.alpha.opcodes` (``open_code`` of
  the record's own callable).  This module holds the schedule
  constants and the bails, and no opcode arithmetic of its own.
* One replay outcome: every result of a replay is the clean exit of
  a prefix of its unit's steps -- the whole variant or trace, a
  trace's members through the interior terminator where it left its
  path, or the steps before a bail -- and a loop trace's whole laps
  are hits of the lap.  Each prefix is a dispatch unit
  (:class:`_Unit`), built once, the first time it occurs
  (:meth:`FastPath.outcome`), by the constructor that builds variants
  and traces; it precomputes everything schedule-derived, applied in
  bulk after the compiled function returns: final scoreboard values
  (clean completion times are entry-relative constants), IMUL/FDIV
  backlog, pairing state, the edges between blocks and the blocks
  begun.  Ground truth is *deferred*: a replay only increments its
  unit's hit counter, and ``flush_deferred`` folds ``hits`` times the
  unit's steps' counts, head cycles and stalls, and its edges, into
  the machine's ground-truth maps at the end of every ``Core.run``
  (pure commutative addition, so the result is identical to
  per-instruction accounting).
* The gate at a block head (``Core.run``) is the only way into a
  replay, and a clean exit returns to it.  It lets a replay start only
  when it provably cannot interact with the sampling machinery: no
  pending interrupt deliveries, no front-end debt, and enough headroom
  on every CYCLES counter that the whole block cannot overflow one (a
  block's cycles form one contiguous span, so batching them into a
  single counter update is exact).  A refusal names its cause, and the
  slow-path instructions up to the next gate are counted under it
  (``SLOW_CAUSES``).
* Hot chains of variants compile into *traces* (:class:`Trace`): one
  function whose steps span several blocks, so the gate, the call and
  the bookkeeping are paid once per chain, not once per block.  The
  gate records which variant it picked after each clean, correctly
  predicted exit (``Variant.succ``); once a successor has repeated
  ``COMPILE_USES`` times, :meth:`FastPath.form_trace` follows the links
  and keeps each block whose entry key the trace's entry state
  provably reproduces (:class:`_EntryState`), up to
  ``MAX_TRACE_STEPS`` instructions.  Links that lead back to
  the head make a *loop* trace, which runs laps within one call.  A
  trace tiers up like a variant: it compiles once the gate has picked
  its head ``TRACE_USES`` more times.  At
  each interior terminator the trace guards the recorded direction, no
  mispredict and the next block's end against the CYCLES headroom and
  deadline, and otherwise returns an exit at that terminator; a bail
  is ``(reason, i)`` over the concatenated steps.  The gate enters a
  head's trace instead of its
  block when the head's own checks pass and the budget covers a lap:
  traces change how replayed instructions are dispatched, never which,
  so every count but ``dispatches`` and the trace counts is the same
  without them.
* Compiled replay functions are shared process-wide
  (:func:`repro.cpu.codegen.function`).  A variant's key is the
  generator's input -- its steps (every address, operand field and
  schedule constant), final scoreboard and the page and cache
  geometry -- so it is its own content address: no image fingerprint,
  nothing to invalidate.  A trace's key is its members' functions plus
  its guards, which stand for its input.  Every function lives in one
  shared globals dict, so a second ``Machine`` running the same code
  holds references, not copies, and generates no source text.  The
  generated steps of hot runs (:func:`repro.cpu.step.compile_run`)
  share the cache, keyed by their records and core geometry.  The
  cache is bounded by entry count (``codegen.REPLAY_CACHE_MAX``,
  cleared when full) and changes *time only*: tier-up still waits for
  ``COMPILE_USES`` (a run's for ``pipeline.COMPILE_RUN_AT``),
  ``compiled_variants``, ``traces`` and ``compiled_runs`` still count
  what *this* Machine tiered up and formed, and no ``sim.fastpath.*``
  counter or snapshot key depends on what an earlier Machine left
  behind.  Hit and miss counts are process history; they are reported
  by :func:`repro.cpu.codegen.replay_cache_stats`, never by
  :meth:`FastPath.snapshot`.
"""

from repro.cpu import codegen
from repro.cpu.codegen import (access, code_page, effect, handles, l1d_hit,
                               l1i_set, merge_or_commit, predict, settle,
                               translate)

#: The probe that stopped a replay.  A bail is ``(reason index, i)``
#: and the index only *names* the probe for ``sim.fastpath.bails.*``:
#: ``Core.run`` handles every value identically.
BAIL_REASONS = ("fetch", "wb", "dtb", "dcache")
_FETCH, _WB, _DTB, _DCACHE = range(len(BAIL_REASONS))
#: First element of a clean replay's terminator tuple.
CLEAN = len(BAIL_REASONS)
#: First element of a trace's exit at an interior terminator.
EXIT = CLEAN + 1

#: Why the slow path ran an instruction: the gate refusal (or the bail)
#: that began its segment.  ``no_block``: a run that reaches unmapped
#: code or is a bare control transfer; ``bigcode``: a run cut by
#: ``MAX_RUN``; ``blacklisted``: ``MAX_FAILED`` spoiled
#: recordings; ``bail_tail``: the rest of a block after a bail;
#: ``front_extra``: mispredict or handler cycles owed; ``pending``: an
#: interrupt delivery or the second half of a double sample due;
#: ``headroom``: the block could overflow a CYCLES counter;
#: ``budget_edge``: too close to the instruction or cycle budget;
#: ``variant_miss``: no schedule for this entry key yet;
#: ``cold_variant``: one recorded but not yet compiled.
SLOW_CAUSES = ("no_block", "bigcode", "blacklisted", "bail_tail",
               "front_extra", "pending", "headroom", "budget_edge",
               "variant_miss", "cold_variant")
(NO_BLOCK, BIGCODE, BLACKLISTED, BAIL_TAIL, FRONT_EXTRA, PENDING, HEADROOM,
 BUDGET_EDGE, VARIANT_MISS, COLD_VARIANT) = range(len(SLOW_CAUSES))

#: Longest straight-line run (:class:`repro.cpu.pipeline._Run`): a
#: block's 48-instruction body and its terminator.  A longer straight
#: line continues in the next run, and a run cut here is ``bigcode``.
MAX_RUN = 49

#: How a gate pick of a trace's head ended: every member (of the last
#: lap) ran; an interior terminator mispredicted, or went the other way
#: without one; the next block would not fit the CYCLES headroom or the
#: cycle deadline; only the head block ran (the instruction budget did
#: not cover a lap, or a residual live-in was not ready); a bail in the
#: head block or in a later one.
TRACE_EXITS = ("full", "mispredict", "guard", "headroom", "fallback",
               "bail_head", "bail_later")
FULL, MISPREDICT, GUARD, ROOM, FALLBACK, BAIL_HEAD, BAIL_LATER = range(
    len(TRACE_EXITS))


class _Unit:
    """What a replay applies: the clean exit of a run of steps.

    Every result of a replay is the clean exit of a prefix of its
    unit's steps -- the whole unit, the members through an interior
    terminator, or the steps before a bail -- so one constructor
    derives, once, all that ``Core.run`` applies for it.  *steps* are
    ``(record, rel_issue, cycles_head, paired, stalls)``, each member's
    ``rel_issue`` on its own block's clock; a terminator other than the
    last ends a member, and the next member starts where it issued.
    *entry_cls* is the head's entry key's pairing slot
    (:class:`Variant`).  With *next_pc* the unit stops before the
    instruction there (a bail): its last step leaves on its recorded
    path.  Otherwise it ends at its last terminator, whose direction,
    edge and mispredict are the caller's, and *tail* is the variant
    that terminator belongs to.

    ``sb`` is the final scoreboard, entry-relative: a clean load's
    latency is exactly the L1 hit latency, so the completion times of
    clean steps are constants.  ``blocks`` counts the blocks begun
    (``sim.fastpath.replays``), ``edges`` the edges between them, and
    ``pair_open``, ``prev_cls`` and ``leader`` (None: unchanged) are
    the pairing state left behind.  The counts, head cycles and stalls
    are the steps' own, which the unit keeps.
    """

    __slots__ = ("steps", "n", "total_rel", "sb", "imul_rel", "fdiv_rel",
                 "pair_open", "prev_cls", "leader", "term_addr",
                 "term_edge_always", "next_pc", "tail", "blocks", "edges",
                 "hits")

    def __init__(self, steps, entry_cls, l1d_latency, next_pc=None,
                 tail=None):
        self.steps = steps
        self.n = len(steps)
        pair_open = entry_cls >= 0
        prev_cls = entry_cls
        leader = None
        start = rel = imul_rel = fdiv_rel = 0
        writers = {}
        edges = []
        blocks = 0 if next_pc is None else 1
        for j, (rec, srel, _, paired, _) in enumerate(steps):
            rel = start + srel
            addr = rec[14]
            if paired:
                pair_open = False
            else:
                pair_open = True
                leader = addr
            prev_cls = rec[1]
            dst = rec[7]
            if dst is not None:
                kind = rec[0]
                if kind <= 3:
                    writers[dst] = rel + rec[2]
                elif kind <= 6:
                    writers[dst] = rel + l1d_latency
                else:          # br/bsr/jmp/jsr link register
                    writers[dst] = rel + 1
            unit = rec[11]
            if unit == 1:
                imul_rel = rel + rec[12]
            elif unit == 2:
                fdiv_rel = rel + rec[12]
            if rec[13]:
                # A member ends: the next starts at this issue, on the
                # path the trace recorded.  A transfer that is not a
                # conditional branch is always taken, and a conditional
                # one whose target is the fall-through never joins a
                # trace (_EntryState.admits).
                blocks += 1
                start = rel
                nxt = steps[j + 1][0][14] if j + 1 < self.n else next_pc
                if nxt is not None:
                    edges.append((addr, nxt))
                    if rec[0] >= 13 or nxt != addr + 4:
                        pair_open = False
        self.total_rel = rel
        self.sb = tuple(writers.items())
        self.imul_rel = imul_rel
        self.fdiv_rel = fdiv_rel
        # After its last terminator pair_open is additionally closed by
        # a *taken* transfer, which only the replay's result knows.
        self.pair_open = pair_open
        self.prev_cls = prev_cls
        self.leader = leader
        if steps:
            last = steps[-1][0]
            self.term_addr = last[14]
            # cbr/fbr/br/bsr record their edge unconditionally;
            # indirect jumps skip the edge into the process exit stub.
            self.term_edge_always = last[0] <= 14
        self.next_pc = next_pc
        self.tail = tail
        self.blocks = blocks
        self.edges = tuple(edges)
        self.hits = 0


class Variant(_Unit):
    """One recorded schedule of a block, entered from entry key ``key``.

    ``steps`` keeps the per-instruction schedule, compiled once the
    variant recurs and cut into the prefixes a bail applies
    (:meth:`FastPath.outcome`), which ``prefixes`` caches by step count.
    The whole variant is its own unit: a clean exit leaves from it.
    """

    __slots__ = ("fn", "uses", "prefixes", "run", "key", "trace", "succ",
                 "succ_taken", "succ_uses")

    def __init__(self, steps, run, key, l1d_latency):
        _Unit.__init__(self, steps, key[0], l1d_latency, tail=self)
        # Tiered: ``fn`` stays None (and the slow path keeps executing
        # the block) until the variant recurs ``COMPILE_USES`` times
        # (see there for what a compile() costs).
        self.fn = None
        self.uses = 0
        self.prefixes = {}
        self.run = run                # the block's run: its addresses
        self.key = key
        #: The trace headed by this variant, once one is formed.
        self.trace = None
        # The variant the gate picked after this one's last clean,
        # correctly predicted exit, that exit's direction, and how many
        # times in a row it did (frozen at COMPILE_USES).
        self.succ = None
        self.succ_taken = False
        self.succ_uses = 0


class Trace(_Unit):
    """Blocks the gate would pick back to back, replayed by one call.

    ``parts`` are the member variants in order, and ``steps`` theirs
    concatenated; member *k* ends ``lengths[k]`` steps and ``ends[k]``
    cycles after the trace's entry.  As a unit the trace is every
    member with the edges between them, and ``prefixes`` caches the
    prefixes a bail or an exit at an interior terminator applies
    (:meth:`FastPath.outcome`).  A ``loop`` trace's last member leads
    back to its head, and the function runs laps until it cannot
    provably start another one (see :func:`_replay_source`).

    A formed trace holds only its plan -- ``parts``, ``loop`` and the
    residual ``checks`` -- until it compiles and :meth:`build` makes it
    a unit: most chains that never recur cost no more.
    """

    __slots__ = ("fn", "uses", "prefixes", "parts", "loop", "checks",
                 "lengths", "ends")

    def __init__(self, parts, loop, checks):
        self.fn = None
        self.uses = 0
        self.parts = parts
        self.loop = loop
        self.checks = checks

    def build(self, l1d_latency):
        """Derive the trace's unit from its members."""
        parts = self.parts
        _Unit.__init__(self, tuple(s for part in parts for s in part.steps),
                       parts[0].key[0], l1d_latency, tail=parts[-1])
        self.prefixes = {}
        lengths = []
        ends = []
        n = end = 0
        for part in parts:
            n += part.n
            end += part.total_rel
            lengths.append(n)
            ends.append(end)
        self.lengths = tuple(lengths)
        self.ends = tuple(ends)


class _EntryState:
    """What a trace's entry fixes about each member's entry key.

    ``ready`` maps a register to ``None`` (ready by the trace's entry
    cycle) or ``(ready, static, dynamic reason)`` on the trace's clock:
    the head's key fixes its live-ins, and a member's final scoreboard
    is a constant.  ``units`` holds the IMUL / FDIV busy-until offsets
    once a member set them.  ``checks`` are the ``(reg, rel)`` entry
    tests of "residual" live-ins, read before any member writes them
    and not the head's: the trace assumes each ready by its block's
    start, and checks it before leaving the head.
    """

    def __init__(self, head):
        self.ready = dict.fromkeys(head.run.live_ins)
        for part in head.key[1] or ():
            self.ready[part[0]] = part[1:]
        self.units = [None, None]
        self.checks = []

    def ran(self, variant, start):
        """*variant* ran clean from offset *start*."""
        for reg, done in variant.sb:
            self.ready[reg] = (start + done, start + done, None)
        if variant.imul_rel:
            self.units[0] = start + variant.imul_rel
        if variant.fdiv_rel:
            self.units[1] = start + variant.fdiv_rel

    def admits(self, prev, variant, start):
        """Whether the gate, entered at offset *start* after *prev* left
        on its recorded path, computes exactly *variant*'s key."""
        term = prev.steps[-1][0]
        if term[0] in (11, 12) and term[9] == term[14] + 4:
            return False        # both directions reach the same head
        pair = (prev.prev_cls
                if prev.pair_open and not prev.succ_taken else -1)
        live = []
        residual = []
        for reg in variant.run.live_ins:
            if reg not in self.ready:
                residual.append(reg)
                continue
            state = self.ready[reg]
            if state is not None and state[0] > start:
                live.append((reg, state[0] - start,
                             max(state[1] - start, 0), state[2]))
        backlog = []
        for free, has in ((self.units[0], variant.run.has_imul),
                          (self.units[1], variant.run.has_fdiv)):
            if not has:
                backlog.append(0)
            elif free is None:
                return False    # the entry's backlog: unknown
            else:
                backlog.append(free - start if free > start else 0)
        if (pair, tuple(live) or None, backlog[0], backlog[1]) != (
                variant.key):
            return False
        for reg in residual:
            self.ready[reg] = None
            self.checks.append((reg, start))
        return True

    def laps_repeat(self, parts, span):
        """Run a second lap of *parts* from offset *span*: True if it
        admits every member, needs no new check, and ends in the state
        the first lap ended in, so that every later lap is the same."""
        before = self.relative(span)
        checks = len(self.checks)
        start = span
        prev = parts[-1]
        for part in parts:
            if not self.admits(prev, part, start):
                return False
            self.ran(part, start)
            start += part.total_rel
            prev = part
        return len(self.checks) == checks and self.relative(start) == before

    def relative(self, start):
        """The state as seen from offset *start*, to compare laps."""
        ready = {}
        for reg, state in self.ready.items():
            if state is not None and state[0] > start:
                state = (state[0] - start, max(state[1] - start, 0),
                         state[2])
            else:
                state = None
            ready[reg] = state
        return ready, [None if free is None else max(free - start, 0)
                       for free in self.units]


def _replay_source(segments, page_bits, l1d_geom, l1i_geom, checks=(),
                   loop=False):
    """The text of a block's, or a trace's, replay function.

    *segments* holds one ``(steps, sb, guard)`` per member block, in
    order: *steps* with issue offsets relative to the function's entry
    cycle ``t0``, *sb* the final scoreboard settled at that block's
    terminator on the same clock, and *guard* ``None`` for the last
    block or ``(next_head, taken, end)``: the path the trace recorded
    at the block's terminator, and where the next block ends (which
    must stay below ``room``, the CYCLES headroom or cycle deadline,
    whichever is closer).  *checks* are the trace's ``(reg, rel)``
    residual live-in tests (:class:`_EntryState`), made before it
    leaves the head.  With *loop*, the last block's guard leads back to
    the head and ``end`` is where the head ends on the next lap: the
    function then starts laps while the path holds, ``room`` allows
    and fewer than ``laps`` followed.

    The generated function executes the steps' semantics and the
    model's *hit* paths (same-page I-L1 tag hit, D-TLB entry present,
    L1D tag hit, write buffer free or the store's block still
    draining, branch predictor) with every schedule-derived constant
    inlined.  A hit's only side effect is a hit counter bump, so the
    inlined probes replicate the model byte-for-byte; a probe that does
    not hit returns *before* any counter, ``_last_fetch_line`` or model
    state of its instruction is touched (the write-buffer probe is
    idempotent at a fixed time).  Each record's effect, address, store
    merge, predictor update and the hoisted handles are
    :mod:`repro.cpu.codegen`'s fragments.  Every result ends with the
    number of whole laps run before it (0 but in a loop), and is one of

    * ``(CLEAN, next_pc, taken, mispredicted, laps)`` -- every step
      ran, and the final scoreboard was applied before the last
      terminator's value-dependent code;
    * ``(EXIT, next_pc, taken, mispredicted, k, laps)`` -- blocks
      ``0..k`` ran and block *k*'s terminator left the recorded path:
      it mispredicted, went the other way, the next block would not fit
      ``room``, or (``k == 0``) a residual check failed.  Nothing of
      the scoreboard was settled; or
    * ``(reason, i, laps)`` -- a bail: exactly the first *i* of the
      concatenated steps were applied and the slow path must run
      instruction *i* itself.  *reason* indexes :data:`BAIL_REASONS`.
    """
    ishift, imask = l1i_geom
    dshift, dmask = l1d_geom
    body = []

    def L(line):
        body.append("    " + line)
    kinds = [s[0][0] for steps, _, _ in segments for s in steps]
    pages = set()
    lap = ", _lap" if loop else ", 0"

    def bail(reason, i):
        return "return (%d, %d%s)" % (reason, i, lap)

    def emit_fetch(i, addr, nested=False):
        # Hit path only: same code page, I-L1 tag hit, not a
        # stream-buffer line -- the one fetch that charges nothing.
        # Nothing here moves the code page, so a page checked outside
        # the conditional entry fetch stays checked.
        pre = "    " if nested else ""
        page = addr >> page_bits
        if page not in pages:
            L(pre + "if core._last_code_page != %d: %s"
              % (page, bail(_FETCH, i)))
            if not nested:
                pages.add(page)
        # The physical line: the page's lines (_cl, read once; nothing
        # here moves it) plus the line in the page.
        offset = (addr & ((1 << page_bits) - 1)) >> ishift
        L(pre + "_il = _cl | %d" % offset)
        L(pre + "if _ics[%s] != _il or _il in _ist: %s"
          % (l1i_set(offset, imask, page_bits - ishift), bail(_FETCH, i)))
        L(pre + "l1i.hits += 1")
        L(pre + "core._last_fetch_line = %d" % (addr >> ishift))

    def leave(k, guard, rel, off_path, next_pc, taken, mp):
        # Stay on the recorded path with the next block inside room,
        # or return: at an interior terminator an EXIT, at the last
        # one of a loop the lap's CLEAN result.
        tests = [off_path] if off_path else []
        if k == 0 and checks:
            tests.append("_ck")
        tests.append("room <= %d" % guard[2])
        if k == len(segments) - 1:
            tests.append("_lap >= laps")
            L("if %s: return (%d, %s, %s, %s%s)"
              % (" or ".join(tests), CLEAN, next_pc, taken, mp, lap))
            L("t0 += %d" % rel)
            L("room -= %d" % rel)
            L("_lap += 1")
            if checks:
                L("_ck = False")
        else:
            L("if %s: return (%d, %s, %s, %s, %d%s)"
              % (" or ".join(tests), EXIT, next_pc, taken, mp, k, lap))

    prev_line = None
    prev_rel = 0
    i = 0
    for k, (steps, sb, guard) in enumerate(segments):
        for step in steps:
            rec = step[0]
            addr = rec[14]
            fline = addr >> ishift
            if fline != prev_line:
                if prev_line is None:
                    # Only the entry line can match the last fetched
                    # line; later crossings are unconditional (addresses
                    # ascend within a block, and a later block's entry
                    # follows a known terminator).
                    L("if core._last_fetch_line != %d:" % fline)
                    emit_fetch(i, addr, nested=True)
                else:
                    emit_fetch(i, addr)
                prev_line = fline
            if rec[13]:
                # The terminator can no longer bail: settle the
                # scoreboard before its (direction-dependent) code.
                for reg, done in sb:
                    L(settle(reg, "t0 + %d" % done))
            kind = rec[0]
            rel = step[1]
            if 4 <= kind <= 9:  # loads and stores: the hit probes
                for line in access(rec):
                    L(line)
                if kind >= 7:
                    # A store to a resident block issues at once, as in
                    # the slow path.  Otherwise the write-buffer probe
                    # is idempotent at a fixed time (the cycle after the
                    # previous issue), so the slow path redoes a busy
                    # store exactly.
                    L("if _wd is None:")
                    L("    _pr = t0 + %d" % (prev_rel + 1))
                    L("    if wb.earliest_issue(_va, _pr) != _pr: %s"
                      % bail(_WB, i))
                # The D-TLB hit is counted after the last probe that
                # may bail.
                L(translate(page_bits))
                L("if _pp is None: %s" % bail(_DTB, i))
                hit = l1d_hit(page_bits, dshift, dmask)
                if kind <= 6:
                    L("if not (%s): %s" % (hit, bail(_DCACHE, i)))
                    L("dtb.hits += 1")
                    L("l1d.hits += 1")
                else:
                    L("dtb.hits += 1")
                    # Write-through, no-write-allocate: a store that
                    # misses the L1 is counted, installs nothing and is
                    # no event.
                    L("if %s: l1d.hits += 1" % hit)
                    L("else: l1d.misses += 1")
                    for line in merge_or_commit("t0 + %d" % rel):
                        L(line)
            for line in effect(rec, "_tg"):
                L(line)
            if kind >= 11:  # a control transfer returns or leaves
                lines, test, miss = predict(rec, "_tg")
                for line in lines:
                    L(line)
                mp = "False"
                if test:
                    mp = "_mp"
                    L("_mp = " + test)
                    for line in miss:
                        L("if _mp: " + line)
                off_path = None
                if kind <= 12:
                    next_pc = "%d if _t else %d" % (rec[9], addr + 4)
                    taken = "_t"
                    if guard is not None:
                        off_path = "_mp or %s_t" % ("not " if guard[1]
                                                    else "")
                else:
                    next_pc = rec[9] if kind <= 14 else "_tg"
                    taken = "True"
                    if guard is not None and kind >= 15:
                        off_path = "_mp or _tg != %d" % guard[0]
                if guard is None:
                    L("return (%d, %s, %s, %s%s)"
                      % (CLEAN, next_pc, taken, mp, lap))
                else:
                    leave(k, guard, rel, off_path, next_pc, taken, mp)
            prev_rel = rel
            i += 1

    if loop:
        body = ["    _lap = 0", "    while True:"] + ["    " + line
                                                    for line in body]
    if checks:
        body.insert(0, "    _ck = %s" % " or ".join(
            "reg_ready[%d] > t0 + %d" % check for check in checks))
    # Hoisted probe handles for the inlined hit paths.
    head = ["def _replay(core, bp, dtb, l1d, wb, mem, iregs, fregs,"
            " reg_ready, reg_ready_static, reg_dyn_reason, asn, t0,"
            " room, laps):",
            "    l1i = core.ihier.l1"]
    head += ["    " + line for line in handles(kinds)]
    head.append("    " + code_page(page_bits - ishift))
    return "\n".join(head + body)


class FastPath:
    """Machine-level issue-schedule variant cache over the runs of
    ``Machine.runs``."""

    #: A trace spans at most this many instructions.
    MAX_TRACE_STEPS = 32
    #: Bound on cached schedules across all blocks; the gate records no
    #: new one while it is reached.
    MAX_VARIANTS = 16384
    #: Consecutive aborted recordings before a variant-less block is
    #: blacklisted (e.g. streaming code whose loads always miss).
    MAX_FAILED = 12
    #: Recorded-variant re-uses before tiering up to a compiled replay,
    #: and repeats of a successor before a trace is formed through it.
    #: One compile() measures 0.19-0.33 ms (quartiles over gcc's
    #: variants), about 150 slow-path instructions at 1.4-1.7 us each
    #: on branchy code whose probes hit (generating its source text:
    #: 0.03 ms), so code with many lukewarm variants (gcc) loses
    #: at low thresholds on short runs; 4 keeps short-budget wins
    #: without measurably hurting steady-state throughput.  The
    #: threshold is the same whether or not the process-wide replay
    #: cache already holds the function -- by design: tier-up decides
    #: which instructions replay, hence every sim.fastpath.* count, and
    #: those must not depend on process history.
    COMPILE_USES = 4
    #: Gate picks of a formed trace's head before the trace compiles.
    #: Short-lived chains (set-up code, a loop that runs once) form
    #: traces that would not repay their code, and trace code is what
    #: a trace costs in memory: compiled on formation, opt-loop's 380
    #: traces (two in five entered fewer than ten times) took its
    #: peak_rss_mb 46.3 -> 49.7; at 32 picks, 47.97 for 151 traces.
    TRACE_USES = 32

    def __init__(self, page_bits, l1d_latency, l1d_geom, l1i_geom):
        self.page_bits = page_bits
        self.l1d_latency = l1d_latency
        self.l1d_geom = l1d_geom  # see caches.cache_geometry(); never None
        self.l1i_geom = l1i_geom
        # Runs classified and variants stored since the last
        # invalidation.
        self.classified = 0
        self.variant_count = 0
        #: Units with unflushed ground-truth hits (see
        #: :meth:`flush_deferred`).
        self.deferred = []
        # Counters surfaced through repro.obs (sim.fastpath.*).
        self.replays = 0              # block replays started
        self.replayed_instructions = 0
        self.dispatches = 0           # gate entries into a block or trace
        #: Replays cut short, per probe that stopped them (indexed
        #: like BAIL_REASONS).
        self.bails = [0] * len(BAIL_REASONS)
        #: Instructions the slow path ran, per gate refusal that handed
        #: it the segment (indexed like SLOW_CAUSES).
        self.slow_instructions = [0] * len(SLOW_CAUSES)
        self.recordings = 0           # schedules captured
        self.compiled_variants = 0    # schedules tiered up to compiled
        #: Runs given a generated step (repro.cpu.step.compile_run), the
        #: instructions those steps ran, of slow_instructions, and the
        #: calls that ran them.
        self.compiled_runs = 0
        self.compiled_instructions = 0
        self.compiled_calls = 0
        self.traces = 0               # traces formed and compiled
        self.trace_entries = 0        # gate picks of a trace's head
        #: How those entries left, indexed like TRACE_EXITS; the
        #: ``full`` slot is derived in :meth:`snapshot`.
        self.trace_exits = [0] * len(TRACE_EXITS)
        self.aborted_recordings = 0   # recordings spoiled by an event
        self.variant_misses = 0       # entry key not cached yet
        self.headroom_skips = 0       # replay blocked by counter headroom
        self.dropped_variants = 0     # cache full, schedule not recorded
        self.invalidations = 0

    # -- discovery ----------------------------------------------------

    def discover(self, run):
        """Classify *run* the first time the gate meets it; return its
        ``refusal``: -1 for a block, else the ``SLOW_CAUSES`` index that
        keeps it from replaying.  A bare control transfer is not worth
        the key-building overhead."""
        self.classified += 1
        recs = run.recs
        if run.n == 1 or not recs[-1][13]:              # R_CTRL
            run.refusal = BIGCODE if run.n == MAX_RUN else NO_BLOCK
            return run.refusal
        # The terminator replays too: its issue slot depends on its own
        # operands, so they join the entry key's live-ins.
        live = []
        written = set()
        has_imul = has_fdiv = False
        for record in recs:
            for src in record[3]:                       # R_SRCS
                if src not in written and src not in live:
                    live.append(src)
            dst = record[7]                             # R_DST
            if dst is not None:
                written.add(dst)
            unit = record[11]                           # R_UNIT
            if unit == 1:
                has_imul = True
            elif unit == 2:
                has_fdiv = True
        run.live_ins = tuple(live)    # registers read before written
        run.has_imul = has_imul
        run.has_fdiv = has_fdiv
        run.variants = {}             # entry key -> Variant
        run.failed = 0                # consecutive aborted recordings
        run.refusal = -1
        return -1

    # -- schedule cache -----------------------------------------------

    def store(self, run, key, entries):
        """Cache the schedule a complete visit of block *run* recorded
        from entry *key*.

        *entries* is one ``(rel_issue, cycles_head, paired, stalls)``
        per instruction of the run, terminator included.  Its bulk
        effects are precomputed (see :class:`Variant`); compilation
        waits for :meth:`compile_variant`.
        """
        steps = tuple((rec,) + entry
                      for rec, entry in zip(run.recs, entries))
        run.variants[key] = Variant(steps, run, key, self.l1d_latency)
        run.failed = 0
        self.variant_count += 1
        self.recordings += 1

    def compile_variant(self, variant):
        """Tier-up: compile *variant*'s recorded schedule to its
        specialized replay function (see :func:`_replay_source`).  Its
        key is the generator's whole input."""
        segments = ((variant.steps, variant.sb, None),)
        key = (segments, self.page_bits, self.l1d_geom, self.l1i_geom)
        variant.fn = codegen.function(
            key, "<fastpath-variant>", lambda: _replay_source(
                segments, self.page_bits, self.l1d_geom, self.l1i_geom))
        self.compiled_variants += 1

    def abort_recording(self, run):
        """A dynamic event spoiled a recording of block *run*.  Blocks
        that repeatedly fail with nothing cached yet (streaming code
        whose loads always miss) are blacklisted to stop paying the
        recording overhead on every visit."""
        self.aborted_recordings += 1
        run.failed += 1
        if run.failed >= self.MAX_FAILED and not run.variants:
            run.refusal = BLACKLISTED

    # -- traces -------------------------------------------------------

    def link(self, tail, taken, variant):
        """The gate picked *variant* right after *tail*'s clean,
        correctly predicted exit in direction *taken*.  A successor that
        repeats ``COMPILE_USES`` times in a row freezes the link and
        forms *tail*'s trace (:meth:`form_trace`)."""
        taken = bool(taken)
        if tail.succ is variant and tail.succ_taken is taken:
            tail.succ_uses += 1
            if tail.succ_uses >= self.COMPILE_USES:
                self.form_trace(tail)
        else:
            tail.succ = variant
            tail.succ_taken = taken
            tail.succ_uses = 1

    def form_trace(self, head):
        """Follow the successor links from *head* and form a trace of the
        blocks the gate would provably pick back to back (compiled by
        :meth:`compile_trace` once it recurs).

        A member joins only if its own entry key is what the trace's
        entry state produces at its head (:class:`_EntryState`).  With
        the directions guarded, the residual live-ins checked, the
        CYCLES headroom, the cycle deadline and the instruction budget
        checked before each member, and no mispredict in between, each
        member is then the variant the gate would pick, and the gate
        would admit it: a trace changes how replayed instructions are
        dispatched, never which.

        When the links lead back to *head*, the trace is a loop if a
        second lap admits every member again and leaves the state, seen
        from its end, as the first lap left it: every later lap is then
        the same.
        """
        if head.trace is not None:
            return
        state = _EntryState(head)
        parts = [head]
        start = steps = 0
        loop = False
        cur = head
        while True:
            state.ran(cur, start)
            start += cur.total_rel
            steps += cur.n
            nxt = cur.succ
            if nxt is None or nxt.fn is None:
                break
            if nxt is head:
                loop = state.laps_repeat(parts, start)
                break
            if (steps + nxt.n > self.MAX_TRACE_STEPS
                    or not state.admits(cur, nxt, start)):
                break
            parts.append(nxt)
            cur = nxt
        if len(parts) < 2 and not loop:
            return
        trace = Trace(tuple(parts), loop, tuple(state.checks))
        head.trace = trace
        # The later members now run inside this trace: freeze their
        # links, so they do not head overlapping copies of it.
        for part in parts[1:]:
            part.succ_uses = self.COMPILE_USES

    def compile_trace(self, trace):
        """Tier-up: compile *trace* (see :func:`_replay_source`); the
        gate calls it on the ``TRACE_USES``-th pick of the head."""
        trace.build(self.l1d_latency)
        parts = trace.parts
        ends = trace.ends

        def source():
            segments = []
            for k, part in enumerate(parts):
                start = ends[k] - part.total_rel
                if k < len(parts) - 1:
                    sb = ()
                    guard = (parts[k + 1].run.pc, part.succ_taken,
                             ends[k + 1])
                else:
                    sb = trace.sb
                    guard = None
                    if trace.loop:
                        guard = (parts[0].run.pc, part.succ_taken,
                                 trace.total_rel + ends[0])
                segments.append((
                    tuple((s[0], start + s[1]) for s in part.steps),
                    sb, guard))
            return _replay_source(segments, self.page_bits, self.l1d_geom,
                                  self.l1i_geom, trace.checks, trace.loop)
        # A member's function stands for its compiled input (the code
        # cache is keyed by it), so this key determines the trace's.
        key = (tuple(p.fn for p in parts),
               tuple(p.succ_taken for p in parts), trace.checks,
               trace.loop)
        trace.fn = codegen.function(key, "<fastpath-variant>", source)
        self.traces += 1

    # -- replay outcomes ----------------------------------------------

    def outcome(self, unit, res, room):
        """The prefix of *unit*'s steps that *res*, a result of its
        replay other than ``CLEAN``, ran: the steps before a bail's
        instruction, or a trace's members through the terminator it
        left its path at.  *room* is what the replay was given.  Tallies
        the result, and builds the prefix's unit (:class:`_Unit`) the
        first time it occurs."""
        trace = isinstance(unit, Trace)
        if res[0] == EXIT:
            k = res[4]
            key = ~k                # bails are keyed by i >= 0
            left = room - res[-1] * unit.total_rel    # after the laps
            self.trace_exits[
                MISPREDICT if res[3]
                else GUARD if res[1] != unit.parts[k + 1].run.pc
                else ROOM if left <= unit.ends[k + 1]
                else FALLBACK] += 1
        else:
            key = res[1]
            self.bails[res[0]] += 1
            if trace:
                self.trace_exits[BAIL_HEAD if key < unit.lengths[0]
                                 else BAIL_LATER] += 1
        prefix = unit.prefixes.get(key)
        if prefix is None:
            steps = unit.steps
            entry_cls = (unit.parts[0] if trace else unit).key[0]
            if key < 0:
                prefix = _Unit(steps[:unit.lengths[k]], entry_cls,
                               self.l1d_latency, tail=unit.parts[k])
            else:
                prefix = _Unit(steps[:key], entry_cls, self.l1d_latency,
                               next_pc=steps[key][0][14])
            unit.prefixes[key] = prefix
        return prefix

    # -- deferred ground truth ----------------------------------------

    def flush_deferred(self, gt_count, gt_head, gt_stall, gt_edges):
        """Fold the deferred replay hits into the ground-truth maps.

        Replays only bump the hit counter of the unit (:class:`_Unit`)
        they applied; this folds ``hits`` copies of each unit's steps'
        counts, head cycles and stalls and of its edges in, and counts
        the blocks it began as replays.  Pure commutative addition, so
        the totals are identical to the slow path's per-instruction
        accounting.  Called at every ``Core.run`` exit, before anything
        can read the maps.
        """
        for unit in self.deferred:
            hits = unit.hits
            unit.hits = 0
            self.replays += unit.blocks * hits
            for rec, _, ch, _, stalls in unit.steps:
                a = rec[14]
                gt_count[a] = gt_count.get(a, 0) + hits
                if ch:
                    gt_head[a] = gt_head.get(a, 0) + ch * hits
                if stalls:
                    row = gt_stall.get(a)
                    if row is None:
                        row = {}
                        gt_stall[a] = row
                    for reason, amount in stalls:
                        row[reason] = row.get(reason, 0) + amount * hits
            for edge in unit.edges:
                gt_edges[edge] = gt_edges.get(edge, 0) + hits
        del self.deferred[:]

    # -- invalidation -------------------------------------------------

    def invalidate(self):
        """The run cache was emptied (``Machine.invalidate_runs``), and
        every classified run and its variants with it.  Deferred hit
        counters survive on the units still referenced by
        ``self.deferred``, so no ground truth is lost."""
        if self.classified:
            self.invalidations += 1
        self.classified = 0
        self.variant_count = 0

    # -- reporting ----------------------------------------------------

    def snapshot(self):
        """Raw counters for the obs schema (sim.fastpath.*)."""
        snap = {
            "replays": self.replays,
            "replayed_instructions": self.replayed_instructions,
            "dispatches": self.dispatches,
            "bails": sum(self.bails),
            "recordings": self.recordings,
            "compiled_variants": self.compiled_variants,
            "compiled_runs": self.compiled_runs,
            "compiled_instructions": self.compiled_instructions,
            "compiled_calls": self.compiled_calls,
            "traces": self.traces,
            "trace_entries": self.trace_entries,
            "aborted_recordings": self.aborted_recordings,
            "variant_misses": self.variant_misses,
            "headroom_skips": self.headroom_skips,
            "dropped_variants": self.dropped_variants,
            "blocks": self.classified,
            "variants": self.variant_count,
            "invalidations": self.invalidations,
        }
        for reason, count in zip(BAIL_REASONS, self.bails):
            snap["bails." + reason] = count
        for cause, count in zip(SLOW_CAUSES, self.slow_instructions):
            snap["slow_instructions." + cause] = count
        exits = list(self.trace_exits)
        exits[FULL] = self.trace_entries - sum(exits)
        for kind, count in zip(TRACE_EXITS, exits):
            snap["trace_exits." + kind] = count
        return snap
