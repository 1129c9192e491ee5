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

* A block is a maximal run of straight-line predecode records starting
  at an entry PC the core actually reached at a block boundary.  It
  includes its terminating control transfer, whose *schedule* (issue
  slot, pairing) is entry-invariant even though its direction is
  dynamic.  Straight-line runs longer than ``MAX_BODY`` are not
  cached.
* Variant keys are *relative* to the entry cycle, so context switches
  need no invalidation: everything time-like in the key (operand
  readiness, IMUL/FDIV backlog) is an offset from the entry cycle, and
  all per-process scoreboard state lives on the Process.  Loading an
  image rebuilds the static code map, so it conservatively drops every
  cached block.
* Each cached variant is *compiled* to a specialized Python function
  (:func:`_compile_replay`): operand fields, issue offsets, fetch-line
  crossings and the I-fetch / D-TLB / L1D *hit* probes become
  straight-line code with inlined constants, so a replayed instruction
  costs one open-coded expression plus a register write instead of the
  slow path's full dispatch.  The probes are inlined tag compares, so
  the fast path exists only for direct-mapped power-of-two L1s
  (:func:`cache_geometry`); any other ``Machine`` has ``fastpath =
  None``.  Generated code never calls ``Core._fetch``,
  ``TLB.translate``, ``Hierarchy.access`` or ``Cache.lookup``
  (``tests/test_fastpath.py::TestCleanPrefix``).
  Opcode semantics are derived from :mod:`repro.alpha.opcodes`
  (``open_code`` of the record's own callable), never restated here:
  this module holds no opcode arithmetic of its own.
* Everything schedule-derived is precomputed at store time and applied
  in bulk after the compiled function returns: final scoreboard values
  (clean completion times are entry-relative constants), IMUL/FDIV
  backlog, pairing state, and the block's ground-truth counts / head
  cycles / stall decomposition.  Ground truth is further *deferred*: a
  clean replay only increments the variant's hit counter, and
  ``flush_deferred`` folds ``hits * per-block-deltas`` into the
  machine's ground-truth maps at the end of every ``Core.run`` (pure
  commutative addition, so the result is identical to per-instruction
  accounting).
* The gate at a block head (``Core.run``) is the only way into a
  replay, and a clean exit returns to it.  It lets a replay start only
  when it provably cannot interact with the sampling machinery: no
  pending interrupt deliveries, no front-end debt, and enough headroom
  on every CYCLES counter that the whole block cannot overflow one (a
  block's cycles form one contiguous span, so batching them into a
  single counter update is exact).
* Compiled replay functions are shared process-wide
  (``_replay_cache``).  The key is the generated *source text*: it
  embeds every address, operand field, schedule constant and cache
  geometry the function depends on, so it is its own content address --
  no image fingerprint, nothing to invalidate.  Every function lives
  in one shared globals dict, so a second ``Machine`` running the same
  code holds references, not copies.  The cache is bounded by entry
  count (``REPLAY_CACHE_MAX``, cleared when full) and changes *time
  only*: tier-up still waits for ``COMPILE_USES``,
  ``compiled_variants`` still counts the variants *this* Machine tiered
  up, and no ``sim.fastpath.*`` counter or snapshot key depends on what
  an earlier Machine left behind.  Hit and miss counts are process
  history; they are reported by :func:`replay_cache_stats`, never by
  :meth:`FastPath.snapshot`.
"""

from repro.alpha.opcodes import EXPR_GLOBALS, MASK64, open_code

#: Bound on cached replay functions; the cache is cleared when full.
#: An entry measures ~5.6 KiB (1.6 source key + 3.9 code object); one
#: 200k-instruction gcc session leaves 240, the eight programs
#: analyze-wide profiles 356, so the bound is far from ordinary use.
REPLAY_CACHE_MAX = 4096

_replay_cache = {}                   # generated source text -> function
_replay_globals = dict(EXPR_GLOBALS)  # shared by every replay function
_replay_cache_hits = 0
_replay_cache_misses = 0


def replay_cache_stats():
    """``(hits, misses, entries)`` of the process-wide replay-code
    cache since import.  Process history, not a property of any one
    simulation: keep it out of snapshots and fact sheets."""
    return _replay_cache_hits, _replay_cache_misses, len(_replay_cache)


def clear_replay_cache():
    """Drop every cached replay function (live variants keep theirs)."""
    _replay_cache.clear()


#: The probe that stopped a replay.  A bail is ``(reason index, i)``
#: and the index only *names* the probe for ``sim.fastpath.bails.*``:
#: ``Core.run`` handles every value identically.
BAIL_REASONS = ("fetch", "wb", "dtb", "dcache")
_FETCH, _WB, _DTB, _DCACHE = range(len(BAIL_REASONS))
#: First element of a clean replay's terminator tuple.
CLEAN = len(BAIL_REASONS)


def cache_geometry(cache_config):
    """(line_shift, set_mask) when the codegen can inline the tag
    probe (direct-mapped, power-of-two sets), else None."""
    num_sets = cache_config.size // (cache_config.line_size
                                     * cache_config.assoc)
    if cache_config.assoc == 1 and num_sets & (num_sets - 1) == 0:
        return (cache_config.line_size.bit_length() - 1, num_sets - 1)
    return None


class Block:
    """One discovered straight-line block and its cached schedules."""

    __slots__ = ("head", "recs", "live_ins", "has_imul", "has_fdiv",
                 "variants", "failed")

    def __init__(self, head, recs, live_ins, has_imul, has_fdiv):
        self.head = head
        self.recs = recs              # predecode records, terminator last
        self.live_ins = live_ins      # registers read before written
        self.has_imul = has_imul
        self.has_fdiv = has_fdiv
        self.variants = {}            # entry key -> Variant
        self.failed = 0               # consecutive aborted recordings


def _final_scoreboard(steps, l1d_latency):
    """Last-writer completion offsets, entry-relative.

    All completion times in a *clean* replay are entry-relative
    constants (a clean load's latency is exactly the L1 hit latency, so
    its dynamic and static ready times coincide).
    """
    writers = {}
    for s in steps:
        rec = s[0]
        dst = rec[7]
        if dst is not None:
            kind = rec[0]
            if kind <= 3:
                writers[dst] = s[1] + rec[2]
            elif kind <= 6:
                writers[dst] = s[1] + l1d_latency
            else:          # br/bsr/jmp/jsr link register
                writers[dst] = s[1] + 1
    return tuple(writers.items())


class Variant:
    """One compiled schedule plus its precomputed bulk effects.

    ``steps`` keeps the interpretable per-instruction schedule
    ``(record, rel_issue, cycles_head, paired, stalls)`` -- the bail
    path uses it to reconstruct the completed prefix's accounting.
    """

    __slots__ = ("fn", "uses", "steps", "n", "total_rel", "count_addrs",
                 "head_items", "stall_items", "sb", "imul_rel",
                 "fdiv_rel", "prev_cls_end", "term_open", "leader_addr",
                 "term_addr", "term_edge_always", "hits")

    def __init__(self, steps, sb):
        # Tiered: ``fn`` stays None (and the slow path keeps executing
        # the block) until the variant recurs ``COMPILE_USES`` times
        # (see there for what a compile() costs).
        self.fn = None
        self.uses = 0
        self.steps = steps
        self.n = len(steps)
        last = steps[-1]
        self.total_rel = last[1]
        self.count_addrs = tuple(s[0][14] for s in steps)
        self.head_items = tuple((s[0][14], s[2]) for s in steps if s[2])
        stall_acc = {}
        for s in steps:
            if s[4]:
                for reason, amount in s[4]:
                    k = (s[0][14], reason)
                    stall_acc[k] = stall_acc.get(k, 0) + amount
        self.stall_items = tuple(
            (a, r, amt) for (a, r), amt in stall_acc.items())
        imul_rel = fdiv_rel = 0
        for s in steps:
            unit = s[0][11]
            if unit == 1:
                imul_rel = s[1] + s[0][12]
            elif unit == 2:
                fdiv_rel = s[1] + s[0][12]
        self.sb = sb
        self.imul_rel = imul_rel
        self.fdiv_rel = fdiv_rel
        self.prev_cls_end = last[0][1]
        # After a control transfer pair_open is additionally closed by a
        # *taken* transfer; the replay caller combines term_open with
        # the dynamic direction.
        self.term_open = not last[3]
        leader = None
        for s in reversed(steps):
            if not s[3]:
                leader = s[0][14]
                break
        self.leader_addr = leader
        self.term_addr = last[0][14]
        # cbr/fbr/br/bsr record their edge unconditionally; indirect
        # jumps skip the edge into the process exit stub.
        self.term_edge_always = last[0][0] <= 14
        self.hits = 0


def _compile_replay(steps, page_bits, sb, l1d_geom, l1i_geom):
    """Compile *steps* into a specialized replay function.

    The generated function executes the block's semantics and the
    model's *hit* paths (same-page I-L1 tag hit, D-TLB entry present,
    L1D tag hit, write buffer free, branch predictor) with every
    schedule-derived constant inlined.  A hit's only side effect is a
    hit counter bump, so the inlined probes replicate the model
    byte-for-byte; a probe that does not hit returns *before* any
    counter, ``_last_fetch_line`` or model state of its instruction is
    touched (the write-buffer probe is idempotent at a fixed time).
    Operate and branch semantics are open-coded from the record's own
    callable (:func:`repro.alpha.opcodes.open_code`).  It returns
    either

    * ``(CLEAN, next_pc, taken, mispredicted)`` -- the whole block
      replayed; the final scoreboard *sb* (entry-relative constants)
      was applied before the terminator's value-dependent return; or
    * ``(reason, i)`` -- a bail: exactly ``steps[:i]`` were applied and
      the slow path must run instruction *i* itself.  *reason* indexes
      :data:`BAIL_REASONS`.

    Functions are cached process-wide by their generated source text
    (module design notes): a variant another ``Machine`` already tiered
    up costs the text generation, not the ``compile()``.
    """
    global _replay_cache_hits, _replay_cache_misses
    pm = (1 << page_bits) - 1
    ishift, imask = l1i_geom
    dshift, dmask = l1d_geom
    body = []
    L = body.append
    has_mem = any(4 <= s[0][0] <= 9 for s in steps)

    def emit_fetch(i, addr, pre):
        # Hit path only: same code page, I-L1 tag hit, not a
        # stream-buffer line -- the one fetch that charges nothing.
        L(pre + "if core._last_code_page != %d: return (%d, %d)"
          % (addr >> page_bits, _FETCH, i))
        L(pre + "_il = ((core._last_code_ppage << %d) | %d) >> %d"
          % (page_bits, addr & pm, ishift))
        L(pre + "if _ics[_il & %d] != _il or _il in _ist:"
          " return (%d, %d)" % (imask, _FETCH, i))
        L(pre + "_icl.hits += 1")
        L(pre + "core._last_fetch_line = %d" % (addr >> ishift))

    def emit_translate(i):
        # D-TLB hit path: the entry is present.  The hit is counted by
        # the caller, after the instruction's last probe.
        L("    _pp = _dte.get((asn, _va >> %d))" % page_bits)
        L("    if _pp is None: return (%d, %d)" % (_DTB, i))
        L("    _ln = ((_pp << %d) | (_va & %d)) >> %d"
          % (page_bits, pm, dshift))

    prev_line = None
    prev_rel = 0
    for i, step in enumerate(steps):
        rec = step[0]
        addr = rec[14]
        fline = addr >> ishift
        if fline != prev_line:
            if prev_line is None:
                # Only the entry line can match the last fetched line;
                # later crossings are unconditional (addresses ascend).
                L("    if core._last_fetch_line != %d:" % fline)
                emit_fetch(i, addr, " " * 8)
            else:
                emit_fetch(i, addr, " " * 4)
            prev_line = fline
        if rec[13]:
            # The terminator can no longer bail: settle the scoreboard
            # before its (direction-dependent) return.
            for reg, done in sb:
                L("    reg_ready[%d] = reg_ready_static[%d] = t0 + %d"
                  % (reg, reg, done))
                L("    reg_dyn_reason[%d] = None" % reg)
        kind = rec[0]
        dst = rec[7]
        f1 = rec[4]
        f2 = rec[5]
        imm = rec[8]
        rel = step[1]
        if kind == 0:  # op
            if dst is not None:
                b = "iregs[%d]" % f2 if f2 is not None else repr(imm)
                L("    iregs[%d] = %s"
                  % (dst, open_code(rec[10], "iregs[%d]" % f1, b)))
        elif kind == 1:  # cmov (dst is the old-value register)
            if dst is not None:
                b = "iregs[%d]" % f2 if f2 is not None else repr(imm)
                L("    if %s: iregs[%d] = %s"
                  % (open_code(rec[10], "iregs[%d]" % f1), dst, b))
        elif kind == 2:  # fop
            if dst is not None:
                a = "fregs[%d]" % f1 if f1 is not None else "0.0"
                L("    fregs[%d] = %s"
                  % (dst - 32, open_code(rec[10], a, "fregs[%d]" % f2)))
        elif kind == 3:  # lda
            if dst is not None:
                if f2 is not None:
                    L("    iregs[%d] = (iregs[%d] + %d) & MASK64"
                      % (dst, f2, imm))
                else:
                    L("    iregs[%d] = %d" % (dst, imm & MASK64))
        elif kind <= 6:  # loads
            L("    _va = (iregs[%d] + %d) & MASK64" % (f2, imm))
            emit_translate(i)
            L("    if _l1s[_ln & %d] != _ln: return (%d, %d)"
              % (dmask, _DCACHE, i))
            L("    dtb.hits += 1")
            L("    l1d.hits += 1")
            if dst is None:  # the zero register: probes only
                pass
            elif kind == 4:  # ldq
                L("    iregs[%d] = mem.get(_va & -8, 0)" % dst)
            elif kind == 5:  # ldl
                L("    _v = mem.get(_va & -4, 0) & 0xFFFFFFFF")
                L("    if _v >> 31: _v = (_v | -4294967296) & MASK64")
                L("    iregs[%d] = _v" % dst)
            else:  # ldt
                L("    _v = mem.get(_va & -8, 0)")
                L("    if not isinstance(_v, float): _v = float(_v)")
                L("    fregs[%d] = _v" % (dst - 32))
        elif kind <= 9:  # stores
            L("    _va = (iregs[%d] + %d) & MASK64" % (f2, imm))
            # The write-buffer probe is idempotent at a fixed time (the
            # cycle after the previous issue, as in the slow path), so
            # the slow path redoes a busy store exactly.
            L("    _pr = t0 + %d" % (prev_rel + 1))
            L("    if wb.earliest_issue(_va, _pr) != _pr:"
              " return (%d, %d)" % (_WB, i))
            emit_translate(i)
            L("    dtb.hits += 1")
            # Write-through, no-write-allocate: a store that misses the
            # L1 is counted, installs nothing and is no event.
            L("    if _l1s[_ln & %d] == _ln:" % dmask)
            L("        l1d.hits += 1")
            L("    else:")
            L("        l1d.misses += 1")
            L("    wb.commit(_va, t0 + %d)" % rel)
            if kind == 7:  # stq
                L("    mem[_va & -8] = iregs[%d]" % f1)
            elif kind == 8:  # stl
                L("    mem[_va & -4] = iregs[%d] & 0xFFFFFFFF" % f1)
            else:  # stt
                L("    mem[_va & -8] = fregs[%d]" % f1)
        elif kind == 10:  # nop / call_pal: timing only
            pass
        elif kind == 11 or kind == 12:  # cbranch / fbranch
            regs = "iregs" if kind == 11 else "fregs"
            L("    _t = %s" % open_code(rec[10], "%s[%d]" % (regs, f1)))
            L("    _np = %d if _t else %d" % (rec[9], addr + 4))
            # Open-coded BranchPredictor.predict_conditional (2-bit
            # saturating counter update + accounting).
            L("    _bt = bp._table")
            L("    _bx = %d & bp._mask" % (addr >> 2))
            L("    _c = _bt[_bx]")
            L("    if _t:")
            L("        if _c < 3: _bt[_bx] = _c + 1")
            L("    elif _c > 0:")
            L("        _bt[_bx] = _c - 1")
            L("    bp.predictions += 1")
            L("    _mp = (_c >= 2) != _t")
            L("    if _mp: bp.mispredictions += 1")
            L("    return (%d, _np, _t, _mp)" % CLEAN)
        elif kind == 13 or kind == 14:  # br / bsr
            if dst is not None:
                L("    iregs[%d] = %d" % (dst, addr + 4))
            if kind == 14:
                L("    bp.push_call(%d)" % (addr + 4))
            L("    return (%d, %d, True, False)" % (CLEAN, rec[9]))
        else:  # jmp / jsr / ret
            L("    _tg = iregs[%d] & -4" % f2)
            if dst is not None:
                L("    iregs[%d] = %d" % (dst, addr + 4))
            if kind == 16:
                L("    bp.push_call(%d)" % (addr + 4))
                L("    _mp = not bp.predict_indirect(%d, _tg)" % addr)
            elif kind == 17:
                L("    _mp = not bp.predict_return(_tg)")
            else:
                L("    _mp = not bp.predict_indirect(%d, _tg)" % addr)
            L("    return (%d, _tg, True, _mp)" % CLEAN)
        prev_rel = rel

    # Hoisted probe handles for the inlined hit paths.
    head = ["def _replay(core, bp, dtb, l1d, wb, mem, iregs, fregs,"
            " reg_ready, reg_ready_static, reg_dyn_reason, asn, t0):",
            "    _icl = core.ihier.l1",
            "    _ics = _icl.sets",
            "    _ist = core._istream"]
    if has_mem:
        head.append("    _dte = dtb._entries")
        head.append("    _l1s = l1d.sets")
    source = "\n".join(head + body)
    fn = _replay_cache.get(source)
    if fn is not None:
        _replay_cache_hits += 1
        return fn
    _replay_cache_misses += 1
    # The def binds into *scope*; the function's globals stay shared.
    scope = {}
    exec(compile(source, "<fastpath-variant>", "exec"),
         _replay_globals, scope)
    fn = scope["_replay"]
    if len(_replay_cache) >= REPLAY_CACHE_MAX:
        _replay_cache.clear()
    _replay_cache[source] = fn
    return fn


class FastPath:
    """Machine-level block table + issue-schedule variant cache."""

    #: Longer straight-line runs are not cached.
    MAX_BODY = 48
    #: Bound on distinct entry PCs tracked (False entries included).
    MAX_BLOCKS = 65536
    #: Bound on cached schedules across all blocks.
    MAX_VARIANTS = 16384
    #: Consecutive aborted recordings before a variant-less block is
    #: blacklisted (e.g. streaming code whose loads always miss).
    MAX_FAILED = 12
    #: Recorded-variant re-uses before tiering up to a compiled replay.
    #: One compile() measures 0.42-0.45 ms, 200-220 slow-path
    #: instructions at 2.0 us each (generating its source text: 0.03
    #: ms), so code with many lukewarm variants (gcc) loses
    #: at low thresholds on short runs; 4 keeps short-budget wins
    #: without measurably hurting steady-state throughput.  The
    #: threshold is the same whether or not the process-wide replay
    #: cache already holds the function -- by design: tier-up decides
    #: which instructions replay, hence every sim.fastpath.* count, and
    #: those must not depend on process history.
    COMPILE_USES = 4

    def __init__(self, decode_map, page_bits, l1d_latency, l1d_geom,
                 l1i_geom):
        self.decode_map = decode_map  # shared with the Machine, live
        self.page_bits = page_bits
        self.l1d_latency = l1d_latency
        self.l1d_geom = l1d_geom      # see cache_geometry(); never None
        self.l1i_geom = l1i_geom
        self.blocks = {}              # head pc -> Block | False
        self.variant_count = 0
        #: Variants with unflushed ground-truth hits (see
        #: :meth:`flush_deferred`).
        self.deferred = []
        # Counters surfaced through repro.obs (sim.fastpath.*).
        self.replays = 0              # cached schedules replayed
        self.replayed_instructions = 0
        #: Replays cut short, per probe that stopped them (indexed
        #: like BAIL_REASONS).
        self.bails = [0] * len(BAIL_REASONS)
        self.recordings = 0           # schedules captured
        self.compiled_variants = 0    # schedules tiered up to compiled
        self.aborted_recordings = 0   # recordings spoiled by an event
        self.variant_misses = 0       # entry key not cached yet
        self.headroom_skips = 0       # replay blocked by counter headroom
        self.dropped_variants = 0     # cache full, schedule discarded
        self.invalidations = 0

    # -- discovery ----------------------------------------------------

    def discover(self, head):
        """Scan forward from *head*; cache and return Block or False."""
        if len(self.blocks) >= self.MAX_BLOCKS:
            return False
        decode_map = self.decode_map
        recs = []
        addr = head
        rec = decode_map.get(addr)
        while (rec is not None and not rec[13]          # R_CTRL
               and len(recs) < self.MAX_BODY):
            recs.append(rec)
            addr += 4
            rec = decode_map.get(addr)
        if rec is None or not recs or not rec[13]:
            # Unmapped code, a bare control transfer (not worth the
            # key-building overhead) or a run longer than MAX_BODY.
            self.blocks[head] = False
            return False
        # The terminator replays too: its issue slot depends on its own
        # operands, so they join the entry key's live-ins.
        recs.append(rec)
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
        block = Block(head, tuple(recs), tuple(live), has_imul, has_fdiv)
        self.blocks[head] = block
        return block

    # -- schedule cache -----------------------------------------------

    def store(self, block, key, entries):
        """Cache a recorded schedule for (*block*, *key*).

        *entries* is one ``(rel_issue, cycles_head, paired, stalls)``
        per instruction of the block, terminator included.  Its bulk
        effects are precomputed (see :class:`Variant`); compilation
        waits for :meth:`compile_variant`.
        """
        if self.variant_count >= self.MAX_VARIANTS:
            self.dropped_variants += 1
            return False
        recs = block.recs
        if len(entries) != len(recs):
            return False
        steps = tuple(
            (rec, entry[0], entry[1], entry[2], entry[3])
            for rec, entry in zip(recs, entries))
        sb = _final_scoreboard(steps, self.l1d_latency)
        block.variants[key] = Variant(steps, sb)
        block.failed = 0
        self.variant_count += 1
        self.recordings += 1
        return True

    def compile_variant(self, variant):
        """Tier-up: compile *variant*'s recorded schedule to its
        specialized replay function (see :func:`_compile_replay`)."""
        variant.fn = _compile_replay(
            variant.steps, self.page_bits, variant.sb, self.l1d_geom,
            self.l1i_geom)
        self.compiled_variants += 1

    def abort_recording(self, block):
        """A dynamic event spoiled a recording of *block*.  Blocks that
        repeatedly fail with nothing cached yet (streaming code whose
        loads always miss) are blacklisted to stop paying the
        recording overhead on every visit."""
        self.aborted_recordings += 1
        block.failed += 1
        if (block.failed >= self.MAX_FAILED and not block.variants
                and self.blocks.get(block.head) is block):
            self.blocks[block.head] = False

    # -- deferred ground truth ----------------------------------------

    def flush_deferred(self, gt_count, gt_head, gt_stall):
        """Fold the deferred replay hits into the ground-truth maps.

        Clean replays only bump their variant's hit counter; this folds
        ``hits`` copies of each variant's per-block deltas in.  Pure
        commutative addition, so the totals are identical to the slow
        path's per-instruction accounting.  Called at every
        ``Core.run`` exit, before anything can read the maps.
        """
        deferred = self.deferred
        if not deferred:
            return
        for variant in deferred:
            hits = variant.hits
            variant.hits = 0
            for a in variant.count_addrs:
                gt_count[a] = gt_count.get(a, 0) + hits
            for a, ch in variant.head_items:
                gt_head[a] = gt_head.get(a, 0) + ch * hits
            for a, reason, amount in variant.stall_items:
                row = gt_stall.get(a)
                if row is None:
                    row = {}
                    gt_stall[a] = row
                row[reason] = row.get(reason, 0) + amount * hits
        del deferred[:]

    # -- invalidation -------------------------------------------------

    def invalidate(self):
        """Drop every cached block (the static code map changed).

        Deferred hit counters survive on the Variant objects still
        referenced by ``self.deferred``, so no ground truth is lost.
        """
        if self.blocks:
            self.invalidations += 1
        self.blocks.clear()
        self.variant_count = 0

    # -- reporting ----------------------------------------------------

    def snapshot(self):
        """Raw counters for the obs schema (sim.fastpath.*)."""
        snap = {
            "replays": self.replays,
            "replayed_instructions": self.replayed_instructions,
            "bails": sum(self.bails),
            "recordings": self.recordings,
            "compiled_variants": self.compiled_variants,
            "aborted_recordings": self.aborted_recordings,
            "variant_misses": self.variant_misses,
            "headroom_skips": self.headroom_skips,
            "dropped_variants": self.dropped_variants,
            "blocks": len(self.blocks),
            "variants": self.variant_count,
            "invalidations": self.invalidations,
        }
        for reason, count in zip(BAIL_REASONS, self.bails):
            snap["bails." + reason] = count
        return snap
