"""How a predecoded record becomes Python text, and the process-wide
cache of the functions made from it.

Two generators turn records into functions.  Replay code
(:func:`repro.cpu.fastpath._replay_source`) runs a recorded schedule:
its issue offsets are constants, and any probe that does not hit bails
to the interpreter.  A generated step (:func:`repro.cpu.step._run_source`)
computes issue timing as ``Core.run``'s interpreter does and calls the
model on a miss.  What a record *does* is the same in both, so its text
is written here, once, as fragments both generators call:

* :func:`address` -- a memory operand's virtual address (and ``lda``'s
  value), and :func:`access`, which sets it (``_va``) and, for a store,
  looks up its write-buffer block (``_wd``);
* :func:`effect` -- a kind's architectural effect: the register write
  of an operate, conditional move, floating operate or ``lda``, a
  load's value, a store's memory write, a conditional branch's
  direction (``_t``), an indirect transfer's target, the link register
  and the return-stack push;
* :func:`merge_or_commit` -- a store joining its block still draining
  in the write buffer, or committing;
* :func:`predict` -- the open-coded 2-bit predictor update, or the
  indirect / return predictor's call;
* :func:`translate` and :func:`l1d_hit` -- the D-TLB entry and the L1D
  tag compare of a memory access, :func:`l1i_set` -- the I-L1 set a
  fetch compares, and :func:`settle` -- a register's ready times;
* :func:`handles` and :func:`code_page` -- the probe handles a function
  hoists (``_ics``, ``_ist``, ``_dte``, ``_l1s``, ``_wbe``, ``_bt`` /
  ``_bm`` and ``_cl``).

What differs by tier stays in its generator: replay's schedule
constants and bails, a step's issue timing, model calls and counting.
``Core.run``'s interpreter is written by hand; it is the reference
both generators are tested against.

Fragments are lines without indentation, in names the generated
function binds: ``iregs``, ``fregs``, ``mem``, ``bp``, ``wb``, ``asn``
and the hoisted handles.  :func:`function` compiles a generator's text
with ``MASK64`` spelled as its value, under one globals dict
(:data:`GLOBALS`) that every generated function shares.

Generated functions are cached process-wide by their generator's input
(``REPLAY_CACHE_MAX`` entries, cleared when full).  The cache changes
time only; its hit and miss counts are process history, reported by
:func:`replay_cache_stats` and never by a simulation's counters.
"""

from repro.alpha.opcodes import EXPR_GLOBALS, MASK64, open_code
from repro.cpu.writebuffer import WriteBuffer

#: Bound on cached functions, replay code and generated steps alike;
#: the cache is cleared when full.  A variant's entry measures ~1.6 KiB
#: of code object (its key is the recorded steps the variant holds
#: anyway), a trace's ~3.5 KiB; one 200k-instruction gcc session leaves
#: 288 entries (48 of them traces), so the bound is far from ordinary
#: use.
REPLAY_CACHE_MAX = 4096

_cache = {}                          # generator input (key) -> function
_hits = 0
_misses = 0

#: What generated code sees besides its arguments: the opcode
#: expressions' helpers, a 2-bit saturating counter after a taken /
#: not-taken outcome, and the rules generated steps call
#: (:mod:`repro.cpu.step` adds them).
GLOBALS = dict(EXPR_GLOBALS)
GLOBALS.update(_UP=(1, 2, 3, 3), _DOWN=(0, 0, 1, 2))


def replay_cache_stats():
    """``(hits, misses, entries)`` of the process-wide code cache since
    import.  Process history, not a property of any one simulation:
    keep it out of snapshots and fact sheets."""
    return _hits, _misses, len(_cache)


def clear_replay_cache():
    """Drop every cached function (live variants and runs keep theirs)."""
    _cache.clear()


def cached_code(key):
    """The function the code cache holds for generator input *key*, or
    None; a hit is counted."""
    global _hits
    fn = _cache.get(key)
    if fn is not None:
        _hits += 1
    return fn


def cache_code(key, fn):
    """Keep *fn*, just generated from *key*, in the bounded code cache;
    a miss is counted."""
    global _misses
    _misses += 1
    if len(_cache) >= REPLAY_CACHE_MAX:
        _cache.clear()
    _cache[key] = fn


def function(key, filename, source):
    """The function for generator input *key*: the cached one, or the
    one the text ``source()`` defines, compiled as *filename* under
    :data:`GLOBALS` and cached.  *source* is not called on a hit."""
    fn = cached_code(key)
    if fn is None:
        # The def binds into *scope*; the function's globals stay shared.
        scope = {}
        exec(compile(source().replace("MASK64", str(MASK64)), filename,
                     "exec"), GLOBALS, scope)
        (fn,) = scope.values()
        cache_code(key, fn)
    return fn


# ---- fragments ----------------------------------------------------------


def address(base, disp):
    """The text of a memory operand's virtual address."""
    if disp:
        return "(iregs[%d] + %d) & MASK64" % (base, disp)
    return "iregs[%d] & MASK64" % base


def access(rec):
    """The lines that begin load or store *rec*: its address, and a
    store's write-buffer block (``None`` if the block is not in the
    buffer, else when it drains)."""
    lines = ["_va = " + address(rec[5], rec[8])]
    if rec[0] >= 7:
        lines.append("_wd = _wbe.get(_va >> %d)" % WriteBuffer.BLOCK_SHIFT)
    return lines


def effect(rec, target="next_pc"):
    """The lines of *rec*'s architectural effect, opcode semantics
    open-coded from the record's own callable (``open_code``).  A load's
    and a store's follow their probes (``_va`` set); a conditional
    branch leaves its direction in ``_t`` and an indirect transfer its
    target in *target*."""
    kind = rec[0]
    f1 = rec[4]
    f2 = rec[5]
    dst = rec[7]
    imm = rec[8]
    fn = rec[10]
    if kind == 11 or kind == 12:  # cbranch / fbranch
        regs = "iregs" if kind == 11 else "fregs"
        return ["_t = %s" % open_code(fn, "%s[%d]" % (regs, f1))]
    if kind >= 13:  # br / bsr / jmp / jsr / ret
        pc = rec[14]
        lines = ["%s = iregs[%d] & -4" % (target, f2)] if kind >= 15 else []
        if dst is not None:
            lines.append("iregs[%d] = %d" % (dst, pc + 4))
        if kind == 14 or kind == 16:
            lines.append("bp.push_call(%d)" % (pc + 4))
        return lines
    if 7 <= kind <= 9:  # stores
        if kind == 7:
            return ["mem[_va & -8] = iregs[%d]" % f1]
        if kind == 8:
            return ["mem[_va & -4] = iregs[%d] & 0xFFFFFFFF" % f1]
        return ["mem[_va & -8] = fregs[%d]" % f1]
    if dst is None:  # the zero register, or a nop: no architectural write
        return []
    if kind == 0:  # op
        b = "iregs[%d]" % f2 if f2 is not None else repr(imm)
        return ["iregs[%d] = %s" % (dst, open_code(fn, "iregs[%d]" % f1, b))]
    if kind == 1:  # cmov (dst is the old-value register)
        b = "iregs[%d]" % f2 if f2 is not None else repr(imm)
        return ["if %s: iregs[%d] = %s"
                % (open_code(fn, "iregs[%d]" % f1), dst, b)]
    if kind == 2:  # fop
        a = "fregs[%d]" % f1 if f1 is not None else "0.0"
        return ["fregs[%d] = %s"
                % (dst - 32, open_code(fn, a, "fregs[%d]" % f2))]
    if kind == 3:  # lda
        if f2 is None:
            return ["iregs[%d] = %d" % (dst, imm & MASK64)]
        return ["iregs[%d] = %s" % (dst, address(f2, imm))]
    if kind == 4:  # ldq
        return ["iregs[%d] = mem.get(_va & -8, 0)" % dst]
    if kind == 5:  # ldl: the longword, sign-extended
        return ["_v = mem.get(_va & -4, 0) & 0xFFFFFFFF",
                "iregs[%d] = (_v | -4294967296) & MASK64 if _v >> 31"
                " else _v" % dst]
    # ldt
    return ["_v = mem.get(_va & -8, 0)",
            "fregs[%d] = _v if isinstance(_v, float) else float(_v)"
            % (dst - 32)]


def merge_or_commit(issue):
    """The lines of a store issuing at *issue*: one to a block still
    draining then merges, any other commits."""
    return ["if _wd is not None and _wd > %s: wb.merges += 1" % issue,
            "else: wb.commit(_va, %s)" % issue]


def predict(rec, target="next_pc"):
    """``(lines, test, miss)`` for control transfer *rec*: the lines
    that update the predictor, the expression true when it mispredicted
    (None: a direct branch, predicted always), and the lines that count
    a misprediction where the predictor's own call does not.  A
    conditional branch's is ``BranchPredictor.predict_conditional``
    open-coded, after :func:`effect` set ``_t``; an indirect transfer's
    predicts *target*."""
    kind = rec[0]
    pc = rec[14]
    if kind == 11 or kind == 12:
        return (["_bx = %d & _bm" % (pc >> 2), "_c = _bt[_bx]",
                 "_bt[_bx] = _UP[_c] if _t else _DOWN[_c]",
                 "bp.predictions += 1"],
                "(_c >= 2) != _t", ["bp.mispredictions += 1"])
    if kind <= 14:
        return [], None, []
    if kind == 17:
        return [], "not bp.predict_return(%s)" % target, []
    return [], "not bp.predict_indirect(%d, %s)" % (pc, target), []


def translate(page_bits):
    """The line that looks up the D-TLB entry of ``_va`` (``_pp``: the
    physical page, or None)."""
    return "_pp = _dte.get((asn, _va >> %d))" % page_bits


def l1d_hit(page_bits, line_shift, set_mask):
    """The expression true when ``_va``'s line, on physical page
    ``_pp``, is in the direct-mapped L1D (``_ln``: the physical line)."""
    return ("_l1s[(_ln := ((_pp << %d) | (_va & %d)) >> %d) & %d] == _ln"
            % (page_bits, (1 << page_bits) - 1, line_shift, set_mask))


def l1i_set(offset, set_mask, shift):
    """The I-L1 set of the physical line ``_il``, *offset* lines into
    its code page (*shift*: the page's bits less the line's): a
    constant when a page spans no more lines than the L1 has sets."""
    if set_mask >> shift == 0:
        return str(offset & set_mask)
    return "_il & %d" % set_mask


def settle(reg, when):
    """The line that makes register *reg* ready at *when*, with no
    dynamic stall reason."""
    return ("reg_ready[%d] = reg_ready_static[%d] = %s;"
            " reg_dyn_reason[%d] = None" % (reg, reg, when, reg))


def handles(kinds, icache=True):
    """The lines that hoist the probe handles code over records of
    *kinds* reads: with *icache*, the I-L1's sets and the stream buffer
    (the function names the I-L1 ``l1i``).  ``Cache.flush`` and
    ``TLB.flush`` clear in place, and the write buffer's dict, the
    stream buffer and the predictor's table are never replaced."""
    lines = ["_ics = l1i.sets; _ist = core._istream"] if icache else []
    if any(4 <= kind <= 9 for kind in kinds):
        lines.append("_dte = dtb._entries; _l1s = l1d.sets")
    if any(7 <= kind <= 9 for kind in kinds):
        lines.append("_wbe = wb._entries")
    if 11 in kinds or 12 in kinds:
        lines.append("_bt = bp._table; _bm = bp._mask")
    return lines


def code_page(shift):
    """The line that reads the code page's first physical I-cache line
    (``_cl``): the physical page shifted by *shift*, the page's bits
    less the line's.  A fetch within the page ors in its line."""
    return "_cl = core._last_code_ppage << %d" % shift
