"""Layer 4: static translation validation for the rewriter.

:func:`validate_result` proves -- without running either image -- that
a :func:`repro.opt.rewrite.rewrite_image` output preserves the
semantics of its input, by combining three independent arguments:

* a **symbolic evaluator** for Alpha basic blocks.  Each block is
  summarized as a symbolic machine state (register values as
  expression trees over the block's entry state, the ordered stream of
  stores/calls, the terminator) built from the *same* architectural
  semantics tables (:data:`repro.alpha.opcodes.OPCODES`) the cycle
  simulator executes -- there is no second interpreter to drift;
* a **simulation relation** between the original and rewritten CFGs,
  modulo the rewrite's claimed ``old2new`` correspondence plus the
  return-slot rule (the word after a moved call corresponds to the
  word after the original call).  The claim is *verified*, never
  trusted: the regions ``old2new`` describes must tile the rewritten
  image exactly, block for block, and each region's actual
  instructions must produce a symbolic state equal -- modulo code
  address translation -- to the original block's.  Because summaries
  are order-insensitive precisely where reordering is legal (and
  order-sensitive across stores, calls and dependences), the equality
  independently re-proves the scheduler's dependence safety;
* **directed rules** for each rewrite primitive: an inverted
  conditional branch must use the architecturally negated opcode
  (:data:`repro.alpha.opcodes.BRANCH_INVERSES`) with taken/fallthrough
  destinations swapped; an elided ``br`` requires layout fallthrough
  into its target's moved code; a fallthrough stub must be an
  unconditional ``br`` to the moved fallthrough; data must stay pinned
  at the original offset with every data symbol byte-identical.

Calls (``bsr``/``jsr``) segment a block: the full symbolic state is
compared at each call boundary (the callee observes everything), after
which registers and memory are havocked -- both runs invoke the same
callee from equal states, so post-call values are equal-by-name
(``postcall`` leaves) on both sides.

A rejection carries :class:`Counterexample` objects naming the
procedure, the block (original and rewritten offsets) and the
diverging symbolic state, and surfaces as ``rewrite/*`` Findings --
dcpicheck Layer 4 -- as well as the first acceptance gate of
``dcpiopt`` (see :mod:`repro.opt.optimizer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.alpha import regs
from repro.alpha.image import Image
from repro.alpha.instruction import Instruction
from repro.alpha.opcodes import (BRANCH_INVERSES, CONTROL_KINDS,
                                 DIRECT_BRANCH_KINDS, MASK64, OPCODES)
from repro.check.findings import ERROR, WARNING, Finding

#: Layer-4 rule ids.
R_STRUCTURE = "rewrite/structure"
R_REG = "rewrite/register-state-divergence"
R_MEM = "rewrite/memory-state-divergence"
R_CTRL = "rewrite/control-flow-divergence"
R_CALL = "rewrite/call-boundary-divergence"
R_DATA = "rewrite/data-pinning"
R_FROZEN = "rewrite/frozen-proc-modified"
R_BAILED = "rewrite/plan-not-applicable"

#: A symbolic value: a nested tuple whose head names the node kind --
#: ``("const", v)``, ``("reg", n)`` (entry value), ``("postcall", k,
#: n)`` (value after the k-th call), ``("codeaddr", off)`` (a return
#: slot; compared modulo the translation), ``("sym", name)`` (an
#: unresolved symbol address), ``("load", op, addr, gen)`` (a load at
#: memory generation *gen*), ``("op", name, a, b)``, ``("cmov", name,
#: a, b, old)`` and ``("aligned", a)`` (``& ~3``).
Expr = Tuple[Any, ...]

_ZERO: Expr = ("const", 0)
_FZERO: Expr = ("const", 0.0)

#: Opcodes that are straight-line calls (segment boundaries).
_CALL_OPS = ("bsr", "jsr")


def _const(value: Any) -> Expr:
    return ("const", value)


def _reg_name(reg: int) -> str:
    if reg >= regs.NUM_INT_REGS:
        return "f%d" % (reg - regs.NUM_INT_REGS)
    return "r%d" % reg


def format_expr(expr: Expr, depth: int = 6) -> str:
    """Render a symbolic value the way counterexamples print it.

    Operands more than *depth* levels down print as ``...``: values
    are DAGs, and the printed tree doubles with every shared level.
    """
    tag = expr[0]
    if tag == "const":
        value = expr[1]
        if isinstance(value, int):
            return "%#x" % value
        return repr(value)
    if tag == "reg":
        return "%s@entry" % _reg_name(expr[1])
    if tag == "postcall":
        return "%s@call%d" % (_reg_name(expr[2]), expr[1])
    if tag == "codeaddr":
        return "ret@%#x" % expr[1]
    if tag == "sym":
        return "&%s" % expr[1]
    if depth <= 0:
        return "..."
    if tag == "load":
        return "%s[%s]@m%d" % (expr[1], format_expr(expr[2], depth - 1),
                               expr[3])
    if tag == "op":
        return "(%s %s %s)" % (expr[1], format_expr(expr[2], depth - 1),
                               format_expr(expr[3], depth - 1))
    if tag == "cmov":
        return "(%s %s ? %s : %s)" % (
            expr[1], format_expr(expr[2], depth - 1),
            format_expr(expr[3], depth - 1),
            format_expr(expr[4], depth - 1))
    if tag == "aligned":
        return "(%s & ~3)" % format_expr(expr[1], depth - 1)
    return repr(expr)


def _expr_eq(a: Expr, b: Expr, old2new: Dict[int, int],
             proven: Optional[Set[Tuple[int, int]]] = None) -> bool:
    """Structural equality, original vs rewritten side.

    ``codeaddr`` leaves are return slots (``instruction offset + 4``);
    they correspond exactly when the instructions that materialized
    them correspond under ``old2new`` -- the oracle's return-slot rule,
    applied statically.

    Values are DAGs, not trees: a long dependence chain shares its
    operands, so *proven* remembers the node pairs (by identity; both
    values outlive the comparison) already found equal and each pair
    is walked once.  An unequal pair ends the whole comparison, so
    only equalities need remembering.
    """
    if a[0] != b[0] or len(a) != len(b):
        return False
    if a[0] == "codeaddr":
        return old2new.get(a[1] - 4) == b[1] - 4
    if proven is None:
        proven = set()
    pair = (id(a), id(b))
    if pair in proven:
        return True
    for x, y in zip(a[1:], b[1:]):
        if isinstance(x, tuple) and isinstance(y, tuple):
            if not _expr_eq(x, y, old2new, proven):
                return False
        elif x != y:
            return False
    proven.add(pair)
    return True


def _fold(op: str, a: Expr, b: Expr) -> Expr:
    """Apply *op*'s architectural semantics; fold constants."""
    sem = OPCODES[op].sem
    if sem is not None and a[0] == "const" and b[0] == "const":
        return ("const", sem(a[1], b[1]))
    return ("op", op, a, b)


def _fold_add(base: Expr, disp: Expr) -> Expr:
    """``(base + disp) & MASK64`` -- lda and effective addresses."""
    if base[0] == "const" and disp[0] == "const":
        return ("const", (base[1] + disp[1]) & MASK64)
    if disp == ("const", 0):
        return base
    return ("op", "lda", base, disp)


def _align(expr: Expr) -> Expr:
    """``& ~3`` -- indirect jump target alignment."""
    if expr[0] == "const":
        return ("const", expr[1] & ~3)
    return ("aligned", expr)


class _SymState:
    """Symbolic registers + effect stream while evaluating one block."""

    __slots__ = ("regs", "frame", "gen", "effects")

    def __init__(self) -> None:
        self.regs: Dict[int, Expr] = {}
        #: calls evaluated so far; names the havoc generation of
        #: unwritten registers (``postcall`` leaves).
        self.frame = 0
        #: memory generation: bumped by every store and every call, so
        #: a load moved across either gets a different tag.
        self.gen = 0
        #: ordered observable effects: ("store", op, addr, value),
        #: ("call", op, target, dst, reg snapshot, frame), ("pal", imm).
        self.effects: List[Tuple[Any, ...]] = []

    def read(self, reg: Optional[int]) -> Expr:
        if reg is None or reg == regs.ZERO_REG:
            return _ZERO
        if reg == regs.FZERO_REG:
            return _FZERO
        value = self.regs.get(reg)
        if value is not None:
            return value
        if self.frame:
            return ("postcall", self.frame, reg)
        return ("reg", reg)

    def write(self, reg: Optional[int], value: Expr) -> None:
        if reg is not None:
            self.regs[reg] = value

    def havoc(self) -> None:
        """Forget everything a callee may have changed."""
        self.regs = {}
        self.frame += 1
        self.gen += 1


def _eval_straightline(state: _SymState, inst: Instruction, off: int,
                       fixups: Dict[int, str]) -> None:
    """Evaluate one non-control instruction into *state*.

    Mirrors the execute stage of :mod:`repro.cpu.pipeline` exactly:
    operate sems over ``(ra, rb-or-literal)``, ``ldah``'s pre-shifted
    displacement, effective addresses ``rb + imm``, loads tagged with
    the current memory generation, stores appended to the effect
    stream.
    """
    kind = inst.info.kind
    op = inst.op
    if kind == "op":
        a = state.read(inst.ra)
        if inst.rb is not None:
            b = state.read(inst.rb)
        else:
            b = _const(inst.imm or 0)
        if inst.info.cls == "CMOV":
            old = state.read(inst.rc)
            cond = inst.info.cond
            if a[0] == "const":
                value = b if cond(a[1]) else old
            else:
                value = ("cmov", op, a, b, old)
        else:
            value = _fold(op, a, b)
        state.write(inst.dst, value)
    elif kind == "fop":
        if op in ("cvtqt", "cvttq"):
            a = _FZERO
        else:
            a = state.read(inst.ra)
        state.write(inst.dst, _fold(op, a, state.read(inst.rb)))
    elif kind == "lda":
        imm = inst.imm or 0
        if op == "ldah":
            imm <<= 16
        base = state.read(inst.rb)
        sym = fixups.get(off)
        disp = ("sym", sym) if sym is not None else _const(imm)
        state.write(inst.dst, _fold_add(base, disp))
    elif kind in ("load", "fload"):
        addr = _fold_add(state.read(inst.rb), _const(inst.imm or 0))
        state.write(inst.dst, ("load", op, addr, state.gen))
    elif kind in ("store", "fstore"):
        addr = _fold_add(state.read(inst.rb), _const(inst.imm or 0))
        state.effects.append(("store", op, addr, state.read(inst.ra)))
        state.gen += 1
    elif kind == "pal":
        # Timing/OS interaction only; position in the stream must
        # still match (it is a scheduling barrier).
        state.effects.append(("pal", inst.imm))
    # kind "nop": no architectural effect.


class _Summary:
    """One block's symbolic outcome."""

    __slots__ = ("state", "term", "interior")

    def __init__(self, state: _SymState,
                 term: Optional[Tuple[Any, ...]],
                 interior: Optional[int]) -> None:
        self.state = state
        #: ("cond", op, src expr, taken offset) | ("br", target) |
        #: ("indirect", op, target expr) | None (plain fallthrough).
        self.term = term
        #: offset of a control instruction that is *not* last (a
        #: malformed region -- blocks may only branch at the end).
        self.interior = interior


def _summarize(items: List[Tuple[int, Instruction]],
               fixups: Dict[int, str]) -> _Summary:
    """Symbolically evaluate *items* ``[(offset, instruction), ...]``.

    Offsets are the instructions' own addresses in their image (they
    parameterize ``codeaddr`` return slots); calls segment the stream
    via :meth:`_SymState.havoc`.
    """
    state = _SymState()
    term: Optional[Tuple[Any, ...]] = None
    interior: Optional[int] = None
    last = len(items) - 1
    for index, (off, inst) in enumerate(items):
        kind = inst.info.kind
        op = inst.op
        if op in _CALL_OPS:
            if inst.dst is not None:
                state.write(inst.dst, ("codeaddr", off + 4))
            if op == "bsr":
                target: Tuple[Any, ...] = ("direct", inst.target)
            else:
                target = ("indirect", _align(state.read(inst.rb)))
            state.effects.append(("call", op, target, inst.dst,
                                  dict(state.regs), state.frame))
            state.havoc()
            continue
        if kind in ("cbranch", "fbranch"):
            this_term: Tuple[Any, ...] = (
                "cond", op, state.read(inst.ra), inst.target)
        elif kind == "br":
            if inst.dst is not None:
                state.write(inst.dst, ("codeaddr", off + 4))
            this_term = ("br", inst.target)
        elif kind == "jump":
            jump_target = _align(state.read(inst.rb))
            if inst.dst is not None:
                state.write(inst.dst, ("codeaddr", off + 4))
            this_term = ("indirect", op, jump_target)
        else:
            _eval_straightline(state, inst, off, fixups)
            continue
        if index != last and interior is None:
            interior = off
        term = this_term
    return _Summary(state, term, interior)


@dataclass(frozen=True)
class Counterexample:
    """Why one block of a rewrite is (claimed) not equivalent."""

    rule: str
    proc: str
    #: original block start offset (image-relative; -1 = image-level).
    block: int
    #: rewritten region start offset (-1 = image-level).
    new_block: int
    message: str
    detail: str = ""

    def location(self, image_name: str) -> str:
        if self.block < 0:
            return "%s:%s" % (image_name, self.proc or "-")
        return "%s:%s:+%#x" % (image_name, self.proc, self.block)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "proc": self.proc,
            "block": self.block,
            "new_block": self.new_block,
            "message": self.message,
            "detail": self.detail,
        }


@dataclass
class TransvalReport:
    """Verdict of one static validation.

    ``accepted`` -- equivalence proven for every block;
    ``rejected``  -- at least one :class:`Counterexample`;
    ``bailed``    -- the rewrite itself refused the plan (the image
    would run unmodified, so there is nothing to validate).
    """

    image_name: str
    verdict: str
    reason: str = ""
    counterexamples: List[Counterexample] = field(default_factory=list)
    procs_checked: int = 0
    blocks_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict != "rejected"

    def to_findings(self) -> List[Finding]:
        """Normalized Layer-4 findings (``rewrite/*`` rules)."""
        if self.verdict == "bailed":
            return [Finding(
                R_BAILED, WARNING, "%s:-" % self.image_name,
                "rewrite bailed out; image runs unmodified",
                self.reason)]
        return [Finding(ce.rule, ERROR, ce.location(self.image_name),
                        ce.message, ce.detail)
                for ce in self.counterexamples]

    def to_dict(self) -> Dict[str, object]:
        return {
            "image": self.image_name,
            "verdict": self.verdict,
            "reason": self.reason,
            "procs_checked": self.procs_checked,
            "blocks_checked": self.blocks_checked,
            "counterexamples": [ce.to_dict()
                                for ce in self.counterexamples],
        }


class _Region:
    """One plan block's verified location in the rewritten image."""

    __slots__ = ("proc", "frozen", "block", "start_new", "emitted",
                 "elided", "stub_at")

    def __init__(self, proc: str, frozen: bool, block: Any,
                 start_new: int, emitted: List[int], elided: bool,
                 stub_at: Optional[int]) -> None:
        self.proc = proc
        self.frozen = frozen
        self.block = block
        self.start_new = start_new
        self.emitted = emitted
        self.elided = elided
        self.stub_at = stub_at


def _layout_regions(original: Image, rewritten: Image, plan: Any,
                    old2new: Dict[int, int],
                    stub_targets: Dict[int, int],
                    ces: List[Counterexample]
                    ) -> Tuple[List[_Region], Dict[int, int]]:
    """Verify that ``old2new`` tiles the rewritten image; map blocks.

    Walks the plan's layout order and checks, block by block, that the
    claimed correspondence is contiguous, that stub slots carry the
    stub claim, and that procedure extents and total code size close
    exactly.  Any structural lie makes further semantic comparison
    meaningless, so callers stop at the first structure finding.
    """
    regions: List[_Region] = []
    new_start: Dict[int, int] = {}
    new_procs = {proc.name: proc for proc in rewritten.procedures}
    cursor = 0
    for proc_plan in plan.procs:
        nproc = new_procs.get(proc_plan.name)
        if nproc is None:
            ces.append(Counterexample(
                R_STRUCTURE, proc_plan.name, -1, -1,
                "procedure missing from the rewritten image"))
            return regions, new_start
        if nproc.start != cursor:
            ces.append(Counterexample(
                R_STRUCTURE, proc_plan.name, -1, cursor,
                "rewritten procedure starts at %#x, layout expects %#x"
                % (nproc.start, cursor)))
            return regions, new_start
        for block in proc_plan.blocks:
            order = block.order
            count = len(order)
            placed = [old2new.get(off) for off in order]
            head = all(placed[i] == cursor + 4 * i
                       for i in range(count - 1))
            full = head and placed[count - 1] == cursor + 4 * (count - 1)
            last_inst = original.instructions[order[-1] >> 2]
            elidable = last_inst.op == "br" and last_inst.dst is None
            if full and elidable:
                # An elided br maps to its target's new start -- which,
                # elision being legal only when the target is the
                # layout successor, is exactly where an emitted copy
                # would sit.  Look at what the rewritten image actually
                # holds there; the semantic pass re-proves either
                # reading, so misclassifying cannot accept a bad image.
                slot = (cursor + 4 * (count - 1)) >> 2
                if (slot >= len(rewritten.instructions)
                        or rewritten.instructions[slot].op != "br"):
                    full = False
            elided = False
            if full:
                emitted = list(order)
            else:
                if (head and elidable
                        and placed[count - 1] is not None):
                    emitted = order[:-1]
                    elided = True
                else:
                    ces.append(Counterexample(
                        R_STRUCTURE, proc_plan.name, block.start,
                        cursor,
                        "old2new does not lay the block out "
                        "contiguously",
                        "claimed positions: %s"
                        % [None if p is None else "%#x" % p
                           for p in placed]))
                    return regions, new_start
            end_new = cursor + 4 * len(emitted)
            stub_at: Optional[int] = None
            if end_new in stub_targets:
                if stub_targets[end_new] != block.end:
                    ces.append(Counterexample(
                        R_STRUCTURE, proc_plan.name, block.start,
                        cursor,
                        "stub at %#x claims target %#x, block falls "
                        "through to %#x"
                        % (end_new, stub_targets[end_new], block.end)))
                    return regions, new_start
                if elided:
                    ces.append(Counterexample(
                        R_STRUCTURE, proc_plan.name, block.start,
                        cursor,
                        "block has both an elided branch and a stub"))
                    return regions, new_start
                stub_at = end_new
            new_start[block.start] = cursor
            regions.append(_Region(proc_plan.name, proc_plan.frozen,
                                   block, cursor, emitted, elided,
                                   stub_at))
            cursor = end_new + (4 if stub_at is not None else 0)
        if nproc.end != cursor:
            ces.append(Counterexample(
                R_STRUCTURE, proc_plan.name, -1, cursor,
                "rewritten procedure ends at %#x, layout expects %#x"
                % (nproc.end, cursor)))
            return regions, new_start
    if cursor != rewritten.code_size:
        ces.append(Counterexample(
            R_STRUCTURE, "", -1, cursor,
            "rewritten image has %d bytes of code the plan does not "
            "claim" % (rewritten.code_size - cursor)))
    return regions, new_start


def _check_data_pinning(original: Image, rewritten: Image, plan: Any,
                        resolve_new: Callable[[int], Optional[int]],
                        ces: List[Counterexample]) -> None:
    """Directed rule: data must not move; symbols must correspond."""
    if rewritten.data_size != original.data_size:
        ces.append(Counterexample(
            R_DATA, "", -1, -1,
            "data size changed: %d != %d bytes"
            % (rewritten.data_size, original.data_size)))
    if rewritten.data_offset != plan.data_offset:
        ces.append(Counterexample(
            R_DATA, "", -1, -1,
            "data offset %r does not honour the plan's pin %r"
            % (rewritten.data_offset, plan.data_offset)))
    if original.data_size and plan.data_offset is None:
        ces.append(Counterexample(
            R_DATA, "", -1, -1,
            "image has %d bytes of data but the plan pins nothing"
            % original.data_size))
    if plan.data_offset is not None:
        # The pin must reproduce the *original* image's placement, not
        # merely be internally consistent: an unpinned link puts data
        # on the next 8 KB page after the code, and loader bases are
        # 64 KB-aligned, so that placement is a pure function of the
        # original extents.  Any other pin moves every pointer into
        # the data region even though the symbol *names* still line up.
        expected_pin = (original.data_offset
                        if original.data_offset is not None
                        else (original.code_size + 8191) & ~8191)
        if plan.data_offset != expected_pin:
            ces.append(Counterexample(
                R_DATA, "", -1, -1,
                "plan pins data at %#x but the original image places "
                "it at %#x; pointers into the data region would change"
                % (plan.data_offset, expected_pin)))
    if (plan.data_offset is not None
            and rewritten.code_size > plan.data_offset):
        ces.append(Counterexample(
            R_DATA, "", -1, -1,
            "rewritten code (%d bytes) overruns the pinned data "
            "offset %#x" % (rewritten.code_size, plan.data_offset)))
    proc_names = {proc.name for proc in original.procedures}
    osyms = dict(original.symbols.items())
    nsyms = dict(rewritten.symbols.items())
    for name in sorted(set(osyms) | set(nsyms)):
        if name not in osyms or name not in nsyms:
            ces.append(Counterexample(
                R_DATA, "", -1, -1,
                "symbol %r exists in only one image" % name))
            continue
        if name in proc_names:
            expected = resolve_new(osyms[name])
            if expected != nsyms[name]:
                ces.append(Counterexample(
                    R_STRUCTURE, name, -1, -1,
                    "procedure symbol %r resolves to %#x, moved code "
                    "is at %r" % (name, nsyms[name], expected)))
        elif osyms[name] != nsyms[name]:
            ces.append(Counterexample(
                R_DATA, "", -1, -1,
                "data symbol %r moved: %#x != %#x"
                % (name, nsyms[name], osyms[name])))


def _has_interior_control(items: List[Tuple[int, Instruction]]) -> bool:
    """True if any non-final instruction transfers control (not a call)."""
    return any(inst.info.kind in CONTROL_KINDS
               and inst.op not in _CALL_OPS
               for _, inst in items[:-1])


def _verbatim_block_ces(original: Image, rewritten: Image,
                        region: _Region,
                        resolve_new: Callable[[int], Optional[int]],
                        orig_fixups: Dict[int, str],
                        new_fixups: Dict[int, str],
                        rule: str) -> List[Counterexample]:
    """Instruction-wise identity, direct branch targets remapped.

    Used where the symbolic summary does not apply: frozen procedures
    (*rule* = ``rewrite/frozen-proc-modified``) and identity-ordered
    plan blocks that span interior control flow (*rule* =
    ``rewrite/control-flow-divergence``).  Same opcode and operands at
    every position, same fixup symbols, every statically-known branch
    target remapped consistently.
    """
    out: List[Counterexample] = []
    block = region.block
    for index, off in enumerate(region.emitted):
        new_off = region.start_new + 4 * index
        oinst = original.instructions[off >> 2]
        ninst = rewritten.instructions[new_off >> 2]
        same = (oinst.op == ninst.op and oinst.ra == ninst.ra
                and oinst.rb == ninst.rb and oinst.rc == ninst.rc
                and oinst.imm == ninst.imm)
        if not same:
            out.append(Counterexample(
                rule, region.proc, block.start, region.start_new,
                "verbatim instruction at +%#x was altered" % off,
                "original %s, rewritten %s" % (oinst.op, ninst.op)))
            continue
        if orig_fixups.get(off) != new_fixups.get(new_off):
            out.append(Counterexample(
                rule, region.proc, block.start, region.start_new,
                "fixup symbol changed at +%#x" % off,
                "%r != %r" % (orig_fixups.get(off),
                              new_fixups.get(new_off))))
        if (oinst.info.kind in DIRECT_BRANCH_KINDS
                and oinst.target is not None):
            expected = resolve_new(oinst.target)
            if ninst.target != expected:
                out.append(Counterexample(
                    rule, region.proc, block.start,
                    region.start_new,
                    "branch at +%#x targets %r, moved code is "
                    "at %r" % (off, ninst.target, expected)))
    return out


def _state_ces(region: _Region, so: _Summary, sn: _Summary,
               old2new: Dict[int, int],
               resolve_new: Callable[[int], Optional[int]]
               ) -> List[Counterexample]:
    """Compare two block summaries: registers, effects (not term)."""
    out: List[Counterexample] = []
    proc, block = region.proc, region.block

    def reg_divergences(rule: str,
                        oregs: Dict[int, Expr], oframe: int,
                        nregs: Dict[int, Expr], nframe: int,
                        where: str) -> None:
        def default(frame: int, reg: int) -> Expr:
            if frame:
                return ("postcall", frame, reg)
            return ("reg", reg)

        for reg in sorted(set(oregs) | set(nregs)):
            a = oregs.get(reg, default(oframe, reg))
            b = nregs.get(reg, default(nframe, reg))
            if not _expr_eq(a, b, old2new):
                out.append(Counterexample(
                    rule, proc, block.start, region.start_new,
                    "register %s diverges %s"
                    % (_reg_name(reg), where),
                    "original %s, rewritten %s"
                    % (format_expr(a), format_expr(b))))

    oeff, neff = so.state.effects, sn.state.effects
    if len(oeff) != len(neff):
        ocalls = sum(1 for e in oeff if e[0] == "call")
        ncalls = sum(1 for e in neff if e[0] == "call")
        rule = R_CALL if ocalls != ncalls else R_MEM
        out.append(Counterexample(
            rule, proc, block.start, region.start_new,
            "effect streams differ: %d stores/%d calls vs %d/%d"
            % (len(oeff) - ocalls, ocalls, len(neff) - ncalls,
               ncalls)))
        return out
    for index, (oe, ne) in enumerate(zip(oeff, neff)):
        if oe[0] != ne[0]:
            out.append(Counterexample(
                R_MEM, proc, block.start, region.start_new,
                "effect #%d diverges: %s vs %s"
                % (index, oe[0], ne[0])))
            continue
        if oe[0] == "store":
            if oe[1] != ne[1]:
                out.append(Counterexample(
                    R_MEM, proc, block.start, region.start_new,
                    "store #%d changed width: %s vs %s"
                    % (index, oe[1], ne[1])))
            if not _expr_eq(oe[2], ne[2], old2new):
                out.append(Counterexample(
                    R_MEM, proc, block.start, region.start_new,
                    "store #%d (%s) address diverges"
                    % (index, oe[1]),
                    "original %s, rewritten %s"
                    % (format_expr(oe[2]), format_expr(ne[2]))))
            if not _expr_eq(oe[3], ne[3], old2new):
                out.append(Counterexample(
                    R_MEM, proc, block.start, region.start_new,
                    "store #%d (%s) value diverges"
                    % (index, oe[1]),
                    "original %s, rewritten %s"
                    % (format_expr(oe[3]), format_expr(ne[3]))))
        elif oe[0] == "call":
            _, oop, otarget, odst, osnap, oframe = oe
            _, nop_, ntarget, ndst, nsnap, nframe = ne
            if oop != nop_ or odst != ndst:
                out.append(Counterexample(
                    R_CALL, proc, block.start, region.start_new,
                    "call #%d changed shape: %s->%s dst %r->%r"
                    % (index, oop, nop_, odst, ndst)))
                continue
            if otarget[0] != ntarget[0]:
                out.append(Counterexample(
                    R_CALL, proc, block.start, region.start_new,
                    "call #%d target kind diverges" % index))
            elif otarget[0] == "direct":
                expected = resolve_new(otarget[1])
                if ntarget[1] != expected:
                    out.append(Counterexample(
                        R_CALL, proc, block.start, region.start_new,
                        "call #%d targets %r, moved callee is at %r"
                        % (index, ntarget[1], expected)))
            elif not _expr_eq(otarget[1], ntarget[1], old2new):
                out.append(Counterexample(
                    R_CALL, proc, block.start, region.start_new,
                    "call #%d indirect target diverges" % index,
                    "original %s, rewritten %s"
                    % (format_expr(otarget[1]),
                       format_expr(ntarget[1]))))
            reg_divergences(R_CALL, osnap, oframe, nsnap, nframe,
                            "at call #%d" % index)
        else:  # pal
            if oe != ne:
                out.append(Counterexample(
                    R_CALL, proc, block.start, region.start_new,
                    "call_pal #%d diverges: %r vs %r"
                    % (index, oe, ne)))
    reg_divergences(R_REG, so.state.regs, so.state.frame,
                    sn.state.regs, sn.state.frame, "at block exit")
    return out


def _term_ces(region: _Region, so: _Summary, sn: _Summary,
              rewritten: Image, old2new: Dict[int, int],
              resolve_new: Callable[[int], Optional[int]]
              ) -> List[Counterexample]:
    """Directed rules for the four terminator rewrites."""
    out: List[Counterexample] = []
    proc, block = region.proc, region.block

    def ce(message: str, detail: str = "") -> None:
        out.append(Counterexample(R_CTRL, proc, block.start,
                                  region.start_new, message, detail))

    fall_new = region.start_new + 4 * len(region.emitted)
    fall_eff: Optional[int] = fall_new
    if region.stub_at is not None:
        stub = rewritten.instructions[region.stub_at >> 2]
        if not (stub.op == "br" and stub.dst is None
                and stub.target is not None):
            ce("stub at %#x is not an unconditional br"
               % region.stub_at)
            return out
        fall_eff = stub.target

    def expect_fall(orig_off: int, what: str) -> None:
        expected = resolve_new(orig_off)
        if expected is None:
            ce("%s continues at +%#x, which has no rewritten location"
               % (what, orig_off))
        elif fall_eff != expected:
            ce("%s reaches %r, moved code is at %#x"
               % (what, fall_eff, expected))

    ot, nt = so.term, sn.term
    if ot is None:
        if nt is not None:
            ce("block gained a terminator: %s" % (nt[0],))
        else:
            expect_fall(block.end, "fallthrough")
    elif ot[0] == "cond":
        _, oop, osrc, otaken = ot
        if region.elided or nt is None or nt[0] != "cond":
            ce("conditional branch disappeared from the block")
            return out
        _, nop_, nsrc, ntaken = nt
        if nop_ == oop:
            taken_from, fall_from = otaken, block.end
        elif BRANCH_INVERSES.get(oop) == nop_:
            taken_from, fall_from = block.end, otaken
        else:
            ce("branch %s became %s, which is neither the same "
               "condition nor its inverse" % (oop, nop_))
            return out
        if not _expr_eq(osrc, nsrc, old2new):
            ce("branch condition operand diverges",
               "original %s, rewritten %s"
               % (format_expr(osrc), format_expr(nsrc)))
        expected = resolve_new(taken_from)
        if ntaken != expected:
            ce("taken edge goes to %r, moved code is at %r"
               % (ntaken, expected))
        save_eff = fall_eff
        if save_eff is None or resolve_new(fall_from) != save_eff:
            ce("fallthrough edge reaches %r, moved code is at %r"
               % (save_eff, resolve_new(fall_from)))
    elif ot[0] == "br":
        _, otarget = ot
        if region.elided:
            expect_fall(otarget, "elided br")
        elif nt is not None and nt[0] == "br":
            expected = resolve_new(otarget)
            if nt[1] != expected:
                ce("br targets %r, moved code is at %r"
                   % (nt[1], expected))
        else:
            ce("unconditional br disappeared without layout "
               "fallthrough")
    else:  # indirect (ret / jmp)
        _, oop, otarget = ot
        if nt is None or nt[0] != "indirect" or nt[1] != oop:
            ce("indirect terminator %s disappeared or changed opcode"
               % oop)
        elif not _expr_eq(otarget, nt[2], old2new):
            ce("indirect jump target diverges",
               "original %s, rewritten %s"
               % (format_expr(otarget), format_expr(nt[2])))
        if region.stub_at is not None:
            ce("%s cannot fall through, yet a stub follows it" % oop)
    return out


def validate_result(original: Image, plan: Any,
                    result: Any) -> TransvalReport:
    """Statically validate one rewrite. Never runs either image.

    *original* is the unlinked input image, *plan* the
    :class:`repro.opt.rewrite.RewritePlan`, *result* the
    :class:`repro.opt.rewrite.RewriteResult` produced from them.
    """
    if not result.applied:
        return TransvalReport(original.name, "bailed",
                              reason=result.reason)
    rewritten = result.image
    old2new: Dict[int, int] = result.old2new
    ces: List[Counterexample] = []
    regions, new_start = _layout_regions(
        original, rewritten, plan, old2new,
        dict(result.stub_targets), ces)
    if ces:
        # The layout claim itself is wrong; per-block semantics would
        # compare instructions at meaningless addresses.
        return TransvalReport(original.name, "rejected",
                              counterexamples=ces)

    def resolve_new(off: int) -> Optional[int]:
        mapped = new_start.get(off)
        if mapped is None:
            mapped = old2new.get(off)
        return mapped

    _check_data_pinning(original, rewritten, plan, resolve_new, ces)

    orig_fixups = {inst.addr: sym for inst, sym in original.fixups}
    new_fixups = {inst.addr: sym for inst, sym in rewritten.fixups}
    blocks = 0
    for region in regions:
        blocks += 1
        block = region.block
        items_o = [(off, original.instructions[off >> 2])
                   for off in range(block.start, block.end, 4)]
        verbatim_rule: Optional[str] = None
        if region.frozen:
            verbatim_rule = R_FROZEN
        elif _has_interior_control(items_o):
            if block.order == list(range(block.start, block.end, 4)):
                # An identity-ordered span over several basic blocks
                # (e.g. a whole-procedure block) is legal but has no
                # single symbolic summary; require a verbatim copy.
                verbatim_rule = R_CTRL
            else:
                ces.append(Counterexample(
                    R_CTRL, region.proc, block.start,
                    region.start_new,
                    "plan reorders across interior control flow; "
                    "only whole basic blocks may be scheduled"))
                continue
        if verbatim_rule is not None:
            ces.extend(_verbatim_block_ces(
                original, rewritten, region, resolve_new,
                orig_fixups, new_fixups, verbatim_rule))
            fall_new = region.start_new + 4 * len(region.emitted)
            if region.elided:
                last = original.instructions[block.order[-1] >> 2]
                if (last.target is None
                        or resolve_new(last.target) != fall_new):
                    ces.append(Counterexample(
                        R_CTRL, region.proc, block.start,
                        region.start_new,
                        "elided br fallthrough reaches %#x, moved "
                        "target is at %r"
                        % (fall_new, None if last.target is None
                           else resolve_new(last.target))))
            if region.stub_at is not None:
                stub = rewritten.instructions[region.stub_at >> 2]
                expected = resolve_new(block.end)
                if not (stub.op == "br" and stub.dst is None
                        and stub.target == expected):
                    ces.append(Counterexample(
                        R_CTRL, region.proc, block.start,
                        region.start_new,
                        "fallthrough stub targets %r, moved "
                        "code is at %r" % (stub.target, expected)))
            continue
        items_n = [(region.start_new + 4 * i,
                    rewritten.instructions[
                        (region.start_new + 4 * i) >> 2])
                   for i in range(len(region.emitted))]
        so = _summarize(items_o, orig_fixups)
        sn = _summarize(items_n, new_fixups)
        bad = False
        if sn.interior is not None:
            ces.append(Counterexample(
                R_CTRL, region.proc, block.start, region.start_new,
                "rewritten region has interior control flow at %#x"
                % sn.interior))
            bad = True
        if bad:
            continue
        ces.extend(_state_ces(region, so, sn, old2new, resolve_new))
        ces.extend(_term_ces(region, so, sn, rewritten, old2new,
                             resolve_new))
    verdict = "rejected" if ces else "accepted"
    return TransvalReport(original.name, verdict,
                          counterexamples=ces,
                          procs_checked=len(plan.procs),
                          blocks_checked=blocks)


def validate_plan(image: Image, plan: Any) -> TransvalReport:
    """Rewrite unlinked *image* under *plan* and validate the result."""
    from repro.opt.rewrite import rewrite_image

    return validate_result(image, plan, rewrite_image(image, plan))


def validate_workload_plans(workload: Any, plans: Any,
                            machine_config: Any = None,
                            seed: int = 1
                            ) -> Dict[str, TransvalReport]:
    """Validate every plan against *workload*'s freshly built images.

    Instantiates the workload on a scratch machine (never runs it) so
    each plan is checked against exactly the unlinked rebuild the real
    optimized run would rewrite -- the same ``image_transform`` entry
    point, stubbed to validate instead of substitute.
    """
    from repro.cpu.config import MachineConfig
    from repro.cpu.machine import Machine

    plans_by_name = {plan.image_name: plan for plan in plans}
    reports: Dict[str, TransvalReport] = {}

    def probe(image: Image) -> Image:
        plan = plans_by_name.get(image.name)
        if plan is not None and image.name not in reports:
            reports[image.name] = validate_plan(image, plan)
        return image

    machine = Machine(machine_config or MachineConfig(), seed=seed)
    machine.image_transform = probe
    setup = getattr(workload, "setup", None)
    if setup is not None:
        setup(machine)
    else:
        workload(machine)
    for name in plans_by_name:
        if name not in reports:
            reports[name] = TransvalReport(
                name, "bailed",
                reason="workload produced no image by this name")
    return reports
