"""Profile-directed image rewriting: the mechanical half of repro.opt.

A :class:`RewritePlan` says *what* the optimizer decided (new procedure
order, per-procedure basic-block order, per-block instruction order);
:func:`rewrite_image` carries it out on a **fresh, unlinked** copy of
the same image, patching control flow so the rewritten image is
semantically identical to the original:

* a conditional branch whose *taken* target becomes the layout
  successor is inverted (``beq`` <-> ``bne`` ...) and retargeted at its
  old fallthrough;
* a block whose fallthrough successor moved away gets an explicit
  ``br`` stub appended;
* an unconditional ``br`` whose target becomes the layout successor is
  elided outright;
* every direct branch target is remapped to the moved code.

The plan is fingerprinted against the image it was computed from:
workloads rebuild images fresh on every ``setup`` call, and the
fingerprint guarantees the plan is only ever applied to an
instruction-identical rebuild (anything else is a bailout that returns
the image untouched, with its reason).

Data is pinned at its original image-relative offset
(:attr:`repro.alpha.image.Image.data_offset`) so data addresses -- and
therefore every pointer value the program computes -- survive the code
layout change byte-for-byte.  If inserted stubs would grow the code
past the original data offset, the rewrite bails out rather than move
data.
"""

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.alpha import regs
from repro.alpha.image import Image
from repro.alpha.instruction import Instruction
from repro.alpha.opcodes import BRANCH_INVERSES, DIRECT_BRANCH_KINDS

#: Opcodes after which control cannot reach the next address.
NO_FALLTHROUGH_OPS = ("br", "ret", "jmp")

#: Conditional-branch inversion pairs (architecturally exact); the
#: canonical table lives with the rest of the ISA semantics in
#: :data:`repro.alpha.opcodes.BRANCH_INVERSES`.
INVERT = BRANCH_INVERSES


#: (image name, per-instruction shape, procedure table) -- see
#: :func:`image_fingerprint`.
Fingerprint = Tuple[str, Tuple[Tuple[object, ...], ...],
                    Tuple[Tuple[str, int, int], ...]]


def image_fingerprint(image: Image) -> Fingerprint:
    """A base-independent identity for *image*'s code.

    Covers opcodes, register operands, base-relative branch targets
    and the procedure table -- everything layout-independent -- so a
    plan computed on the linked, profiled image matches the fresh
    unlinked rebuild the workload produces for the optimized run.
    (Targets matter: the plan's block bounds and frozen-proc safety
    analysis are only valid for the control-flow graph they were
    computed from.)
    """
    base = image.base or 0
    code = tuple(
        (inst.op, inst.ra, inst.rb, inst.rc,
         (inst.target - base) if inst.target is not None else None)
        for inst in image.instructions)
    procs = tuple((proc.name, proc.start - base, proc.end - base)
                  for proc in image.procedures)
    return (image.name, code, procs)


class BlockPlan:
    """One basic block's placement: original bounds + instruction order.

    *start*/*end* are image-relative byte offsets of the block in the
    original layout; *order* lists the block's instruction offsets in
    the order they should be emitted (the terminator, if any, last).
    """

    __slots__ = ("start", "end", "order")

    def __init__(self, start: int, end: int,
                 order: Optional[List[int]] = None) -> None:
        self.start = start
        self.end = end
        self.order = (list(order) if order is not None
                      else list(range(start, end, 4)))

    def __repr__(self) -> str:
        return "<BlockPlan [%#x, %#x)>" % (self.start, self.end)


class ProcPlan:
    """One procedure's blocks, in their new layout order."""

    __slots__ = ("name", "blocks", "frozen")

    def __init__(self, name: str, blocks: List[BlockPlan],
                 frozen: bool = False) -> None:
        self.name = name
        self.blocks = blocks
        self.frozen = frozen


class RewritePlan:
    """Everything :func:`rewrite_image` needs, in image-relative terms."""

    __slots__ = ("image_name", "fingerprint", "procs", "data_offset",
                 "stats")

    def __init__(self, image_name: str, fingerprint: Fingerprint,
                 procs: List[ProcPlan], data_offset: Optional[int],
                 stats: Optional[Dict[str, int]] = None) -> None:
        self.image_name = image_name
        self.fingerprint = fingerprint
        #: :class:`ProcPlan` list in the new image order.
        self.procs = procs
        #: original image-relative data offset to pin (None = free).
        self.data_offset = data_offset
        #: pass-level decisions (blocks moved, scheduled blocks, ...).
        self.stats = dict(stats or {})


class RewriteResult:
    """What one rewrite produced (or why it refused)."""

    __slots__ = ("image", "applied", "reason", "old2new", "new_start",
                 "stub_targets", "stats")

    def __init__(self, image: Image, applied: bool, reason: str = "",
                 old2new: Optional[Dict[int, int]] = None,
                 new_start: Optional[Dict[int, int]] = None,
                 stub_targets: Optional[Dict[int, int]] = None,
                 stats: Optional[Dict[str, int]] = None) -> None:
        #: the rewritten image when applied, else the untouched input.
        self.image = image
        self.applied = applied
        self.reason = reason
        #: {original offset: new offset} for every surviving
        #: instruction (elided branches map to their target's new
        #: start, where control actually continues).
        self.old2new = old2new or {}
        #: {original block start: new offset of the emitted block's
        #: top} -- where a code pointer to that block lands, which a
        #: schedule that moved the block's first instruction makes
        #: differ from ``old2new``.
        self.new_start = new_start or {}
        #: {new stub offset: original fallthrough offset}.
        self.stub_targets = stub_targets or {}
        self.stats = stats or {}


def _bail(image: Image, reason: str) -> RewriteResult:
    return RewriteResult(image, False, reason=reason)


def rewrite_image(image: Image, plan: RewritePlan) -> RewriteResult:
    """Apply *plan* to unlinked *image*; return a :class:`RewriteResult`.

    Never raises on a plan/image mismatch: any inconsistency is a
    bailout returning the input untouched with its ``reason``, so a
    stale plan can degrade performance work but can never corrupt a
    program.
    """
    if image.base is not None:
        return _bail(image, "image already linked")
    if image_fingerprint(image) != plan.fingerprint:
        return _bail(image, "image does not match the profiled build")
    instructions = image.instructions

    # Upfront plan sanity: every block the plan names must be a real,
    # aligned, in-bounds code range of its procedure, with an order
    # that permutes exactly the block's own instructions.  Anything
    # else is a corrupted or mismatched plan -- refuse before touching
    # a single instruction (``at`` below indexes unchecked).
    procs_by_name = {proc.name: proc for proc in image.procedures}
    if sorted(plan_proc.name for plan_proc in plan.procs) \
            != sorted(procs_by_name):
        return _bail(image, "plan procedures do not match the image")
    for proc_plan in plan.procs:
        proc = procs_by_name[proc_plan.name]
        for block in proc_plan.blocks:
            if (block.start % 4 or block.end % 4
                    or not (proc.start <= block.start
                            < block.end <= proc.end)):
                return _bail(
                    image,
                    "plan references unknown block [%#x, %#x) in %s"
                    % (block.start, block.end, proc_plan.name))
            if sorted(block.order) != list(range(block.start,
                                                 block.end, 4)):
                return _bail(
                    image,
                    "block order is not a permutation of [%#x, %#x)"
                    % (block.start, block.end))
        emitted_offsets = [off for block in proc_plan.blocks
                           for off in block.order]
        if len(emitted_offsets) != len(set(emitted_offsets)):
            return _bail(
                image,
                "plan emits an instruction of %s more than once"
                % proc_plan.name)
        if proc_plan.frozen:
            starts = [block.start for block in proc_plan.blocks]
            identity = (
                starts == sorted(starts)
                and all(block.order == list(range(block.start,
                                                  block.end, 4))
                        for block in proc_plan.blocks))
            if not identity:
                return _bail(
                    image,
                    "frozen procedure %s plan is not identity"
                    % proc_plan.name)

    def at(off: int) -> Instruction:
        return instructions[off >> 2]

    # Phase 1: lay the code out symbolically, assigning new offsets.
    stats = {"branches_inverted": 0, "branches_elided": 0,
             "stubs_inserted": 0}
    old2new: Dict[int, int] = {}
    # original block start -> new offset
    new_start: Dict[int, int] = {}
    # (branch offset, its target offset)
    elided: List[Tuple[int, int]] = []
    # (proc name, [emission items])
    emitted_procs: List[Tuple[str, List[Tuple[Any, ...]]]] = []
    cursor = 0
    for proc_plan in plan.procs:
        items: List[Tuple[Any, ...]] = []
        blocks = proc_plan.blocks
        for index, block in enumerate(blocks):
            next_start = (blocks[index + 1].start
                          if index + 1 < len(blocks) else None)
            last_off = block.order[-1]
            last = at(last_off)
            kind = last.info.kind
            fall = block.end
            term = None
            if kind in ("cbranch", "fbranch"):
                if next_start == fall:
                    pass
                elif next_start == last.target and last.op in INVERT:
                    term = ("invert", fall)
                else:
                    term = ("stub", fall)
            elif kind == "br" and last.op == "br":
                if last.dst is None and last.target == next_start:
                    term = ("elide",)
            elif kind == "jump" and last.op in ("ret", "jmp"):
                pass
            else:
                # Generic fallthrough (plain ops, calls): if the layout
                # successor is not the original fallthrough, bridge it.
                if next_start != fall:
                    term = ("stub", fall)
            emit = block.order
            if term is not None and term[0] == "elide":
                emit = emit[:-1]
                elided.append((last_off, last.target))
                stats["branches_elided"] += 1
            new_start[block.start] = cursor
            for off in emit:
                if term is not None and term[0] == "invert" \
                        and off == last_off:
                    items.append(("invert", off, term[1]))
                    stats["branches_inverted"] += 1
                else:
                    items.append(("inst", off))
                old2new[off] = cursor
                cursor += 4
            if term is not None and term[0] == "stub":
                items.append(("stub", term[1], cursor))
                stats["stubs_inserted"] += 1
                cursor += 4
        emitted_procs.append((proc_plan.name, items))

    # Elided branches: control continues at the target, so anything
    # referencing the branch's address maps there.
    for off, target in elided:
        resolved = new_start.get(target, old2new.get(target))
        if resolved is None:
            return _bail(image, "elided branch target unmapped")
        old2new[off] = resolved

    if plan.data_offset is not None and cursor > plan.data_offset:
        return _bail(
            image,
            "rewritten code (%d bytes) overruns the pinned data "
            "offset %#x" % (cursor, plan.data_offset))

    def remap(target: int) -> Optional[int]:
        # Block starts first: a branch to a rescheduled block must
        # enter at the block's new top, not at the moved position of
        # its old first instruction.
        mapped = new_start.get(target)
        if mapped is None:
            mapped = old2new.get(target)
        return mapped

    # Phase 2: materialize instruction copies with remapped targets.
    new_image = Image(image.name)
    new_image.data_size = image.data_size
    new_image.data_offset = plan.data_offset
    new_image.source = image.source
    copy_of: Dict[int, Instruction] = {}
    stub_targets: Dict[int, int] = {}
    for name, proc_items in emitted_procs:
        copies: List[Instruction] = []
        for item in proc_items:
            if item[0] == "stub":
                target = remap(item[1])
                if target is None:
                    return _bail(image, "stub target unmapped")
                copies.append(Instruction("br", ra=regs.ZERO_REG,
                                          target=target))
                stub_targets[item[2]] = item[1]
                continue
            inst = at(item[1])
            if item[0] == "invert":
                target = remap(item[2])
                op = INVERT[inst.op]
            else:
                op = inst.op
                target = inst.target
                if (inst.info.kind in DIRECT_BRANCH_KINDS
                        and target is not None):
                    target = remap(target)
            if (inst.info.kind in DIRECT_BRANCH_KINDS
                    and inst.target is not None and target is None):
                return _bail(image, "branch target %#x unmapped"
                             % inst.target)
            copy = Instruction(op, ra=inst.ra, rb=inst.rb, rc=inst.rc,
                               imm=inst.imm, target=target,
                               line=inst.line)
            copy_of[id(inst)] = copy
            copies.append(copy)
        new_image.add_procedure(name, copies)

    proc_names = {proc.name for proc in image.procedures}
    for name, offset in image.symbols.items():
        if name not in proc_names:
            new_image.symbols.define(name, offset)
    fixups: List[Tuple[Instruction, str]] = []
    for inst, symbol in image.fixups:
        copy = copy_of.get(id(inst))
        if copy is None:
            return _bail(image, "fixup instruction was not emitted")
        fixups.append((copy, symbol))
    new_image.fixups = fixups

    stats.update(plan.stats)
    return RewriteResult(new_image, True, old2new=old2new,
                         new_start=new_start,
                         stub_targets=stub_targets, stats=stats)


class ImageRewriter:
    """A ``Machine.image_transform`` that applies per-image plans.

    Install on the optimized run's machine; it rewrites every image a
    plan exists for and records each :class:`RewriteResult` (the
    oracle's address-translation input) under the image name.
    """

    def __init__(self, plans: Iterable[RewritePlan]) -> None:
        self.plans = {plan.image_name: plan for plan in plans}
        self.results: Dict[str, RewriteResult] = {}

    def __call__(self, image: Image) -> Image:
        plan = self.plans.get(image.name)
        if plan is None:
            return image
        result = rewrite_image(image, plan)
        self.results[image.name] = result
        return result.image
