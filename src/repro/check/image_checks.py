"""Layer 1: static analysis of :mod:`repro.alpha` images.

Three families of rules, all operating on a *linked* image:

* **structure / CFG well-formedness** -- instruction addressing, branch
  targets inside the image and 4-byte aligned, no fallthrough off the
  image end, non-overlapping procedures covering the code, per-procedure
  CFGs that build cleanly with every block reachable from the entry;
* **register dataflow** -- a must-define forward analysis over each
  procedure's CFG flags registers read before any write on some path
  (floating-point reads are errors: garbage bit patterns can trap on
  real hardware; integer scratch reads are warnings), plus intra-block
  dead-write detection;
* **predecode agreement** -- the flat predecode records the simulator
  runs must agree with the instruction objects they were built from.

The paper's analysis half assumes all of this silently; these checks
make the assumptions machine-verified before profiles are trusted.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.alpha import regs
from repro.alpha.image import Image, Procedure
from repro.alpha.instruction import Instruction
from repro.alpha.opcodes import DIRECT_BRANCH_KINDS
from repro.check.findings import ERROR, INFO, WARNING, Finding

#: Integer registers assumed live at procedure entry (Alpha calling
#: convention): arguments, callee-saved, and the linkage/frame set.
_ABI_INT_LIVE_IN: FrozenSet[int] = frozenset(
    list(range(9, 16))      # s0-s6 / fp (callee-saved; spills read them)
    + list(range(16, 22))   # a0-a5
    + [26, 27, 28, 29, 30]  # ra, pv, at, gp, sp
    + [regs.ZERO_REG],
)
#: Floating-point registers assumed live at entry: f16-f21 (arguments),
#: f2-f9 (callee-saved) and the hardwired zero.
_ABI_FP_LIVE_IN: FrozenSet[int] = frozenset(
    [regs.NUM_INT_REGS + n for n in range(16, 22)]
    + [regs.NUM_INT_REGS + n for n in range(2, 10)]
    + [regs.FZERO_REG],
)
ABI_LIVE_IN: FrozenSet[int] = _ABI_INT_LIVE_IN | _ABI_FP_LIVE_IN

#: Opcodes after which execution cannot continue to the next address.
_NO_FALLTHROUGH_OPS = ("br", "ret", "jmp")


def _loc(image: Image, addr: Optional[int] = None,
         proc: Optional[Procedure] = None) -> str:
    parts = [image.name]
    if proc is not None:
        parts.append(proc.name)
    if addr is not None:
        parts.append("+%#x" % (addr - (image.base or 0)))
    return ":".join(parts)


def check_image(image: Image) -> List[Finding]:
    """Run every Layer-1 rule on *image*; return the findings."""
    findings: List[Finding] = []
    if image.base is None:
        findings.append(Finding(
            "image/unlinked", ERROR, image.name,
            "image has no base address; link it before checking"))
        return findings
    findings.extend(_check_structure(image))
    findings.extend(_check_control_flow(image))
    findings.extend(_check_procedures(image))
    findings.extend(_check_predecode(image))
    return findings


# -- structure ---------------------------------------------------------------

def _check_structure(image: Image) -> List[Finding]:
    findings: List[Finding] = []
    base = image.base
    assert base is not None
    for index, inst in enumerate(image.instructions):
        expected = base + index * Image.INSTRUCTION_BYTES
        if inst.addr != expected:
            findings.append(Finding(
                "image/address-gap", ERROR, _loc(image, expected),
                "instruction %d has address %#x, expected %#x"
                % (index, inst.addr, expected)))
            break  # all later addresses are shifted too; one report
    # Procedures: inside the image, non-empty, non-overlapping, covering.
    spans = sorted((proc.start, proc.end, proc.name)
                   for proc in image.procedures)
    prev_end = base
    prev_name = None
    for start, end, name in spans:
        if start >= end:
            findings.append(Finding(
                "image/empty-procedure", ERROR, "%s:%s" % (image.name,
                                                           name),
                "procedure %s spans no instructions" % name))
            continue
        if start < base or end > image.end:
            findings.append(Finding(
                "image/procedure-out-of-image", ERROR,
                "%s:%s" % (image.name, name),
                "procedure %s [%#x, %#x) lies outside the image "
                "[%#x, %#x)" % (name, start, end, base, image.end)))
            continue
        if start < prev_end and prev_name is not None:
            findings.append(Finding(
                "image/overlapping-procedures", ERROR,
                "%s:%s" % (image.name, name),
                "procedure %s [%#x, %#x) overlaps %s (ends %#x)"
                % (name, start, end, prev_name, prev_end)))
        elif start > prev_end:
            findings.append(Finding(
                "image/uncovered-code", WARNING,
                _loc(image, prev_end),
                "%d bytes of code covered by no procedure"
                % (start - prev_end)))
        prev_end = max(prev_end, end)
        prev_name = name
    if image.procedures and prev_end < image.end:
        findings.append(Finding(
            "image/uncovered-code", WARNING, _loc(image, prev_end),
            "%d bytes at the image tail covered by no procedure"
            % (image.end - prev_end)))
    return findings


# -- control flow ------------------------------------------------------------

def _check_control_flow(image: Image) -> List[Finding]:
    findings: List[Finding] = []
    for inst in image.instructions:
        if (inst.info.kind in DIRECT_BRANCH_KINDS
                and inst.target is not None):
            if not (inst.addr == inst.target
                    or inst.target in image):
                findings.append(Finding(
                    "image/branch-target-out-of-image", ERROR,
                    _loc(image, inst.addr),
                    "%s targets %#x outside image [%#x, %#x)"
                    % (inst.op, inst.target, image.base or 0,
                       image.end)))
            elif inst.target % Image.INSTRUCTION_BYTES:
                findings.append(Finding(
                    "image/branch-target-misaligned", ERROR,
                    _loc(image, inst.addr),
                    "%s targets unaligned address %#x"
                    % (inst.op, inst.target)))
    if image.instructions:
        last = image.instructions[-1]
        falls = not (last.info.kind in ("br", "jump")
                     and last.op in _NO_FALLTHROUGH_OPS)
        if falls:
            findings.append(Finding(
                "image/fallthrough-off-image", ERROR,
                _loc(image, last.addr),
                "last instruction (%s) can fall through past the image "
                "end" % last.op))
    return findings


# -- per-procedure CFG + dataflow -------------------------------------------

def _check_procedures(image: Image) -> List[Finding]:
    from repro.core.cfg import build_cfg

    findings: List[Finding] = []
    for proc in image.procedures:
        if proc.start >= proc.end:
            continue  # reported by _check_structure
        try:
            cfg = build_cfg(proc)
        except Exception as exc:  # malformed input, not a checker bug
            findings.append(Finding(
                "image/cfg-build-failed", ERROR,
                "%s:%s" % (image.name, proc.name),
                "CFG construction failed: %s" % exc))
            continue
        reachable = _reachable_blocks(cfg)
        for block in cfg.blocks:
            if block.index not in reachable:
                findings.append(Finding(
                    "image/unreachable-block", WARNING,
                    _loc(image, block.start, proc),
                    "block %d [%#x, %#x) is unreachable from the "
                    "procedure entry"
                    % (block.index, block.start, block.end)))
        findings.extend(_check_dataflow(image, proc, cfg, reachable))
    return findings


def _reachable_blocks(cfg: object) -> Set[int]:
    from repro.core.cfg import EXIT

    seen = {0}
    stack = [0]
    blocks = cfg.blocks  # type: ignore[attr-defined]
    while stack:
        index = stack.pop()
        for edge in blocks[index].succs:
            if edge.dst != EXIT and edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return seen


def _block_uses_defs(
        block: object) -> Tuple[List[Tuple[Instruction, int]], Set[int]]:
    """Return ([(inst, reg) upward-exposed uses], {defined regs})."""
    uses: List[Tuple[Instruction, int]] = []
    defined: Set[int] = set()
    for inst in block.instructions:  # type: ignore[attr-defined]
        for src in inst.srcs:
            if src not in defined:
                uses.append((inst, src))
        if inst.dst is not None:
            defined.add(inst.dst)
    return uses, defined


def _check_dataflow(image: Image, proc: Procedure, cfg: object,
                    reachable: Set[int]) -> List[Finding]:
    """Must-define analysis: flag reads of maybe-uninitialized registers
    and intra-block dead writes."""
    blocks = cfg.blocks  # type: ignore[attr-defined]
    per_block = {b.index: _block_uses_defs(b) for b in blocks}
    universe: Set[int] = set(range(regs.NUM_REGS))
    defined_in: Dict[int, Set[int]] = {
        b.index: set(universe) for b in blocks}
    defined_in[0] = set(ABI_LIVE_IN)

    changed = True
    while changed:
        changed = False
        for block in blocks:
            if block.index not in reachable:
                continue
            if block.index != 0:
                preds = [e.src for e in block.preds
                         if e.src in reachable]
                if preds:
                    new_in = set.intersection(*[
                        defined_in[p] | per_block[p][1] for p in preds])
                else:
                    new_in = set(ABI_LIVE_IN)
                if new_in != defined_in[block.index]:
                    defined_in[block.index] = new_in
                    changed = True

    findings: List[Finding] = []
    reported: Set[Tuple[str, int]] = set()
    for block in blocks:
        if block.index not in reachable:
            continue
        uses, _ = per_block[block.index]
        available = defined_in[block.index]
        for inst, reg in uses:
            if reg in available or (proc.name, reg) in reported:
                continue
            reported.add((proc.name, reg))
            severity = ERROR if regs.is_fp(reg) else WARNING
            findings.append(Finding(
                "image/use-before-def", severity,
                _loc(image, inst.addr, proc),
                "%s reads %s before any write on some path from the "
                "entry" % (inst.op, regs.register_name(reg)),
                detail="%s register; simulated state boots to zero but "
                       "the value is undefined by the calling convention"
                       % ("floating-point" if regs.is_fp(reg)
                          else "integer")))
        findings.extend(_dead_writes(image, proc, block))
    return findings


def _dead_writes(image: Image, proc: Procedure,
                 block: object) -> Iterable[Finding]:
    pending: Dict[int, Instruction] = {}
    for inst in block.instructions:  # type: ignore[attr-defined]
        for src in inst.srcs:
            pending.pop(src, None)
        if inst.op in ("jsr", "bsr"):
            # A call transfers control to code this analysis cannot
            # see: the callee reads ra (via ret) and may read any
            # argument register, so no earlier write is provably dead.
            pending.clear()
        if inst.dst is not None:
            earlier = pending.get(inst.dst)
            if earlier is not None:
                yield Finding(
                    "image/dead-write", INFO,
                    _loc(image, earlier.addr, proc),
                    "%s writes %s which %s at +%#x overwrites before "
                    "any read"
                    % (earlier.op, regs.register_name(inst.dst),
                       inst.op, inst.addr - (image.base or 0)))
            pending[inst.dst] = inst


# -- predecode ---------------------------------------------------------------

def _check_predecode(image: Image) -> List[Finding]:
    """The flat predecode records must agree with the Instruction."""
    from repro.alpha.predecode import R_ADDR, R_DST, R_SRCS, decode

    findings: List[Finding] = []
    for inst in image.instructions:
        record = decode(inst)
        if record[R_ADDR] != inst.addr:
            findings.append(Finding(
                "image/predecode-mismatch", ERROR, _loc(image, inst.addr),
                "predecode address %#x != %#x"
                % (record[R_ADDR], inst.addr)))
            continue
        if tuple(record[R_SRCS]) != tuple(inst.srcs):
            findings.append(Finding(
                "image/predecode-mismatch", ERROR, _loc(image, inst.addr),
                "predecode sources %r != %r for %s"
                % (record[R_SRCS], inst.srcs, inst.op)))
        if record[R_DST] != inst.dst:
            findings.append(Finding(
                "image/predecode-mismatch", ERROR, _loc(image, inst.addr),
                "predecode destination %r != %r for %s"
                % (record[R_DST], inst.dst, inst.op)))
    return findings
