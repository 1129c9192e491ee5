"""Predecoded instruction records for the simulator's hot loop.

The pipeline model used to chase ``Instruction -> OpInfo -> IssueClass``
objects (attribute loads, string compares, dict lookups keyed by class
*names*) for every dynamic instruction.  This module flattens everything
``Core.run()`` needs into one plain tuple per *static* instruction,
computed once at image-load time:

* the operand shape and issue class as small integers (``K_*`` kind
  codes, issue-class ids indexing :data:`PAIR_OK_ID`);
* result latency, functional-unit needs and busy cycles;
* source registers and their count, the *normalized* destination
  register (``None`` when the architectural target is a zero register),
  and pre-resolved operand fields (float-register indices already
  rebased, ``ldah`` displacements pre-shifted);
* the semantics callable and static branch target.

The records are pure data: executing from them is byte-identical to
executing from the original objects, which is what lets the fast and
slow pipeline paths share them (see :mod:`repro.cpu.fastpath`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.alpha.instruction import Instruction
from repro.alpha.opcodes import ISSUE_CLASSES
from repro.cpu.issue import PAIR_OK

# -- record field indices ---------------------------------------------------

R_KIND = 0    # K_* kind code
R_CLS = 1     # issue-class id (index into CLS_NAMES / PAIR_OK_ID)
R_LAT = 2     # result latency in cycles
R_SRCS = 3    # tuple of source register numbers (zero regs excluded)
R_F1 = 4      # first operand field (kind-specific, see decode())
R_F2 = 5      # second operand field
R_F3 = 6      # third operand field (CMOV old-destination register)
R_DST = 7     # normalized destination register number, or None
R_IMM = 8     # literal / displacement (ldah pre-shifted by 16)
R_TARGET = 9  # absolute branch target, or None
R_FN = 10     # semantics or branch-condition callable, or None
R_UNIT = 11   # busy unit: 0 none, 1 imul, 2 fdiv
R_BUSY = 12   # unit busy cycles
R_CTRL = 13   # True for control transfers (block terminators)
R_ADDR = 14   # absolute instruction address
R_NSRC = 15   # len(srcs): the slow path's readiness is unrolled by it

# -- kind codes -------------------------------------------------------------

K_OP = 0      # integer operate          f1=ra  f2=rb|None(imm)
K_CMOV = 1    # conditional move         f1=ra  f2=rb|None(imm)  f3=rc
K_FOP = 2     # floating operate         f1=ra-32|None  f2=rb-32
K_LDA = 3     # address form             f2=rb|None(zero)
K_LDQ = 4     # quadword load            f2=rb
K_LDL = 5    # longword load (sign-ext)  f2=rb
K_LDT = 6    # floating load             f2=rb
K_STQ = 7    # quadword store            f1=ra     f2=rb
K_STL = 8    # longword store            f1=ra     f2=rb
K_STT = 9    # floating store            f1=ra-32  f2=rb
K_NOP = 10   # nop / unop / call_pal (timing only)
K_CBR = 11   # conditional branch        f1=ra
K_FBR = 12   # floating branch           f1=ra-32
K_BR = 13    # unconditional branch
K_BSR = 14   # branch to subroutine (pushes return predictor)
K_JMP = 15   # indirect jump             f2=rb
K_JSR = 16   # indirect call             f2=rb
K_RET = 17   # subroutine return         f2=rb

#: Kind codes at or above this value transfer control.
K_FIRST_CONTROL = K_CBR

#: Issue-class names in id order; CLS_ID maps name -> id.
CLS_NAMES = tuple(ISSUE_CLASSES)
CLS_ID = {name: index for index, name in enumerate(CLS_NAMES)}

#: PAIR_OK re-keyed by class id: PAIR_OK_ID[leader][follower].
PAIR_OK_ID = tuple(
    tuple(PAIR_OK[(a, b)] for b in CLS_NAMES) for a in CLS_NAMES)

_UNIT_ID: Dict[Optional[str], int] = {None: 0, "imul": 1, "fdiv": 2}

_MEM_KINDS = {
    "ldq": K_LDQ, "ldl": K_LDL, "ldt": K_LDT,
    "stq": K_STQ, "stl": K_STL, "stt": K_STT,
}

_JUMP_KINDS = {"jmp": K_JMP, "jsr": K_JSR, "ret": K_RET}


def decode(inst: Instruction) -> Tuple[object, ...]:
    """Return the flat predecode record for *inst* (an Instruction)."""
    info = inst.info
    icls = ISSUE_CLASSES[info.cls]
    cls_id = CLS_ID[info.cls]
    kind = info.kind
    ra, rb, rc = inst.ra, inst.rb, inst.rc
    f1: Optional[int] = None
    f2: Optional[int] = None
    f3: Optional[int] = None
    dst: Optional[int] = None
    target: Optional[int] = None
    imm = inst.imm
    fn = None
    if kind == "op":
        f1 = ra
        f2 = rb  # None -> literal operand in imm
        if info.cls == "CMOV":
            code = K_CMOV
            f3 = rc
            fn = info.cond
        else:
            code = K_OP
            fn = info.sem
        if rc != 31:
            dst = rc
    elif kind == "fop":
        code = K_FOP
        f1 = ra - 32 if ra is not None else None
        f2 = rb - 32
        fn = info.sem
        if rc != 63:
            dst = rc
    elif kind == "lda":
        code = K_LDA
        f2 = rb if rb != 31 else None
        if inst.op == "ldah" and imm is not None:
            imm = imm << 16
        if ra != 31:
            dst = ra
    elif kind in ("load", "fload", "store", "fstore"):
        code = _MEM_KINDS[inst.op]
        f2 = rb
        if kind == "load":
            if ra != 31:
                dst = ra
        elif kind == "fload":
            if ra != 63:
                dst = ra
        elif kind == "fstore":
            f1 = ra - 32
        else:
            f1 = ra
    elif kind == "cbranch":
        code = K_CBR
        f1 = ra
        fn = info.cond
        target = inst.target
    elif kind == "fbranch":
        code = K_FBR
        f1 = ra - 32
        fn = info.cond
        target = inst.target
    elif kind == "br":
        code = K_BSR if inst.op == "bsr" else K_BR
        target = inst.target
        if ra != 31:
            dst = ra
    elif kind == "jump":
        code = _JUMP_KINDS[inst.op]
        f2 = rb
        if ra != 31:
            dst = ra
    else:  # nop / unop / call_pal: timing only
        code = K_NOP
    return (code, cls_id, icls.latency, inst.srcs, f1, f2, f3, dst,
            imm, target, fn, _UNIT_ID[icls.unit], icls.busy,
            code >= K_FIRST_CONTROL, inst.addr, len(inst.srcs))
