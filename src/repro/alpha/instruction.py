"""The decoded-instruction representation shared by the whole system.

An :class:`Instruction` is the unit both the pipeline simulator executes
and the analysis tools reason about.  Source/destination registers are
pre-computed at decode time (``srcs``/``dst``) so that the hot simulation
loop does no per-cycle decoding work.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.alpha import regs
from repro.alpha.opcodes import OPCODES

_DISCARD = (regs.ZERO_REG, regs.FZERO_REG)


class Instruction:
    """One decoded instruction.

    Attributes:
        addr: absolute address of the instruction inside its image
            (assigned when the instruction is placed; 4-byte aligned).
        op: opcode name, e.g. ``"addq"``.
        info: the :class:`repro.alpha.opcodes.OpInfo` row for ``op``.
        ra, rb, rc: register numbers (or None where the field is unused).
        imm: literal operand or memory displacement (or None).
        target: absolute branch target address (or None).
        srcs: tuple of source register numbers (zero registers excluded).
        dst: destination register number, or None.
        line: source line in the assembly text, for annotation output.
    """

    __slots__ = (
        "addr", "op", "info", "ra", "rb", "rc", "imm", "target",
        "srcs", "dst", "line",
    )

    def __init__(self, op: str, ra: Optional[int] = None,
                 rb: Optional[int] = None, rc: Optional[int] = None,
                 imm: Optional[int] = None,
                 target: Optional[int] = None, addr: int = 0,
                 line: Optional[int] = None) -> None:
        info = OPCODES.get(op)
        if info is None:
            raise ValueError("unknown opcode: %r" % op)
        self.op = op
        self.info = info
        self.ra = ra
        self.rb = rb
        self.rc = rc
        self.imm = imm
        self.target = target
        self.addr = addr
        self.line = line
        self.srcs, self.dst = self._roles()

    def _roles(self) -> Tuple[Tuple[int, ...], Optional[int]]:
        """Compute (source registers, destination register) for this op."""
        kind = self.info.kind
        srcs: List[Optional[int]] = []
        dst = None
        if kind == "op":
            srcs.append(self.ra)
            if self.rb is not None:
                srcs.append(self.rb)
            if self.info.cls == "CMOV":
                # A conditional move also reads its old destination.
                srcs.append(self.rc)
            dst = self.rc
        elif kind == "fop":
            if self.op not in ("cvtqt", "cvttq"):
                srcs.append(self.ra)
            srcs.append(self.rb)
            dst = self.rc
        elif kind in ("load", "fload", "lda"):
            srcs.append(self.rb)
            dst = self.ra
        elif kind in ("store", "fstore"):
            srcs.append(self.ra)
            srcs.append(self.rb)
        elif kind in ("cbranch", "fbranch"):
            srcs.append(self.ra)
        elif kind == "br":
            dst = self.ra
        elif kind == "jump":
            srcs.append(self.rb)
            dst = self.ra
        out = tuple(s for s in srcs if s is not None and s not in _DISCARD)
        if dst in _DISCARD:
            dst = None
        return out, dst

    @property
    def is_memory(self) -> bool:
        return self.info.kind in ("load", "fload", "store", "fstore")

    @property
    def is_load(self) -> bool:
        return self.info.kind in ("load", "fload")

    @property
    def is_store(self) -> bool:
        return self.info.kind in ("store", "fstore")

    def __repr__(self) -> str:
        return "<Instruction %06x %s>" % (self.addr, self.disassemble())

    def disassemble(self) -> str:
        """Return assembly text for this instruction."""
        kind = self.info.kind
        name = regs.register_name
        if kind == "op" or kind == "fop":
            b = name(self.rb) if self.rb is not None else str(self.imm)
            return "%s %s, %s, %s" % (self.op, name(self.ra), b,
                                      name(self.rc))
        if kind in ("load", "fload", "store", "fstore", "lda"):
            return "%s %s, %d(%s)" % (self.op, name(self.ra),
                                      self.imm or 0, name(self.rb))
        if kind in ("cbranch", "fbranch"):
            return "%s %s, 0x%06x" % (self.op, name(self.ra),
                                      self.target or 0)
        if kind == "br":
            return "%s 0x%06x" % (self.op, self.target or 0)
        if kind == "jump":
            if self.op == "ret":
                return "ret (%s)" % name(self.rb)
            return "%s %s, (%s)" % (self.op, name(self.ra), name(self.rb))
        if kind == "pal":
            return "call_pal %d" % (self.imm or 0)
        return self.op
