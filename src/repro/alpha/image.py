"""Executable images: code, procedures and symbol tables.

An :class:`Image` is the unit the profiling system attributes samples to
(an application binary, a shared library, or the kernel).  Images are
*linked* at a base address before execution; all instruction addresses
and branch targets become absolute at link time.  As on the paper's
systems, a shared image is mapped at the same address in every process
that uses it; per-process data is kept separate by the per-process
address space in :mod:`repro.osim.process`.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, ItemsView, List,
                    Optional, Tuple)

from repro.alpha.opcodes import DIRECT_BRANCH_KINDS

if TYPE_CHECKING:
    from repro.alpha.instruction import Instruction


class Procedure:
    """A named, contiguous range of instructions inside an image."""

    __slots__ = ("name", "start", "end", "image")

    def __init__(self, name: str, start: int, end: int,
                 image: Optional["Image"] = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.image = image

    def __contains__(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def __repr__(self) -> str:
        return "<Procedure %s [%#x, %#x)>" % (self.name, self.start,
                                              self.end)

    def instructions(self) -> List["Instruction"]:
        """Return the instructions of this procedure, in address order."""
        assert self.image is not None
        return self.image.slice(self.start, self.end)


class SymbolTable:
    """Name -> absolute address mapping for one image."""

    def __init__(self) -> None:
        self._symbols: Dict[str, int] = {}

    def define(self, name: str, addr: int) -> None:
        if name in self._symbols:
            raise ValueError("duplicate symbol: %r" % name)
        self._symbols[name] = addr

    def resolve(self, name: str) -> int:
        return self._symbols[name]

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def items(self) -> ItemsView[str, int]:
        return self._symbols.items()


class Image:
    """A linked executable image.

    Attributes:
        name: pathname-style identity, e.g. ``/usr/shlib/libdraw.so``.
        base: absolute address of the first instruction.
        instructions: list of :class:`Instruction`, 4 bytes apart.
        procedures: list of :class:`Procedure` covering the code.
        symbols: :class:`SymbolTable` with procedure entry points and
            data symbols.
        data_size: bytes of data space the image needs after its code.
        data_base: absolute address of the data region (after linking).
    """

    INSTRUCTION_BYTES = 4

    def __init__(self, name: str) -> None:
        self.name = name
        self.base: Optional[int] = None
        self.instructions: List["Instruction"] = []
        self.procedures: List[Procedure] = []
        self.symbols = SymbolTable()
        self.data_size = 0
        self.data_base: Optional[int] = None
        #: Image-relative offset to pin the data region at (set by image
        #: rewriters, e.g. :mod:`repro.opt`): when not None, ``link``
        #: places data at ``base + data_offset`` instead of the first
        #: page boundary after the code, so data addresses survive a
        #: code-layout change byte-for-byte.
        self.data_offset: Optional[int] = None
        self._proc_by_name: Dict[str, Procedure] = {}
        #: Original assembly text, when built by the assembler (used by
        #: the dcpilist source-annotation tool).
        self.source: Optional[str] = None
        # (instruction, symbol-name) pairs whose ``imm`` field takes the
        # symbol's absolute address once the image is linked.
        self.fixups: List[Tuple["Instruction", str]] = []

    # -- construction -----------------------------------------------------

    def add_procedure(self, name: str,
                      instructions: Iterable["Instruction"]) -> Procedure:
        """Append *instructions* as procedure *name*.

        Offsets are assigned relative to the image; absolute addresses are
        fixed by :meth:`link`.
        """
        start = len(self.instructions) * self.INSTRUCTION_BYTES
        for inst in instructions:
            inst.addr = len(self.instructions) * self.INSTRUCTION_BYTES
            self.instructions.append(inst)
        end = len(self.instructions) * self.INSTRUCTION_BYTES
        proc = Procedure(name, start, end, image=self)
        self.procedures.append(proc)
        self._proc_by_name[name] = proc
        self.symbols.define(name, start)
        return proc

    def add_data(self, name: str, nbytes: int, align: int = 64) -> int:
        """Reserve *nbytes* of data space under symbol *name*.

        Returns the offset of the block within the data region.  The
        absolute address is ``data_base + offset`` after linking.
        """
        if self.data_size % align:
            self.data_size += align - self.data_size % align
        offset = self.data_size
        self.data_size += nbytes
        self.symbols.define(name, offset)
        return offset

    def link(self, base: int) -> "Image":
        """Fix all addresses: code at *base*, data right after the code."""
        self.base = base
        for inst in self.instructions:
            inst.addr += base
        code_end = base + self.code_size
        if self.data_offset is not None:
            # A rewriter pinned the data region (so pointers into it
            # keep their pre-rewrite values); the pin must still keep
            # data off the code's pages.
            if base + self.data_offset < code_end:
                raise ValueError(
                    "pinned data offset %#x overlaps code (%d bytes)"
                    % (self.data_offset, self.code_size))
            self.data_base = base + self.data_offset
        else:
            # Data starts on the next 8 KB page boundary so that code and
            # data never share a page (or a cache line).
            self.data_base = (code_end + 8191) & ~8191
        for proc in self.procedures:
            proc.start += base
            proc.end += base
        resolved = SymbolTable()
        for name, off in self.symbols.items():
            if name in self._proc_by_name:
                resolved.define(name, off + base)
            else:
                resolved.define(name, off + self.data_base)
        self.symbols = resolved
        self._resolve_targets()
        return self

    def _resolve_targets(self) -> None:
        """Convert label-offset branch targets to absolute addresses."""
        for inst in self.instructions:
            if (inst.info.kind in DIRECT_BRANCH_KINDS
                    and inst.target is not None):
                assert self.base is not None
                inst.target += self.base
        for inst, symbol in self.fixups:
            inst.imm = self.symbols.resolve(symbol)
        self.fixups: List[Tuple["Instruction", str]] = []

    # -- lookup ------------------------------------------------------------

    @property
    def code_size(self) -> int:
        return len(self.instructions) * self.INSTRUCTION_BYTES

    @property
    def end(self) -> int:
        assert self.base is not None
        return self.base + self.code_size

    def __contains__(self, addr: int) -> bool:
        return self.base is not None and self.base <= addr < self.end

    def instruction_at(self, addr: int) -> "Instruction":
        """Return the instruction at absolute address *addr*."""
        assert self.base is not None
        index = (addr - self.base) >> 2
        return self.instructions[index]

    def slice(self, start: int, end: int) -> List["Instruction"]:
        """Return instructions in the absolute address range [start, end)."""
        assert self.base is not None
        lo = (start - self.base) >> 2
        hi = (end - self.base) >> 2
        return self.instructions[lo:hi]

    def procedure_at(self, addr: int) -> Optional[Procedure]:
        """Return the procedure containing *addr*, or None."""
        for proc in self.procedures:
            if addr in proc:
                return proc
        return None

    def procedure(self, name: str) -> Procedure:
        """Return the procedure named *name* (KeyError if absent)."""
        return self._proc_by_name[name]

    def entry(self, name: Optional[str] = None) -> int:
        """Return the entry address: of *name*, or of the first procedure."""
        if name is None:
            return self.procedures[0].start
        return self._proc_by_name[name].start

    def __repr__(self) -> str:
        where = "unlinked" if self.base is None else "@%#x" % self.base
        return "<Image %s %s, %d insts>" % (self.name, where,
                                            len(self.instructions))
