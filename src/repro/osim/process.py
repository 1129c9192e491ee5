"""Simulated processes and their address spaces.

Each process owns architectural state (registers, PC, memory contents)
plus the pipeline scoreboard, so execution resumes transparently across
context switches.  Virtual data pages are mapped to pseudo-random
physical pages on first touch, with the assignment drawn from a per-run
seed: physically-indexed caches therefore see different conflict
patterns in different runs, which is the paper's explanation for the
wave5 benchmark's run-to-run variance.
"""

from repro.alpha.regs import NUM_REGS
from repro.ctx.context import NULL_CTX

#: Address a top-level ``ret`` returns to; reaching it exits the process.
EXIT_ADDR = 0xF0000000

#: Base of the per-process stack region (grows down).
STACK_TOP = 0x7F000000
STACK_BYTES = 1 << 20


class Process:
    """One runnable process: registers, memory, page mapping."""

    def __init__(self, pid, name, images, entry, page_rng, page_bits=13,
                 ctx=NULL_CTX):
        self.pid = pid
        self.asn = pid
        self.name = name
        # Request-class identity (repro.ctx); NULL_CTX = unattributed.
        self.ctx = ctx
        self.images = list(images)
        self.memory = {}
        self.iregs = [0] * 32
        self.fregs = [0.0] * 32
        self.reg_ready = [0] * NUM_REGS
        self.reg_ready_static = [0] * NUM_REGS
        self.reg_dyn_reason = {}
        self.pc = entry
        self.exit_addr = EXIT_ADDR
        self.last_pc = entry
        self.resume_time = 0
        self.imul_free = 0
        self.fdiv_free = 0
        self.exited = False
        self.iregs[26] = EXIT_ADDR  # ra: top-level return exits
        self.iregs[30] = STACK_TOP  # sp
        self._page_rng = page_rng
        self._page_bits = page_bits
        self._page_map = {}
        # Cycles and instructions this process has spent on a CPU (set
        # by the scheduler; the per-request accounting dcpitrace's tail
        # analysis reads).
        self.cpu_cycles = 0
        self.instructions = 0

    def translate_data(self, vpage):
        """Map a virtual data page to its per-run physical page."""
        ppage = self._page_map.get(vpage)
        if ppage is None:
            ppage = self._page_rng.getrandbits(19)
            self._page_map[vpage] = ppage
        return ppage

    def set_args(self, **registers):
        """Set initial registers by name, e.g. ``set_args(a0=..., a1=...)``."""
        from repro.alpha import regs as _regs

        for name, value in registers.items():
            num = _regs.parse_register(name)
            if num < 32:
                self.iregs[num] = value & ((1 << 64) - 1)
            else:
                self.fregs[num - 32] = float(value)
        return self

    def __repr__(self):
        state = "exited" if self.exited else "pc=%#x" % self.pc
        return "<Process %d %s %s>" % (self.pid, self.name, state)
