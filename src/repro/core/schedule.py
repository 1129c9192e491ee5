"""The static scheduler (paper sections 6.1.3 and 6.3).

For each basic block, schedule its instructions on a model of the
processor assuming no dynamic stalls (all loads hit the D-cache, all
branches predicted).  The schedule yields, per instruction:

* ``m`` -- the minimum cycles the instruction spends at the head of the
  issue queue (the paper's M_i; 0 for the younger half of a dual-issued
  pair, making instructions with m > 0 the *issue points*);
* the static-stall bookkeeping: how many of those cycles are register
  dependences, slotting hazards or functional-unit dependences, and
  which previously-issued instruction caused each.

The issue-class table and pairing predicate are shared with the cycle
simulator (:mod:`repro.alpha.opcodes`, :mod:`repro.cpu.issue`); the
loop itself is written here a second time, and what keeps it equal to
the simulator's is ``tests/test_schedule.py``: every stall-free
schedule the fast path records from a clean entry must equal this
function's, instruction by instruction.

Blocks are scheduled independently with clean machine state: as the
paper notes, when a block has multiple predecessors there is no single
static schedule, so preceding blocks are ignored (one documented source
of estimation error).
"""

from repro.alpha.opcodes import ISSUE_CLASSES
from repro.cpu.issue import DEP_REASON, PAIR_OK


class InstSchedule:
    """Static schedule facts for one instruction."""

    __slots__ = ("inst", "m", "issue", "paired", "stalls", "dep_source")

    def __init__(self, inst):
        self.inst = inst
        self.m = 0
        self.issue = 0
        self.paired = False
        #: list of (reason, cycles, culprit_addr or None)
        self.stalls = []
        #: address of the instruction whose result this one waits on
        #: (None if no register-dependence stall).
        self.dep_source = None


class BlockSchedule:
    """Static schedule of a basic block."""

    def __init__(self, rows, best_case_cycles):
        self.rows = rows          # list of InstSchedule, in order
        self.best_case_cycles = best_case_cycles
        self.by_addr = {row.inst.addr: row for row in rows}


def schedule_block(instructions, extra=None):
    """Statically schedule one basic block's *instructions* (a
    sequence, in program order); return a :class:`BlockSchedule`.

    *extra* optionally maps a producer's address to additional cycles
    before its result is usable -- a profile's measurement of its
    dynamic stalls (:mod:`repro.opt.passes`); the static model proper
    passes none.
    """
    rows = []
    reg_ready = {}
    reg_writer = {}
    prev_issue = -1
    pair_open = False
    prev_cls = None
    imul_free = 0
    fdiv_free = 0

    for inst in instructions:
        row = InstSchedule(inst)
        cls_name = inst.info.cls
        icls = ISSUE_CLASSES[cls_name]

        rdy = 0
        dep_index = 0
        dep_writer = None
        for index, src in enumerate(inst.srcs):
            r = reg_ready.get(src, 0)
            if r > rdy:
                rdy = r
                dep_index = index
                dep_writer = reg_writer.get(src)

        res = 0
        res_reason = None
        if cls_name == "IMUL" and imul_free > 0:
            res = imul_free
            res_reason = "fu_dep"
        elif cls_name == "FDIV" and fdiv_free > 0:
            res = fdiv_free
            res_reason = "fu_dep"

        # A store asks the write buffer for a slot in the cycle after
        # the previous issue (Core.run), so it never joins an open pair.
        if (pair_open and rdy <= prev_issue and res <= prev_issue
                and cls_name != "ST"
                and PAIR_OK[(prev_cls, cls_name)]):
            issue = prev_issue
            row.paired = True
            row.m = 0
            pair_open = False
        else:
            arrival = prev_issue + 1
            issue = max(arrival, rdy, res)
            row.m = issue - arrival + 1
            base = arrival
            if rdy > base:
                span = min(rdy, issue) - base
                if span > 0:
                    reason = DEP_REASON[dep_index]
                    if (dep_writer is not None
                            and dep_writer.info.cls in ("IMUL", "FDIV",
                                                        "FADD", "FMUL")):
                        reason = "fu_dep"
                    row.stalls.append(
                        (reason, span,
                         dep_writer.addr if dep_writer else None))
                    row.dep_source = (dep_writer.addr
                                      if dep_writer else None)
                    base += span
            if res > base and res_reason:
                row.stalls.append((res_reason, res - base, None))
            elif (pair_open and prev_cls is not None and rdy <= prev_issue
                  and res <= prev_issue
                  and not PAIR_OK[(prev_cls, cls_name)]):
                row.stalls.append(("slotting", 1, None))
            pair_open = True

        row.issue = issue
        is_taken_branch = inst.info.kind in ("br", "cbranch", "fbranch",
                                             "jump")
        if is_taken_branch and inst is instructions[-1]:
            # The block-terminating transfer closes the issue group.
            pair_open = False
        prev_issue = issue
        prev_cls = cls_name

        if inst.dst is not None:
            reg_ready[inst.dst] = issue + icls.latency
            if extra:
                reg_ready[inst.dst] += extra.get(inst.addr, 0)
            reg_writer[inst.dst] = inst
        if cls_name == "IMUL":
            imul_free = issue + icls.busy
        elif cls_name == "FDIV":
            fdiv_free = issue + icls.busy
        rows.append(row)

    best_case = prev_issue + 1 if rows else 0
    return BlockSchedule(rows, best_case)


def schedule_cfg(cfg):
    """Schedule every block of *cfg*; return {block index: BlockSchedule}."""
    return {block.index: schedule_block(block.instructions)
            for block in cfg.blocks}
