"""Tests for the static scheduler (M_i computation)."""

import pytest

from repro.alpha.assembler import assemble
from repro.collect.session import ProfileSession, SessionConfig
from repro.core.cfg import build_cfg
from repro.core.schedule import schedule_block, schedule_cfg
from repro.cpu.config import MachineConfig
from repro.workloads.registry import get_workload


def schedule_for(body):
    image = assemble(".image t\n.proc main\n%s\n.end" % body, base=0x1000)
    cfg = build_cfg(image.procedure("main"))
    return cfg, schedule_cfg(cfg)


class TestPairing:
    def test_independent_pair_m_values(self):
        cfg, schedules = schedule_for(
            "    addq t0, 1, t1\n    addq t2, 1, t3\n    ret")
        rows = schedules[0].rows
        assert rows[0].m == 1
        assert rows[1].m == 0
        assert rows[1].paired

    def test_dependent_pair_does_not_pair(self):
        cfg, schedules = schedule_for(
            "    addq t0, 1, t1\n    addq t1, 1, t2\n    ret")
        rows = schedules[0].rows
        assert rows[1].m == 1
        assert not rows[1].paired

    def test_two_stores_slot(self):
        cfg, schedules = schedule_for(
            "    stq t0, 0(sp)\n    stq t1, 8(sp)\n    ret")
        rows = schedules[0].rows
        assert rows[1].m == 1
        assert ("slotting", 1, None) in rows[1].stalls

    def test_issue_points_are_m_positive(self):
        cfg, schedules = schedule_for(
            "    addq t0, 1, t1\n    addq t2, 1, t3\n"
            "    addq t4, 1, t5\n    addq t6, 1, t7\n    ret")
        ms = [r.m for r in schedules[0].rows]
        assert ms == [1, 0, 1, 0, 1]


class TestDependencies:
    def test_load_consumer_static_stall(self):
        cfg, schedules = schedule_for(
            "    ldq t1, 0(sp)\n    addq t1, 1, t2\n    ret")
        rows = schedules[0].rows
        # Load latency 2: consumer waits one extra cycle statically.
        assert rows[1].m == 2
        assert rows[1].stalls[0][0] == "ra_dep"
        assert rows[1].dep_source == rows[0].inst.addr

    def test_imul_consumer_fu_dependency(self):
        cfg, schedules = schedule_for(
            "    mulq t0, t1, t2\n    addq t2, 1, t3\n    ret")
        rows = schedules[0].rows
        assert rows[1].m == 8
        assert rows[1].stalls[0][0] == "fu_dep"

    def test_second_operand_rb_dep(self):
        cfg, schedules = schedule_for(
            "    ldq t1, 0(sp)\n    addq t0, t1, t2\n    ret")
        rows = schedules[0].rows
        assert rows[1].stalls[0][0] == "rb_dep"

    def test_back_to_back_divides_fu_busy(self):
        cfg, schedules = schedule_for(
            "    divt f1, f2, f3\n    divt f4, f5, f6\n    ret")
        rows = schedules[0].rows
        assert rows[1].m > 8
        assert any(r == "fu_dep" for r, _, _ in rows[1].stalls)

    def test_blocks_scheduled_independently(self):
        body = """
    ldq t1, 0(sp)
top:
    addq t1, 1, t1
    bgt t0, top
    ret
"""
        cfg, schedules = schedule_for(body)
        loop_block = cfg.block_at(0x1004)
        rows = schedules[loop_block.index].rows
        # In isolation the addq has no producers: no static stall.
        assert rows[0].m == 1

    def test_best_case_cycles(self):
        cfg, schedules = schedule_for(
            "    addq t0, 1, t1\n    addq t2, 1, t3\n    ret")
        assert schedules[0].best_case_cycles == 2  # pair + ret

    def test_by_addr_lookup(self):
        cfg, schedules = schedule_for("    nop\n    ret")
        assert schedules[0].m_of(0x1000) == 1


class TestAgreesWithTheSimulator:
    """``schedule_block`` and ``Core.run`` are two issue loops over one
    table.  A fast-path variant recorded from a clean entry (nothing to
    pair with, no operand pending, units idle) is the simulator's own
    stall-free schedule of its instructions, so it must equal the
    static one."""

    CLEAN_ENTRY = (-1, None, 0, 0)

    @pytest.mark.parametrize(
        "name", ["mccalpin-assign", "gcc", "x11perf", "timesharing"])
    def test_clean_entry_variants_equal_the_static_schedule(self, name):
        workload = get_workload(name)
        session = ProfileSession(
            MachineConfig(num_cpus=workload.num_cpus),
            SessionConfig(seed=1))
        machine = session.run(workload, max_instructions=40_000).machine
        checked = 0
        for block in machine.fastpath.blocks.values():
            variant = block and block.variants.get(self.CLEAN_ENTRY)
            if not variant:
                continue
            insts = [machine.code_map[step[0][14]]
                     for step in variant.steps]
            # Variant issue slots count from the entry cycle, the
            # static schedule's from 0.
            simulated = [(rel_issue - 1, cycles_head, paired)
                         for _rec, rel_issue, cycles_head, paired, _stalls
                         in variant.steps]
            static = [(row.issue, row.m, row.paired)
                      for row in schedule_block(insts).rows]
            assert simulated == static, (
                "%s:%#x %s" % (name, block.head,
                               "; ".join(inst.op for inst in insts)))
            checked += 1
        assert checked

    def test_store_never_joins_a_pair(self):
        # Core.run asks the write buffer for the cycle after the
        # previous issue, so a store starts an issue cycle of its own
        # even behind a class it could be slotted with; no slotting
        # stall is charged for that.
        cfg, schedules = schedule_for(
            "    cmpult t0, t1, t2\n    stq t3, 0(sp)\n    ret")
        row = schedules[0].rows[1]
        assert (row.issue, row.m, row.paired, row.stalls) == (1, 1, False, [])
