"""Tests for decoded-instruction operand roles and disassembly."""

import pytest

from repro.alpha import regs
from repro.alpha.instruction import Instruction
from repro.alpha.predecode import R_CTRL, decode

T0 = regs.parse_register("t0")
T1 = regs.parse_register("t1")
T2 = regs.parse_register("t2")
ZERO = regs.ZERO_REG
F1 = regs.parse_register("f1")
F2 = regs.parse_register("f2")
F3 = regs.parse_register("f3")


class TestRoles:
    def test_operate_reads_ra_rb_writes_rc(self):
        inst = Instruction("addq", ra=T0, rb=T1, rc=T2)
        assert set(inst.srcs) == {T0, T1}
        assert inst.dst == T2

    def test_operate_with_literal_reads_only_ra(self):
        inst = Instruction("addq", ra=T0, imm=4, rc=T2)
        assert inst.srcs == (T0,)

    def test_cmov_also_reads_old_destination(self):
        inst = Instruction("cmovne", ra=T0, rb=T1, rc=T2)
        assert set(inst.srcs) == {T0, T1, T2}

    def test_load_writes_ra_reads_base(self):
        inst = Instruction("ldq", ra=T0, rb=T1, imm=8)
        assert inst.srcs == (T1,)
        assert inst.dst == T0

    def test_store_reads_data_and_base(self):
        inst = Instruction("stq", ra=T0, rb=T1, imm=8)
        assert set(inst.srcs) == {T0, T1}
        assert inst.dst is None

    def test_zero_register_never_a_source_or_dest(self):
        inst = Instruction("addq", ra=ZERO, rb=ZERO, rc=ZERO)
        assert inst.srcs == ()
        assert inst.dst is None

    def test_fp_zero_register_discarded(self):
        inst = Instruction("addt", ra=F1, rb=F2, rc=regs.FZERO_REG)
        assert inst.dst is None

    def test_conditional_branch_reads_ra(self):
        inst = Instruction("bne", ra=T0, target=0x100)
        assert inst.srcs == (T0,)
        assert decode(inst)[R_CTRL]

    def test_jump_reads_rb_writes_ra(self):
        inst = Instruction("jsr", ra=regs.parse_register("ra"), rb=T1)
        assert inst.srcs == (T1,)
        assert inst.dst == regs.parse_register("ra")

    def test_cvtqt_reads_only_rb(self):
        inst = Instruction("cvtqt", ra=F1, rb=F2, rc=F3)
        assert inst.srcs == (F2,)

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            Instruction("nosuchop")


class TestPredicates:
    def test_memory_predicates(self):
        load = Instruction("ldq", ra=T0, rb=T1, imm=0)
        store = Instruction("stq", ra=T0, rb=T1, imm=0)
        alu = Instruction("addq", ra=T0, rb=T1, rc=T2)
        assert load.is_memory and load.is_load and not load.is_store
        assert store.is_memory and store.is_store and not store.is_load
        assert not alu.is_memory

    def test_control_predicate(self):
        # The predecoded record's control flag ends the simulator's runs.
        assert decode(Instruction("br", ra=ZERO, target=0))[R_CTRL]
        assert decode(Instruction("ret", ra=ZERO,
                                  rb=regs.parse_register("ra")))[R_CTRL]
        assert not decode(Instruction("nop"))[R_CTRL]


class TestDisassembly:
    @pytest.mark.parametrize("inst,expected", [
        (Instruction("addq", ra=T0, imm=4, rc=T2), "addq t0, 4, t2"),
        (Instruction("ldq", ra=T0, rb=T1, imm=16), "ldq t0, 16(t1)"),
        (Instruction("bne", ra=T0, target=0x1234), "bne t0, 0x001234"),
        (Instruction("nop"), "nop"),
    ])
    def test_disassemble(self, inst, expected):
        assert inst.disassemble() == expected

    def test_repr_contains_address(self):
        inst = Instruction("nop", addr=0x4000)
        assert "004000" in repr(inst)
