"""Tests for binary instruction/image encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from repro.alpha.assembler import assemble
from repro.alpha.encoding import (EncodingError, decode_image,
                                  decode_instruction, encode_image,
                                  encode_instruction, load_executable,
                                  save_executable)
from repro.alpha.instruction import Instruction
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine

PROGRAM = """
.image binprog
.data buf, 4096
.proc main
    lda   t1, =buf
    lda   t0, 200(zero)
    ldt   f1, 0(t1)
top:
    ldq   t4, 0(t1)
    addq  t4, 0x7f, t5
    mulq  t5, t5, t6
    stq   t6, 0(t1)
    addt  f1, f1, f2
    cmpult t0, t6, t7
    cmovne t7, t0, t6
    subq  t0, 1, t0
    bgt   t0, top
    jsr   ra, (t1)
.end
"""


def roundtrip(inst, next_addr=4):
    words = encode_instruction(inst, next_addr)
    extension = None
    if len(words) == 2:
        payload = words[0] & 0xFFFFFF
        if payload >> 23:
            payload -= 1 << 24
        extension = payload
    return decode_instruction(words[-1], next_addr - 4, extension)


class TestInstructionRoundtrip:
    @pytest.mark.parametrize("inst", [
        Instruction("addq", ra=1, rb=2, rc=3),
        Instruction("addq", ra=1, imm=200, rc=3),
        Instruction("addq", ra=1, imm=100000, rc=3),   # extension word
        Instruction("ldq", ra=4, rb=30, imm=-16),
        Instruction("stq", ra=4, rb=30, imm=32000),    # extension word
        Instruction("lda", ra=5, rb=31, imm=1 << 20),  # symbol address
        Instruction("addt", ra=33, rb=34, rc=35),      # FP registers
        Instruction("ldt", ra=40, rb=9, imm=8),
        Instruction("stt", ra=41, rb=9, imm=8),
        Instruction("jsr", ra=26, rb=27),
        Instruction("ret", ra=31, rb=26),
        Instruction("call_pal", imm=0x83),
        Instruction("nop"),
    ])
    def test_roundtrip(self, inst):
        decoded = roundtrip(inst)
        assert decoded.op == inst.op
        assert decoded.srcs == inst.srcs
        assert decoded.dst == inst.dst
        assert (decoded.imm or 0) == (inst.imm or 0)

    def test_branch_displacement(self):
        inst = Instruction("bne", ra=5, target=0x1000, addr=0x2000)
        words = encode_instruction(inst, 0x2004)
        decoded = decode_instruction(words[0], 0x2000)
        assert decoded.target == 0x1000

    def test_branch_out_of_range_rejected(self):
        inst = Instruction("br", ra=31, target=0x10_000_000, addr=0)
        with pytest.raises(EncodingError):
            encode_instruction(inst, 4)

    def test_unknown_opcode_number(self):
        with pytest.raises(EncodingError):
            decode_instruction(0xFE << 24, 0)

    @given(st.integers(-(1 << 13), (1 << 13) - 1), st.integers(0, 30),
           st.integers(0, 30))
    @settings(max_examples=examples(50), deadline=None)
    def test_memory_roundtrip_property(self, disp, ra, rb):
        inst = Instruction("ldq", ra=ra, rb=rb, imm=disp)
        decoded = roundtrip(inst)
        assert (decoded.ra, decoded.rb, decoded.imm) == (ra, rb, disp)

    @given(st.integers(-(1 << 22), (1 << 22) - 1))
    @settings(max_examples=examples(50), deadline=None)
    def test_extension_word_property(self, disp):
        inst = Instruction("ldq", ra=1, rb=2, imm=disp)
        assert roundtrip(inst).imm == disp


class TestImageRoundtrip:
    def test_image_binary_roundtrip(self):
        image = assemble(PROGRAM, base=0x30000)
        clone = decode_image(encode_image(image))
        assert clone.name == image.name
        assert clone.base == image.base
        assert len(clone.instructions) == len(image.instructions)
        for a, b in zip(image.instructions, clone.instructions):
            assert a.op == b.op
            assert a.addr == b.addr
            assert a.target == b.target
        assert clone.procedure("main").start == 0x30000
        assert clone.symbols.resolve("buf") == image.data_base

    def test_decoded_binary_executes_identically(self):
        original = assemble(PROGRAM.replace("jsr   ra, (t1)", "ret"),
                            base=None)
        plain = Machine(MachineConfig(), seed=1)
        plain_image = plain.load_image(original)
        p1 = plain.spawn(plain_image)
        plain.run()

        binary = encode_image(plain_image)
        loaded = decode_image(binary)
        machine = Machine(MachineConfig(), seed=1)
        machine.load_image(loaded)
        p2 = machine.spawn(loaded)
        machine.run()
        assert p1.iregs == p2.iregs
        assert p1.memory == p2.memory

    def test_save_and_load_executable(self, tmp_path):
        image = assemble(PROGRAM, base=0x30000)
        path = str(tmp_path / "prog.aexe")
        save_executable(image, path)
        loaded = load_executable(path)
        assert loaded.name == "binprog"
        assert loaded.instruction_at(0x30000).op == "lda"

    def test_unlinked_image_rejected(self):
        with pytest.raises(EncodingError):
            encode_image(assemble(PROGRAM))

    def test_bad_magic_rejected(self):
        with pytest.raises(EncodingError):
            decode_image(b"EXE?" + b"\0" * 64)
