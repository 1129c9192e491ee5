"""Execution tests for less-common opcodes running through the full
pipeline (semantics + timing integration)."""

from conftest import run_asm

MASK64 = (1 << 64) - 1


def wrap(body, data=""):
    return ".image t\n%s.proc main\n%s\n    ret\n.end" % (data, body)


class TestConditionalMoves:
    def test_cmovne_moves_when_nonzero(self):
        machine, _ = run_asm(wrap(
            "    lda t0, 1(zero)\n    lda t1, 7(zero)\n"
            "    lda t2, 9(zero)\n    cmovne t0, t1, t2"))
        assert machine.processes[0].iregs[3] == 7

    def test_cmovne_keeps_old_value_when_zero(self):
        machine, _ = run_asm(wrap(
            "    lda t1, 7(zero)\n    lda t2, 9(zero)\n"
            "    cmovne zero, t1, t2"))
        assert machine.processes[0].iregs[3] == 9

    def test_cmoveq(self):
        machine, _ = run_asm(wrap(
            "    lda t1, 7(zero)\n    lda t2, 9(zero)\n"
            "    cmoveq zero, t1, t2"))
        assert machine.processes[0].iregs[3] == 7


class TestShiftsAndArithmetic:
    def test_sra_sign_extends(self):
        machine, _ = run_asm(wrap(
            "    lda t0, -16(zero)\n    sra t0, 2, t1"))
        assert machine.processes[0].iregs[2] == MASK64 - 3  # -4

    def test_ldah_shifts_16(self):
        machine, _ = run_asm(wrap("    ldah t0, 2(zero)"))
        assert machine.processes[0].iregs[1] == 2 << 16

    def test_mulq_through_pipeline(self):
        machine, _ = run_asm(wrap(
            "    lda t0, 11(zero)\n    lda t1, 13(zero)\n"
            "    mulq t0, t1, t2"))
        assert machine.processes[0].iregs[3] == 143

    def test_back_to_back_mulq_unit_contention(self):
        body = ("    lda t0, 3(zero)\n"
                "    mulq t0, t0, t1\n"
                "    mulq t0, t0, t2")
        machine, image = run_asm(wrap(body))
        second = image.instructions[2]
        stalls = machine.gt_stall.get(second.addr, {})
        assert stalls.get("imul", 0) > 0

    def test_addl_wraps_32(self):
        machine, _ = run_asm(wrap(
            "    lda t0, 0x7fff(zero)\n    sll t0, 16, t0\n"
            "    addl t0, t0, t1"))
        # 0x7fff0000 + 0x7fff0000 overflows a longword -> negative.
        assert machine.processes[0].iregs[2] >> 63 == 1


class TestLowBitBranches:
    def test_blbs_taken_on_odd(self):
        body = """
    lda t0, 3(zero)
    blbs t0, odd
    lda t1, 1(zero)
odd:
    lda t2, 2(zero)
"""
        machine, _ = run_asm(wrap(body))
        proc = machine.processes[0]
        assert proc.iregs[2] == 0  # skipped
        assert proc.iregs[3] == 2

    def test_blbc_taken_on_even(self):
        body = """
    lda t0, 4(zero)
    blbc t0, even
    lda t1, 1(zero)
even:
    lda t2, 2(zero)
"""
        machine, _ = run_asm(wrap(body))
        assert machine.processes[0].iregs[2] == 0


class TestFloatingPoint:
    def test_divt_through_pipeline(self):
        body = ("    lda t0, 12(zero)\n    lda t1, =buf\n"
                "    stq t0, 0(t1)\n    ldt f1, 0(t1)\n"
                "    lda t0, 3(zero)\n    stq t0, 8(t1)\n"
                "    ldt f2, 8(t1)\n    divt f1, f2, f3\n"
                "    stt f3, 16(t1)")
        machine, image = run_asm(wrap(body, data=".data buf, 64\n"))
        assert machine.processes[0].memory.get(image.data_base + 16) == 4.0

    def test_fbranch_direction(self):
        body = ("    lda t0, 5(zero)\n    lda t1, =buf\n"
                "    stq t0, 0(t1)\n    ldt f1, 0(t1)\n"
                "    fbne f1, nonzero\n    lda t2, 1(zero)\n"
                "nonzero:\n    lda t3, 2(zero)")
        machine, _ = run_asm(wrap(body, data=".data buf, 64\n"))
        proc = machine.processes[0]
        assert proc.iregs[3] == 0  # branch taken
        assert proc.iregs[4] == 2

    def test_fdiv_consumer_stalls_long(self):
        body = ("    divt f1, f2, f3\n"
                "    addt f3, f3, f4")
        machine, image = run_asm(wrap(body))
        consumer = image.instructions[1]
        assert machine.gt_head[consumer.addr] >= 17  # FDIV latency 18


class TestJumps:
    def test_jmp_indirect(self):
        body = """
    lda t0, =hop
    jmp (t0)
.end
.proc hop
    lda t1, 5(zero)
"""
        machine, _ = run_asm(wrap(body))
        assert machine.processes[0].iregs[2] == 5

    def test_call_pal_is_inert(self):
        machine, _ = run_asm(wrap("    call_pal 0x83\n    lda t0, 1(zero)"))
        assert machine.processes[0].iregs[1] == 1
        assert machine.processes[0].exited

    def test_jsr_return_roundtrip(self):
        # main saves its own ra in t9 around the call; the trailing
        # ret appended by wrap() belongs to leaf.
        body = """
    bis ra, ra, t9
    lda pv, =leaf
    jsr ra, (pv)
    lda t2, 3(zero)
    ret (t9)
.end
.proc leaf
    lda t1, 9(zero)
"""
        machine, _ = run_asm(wrap(body), max_instructions=100)
        proc = machine.processes[0]
        assert proc.iregs[2] == 9
        assert proc.iregs[3] == 3
