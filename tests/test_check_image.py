"""Layer-1 (image) checker tests: clean images, directed defects.

Every rule in :mod:`repro.check.image_checks` gets a known-bad image
that must produce its finding, plus a hypothesis property that
assembled-and-linked programs pass every rule, the predecode agreement
check included.  The call-barrier and FP-initialization cases are
regression tests for real defects ``dcpicheck`` surfaced in the seed
workloads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from repro.alpha.assembler import assemble
from repro.check import ERROR, INFO, WARNING
from repro.check.image_checks import check_image
from repro.check.runner import run_image_layer
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine


def linked(text):
    machine = Machine(MachineConfig(), seed=1)
    image = assemble(text)
    machine.spawn(image, name="t")
    return image


def rules(findings, rule=None, severity=None):
    return [f for f in findings
            if (rule is None or f.rule == rule)
            and (severity is None or f.severity == severity)]


CLEAN = """
.image clean.prog
.data buf, 4096
.proc main
    lda   t1, =buf
    lda   t0, 64(zero)
top:
    ldq   t4, 0(t1)
    addq  t4, 7, t5
    stq   t5, 0(t1)
    subq  t0, 1, t0
    bgt   t0, top
    ret
.end
"""


class TestCleanImages:
    def test_clean_image_has_no_findings(self):
        assert check_image(linked(CLEAN)) == []

    def test_unlinked_image_is_an_error(self):
        findings = check_image(assemble(CLEAN))
        assert [f.rule for f in findings] == ["image/unlinked"]
        assert findings[0].severity == ERROR


_POOL = ("addq", "mulq", "sll", "cmpult", "ldq", "stq")


@st.composite
def _programs(draw):
    """A loop whose body reads only registers defined above it."""
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        op = draw(st.sampled_from(_POOL))
        imm = draw(st.integers(min_value=0, max_value=255))
        dst = "t%d" % draw(st.integers(min_value=2, max_value=7))
        if op == "ldq":
            lines.append("    ldq   %s, %d(t1)" % (dst, 8 * (imm % 64)))
        elif op == "stq":
            lines.append("    stq   t0, %d(t1)" % (8 * (imm % 64)))
        elif op == "mulq":
            lines.append("    mulq  t0, t0, %s" % dst)
        else:
            lines.append("    %-5s t0, %d, %s" % (op, imm, dst))
    iters = draw(st.integers(min_value=1, max_value=50))
    return """
.image prop.prog
.data buf, 4096
.proc main
    lda   t1, =buf
    lda   t0, %d(zero)
top:
%s
    subq  t0, 1, t0
    bgt   t0, top
    ret
.end
""" % (iters, "\n".join(lines))


class TestRoundtripProperty:
    @settings(max_examples=examples(30), deadline=None)
    @given(_programs())
    def test_assembled_images_pass_layer1(self, text):
        findings = check_image(linked(text))
        # Generated bodies may contain dead writes (INFO); nothing
        # more severe is acceptable, and in particular the predecode
        # records must agree with the instructions.
        assert rules(findings, severity=ERROR) == []
        assert rules(findings, severity=WARNING) == []


class TestDataflow:
    def test_fp_use_before_def_is_an_error(self):
        image = linked("""
.image fpbug.prog
.proc main
    addt  f1, f1, f2
    ret
.end
""")
        found = rules(check_image(image), "image/use-before-def")
        assert len(found) == 1
        assert found[0].severity == ERROR
        assert "f1" in found[0].message

    def test_int_use_before_def_is_a_warning(self):
        image = linked("""
.image intbug.prog
.proc main
    addq  t5, 1, t0
    ret
.end
""")
        found = rules(check_image(image), "image/use-before-def")
        assert len(found) == 1
        assert found[0].severity == WARNING

    def test_abi_live_in_registers_are_not_flagged(self):
        # Arguments (a0), callee-saved (s0) and ra are live at entry.
        image = linked("""
.image abi.prog
.proc main
    addq  a0, 1, t0
    addq  s0, t0, t1
    ret
.end
""")
        assert rules(check_image(image), "image/use-before-def") == []

    def test_dead_write_is_reported(self):
        image = linked("""
.image dead.prog
.proc main
    lda   t0, 1(zero)
    lda   t0, 2(zero)
    ret
.end
""")
        found = rules(check_image(image), "image/dead-write")
        assert len(found) == 1
        assert found[0].severity == INFO

    def test_call_is_a_dead_write_barrier(self):
        # Two consecutive calls both write ra; the callee reads it via
        # ret, so the first write is NOT dead (regression: this fired
        # 86 false positives on the seed registry before the barrier).
        image = linked("""
.image calls.prog
.proc main
    bsr   ra, helper
    bsr   ra, helper
    ret
.end
.proc helper
    ret
.end
""")
        findings = check_image(image)
        assert rules(findings, "image/dead-write") == []
        assert rules(findings, severity=ERROR) == []


class TestControlFlow:
    def test_branch_target_out_of_image(self):
        image = linked(CLEAN)
        branch = [i for i in image.instructions if i.op == "bgt"][0]
        branch.target = image.end + 0x1000
        assert rules(check_image(image),
                     "image/branch-target-out-of-image")

    def test_branch_target_misaligned(self):
        image = linked(CLEAN)
        branch = [i for i in image.instructions if i.op == "bgt"][0]
        branch.target = image.base + 2
        assert rules(check_image(image),
                     "image/branch-target-misaligned")

    def test_fallthrough_off_image_end(self):
        image = linked("""
.image fall.prog
.proc main
    lda   t0, 1(zero)
.end
""")
        assert rules(check_image(image), "image/fallthrough-off-image")

    def test_unreachable_block_is_a_warning(self):
        image = linked("""
.image unreach.prog
.proc main
    ret
    lda   t0, 1(zero)
    ret
.end
""")
        found = rules(check_image(image), "image/unreachable-block")
        assert found and found[0].severity == WARNING


class TestStructure:
    def test_address_gap(self):
        image = linked(CLEAN)
        image.instructions[2].addr += 4
        assert rules(check_image(image), "image/address-gap")

    def test_procedure_out_of_image(self):
        image = linked(CLEAN)
        image.procedures[0].end = image.end + 64
        assert rules(check_image(image), "image/procedure-out-of-image")

    def test_uncovered_tail_is_a_warning(self):
        image = linked(CLEAN)
        image.procedures[0].end -= 8
        found = rules(check_image(image), "image/uncovered-code")
        assert found and found[0].severity == WARNING

    def test_empty_procedure(self):
        image = linked(CLEAN)
        image.procedures[0].end = image.procedures[0].start
        assert rules(check_image(image), "image/empty-procedure")


class TestSeedWorkloadRegressions:
    """The FP-initialization defects dcpicheck found in the seed."""

    @pytest.mark.parametrize("name", ["specfp95", "wave5"])
    def test_fp_workloads_define_f1_before_use(self, name):
        findings = run_image_layer([name])
        assert rules(findings, "image/use-before-def") == []
        assert findings == []

    def test_asmgen_fp_flavor_seeds_its_accumulator(self):
        from repro.workloads.asmgen import loop_proc

        text = ".image fpgen.prog\n" + loop_proc(
            "fp1", 8, flavor="fp")
        assert rules(check_image(linked(text)),
                     "image/use-before-def") == []
