"""Layer-4 (static translation validation) tests.

Directed coverage of :mod:`repro.check.transval`: the validator
accepts every plan the planner actually ships, accepts hand-built
legal rewrites (identity, independent reorders, block permutations
through the inversion/elision/stub machinery), and rejects
semantics-breaking plans and tampered images with a concrete per-block
counterexample -- all without running either image.
"""

import json

import pytest

from repro.alpha.assembler import assemble
from repro.check import run_rewrite_layer, transval
from repro.check.runner import plan_workload
from repro.check.transval import (R_CTRL, R_DATA, R_FROZEN, R_REG,
                                  R_STRUCTURE, format_expr,
                                  validate_plan, validate_result,
                                  validate_workload_plans)
from repro.obs.report import REPORT_SCHEMA
from repro.opt import (BlockPlan, ProcPlan, RewritePlan,
                       image_fingerprint, rewrite_image)
from repro.tools import dcpicheck
from repro.workloads import OPT_TARGETS

# Offsets (see the listing in the tests below):
#   0x00 lda t0      \ entry block [0x00, 0x08)
#   0x04 lda v0      /
#   0x08 and t0,15   \ loop head  [0x08, 0x10)
#   0x0c beq -> 0x18 /
#   0x10 addq t5,1   \ hot path   [0x10, 0x18)
#   0x14 br  -> 0x1c /
#   0x18 addq t5,7   - rare path  [0x18, 0x1c)
#   0x1c addq t0,1   \
#   0x20 cmpult      | join       [0x1c, 0x28)
#   0x24 bne -> 0x08 /
#   0x28 ret         - exit       [0x28, 0x2c)
BRANCHY = """
.image t
.proc main
    lda   t0, 0(zero)
    lda   v0, 64(zero)
main_loop:
    and   t0, 15, t4
    beq   t4, main_rare
    addq  t5, 1, t5
    br    main_join
main_rare:
    addq  t5, 7, t5
main_join:
    addq  t0, 1, t0
    cmpult t0, v0, t9
    bne   t9, main_loop
    ret
.end
"""

BLOCKS = ((0x00, 0x08), (0x08, 0x10), (0x10, 0x18),
          (0x18, 0x1c), (0x1c, 0x28), (0x28, 0x2c))


def fresh():
    return assemble(BRANCHY)


def plan_of(blocks, frozen=False):
    image = fresh()
    proc = image.procedures[0]
    return RewritePlan(
        image.name, image_fingerprint(fresh()),
        [ProcPlan(proc.name, blocks, frozen=frozen)],
        data_offset=None, stats={})


def identity_blocks():
    return [BlockPlan(start, end) for start, end in BLOCKS]


class TestAccepts:
    def test_identity_plan(self):
        report = validate_plan(fresh(), plan_of(identity_blocks()))
        assert report.verdict == "accepted"
        assert report.ok
        assert report.blocks_checked == len(BLOCKS)
        assert report.to_findings() == []

    def test_independent_reorder(self):
        # The two entry lda's touch different registers; swapping them
        # is exactly what the scheduler does.
        blocks = identity_blocks()
        blocks[0] = BlockPlan(0x00, 0x08, order=[0x04, 0x00])
        report = validate_plan(fresh(), plan_of(blocks))
        assert report.verdict == "accepted"

    def test_block_permutation_exercises_primitives(self):
        # Move the rare block out of line: the br at 0x14 elides into
        # the join, the beq needs a stub or retarget -- the full
        # terminator-rewrite rule set in one plan.
        blocks = [BlockPlan(0x00, 0x08), BlockPlan(0x08, 0x10),
                  BlockPlan(0x10, 0x18), BlockPlan(0x1c, 0x28),
                  BlockPlan(0x28, 0x2c), BlockPlan(0x18, 0x1c)]
        report = validate_plan(fresh(), plan_of(blocks))
        assert report.verdict == "accepted"

    def test_whole_proc_identity_block(self):
        # One non-frozen block spanning all control flow: legal (and
        # what test_opt's identity round-trip ships), proven verbatim.
        report = validate_plan(fresh(),
                               plan_of([BlockPlan(0x00, 0x2c)]))
        assert report.verdict == "accepted"

    @pytest.mark.parametrize("name", OPT_TARGETS)
    def test_shipped_plans_validate(self, name):
        workload, plans = plan_workload(name, max_instructions=40_000)
        assert plans, "planner built nothing for %s" % name
        reports = validate_workload_plans(workload, plans)
        for image_name, report in sorted(reports.items()):
            assert report.verdict == "accepted", (
                image_name, [str(f) for f in report.to_findings()])

    def test_shared_operands_are_walked_once(self, monkeypatch):
        # bigcode: straight-line blocks of 100-700 operates over eight
        # registers, so every value is a DAG sharing its operands.
        # Each instruction's node may be reached once per register
        # compared at block exit (<= 8 here) over <= 3 edges; walked
        # as a tree the count is exponential in block length (this
        # workload never finished before the comparison memoised).
        workload, plans = plan_workload("bigcode",
                                        max_instructions=40_000)
        instructions = sum(len(block.order) for plan in plans
                           for proc in plan.procs
                           for block in proc.blocks)
        limit = 3 * 8 * instructions
        visits = [0]
        walk = transval._expr_eq

        def counted(*args):
            visits[0] += 1
            assert visits[0] <= limit, "comparison re-walks shared nodes"
            return walk(*args)

        monkeypatch.setattr(transval, "_expr_eq", counted)
        reports = validate_workload_plans(workload, plans)
        assert instructions > 5_000
        assert [r.verdict for r in reports.values()] == ["accepted"]
        assert visits[0] > instructions


class TestRejects:
    def test_dependent_swap_names_the_diverging_state(self):
        # cmpult reads the addq's result; swapping them changes r23.
        blocks = identity_blocks()
        blocks[4] = BlockPlan(0x1c, 0x28, order=[0x20, 0x1c, 0x24])
        report = validate_plan(fresh(), plan_of(blocks))
        assert report.verdict == "rejected"
        assert not report.ok
        rules = {ce.rule for ce in report.counterexamples}
        assert R_REG in rules
        ce = next(c for c in report.counterexamples if c.rule == R_REG)
        # The counterexample pins down block, register and both
        # symbolic values.
        assert ce.block == 0x1c
        assert "r23" in ce.message
        assert "addq" in ce.detail and "cmpult" in ce.detail

    def test_reorder_across_control_flow_rejected(self):
        # A multi-block span may only ship verbatim; reordering
        # across the interior beq is never provable.
        blocks = [BlockPlan(0x00, 0x2c,
                            order=[0x04, 0x00] + list(range(0x08,
                                                            0x2c, 4)))]
        report = validate_plan(fresh(), plan_of(blocks))
        assert report.verdict == "rejected"
        assert any(ce.rule == R_CTRL for ce in report.counterexamples)

    def test_tampered_frozen_proc_rejected(self):
        plan = plan_of([BlockPlan(0x00, 0x2c)], frozen=True)
        original = fresh()
        result = rewrite_image(original, plan)
        assert result.applied
        result.image.instructions[4].imm = 2   # addq t5, 1 -> t5, 2
        report = validate_result(original, plan, result)
        assert report.verdict == "rejected"
        assert any(ce.rule == R_FROZEN
                   for ce in report.counterexamples)

    def test_tampered_scheduled_block_rejected(self):
        plan = plan_of(identity_blocks())
        original = fresh()
        result = rewrite_image(original, plan)
        assert result.applied
        result.image.instructions[7].imm = 3   # join addq t0, 1 -> 3
        report = validate_result(original, plan, result)
        assert report.verdict == "rejected"
        assert any(ce.rule == R_REG for ce in report.counterexamples)

    def test_tampered_branch_target_rejected(self):
        plan = plan_of(identity_blocks())
        original = fresh()
        result = rewrite_image(original, plan)
        assert result.applied
        result.image.instructions[9].target = 0x00  # bne loop -> entry
        report = validate_result(original, plan, result)
        assert report.verdict == "rejected"
        assert any(ce.rule == R_CTRL for ce in report.counterexamples)

    def test_corrupted_old2new_is_a_structure_counterexample(self):
        plan = plan_of(identity_blocks())
        original = fresh()
        result = rewrite_image(original, plan)
        assert result.applied
        result.old2new[0x10], result.old2new[0x14] = (
            result.old2new[0x14], result.old2new[0x10])
        report = validate_result(original, plan, result)
        assert report.verdict == "rejected"
        assert report.counterexamples[0].rule == R_STRUCTURE

    def test_relocated_data_pin_rejected(self):
        # A pin that doesn't reproduce the original placement moves
        # every pointer into the data region, even though the symbol
        # names still correspond.
        asm = """
.image t
.data buf, 64
.proc main
    lda   t1, =buf
    stq   t2, 0(t1)
    ret
.end
"""
        image = assemble(asm)
        proc = image.procedures[0]
        expected = (image.code_size + 8191) & ~8191
        plan = RewritePlan(
            image.name, image_fingerprint(assemble(asm)),
            [ProcPlan(proc.name, [BlockPlan(proc.start, proc.end)])],
            data_offset=expected + 8192, stats={})
        report = validate_plan(assemble(asm), plan)
        assert report.verdict == "rejected"
        ce = next(c for c in report.counterexamples if c.rule == R_DATA)
        assert "pins data" in ce.message

    def test_moved_data_symbol_rejected(self):
        asm = """
.image t
.data buf, 64
.proc main
    lda   t1, =buf
    stq   t2, 0(t1)
    ret
.end
"""
        image = assemble(asm)
        proc = image.procedures[0]
        plan = RewritePlan(
            image.name, image_fingerprint(assemble(asm)),
            [ProcPlan(proc.name, [BlockPlan(proc.start, proc.end)])],
            data_offset=image.data_offset or 0x2000, stats={})
        original = assemble(asm)
        # Force the pin the image actually uses so the rewrite applies.
        plan.data_offset = None
        result = rewrite_image(original, plan)
        assert result.applied
        result.image.symbols._symbols["buf"] += 8
        report = validate_result(original, plan, result)
        assert report.verdict == "rejected"
        assert any(ce.rule == R_DATA for ce in report.counterexamples)


class TestBailsAndReporting:
    def test_fingerprint_mismatch_is_bailed_not_rejected(self):
        plan = plan_of(identity_blocks())
        # imm is fixup-rewritten at link time and thus outside the
        # fingerprint; an opcode change is the layout-independent kind
        # of drift the fingerprint exists to catch.
        other = assemble(BRANCHY.replace("addq  t5, 7", "subq  t5, 7"))
        report = validate_plan(other, plan)
        assert report.verdict == "bailed"
        assert report.ok    # nothing shipped, nothing to prove
        findings = report.to_findings()
        assert len(findings) == 1
        assert findings[0].rule == "rewrite/plan-not-applicable"
        assert findings[0].severity == "warning"

    def test_report_dict_is_json_ready(self):
        blocks = identity_blocks()
        blocks[4] = BlockPlan(0x1c, 0x28, order=[0x20, 0x1c, 0x24])
        report = validate_plan(fresh(), plan_of(blocks))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verdict"] == "rejected"
        assert payload["counterexamples"]
        first = payload["counterexamples"][0]
        assert set(first) == {"rule", "proc", "block", "new_block",
                              "message", "detail"}

    def test_format_expr_is_readable(self):
        expr = ("op", "cmpult",
                ("op", "addq", ("reg", 1), ("const", 1)),
                ("reg", 0))
        assert format_expr(expr) == \
            "(cmpult (addq r1@entry 0x1) r0@entry)"
        assert format_expr(("postcall", 2, 26)) == "r26@call2"
        assert format_expr(("codeaddr", 8)) == "ret@0x8"

    def test_format_expr_elides_deep_operands(self):
        # A 200-deep chain sharing its operand prints 2**200 leaves as
        # a tree; a counterexample must print, not hang.
        expr = ("reg", 1)
        for _ in range(200):
            expr = ("op", "addq", expr, expr)
        text = format_expr(expr)
        assert "..." in text and len(text) < 2_000


class TestLayerWiring:
    def test_rewrite_layer_is_clean_on_opt_targets(self):
        findings = run_rewrite_layer(OPT_TARGETS,
                                     max_instructions=40_000)
        assert [f for f in findings if f.severity == "error"] == []

    def test_dcpicheck_cli_runs_layer4(self, capsys):
        rc = dcpicheck.main(["--layers", "rewrite",
                             "--workloads", "opt-branchy",
                             "--json", "-"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert rc == 0
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["tool"] == "dcpicheck"
        assert payload["layers"] == ["rewrite"]
        assert payload["counts"]["error"] == 0
