"""Unit tests for the profile-guided optimizer (repro.opt).

Covers the three layers separately -- the rewriter's branch-target
patching, the planning passes against analysis output, the oracle's
translation-aware identity check -- and then the whole loop through
:func:`repro.opt.optimize_workload` and the ``dcpiopt`` CLI.
"""

import json

import pytest

from repro.alpha.assembler import assemble
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.core.analyze import AnalysisConfig, analyze_image
from repro.obs.report import REPORT_SCHEMA
from repro.opt import (BlockPlan, ImageRewriter, OptConfig, ProcPlan,
                       RewritePlan, build_plan, image_fingerprint,
                       optimize_workload, rewrite_image, sweep_workload,
                       verify_identity)
from repro.tools import dcpiopt
from repro.workloads import OPT_TARGETS, get_workload

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


def _profile(workload, max_instructions=40_000, seed=1):
    session = ProfileSession(
        MachineConfig(num_cpus=workload.num_cpus),
        SessionConfig(mode="cycles", seed=seed,
                      cycles_period=(240, 256)))
    return session.run(workload, max_instructions=max_instructions)


def _planned(name, config=None, max_instructions=40_000):
    workload = get_workload(name)
    collected = _profile(workload, max_instructions=max_instructions)
    plans = []
    for image in collected.machine.loader.images:
        profile = collected.profiles.get(image.name)
        if profile is None or not profile.total(EventType.CYCLES):
            continue
        analyses = analyze_image(image, profile, AnalysisConfig())
        if analyses:
            plans.append(build_plan(image, analyses,
                                    config or OptConfig()))
    return workload, plans


def test_identity_plan_roundtrips():
    # A plan that keeps every block in place must reproduce the image
    # instruction for instruction.
    image = assemble(BRANCHY)
    proc = image.procedures[0]
    base = image.base or 0
    plan = RewritePlan(
        image.name, image_fingerprint(image),
        [ProcPlan(proc.name,
                  [BlockPlan(proc.start - base, proc.end - base)])],
        data_offset=None, stats={})
    result = rewrite_image(image, plan)
    assert result.applied
    ops = [(i.op, i.ra, i.rb, i.rc) for i in image.instructions]
    new_ops = [(i.op, i.ra, i.rb, i.rc)
               for i in result.image.instructions]
    assert ops == new_ops


def test_fingerprint_mismatch_bails():
    # A retargeted branch is a different control-flow graph; a plan
    # computed on one build must refuse the other.
    image = assemble(BRANCHY)
    other = assemble(BRANCHY.replace("beq   t4, main_rare",
                                     "beq   t4, main_join"))
    plan = RewritePlan(
        image.name, image_fingerprint(other),
        [], data_offset=None, stats={})
    result = rewrite_image(image, plan)
    assert not result.applied
    assert "match" in result.reason


def _branchy_plan(blocks=None, frozen=False, data_offset=None):
    image = assemble(BRANCHY)
    proc = image.procedures[0]
    if blocks is None:
        blocks = [BlockPlan(proc.start, proc.end)]
    return image, RewritePlan(
        image.name, image_fingerprint(assemble(BRANCHY)),
        [ProcPlan(proc.name, blocks, frozen=frozen)],
        data_offset=data_offset, stats={})


class TestEveryBailoutReturnsTheImageUntouched:
    """One directed test per counted ``rewrite_image`` bailout.

    Each asserts the contract the counter advertises: the input image
    comes back *by identity*, unmodified, with ``applied`` False.
    """

    def check(self, image, plan, fragment):
        result = rewrite_image(image, plan)
        assert not result.applied
        assert result.image is image
        assert fragment in result.reason, result.reason
        assert result.old2new == {}
        return result

    def test_already_linked(self):
        image, plan = _branchy_plan()
        image.link(0x1_0000)
        self.check(image, plan, "already linked")

    def test_fingerprint_mismatch(self):
        image, plan = _branchy_plan()
        plan.fingerprint = image_fingerprint(
            assemble(BRANCHY.replace("addq  t5, 7", "subq  t5, 7")))
        self.check(image, plan, "match the profiled build")

    def test_plan_procs_do_not_match(self):
        image, plan = _branchy_plan()
        plan.procs[0].name = "ghost"
        self.check(image, plan, "procedures do not match")

    def test_unknown_block(self):
        image, plan = _branchy_plan(
            blocks=[BlockPlan(0x00, 0x100)])
        self.check(image, plan, "unknown block")

    def test_misaligned_block(self):
        image, plan = _branchy_plan(
            blocks=[BlockPlan(0x02, 0x0a)])
        self.check(image, plan, "unknown block")

    def test_order_not_a_permutation(self):
        image, plan = _branchy_plan(
            blocks=[BlockPlan(0x00, 0x08, order=[0x00, 0x00])])
        self.check(image, plan, "not a permutation")

    def test_duplicate_emission(self):
        # Two overlapping blocks would emit the shared range twice.
        image, plan = _branchy_plan(
            blocks=[BlockPlan(0x00, 0x08), BlockPlan(0x04, 0x0c),
                    BlockPlan(0x0c, 0x2c)])
        self.check(image, plan, "more than once")

    def test_frozen_proc_with_non_identity_plan(self):
        image, plan = _branchy_plan(
            blocks=[BlockPlan(0x00, 0x08, order=[0x04, 0x00]),
                    BlockPlan(0x08, 0x2c)],
            frozen=True)
        self.check(image, plan, "frozen")

    def test_bad_target_remap(self):
        # Dropping the rare block leaves the beq with nowhere to go.
        image, plan = _branchy_plan(
            blocks=[BlockPlan(0x00, 0x08), BlockPlan(0x08, 0x10),
                    BlockPlan(0x10, 0x18), BlockPlan(0x1c, 0x28),
                    BlockPlan(0x28, 0x2c)])
        self.check(image, plan, "unmapped")

    def test_data_overlap(self):
        # Pin the data where the code lives: refuse, never link a
        # program whose data shadows its instructions.
        image, plan = _branchy_plan(data_offset=0x10)
        self.check(image, plan, "overruns the pinned data")


def test_build_plan_straightens_hot_path():
    _, plans = _planned("opt-branchy")
    assert plans, "no plan built for opt-branchy"
    stats = plans[0].stats
    assert stats.get("blocks_moved", 0) > 0


def test_rewriter_elides_hot_branch():
    workload, plans = _planned(
        "opt-branchy", OptConfig(layout=True, schedule=False,
                                 split=False))
    rewriter = ImageRewriter(plans)
    baseline = assemble(workload._asm(), image_name=workload.name)
    rewritten = rewriter(assemble(workload._asm(),
                                  image_name=workload.name))
    result = rewriter.results[workload.name]
    assert result.applied, result.reason
    # The hot-path `br main_join` is elided (straightened); any stub
    # the layout inserts lands on the cold path.
    assert result.stats["branches_elided"] >= 1
    assert len(rewritten.instructions) \
        <= len(baseline.instructions) + result.stats["stubs_inserted"]


def test_oracle_accepts_true_rewrite_and_measures_speedup():
    workload, plans = _planned("opt-branchy")
    report = verify_identity(workload, plans)
    assert report.identical, report.mismatches
    assert not report.skipped
    assert report.speedup > 0.0


def test_dropped_block_bails_not_corrupts():
    # Damage a plan so a block vanishes: branches into it become
    # unmappable, the rewrite bails, and the program runs unmodified
    # (skipped, never wrong).
    workload, plans = _planned("opt-branchy")
    victim = None
    for proc_plan in plans[0].procs:
        if len(proc_plan.blocks) > 2:
            victim = proc_plan
            break
    assert victim is not None
    del victim.blocks[1]
    report = verify_identity(workload, plans)
    assert report.identical
    assert report.skipped
    assert report.speedup == 0.0


def test_oracle_catches_semantically_wrong_reorder():
    # Force an applied-but-wrong rewrite: swap two dependent
    # instructions inside the hot block.  The A/B run must report
    # mismatches, not a speedup.
    workload, plans = _planned(
        "opt-branchy", OptConfig(layout=True, schedule=False,
                                 split=False))
    victim = None
    for proc_plan in plans[0].procs:
        for block in proc_plan.blocks:
            if len(block.order) == 4:     # the addq/xor/and/br block
                victim = block
    assert victim is not None
    victim.order[0], victim.order[1] = victim.order[1], victim.order[0]
    report = verify_identity(workload, plans)
    assert not report.skipped
    assert not report.identical
    assert report.mismatches


@pytest.mark.parametrize("name", OPT_TARGETS)
def test_optimize_workload_end_to_end(name):
    report = optimize_workload(name, max_instructions=40_000)
    assert report.accepted, (report.oracle.mismatches, report.findings)
    assert report.speedup >= 0.05, report.speedup
    payload = report.report()
    assert "schema" not in payload      # the envelope is the writer's
    assert payload["workload"] == name
    assert payload["baseline"]["cycles"] > payload["optimized"]["cycles"]


def test_optimize_rejects_are_not_speedups():
    # An undecidable (truncated) verify run must zero the speedup and
    # surface the reason, not silently report a win.
    report = optimize_workload("opt-branchy", max_instructions=40_000,
                               verify_instructions=1_000)
    assert not report.accepted
    assert report.speedup == 0.0
    assert any("undecidable" in m for m in report.oracle.mismatches)


def test_icache_split_removes_conflict_misses():
    from repro.opt.oracle import event_total

    report = optimize_workload("opt-icache", max_instructions=40_000)
    assert report.accepted
    before = event_total(report.oracle.baseline_machine,
                         EventType.IMISS)
    after = event_total(report.oracle.optimized_machine,
                        EventType.IMISS)
    assert after < before / 4, (before, after)


def test_sweep_degrades_gracefully():
    rows = sweep_workload("opt-branchy",
                          periods=((240, 256), (3840, 4096)),
                          losses=(0.0, 0.3),
                          max_instructions=40_000)
    assert len(rows) == 4
    for row in rows:
        assert row["accepted"], row
        assert row["speedup"] >= 0.0, row
    # More samples at the shorter period.
    by_period = {}
    for row in rows:
        by_period.setdefault(row["period"], []).append(row["samples"])
    short, long_ = sorted(by_period)
    assert max(by_period[short]) >= max(by_period[long_])


def test_cli_run_report_and_sweep(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = dcpiopt.main(["run", "--workload", "opt-branchy",
                       "--max-instructions", "40000",
                       "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ACCEPTED" in text
    payload = json.loads(out.read_text())
    assert (payload["schema"], payload["tool"]) == (REPORT_SCHEMA,
                                                    "dcpiopt")
    assert payload["accepted"]

    rc = dcpiopt.main(["report", str(out)])
    assert rc == 0
    assert "speedup" in capsys.readouterr().out
    # A report from before the envelope is refused, not misread.
    old = tmp_path / "old.json"
    old.write_text(json.dumps(dict(payload, schema=2)))
    assert dcpiopt.main(["report", str(old)]) == 1
    assert "not a dcpiopt report" in capsys.readouterr().err

    sweep_out = tmp_path / "sweep.json"
    rc = dcpiopt.main(["sweep", "--workloads", "opt-branchy",
                       "--period", "240:256", "--loss", "0.0",
                       "--max-instructions", "40000",
                       "--json", str(sweep_out)])
    assert rc == 0
    sweep = json.loads(sweep_out.read_text())
    assert (sweep["schema"], sweep["tool"]) == (REPORT_SCHEMA, "dcpiopt")
    assert len(sweep["rows"]) == 1


def test_cli_run_exits_nonzero_on_a_rejected_rewrite(capsys):
    # The gate shown red: an undecidable verify run is a rejection.
    rc = dcpiopt.main(["run", "--workload", "opt-branchy",
                       "--max-instructions", "40000",
                       "--verify-instructions", "1000"])
    assert rc == 1
    assert "REJECTED" in capsys.readouterr().out


def test_cli_single_pass_selection(capsys):
    rc = dcpiopt.main(["run", "--workload", "opt-stall",
                       "--max-instructions", "40000",
                       "--passes", "schedule", "--json", "-"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert rc == 0
    assert payload["accepted"]
    assert payload["passes"].get("scheduled_blocks", 0) > 0
    assert payload["passes"].get("blocks_moved", 0) == 0
