"""Tests for the frequency-estimation heuristic."""

import pytest

from repro.alpha.assembler import assemble
from repro.core.cfg import build_cfg
from repro.core.frequency import _cluster_estimate, estimate_frequencies
from repro.core.schedule import schedule_cfg

LOOP = """
    lda t0, 100(zero)
top:
    addq t1, 1, t1
    xor  t1, t0, t2
    sll  t2, 1, t3
    subq t0, 1, t0
    bgt t0, top
    ret
"""


def analysis_for(body, samples, period=100.0):
    image = assemble(".image t\n.proc main\n%s\n.end" % body, base=0x1000)
    cfg = build_cfg(image.procedure("main"))
    schedules = schedule_cfg(cfg)
    return cfg, estimate_frequencies(cfg, schedules, samples, period)


class TestClusterSelection:
    def test_tight_cluster_mean(self):
        ratios = [(10.0, 100), (10.5, 100), (11.0, 100), (50.0, 100)]
        estimate, points, tightness = _cluster_estimate(ratios)
        assert estimate == pytest.approx(10.5, rel=0.01)
        assert points == 3

    def test_all_identical(self):
        ratios = [(5.0, 10)] * 4
        estimate, points, _ = _cluster_estimate(ratios)
        assert estimate == 5.0
        assert points == 4

    def test_empty_returns_none(self):
        assert _cluster_estimate([]) is None

    def test_all_zero_ratios_rejected(self):
        assert _cluster_estimate([(0.0, 0)] * 3) is None


class TestDirectEstimation:
    def test_loop_frequency_recovered(self):
        # Hand-made samples: every issue point in the loop body saw
        # samples consistent with 100 executions at period 100
        # (i.e. about 1 sample per execution per M=1 issue point).
        image_samples = {
            0x1004: 1, 0x1008: 1, 0x100C: 1, 0x1010: 1, 0x1014: 1}
        # Scale up so the class passes the min-sample threshold.
        samples = {addr: 60 for addr in image_samples}
        cfg, freq = analysis_for(LOOP, samples)
        loop_block = cfg.block_at(0x1004)
        # Ratio 60 at period 100 -> 6000 executions.
        assert freq.block_count(loop_block.index) == pytest.approx(
            6000, rel=0.2)

    def test_stalled_issue_point_excluded(self):
        samples = {0x1004: 60, 0x1008: 60, 0x100C: 60, 0x1010: 61,
                   0x1014: 600}  # the branch looks badly stalled
        cfg, freq = analysis_for(LOOP, samples)
        loop_block = cfg.block_at(0x1004)
        assert freq.block_count(loop_block.index) == pytest.approx(
            6000, rel=0.2)

    def test_sample_poor_class_uses_sum_ratio(self):
        samples = {0x1004: 2, 0x100C: 1}
        cfg, freq = analysis_for(LOOP, samples)
        loop_block = cfg.block_at(0x1004)
        assert freq.block_confidence(loop_block.index) == "low"
        assert freq.block_count(loop_block.index) > 0

    def test_confidence_high_for_tight_rich_cluster(self):
        samples = {0x1004: 100, 0x1008: 100, 0x100C: 100, 0x1010: 101,
                   0x1014: 99}
        cfg, freq = analysis_for(LOOP, samples)
        loop_block = cfg.block_at(0x1004)
        assert freq.block_confidence(loop_block.index) == "high"

    def test_count_of_and_cpi(self):
        samples = {0x1004: 60, 0x1008: 60, 0x100C: 60, 0x1010: 60,
                   0x1014: 60}
        cfg, freq = analysis_for(LOOP, samples)
        count = freq.count_of(0x1008)
        assert count == pytest.approx(6000, rel=0.05)
        assert freq.cpi_of(0x1008, 60) == pytest.approx(1.0, rel=0.05)


class TestPropagation:
    DIAMOND = """
    lda t0, 200(zero)
head:
    and t0, 1, t1
    beq t1, else_
    addq t2, 1, t2
    addq t3, 1, t3
    xor t2, t3, t4
    br join
else_:
    nop
join:
    subq t0, 1, t0
    bgt t0, head
    ret
"""

    def test_unsampled_arm_inferred_from_flow(self):
        # Samples land in head, the then-arm and the join; the else-arm
        # got none.  Flow constraints must infer else = head - then.
        samples = {
            # head block (and t0/beq): 2 insts, M=1 each
            0x1004: 100, 0x1008: 100,
            # then-arm
            0x100C: 50, 0x1010: 50, 0x1014: 50, 0x1018: 50,
            # join
            0x1020: 100, 0x1024: 100,
        }
        cfg, freq = analysis_for(self.DIAMOND, samples)
        else_block = cfg.block_at(0x101C)
        head_block = cfg.block_at(0x1004)
        then_block = cfg.block_at(0x100C)
        head_count = freq.block_count(head_block.index)
        then_count = freq.block_count(then_block.index)
        else_count = freq.block_count(else_block.index)
        assert else_count == pytest.approx(head_count - then_count,
                                           rel=0.05)

    def test_propagated_estimates_marked(self):
        samples = {0x1004: 100, 0x1008: 100,
                   0x100C: 50, 0x1010: 50, 0x1014: 50, 0x1018: 50,
                   0x1020: 100, 0x1024: 100}
        cfg, freq = analysis_for(self.DIAMOND, samples)
        else_block = cfg.block_at(0x101C)
        cid = freq.classes.class_of[else_block.index]
        assert freq.class_propagated.get(cid) is True

    def test_propagation_never_negative(self):
        # Inconsistent samples (then-arm appears hotter than head) must
        # clamp the inferred else-arm at zero, not go negative.
        samples = {0x1004: 50, 0x1008: 50,
                   0x100C: 200, 0x1010: 200, 0x1014: 200, 0x1018: 200,
                   0x1020: 50, 0x1024: 50}
        cfg, freq = analysis_for(self.DIAMOND, samples)
        else_block = cfg.block_at(0x101C)
        assert freq.block_count(else_block.index) >= 0.0

    def test_edge_counts_follow_blocks(self):
        samples = {0x1004: 100, 0x1008: 100,
                   0x100C: 50, 0x1010: 50, 0x1014: 50, 0x1018: 50,
                   0x1020: 100, 0x1024: 100}
        cfg, freq = analysis_for(self.DIAMOND, samples)
        then_block = cfg.block_at(0x100C)
        in_edge = then_block.preds[0]
        assert freq.edge_count(in_edge.index) == pytest.approx(
            freq.block_count(then_block.index), rel=0.01)
