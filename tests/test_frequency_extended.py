"""Extended tests for the frequency heuristic's corners."""

import pytest

from repro.alpha.assembler import assemble
from repro.core.cfg import build_cfg
from repro.core.frequency import (CLUSTER_RATIO, MIN_CLASS_SAMPLES,
                                  _cluster_estimate, _issue_point_ratios,
                                  estimate_frequencies)
from repro.core.schedule import schedule_cfg

CHAIN = """
.image f
.proc main
    lda t0, 100(zero)
top:
    ldq t1, 0(sp)
    addq t1, 1, t2
    subq t0, 1, t0
    bgt t0, top
    ret
.end
"""


def cfg_sched(text):
    image = assemble(text, base=0x1000)
    cfg = build_cfg(image.procedure("main"))
    return cfg, schedule_cfg(cfg)


class TestDependenceChainRefinement:
    def test_consumer_ratio_sums_over_chain(self):
        cfg, schedules = cfg_sched(CHAIN)
        loop = cfg.block_at(0x1004)
        # ldq at 0x1004 (M=1); addq at 0x1008 depends on it (M=2).
        # Suppose the ldq's dynamic stall shifted samples onto it: the
        # chain ratio for addq must pool (S_ldq + S_addq)/(M_ldq+M_addq).
        samples = {0x1004: 90, 0x1008: 60, 0x100C: 50, 0x1010: 50}
        ratios = _issue_point_ratios(loop, schedules[loop.index], samples)
        values = sorted(r for r, _ in ratios)
        assert pytest.approx((90 + 60) / 3.0, rel=0.01) in values

    def test_chain_start_outside_block_uses_plain_ratio(self):
        cfg, schedules = cfg_sched(CHAIN)
        loop = cfg.block_at(0x1004)
        rows = schedules[loop.index].rows
        first = rows[0]
        assert first.dep_source is None  # producer is outside the block


class TestConfigKnobs:
    """The heuristic's fixed thresholds, at their boundaries."""

    def test_min_class_samples_forces_fallback(self):
        cfg, schedules = cfg_sched(CHAIN)
        loop = cfg.block_at(0x1004)
        # Samples in proportion to M along the ldq -> addq chain: every
        # issue point reads the same ratio, so only the class's sample
        # total decides between the cluster and the fallback.
        shape = {0x1004: 1, 0x1008: 2, 0x1010: 1}

        def confidence(scale):
            samples = {addr: n * scale for addr, n in shape.items()}
            freq = estimate_frequencies(cfg, schedules, samples, 100.0)
            return freq.block_confidence(loop.index)

        enough = -(-MIN_CLASS_SAMPLES // sum(shape.values()))
        assert confidence(enough) == "medium"
        assert confidence(enough - 1) == "low"

    def test_cluster_ratio_widens_cluster(self):
        # A ratio up to CLUSTER_RATIO times the smallest joins its
        # cluster; one beyond it does not.
        inside = [(1.0, 10), (CLUSTER_RATIO * 0.99, 10)]
        outside = [(1.0, 10), (CLUSTER_RATIO * 1.01, 10)]
        assert _cluster_estimate(inside)[1] == 2
        assert _cluster_estimate(outside)[1] == 1

    def test_propagation_degrades_confidence(self):
        text = """
.image f
.proc main
    lda t0, 100(zero)
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
.end
"""
        cfg, schedules = cfg_sched(text)
        samples = {0x1004: 300, 0x1008: 300,
                   0x100C: 150, 0x1010: 151, 0x1014: 150, 0x1018: 150,
                   0x1020: 300, 0x1024: 300}
        freq = estimate_frequencies(cfg, schedules, samples, 100.0)
        else_block = cfg.block_at(0x101C)
        then_block = cfg.block_at(0x100C)
        rank = {"low": 0, "medium": 1, "high": 2}
        assert (rank[freq.block_confidence(else_block.index)]
                < rank[freq.block_confidence(then_block.index)] + 1)
        cid = freq.classes.class_of[else_block.index]
        assert freq.class_propagated[cid] is True

    def test_unknown_class_count_is_zero(self):
        cfg, schedules = cfg_sched(CHAIN)
        freq = estimate_frequencies(cfg, schedules, {}, 100.0)
        assert freq.block_count(cfg.block_at(0x1004).index) == 0.0
