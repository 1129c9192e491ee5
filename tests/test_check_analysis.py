"""Layer-2 (analysis invariant) checker tests.

A clean profiled session must verify with zero findings; directed
perturbations of the ground truth, the schedules, the culprit map and
the estimates must each produce their expected finding.
"""

import pytest
from conftest import make_copy_workload

from repro.check.analysis_checks import (check_culprit_coverage,
                                         check_equivalence_truth,
                                         check_estimate_flow,
                                         check_flow_conservation,
                                         check_merge_determinism,
                                         check_schedule_invariants,
                                         split_profiles, verify_procedure)
from repro.collect.session import ProfileSession, SessionConfig
from repro.core.analyze import AnalysisConfig, analyze_image
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType


@pytest.fixture
def profiled():
    """One profiled copy-loop session plus its per-procedure analyses."""
    # A short CYCLES period gives every block enough samples that
    # the perturbation tests have real estimates to tamper with.
    session = ProfileSession(
        MachineConfig(),
        SessionConfig(mode="cycles", seed=1, cycles_period=(120, 136)))
    result = session.run(make_copy_workload(800),
                         max_instructions=30_000)
    analyses = []
    for profile in result.profiles.values():
        analyses.extend(analyze_image(profile.image, profile).values())
    assert analyses, "the session produced no analyzable procedures"
    return result, analyses


def _rules(findings):
    return sorted({f.rule for f in findings})


class TestCleanSession:
    def test_all_invariants_hold(self, profiled):
        result, analyses = profiled
        for analysis in analyses:
            assert verify_procedure(analysis) == []
            assert check_flow_conservation(result.machine,
                                           analysis.cfg) == []
            assert check_equivalence_truth(
                result.machine, analysis.cfg,
                analysis.freq.classes) == []

    def test_analyze_hook_collects_no_findings(self):
        session = ProfileSession(MachineConfig(),
                                 SessionConfig(mode="cycles", seed=1))
        result = session.run(make_copy_workload(400),
                             max_instructions=15_000)
        config = AnalysisConfig(verify_invariants=True)
        for profile in result.profiles.values():
            for analysis in analyze_image(profile.image, profile,
                                          config).values():
                assert analysis.check_findings == []


class TestSchedulePerturbation:
    def test_zero_m_on_issue_point(self, profiled):
        _, analyses = profiled
        analysis = analyses[0]
        row = next(row for block in analysis.cfg.blocks
                   for row in analysis.schedules[block.index].rows
                   if not row.paired)
        row.m = 0
        findings = check_schedule_invariants(analysis.cfg,
                                             analysis.schedules)
        assert "analysis/schedule-m" in _rules(findings)

    def test_bogus_pairing_of_block_leader(self, profiled):
        _, analyses = profiled
        analysis = analyses[0]
        block = analysis.cfg.blocks[0]
        rows = analysis.schedules[block.index].rows
        rows[0].paired = True
        rows[0].m = 0
        findings = check_schedule_invariants(analysis.cfg,
                                             analysis.schedules)
        assert "analysis/schedule-pairing" in _rules(findings)


class _StubEdge:
    def __init__(self, index, kind):
        self.index = index
        self.kind = kind


class _StubBlock:
    def __init__(self, index, start, preds, succs):
        self.index = index
        self.start = start
        self.preds = preds
        self.succs = succs


class _StubCfg:
    """Entry -> loop (self edge) -> exit: the smallest loop CFG."""

    class _Image:
        name = "stub"
        base = 0

    class _Proc:
        name = "stub"

    def __init__(self):
        self.proc = self._Proc()
        self.proc.image = self._Image()
        self.missing_edges = False
        entry_edge = _StubEdge(0, "fall")
        back_edge = _StubEdge(1, "taken")
        exit_edge = _StubEdge(2, "exit")
        self.blocks = [
            _StubBlock(0, 0, [], [entry_edge]),
            _StubBlock(1, 8, [entry_edge, back_edge],
                       [back_edge, exit_edge]),
        ]


class _StubFreq:
    def __init__(self, blocks, edges, confidence):
        self.blocks = blocks
        self.edges = edges
        self.confidence = confidence

    def block_count(self, index):
        return self.blocks.get(index, 0.0)

    def edge_count(self, index):
        return self.edges.get(index, 0.0)

    def block_confidence(self, index):
        return self.confidence.get(index, "low")


class TestFlowPerturbation:
    def test_ground_truth_imbalance_is_detected(self, profiled):
        result, analyses = profiled
        analysis = analyses[0]
        block = next(b for b in analysis.cfg.blocks
                     if b.index != 0 and b.preds)
        result.machine.gt_count[block.start] = (
            result.machine.gt_count.get(block.start, 0) + 10_000)
        findings = check_flow_conservation(result.machine, analysis.cfg)
        assert "analysis/flow-conservation" in _rules(findings)

    def test_unequal_class_members_are_detected(self, profiled):
        result, analyses = profiled
        analysis = analyses[0]
        classes = analysis.freq.classes
        members = next(m for m in classes.members.values()
                       if len([x for x in m
                               if not isinstance(x, tuple)]) >= 1)
        block_index = next(x for x in members
                           if not isinstance(x, tuple))
        block = analysis.cfg.blocks[block_index]
        result.machine.gt_count[block.start] = (
            result.machine.gt_count.get(block.start, 0) + 10_000)
        findings = check_equivalence_truth(result.machine, analysis.cfg,
                                           classes)
        assert "analysis/equivalence-violated" in _rules(findings)

    def test_perturbed_estimates_leave_a_flow_residual(self):
        # Two-block loop with consistent estimates, then the block
        # count is inflated 10x: both checks see the same structure,
        # only the perturbed one reports a residual.
        cfg = _StubCfg()
        freq = _StubFreq(
            blocks={0: 1.0, 1: 200.0},
            edges={0: 1.0, 1: 199.0},
            confidence={0: "low", 1: "high"})
        assert check_estimate_flow(cfg, freq) == []
        freq.blocks[1] *= 10.0
        findings = check_estimate_flow(cfg, freq)
        assert "analysis/flow-residual" in _rules(findings)

    def test_low_confidence_estimates_are_not_judged(self):
        # Residuals on low-confidence blocks measure sampling noise,
        # not a propagation defect; the checker must skip them.
        cfg = _StubCfg()
        freq = _StubFreq(
            blocks={0: 1.0, 1: 2000.0},
            edges={0: 1.0, 1: 199.0},
            confidence={0: "low", 1: "low"})
        assert check_estimate_flow(cfg, freq) == []


class TestCulpritPerturbation:
    def test_dropped_culprits_become_unexplained_stalls(self, profiled):
        _, analyses = profiled
        analysis = analyses[0]
        samples = analysis.profile.samples_for(analysis.proc,
                                               EventType.CYCLES)
        assert samples, "no samples landed in the procedure"
        # With every culprit discarded and block counts far below the
        # samples, each sampled instruction stalls far above the
        # analysis threshold, and each is an unexplained stall.
        starved = _StubFreq(
            blocks={block.index: 1e-3 for block in analysis.cfg.blocks},
            edges={}, confidence={})
        findings = check_culprit_coverage(
            analysis.cfg, analysis.schedules, starved, samples, {},
            analysis.period)
        assert _rules(findings) == ["analysis/unexplained-stall"]
        assert len(findings) == sum(1 for n in samples.values() if n)


class TestMergeDeterminism:
    PROFILES = {"img": {EventType.CYCLES: {0: 10, 8: 6, 16: 3, 24: 9}}}
    PERIODS = {EventType.CYCLES: 2.0}

    def test_real_export_merges_deterministically(self, profiled):
        result, _ = profiled
        export = result.export_mergeable()
        assert check_merge_determinism(export["profiles"],
                                       export["periods"]) == []

    def test_split_conserves_counts(self):
        shards = split_profiles(self.PROFILES, ways=3)
        total = {}
        for shard in shards:
            for offset, count in shard.get("img", {}).get(
                    EventType.CYCLES, {}).items():
                total[offset] = total.get(offset, 0) + count
        assert total == self.PROFILES["img"][EventType.CYCLES]

    def test_order_dependent_merge_is_caught(self, monkeypatch):
        from repro.collect import parallel

        real_merge = parallel.merge_profiles

        def biased_merge(rows):
            # Deliberately order-dependent: drops the last row.
            rows = list(rows)
            return real_merge(rows[:-1] if len(rows) > 1 else rows)

        monkeypatch.setattr(parallel, "merge_profiles", biased_merge)
        findings = check_merge_determinism(self.PROFILES, self.PERIODS,
                                           label="biased")
        assert "analysis/merge-nondeterminism" in _rules(findings)
