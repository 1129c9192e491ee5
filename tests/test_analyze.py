"""End-to-end tests of the analysis pipeline on simulated profiles."""

import pytest

from repro.core import analyze_procedure
from repro.core.analyze import analyze_image
from repro.cpu.events import EventType


@pytest.fixture(scope="module")
def copy_analysis():
    from conftest import make_copy_workload
    from repro.collect.session import ProfileSession, SessionConfig
    from repro.cpu.config import MachineConfig

    session = ProfileSession(
        MachineConfig(),
        SessionConfig(cycles_period=(120, 128), event_period=64, seed=3))
    result = session.run(make_copy_workload(n=8000))
    image = result.daemon.images["copy.prog"]
    profile = result.profile_for("copy.prog")
    return result, image, analyze_procedure(image, "copy", profile)


class TestCopyLoopAnalysis:
    def test_best_case_cpi_matches_paper(self, copy_analysis):
        _, _, analysis = copy_analysis
        # The paper's Figure 2: best-case 0.62 CPI for this exact loop.
        assert analysis.best_case_cpi == pytest.approx(0.62, abs=0.05)

    def test_actual_cpi_reflects_memory_stalls(self, copy_analysis):
        _, _, analysis = copy_analysis
        assert analysis.actual_cpi > 2 * analysis.best_case_cpi

    def test_frequency_estimate_close_to_truth(self, copy_analysis):
        result, image, analysis = copy_analysis
        true_counts = result.machine.true_counts_for(image)
        loop_rows = [row for row in analysis.instructions
                     if true_counts[row.inst.addr] > 100]
        for row in loop_rows:
            error = abs(row.count - true_counts[row.inst.addr]) \
                / true_counts[row.inst.addr]
            assert error < 0.35, row.inst

    def test_hot_store_has_memory_culprits(self, copy_analysis):
        _, _, analysis = copy_analysis
        stalled = max(analysis.instructions, key=lambda r: r.samples)
        assert stalled.inst.is_store
        reasons = {c.reason for c in stalled.culprits}
        assert "wb" in reasons
        assert "dcache" in reasons

    def test_dcache_culprit_points_to_feeding_load(self, copy_analysis):
        _, _, analysis = copy_analysis
        stalled = max(analysis.instructions, key=lambda r: r.samples)
        dcache = next(c for c in stalled.culprits
                      if c.reason == "dcache")
        producer = analysis.by_addr[dcache.source_addr]
        assert producer.inst.is_load

    def test_dual_issued_instructions_detected(self, copy_analysis):
        _, _, analysis = copy_analysis
        assert any(row.paired for row in analysis.instructions)

    def test_total_cycles_consistent_with_samples(self, copy_analysis):
        _, _, analysis = copy_analysis
        assert analysis.total_cycles == pytest.approx(
            analysis.total_samples * analysis.period)


class TestSummary:
    def test_summary_fractions(self, copy_analysis):
        _, _, analysis = copy_analysis
        summary = analysis.summary()
        # Dynamic stalls dominate this memory-bound loop.
        assert summary.subtotal_dynamic > 0.5
        lo, hi = summary.dynamic["dcache"]
        assert 0.0 <= lo <= hi <= 1.0
        # Static + dynamic + execution + error tally to one.
        total = (summary.subtotal_dynamic + summary.subtotal_static
                 + summary.execution + summary.net_error)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_render_contains_categories(self, copy_analysis):
        _, _, analysis = copy_analysis
        text = analysis.summary().render()
        for needle in ("Best-case", "D-cache miss", "Write buffer",
                       "Subtotal dynamic", "Slotting", "Execution",
                       "Total tallied"):
            assert needle in text


class TestAnalyzeImage:
    def test_orders_by_samples(self, copy_analysis):
        result, image, _ = copy_analysis
        profile = result.profile_for("copy.prog")
        analyses = analyze_image(image, profile)
        assert list(analyses) == ["copy"]

    def test_min_samples_filter(self, copy_analysis):
        result, image, _ = copy_analysis
        profile = result.profile_for("copy.prog")
        total = profile.total(EventType.CYCLES)
        analyses = analyze_image(image, profile, min_samples=total + 1)
        assert analyses == {}
