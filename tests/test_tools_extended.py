"""Tests for dcpix, dcpicfg and per-process profiles."""

import pytest

from conftest import make_copy_workload
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.tools.dcpicfg import dcpicfg
from repro.tools.dcpix import dcpix, pixie_counts


@pytest.fixture(scope="module")
def copy_result():
    session = ProfileSession(
        MachineConfig(),
        SessionConfig(cycles_period=(120, 128), event_period=64, seed=3))
    return session.run(make_copy_workload(n=6000))


class TestDcpix:
    def test_block_counts_close_to_truth(self, copy_result):
        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        counts = pixie_counts(image, profile)
        machine = copy_result.machine
        # The loop block dominates; its estimate must be near truth.
        hot_start, (n_insts, estimate) = max(
            counts.items(), key=lambda kv: kv[1][1])
        true = machine.gt_count[hot_start]
        assert abs(estimate - true) / true < 0.35

    def test_render_format(self, copy_result):
        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        text = dcpix(image, profile)
        assert "# dcpix" in text
        data_lines = [line for line in text.splitlines()
                      if not line.startswith("#")]
        assert data_lines
        for line in data_lines:
            addr, n, count = line.split()
            assert int(n) > 0 and int(count) >= 0

    def test_comparable_with_pixie_baseline(self):
        """dcpix's estimated counts vs the pixie baseline's exact ones:
        the paper's sampled-vs-instrumented comparison in one test."""
        from repro.baselines import PixieProfiler
        from repro.workloads import mccalpin

        workload = mccalpin.build("assign", n=4096, iterations=2)
        exact = PixieProfiler(MachineConfig()).profile(workload)
        exact_counts = exact.data["block_counts"]

        session = ProfileSession(
            MachineConfig(),
            SessionConfig(cycles_period=(60, 64), event_period=64))
        result = session.run(mccalpin.build("assign", n=4096,
                                            iterations=2))
        image = result.daemon.images["mccalpin"]
        estimated = pixie_counts(image, result.profile_for("mccalpin"))

        # Compare the dominant block (addresses differ: the pixie image
        # is rewritten; match by maximum count).
        exact_hot = max(exact_counts.values())
        est_hot = max(count for _, count in estimated.values())
        assert abs(est_hot - exact_hot) / exact_hot < 0.35


class TestDcpicfg:
    def test_dot_structure(self, copy_result):
        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        dot = dcpicfg(image, "copy", profile)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "b0" in dot
        assert "->" in dot
        assert "exit" in dot
        assert "count=" in dot and "cpi=" in dot

    def test_edge_annotations(self, copy_result):
        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        dot = dcpicfg(image, "copy", profile)
        # The loop back-edge count appears as a label.
        assert 'label="' in dot


class TestPerProcessProfiles:
    def test_per_pid_profiles_split_the_merged_one(self):
        from repro.workloads import gcc

        workload = gcc.build(files=4, scale=10)
        session = ProfileSession(
            MachineConfig(),
            SessionConfig(cycles_period=(120, 128), event_period=64,
                          per_process_images=("cc1",)))
        result = session.run(workload, max_instructions=60_000)
        merged = result.profile_for("cc1")
        pids = {p.pid for p in result.machine.processes}
        per_pid = [result.daemon.process_profiles.get((pid, "cc1"))
                   for pid in pids]
        per_pid = [p for p in per_pid if p is not None]
        assert len(per_pid) >= 2
        assert (sum(p.total(EventType.CYCLES) for p in per_pid)
                == merged.total(EventType.CYCLES))

    def test_not_collected_unless_requested(self, copy_result):
        assert copy_result.daemon.process_profiles == {}


class TestDcpilist:
    def test_annotated_listing(self, copy_result):
        from repro.tools.dcpilist import dcpilist, line_samples

        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        by_line = line_samples(image, profile)
        assert by_line
        text = dcpilist(image, profile)
        assert "annotated source" in text
        # Every source line appears; hot lines carry counts.
        assert len(text.splitlines()) == len(image.source.splitlines()) + 1
        assert "stq" in text
        hot_line = max(by_line, key=by_line.get)
        hot_text = image.source.splitlines()[hot_line - 1].strip()
        assert hot_text in text

    def test_sourceless_image_rejected(self, copy_result):
        from repro.tools.dcpilist import dcpilist

        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        source, image.source = image.source, None
        try:
            with pytest.raises(ValueError):
                dcpilist(image, profile)
        finally:
            image.source = source
