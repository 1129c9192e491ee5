"""Tests for the dcpi* analysis tools."""

import pytest

from conftest import make_copy_workload
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.tools.dcpicalc import dcpicalc
from repro.tools.dcpidiff import dcpidiff, diff_rows
from repro.tools.dcpiprof import dcpiprof, procedure_table
from repro.tools.dcpistats import dcpistats, stats_rows
from repro.tools.dcpitopstalls import dcpitopstalls


@pytest.fixture(scope="module")
def copy_result():
    session = ProfileSession(
        MachineConfig(),
        SessionConfig(cycles_period=(120, 128), event_period=64, seed=3))
    return session.run(make_copy_workload(n=6000))


class TestDcpiprof:
    def test_table_rows(self, copy_result):
        rows, total, _ = procedure_table(copy_result.profiles.values())
        assert rows[0]["procedure"] == "copy"
        assert total > 0

    def test_render(self, copy_result):
        text = dcpiprof(copy_result.profiles.values())
        assert "Total samples for event type cycles" in text
        assert "copy" in text
        assert "copy.prog" in text

    def test_limit(self, copy_result):
        text = dcpiprof(copy_result.profiles.values(), limit=0)
        assert "copy.prog" not in text.splitlines()[-1]

    def test_multi_image_listing(self):
        from repro.workloads import x11perf

        session = ProfileSession(
            MachineConfig(),
            SessionConfig(cycles_period=(200, 256), event_period=64))
        result = session.run(x11perf.build(scale=4, rounds=4),
                             max_instructions=120_000)
        rows, _, _ = procedure_table(result.profiles.values())
        images = {row["image"] for row in rows}
        assert len(images) >= 3  # app, libraries, kernel all present


class TestDcpicalc:
    def test_listing_structure(self, copy_result):
        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        text = dcpicalc(image, "copy", profile)
        assert "Best-case" in text
        assert "Actual" in text
        assert "(dual issue)" in text
        assert "ldq" in text and "stq" in text

    def test_bubbles_name_culprits(self, copy_result):
        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        text = dcpicalc(image, "copy", profile)
        assert "write-buffer overflow" in text
        assert "D-cache miss" in text


class TestDcpistats:
    def make_runs(self, n=3):
        runs = []
        for seed in range(1, n + 1):
            session = ProfileSession(
                MachineConfig(),
                SessionConfig(cycles_period=(200, 256), event_period=64,
                              seed=seed))
            result = session.run(make_copy_workload(n=3000))
            runs.append(list(result.profiles.values()))
        return runs

    def test_rows(self):
        runs = self.make_runs()
        rows = stats_rows(runs)
        assert rows
        row = rows[0]
        assert row["procedure"] == "copy"
        assert len(row["counts"]) == 3
        assert row["range_pct"] >= 0

    def test_render(self):
        runs = self.make_runs()
        text = dcpistats(runs)
        assert "range%" in text
        assert "copy" in text
        assert "TOTAL" in text


class TestDcpidiff:
    def test_identical_profiles_diff_to_zero_share(self, copy_result):
        profiles = list(copy_result.profiles.values())
        rows = diff_rows(profiles, profiles)
        assert all(abs(r["share_delta"]) < 1e-12 for r in rows)

    def test_render(self, copy_result):
        profiles = list(copy_result.profiles.values())
        text = dcpidiff(profiles, profiles)
        assert "procedure" in text


class TestDcpitopstalls:
    def test_whole_image_summary(self, copy_result):
        image = copy_result.daemon.images["copy.prog"]
        profile = copy_result.profile_for("copy.prog")
        text = dcpitopstalls(image, profile)
        assert "Cycle accounting" in text
        assert "dcache" in text
        assert "execution" in text

