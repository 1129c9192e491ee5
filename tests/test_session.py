"""End-to-end tests for profiling sessions."""

import pytest

from conftest import make_copy_workload
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.counters import UNBOUNDED
from repro.cpu.events import EventType
from repro.obs import derive


def make_session(**overrides):
    defaults = dict(cycles_period=(120, 128), event_period=64, seed=2)
    defaults.update(overrides)
    return ProfileSession(MachineConfig(), SessionConfig(**defaults))


class TestSessionRun:
    def test_profiles_produced(self):
        result = make_session().run(make_copy_workload(n=2000))
        assert "copy.prog" in result.profiles
        assert result.total_samples(EventType.CYCLES) > 50

    def test_default_mode_collects_imiss(self):
        result = make_session(mode="default").run(
            make_copy_workload(n=2000))
        assert EventType.IMISS in result.driver.event_samples or True
        # IMISS sampling is configured even if this tiny loop misses
        # too rarely to overflow the counter.
        counters = result.machine.cores[0].counters
        assert counters.headroom(EventType.IMISS) != UNBOUNDED

    def test_cycles_mode_has_single_counter(self):
        result = make_session(mode="cycles").run(
            make_copy_workload(n=1000))
        assert len(result.machine.cores[0].counters.slots) == 1

    def test_mux_mode_rotates_events(self):
        result = make_session(mode="mux", drain_interval=5000).run(
            make_copy_workload(n=4000))
        slots = result.machine.cores[0].counters.slots
        assert len(slots) == 2
        # After several drains the mux slot moved off IMISS.
        assert result.daemon.drains > 2

    def test_deterministic_given_seed(self):
        r1 = make_session().run(make_copy_workload(n=1000))
        r2 = make_session().run(make_copy_workload(n=1000))
        assert r1.cycles == r2.cycles
        assert (r1.profile_for("copy.prog").counts
                == r2.profile_for("copy.prog").counts)

    def test_different_seed_changes_timing(self):
        r1 = make_session(seed=1).run(make_copy_workload(n=1000))
        r2 = make_session(seed=9).run(make_copy_workload(n=1000))
        assert r1.cycles != r2.cycles  # page mapping differs

    def test_stats_keys(self):
        result = make_session().run(make_copy_workload(n=1000))
        stats = derive(result.metrics())
        for key in ("session.instructions", "session.cycles",
                    "driver.samples", "driver.hash.miss_rate",
                    "daemon.cost_per_sample", "daemon.resident_bytes"):
            assert key in stats

    def test_max_instructions_respected(self):
        result = make_session().run(make_copy_workload(n=100000),
                                    max_instructions=5000)
        assert result.instructions <= 6000


class TestOverhead:
    def test_profiling_overhead_small_but_positive(self):
        session = make_session(cycles_period=(1920, 2048))
        workload = make_copy_workload(n=20000)
        base = session.run_baseline(workload)
        prof = session.run(workload)
        overhead = (prof.cycles - base.cycles) / base.cycles
        assert 0.0 <= overhead < 0.10

    def test_charge_overhead_false_is_free(self):
        session = make_session(charge_overhead=False)
        workload = make_copy_workload(n=5000)
        base = session.run_baseline(workload)
        prof = session.run(workload)
        assert prof.cycles == base.cycles

    def test_baseline_matches_profiled_instruction_stream(self):
        session = make_session()
        workload = make_copy_workload(n=2000)
        base = session.run_baseline(workload)
        prof = session.run(workload)
        assert base.instructions == prof.instructions


class TestDatabaseIntegration:
    def test_db_written(self, tmp_path):
        session = make_session(db_root=str(tmp_path / "db"))
        result = session.run(make_copy_workload(n=2000))
        assert result.database is not None
        counts, period = result.database.load("copy.prog",
                                              EventType.CYCLES)
        assert sum(counts.values()) == result.profile_for(
            "copy.prog").total(EventType.CYCLES)


class TestBundleRoundtrip:
    def test_save_and_load_bundle(self, tmp_path):
        from repro.collect.bundle import load_bundle, save_bundle

        result = make_session().run(make_copy_workload(n=2000))
        save_bundle(result, str(tmp_path / "bundle"))
        profiles, meta = load_bundle(str(tmp_path / "bundle"))
        assert "copy.prog" in profiles
        original = result.profile_for("copy.prog")
        loaded = profiles["copy.prog"]
        assert (loaded.total(EventType.CYCLES)
                == original.total(EventType.CYCLES))
        assert loaded.periods[EventType.CYCLES] == pytest.approx(124.0)

    @pytest.mark.parametrize("tool, argv", [
        ("dcpiprof", []),
        ("dcpicalc", ["--procedure", "copy"]),
        ("dcpix", ["--image", "copy.prog"]),
        ("dcpicfg", ["--procedure", "copy"]),
        ("dcpistats", []),
    ])
    def test_readers_flag_a_truncated_profile(self, tool, argv, tmp_path,
                                              capsys):
        """A reader of a bundle whose profile file was torn prints the
        bundle's warnings and one low-confidence line to stderr: the
        quarantined samples are loss, as ``dcpichaos`` counts it."""
        import json
        import os

        from repro.collect.bundle import save_bundle
        from repro.tools import cli

        result = make_session().run(make_copy_workload(n=2000))
        clean, torn = str(tmp_path / "clean"), str(tmp_path / "torn")
        for path in (clean, torn):
            save_bundle(result, path)
        with open(os.path.join(torn, "db", "MANIFEST.json")) as handle:
            records = json.load(handle)["records"]
        segment = os.path.join(torn, "db",
                               next(iter(records.values()))["file"])
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) // 2)

        run = getattr(cli, "main_" + tool)
        outputs = []
        for path in (clean, torn):
            capsys.readouterr()
            code = run([path, *argv])
            outputs.append((code, *capsys.readouterr()))
        (_, clean_out, clean_err), (_, torn_out, torn_err) = outputs
        assert clean_err == ""
        assert "%s: warning: quarantined" % torn in torn_err
        assert ("%s: low confidence: collection lost 100.00%%" % torn
                in torn_err)
        assert "low confidence" not in torn_out
        assert "warning" not in torn_out
