"""Tests for the ``dcpimon`` self-monitoring tool."""

import itertools
import json
import types

import pytest

from repro.tools import dcpimon
from repro.tools.cli import main_dcpimon

QUICK = ["--workload", "mccalpin-assign", "--shards", "2",
         "--workers", "1", "--max-instructions", "8000"]


@pytest.fixture(scope="module")
def report_run(tmp_path_factory):
    """One live report run shared by the tests (they only read)."""
    trace = str(tmp_path_factory.mktemp("mon") / "trace.jsonl")
    argv = ["report", *QUICK, "--trace", trace]
    args = dcpimon._build_parser().parse_args(argv)
    return dcpimon.run_report(args), trace


class TestReport:
    def test_report_sections(self, report_run):
        text, _ = report_run
        for heading in ("Collection", "Per-CPU", "Daemon", "Shards",
                        "Analysis phases"):
            assert heading in text
        assert "samples/sec" in text
        assert "hash-table miss rate" in text
        assert "merge cost" in text

    def test_phase_breakdown_names_analysis_passes(self, report_run):
        text, _ = report_run
        for phase in ("analyze.cfg", "analyze.schedule",
                      "analyze.frequency", "analyze.culprits",
                      "session.execute"):
            assert phase in text

    def test_trace_is_valid_chrome_jsonl(self, report_run):
        _, trace = report_run
        events = [json.loads(line)
                  for line in open(trace) if line.strip()]
        phases = {event["ph"] for event in events}
        assert "X" in phases and "M" in phases and "C" in phases
        # Shard events were re-stamped onto their own pids.
        assert {e["pid"] for e in events if e["ph"] == "X"} >= {0, 1, 2}

    def test_post_hoc_report_matches_live(self, report_run):
        text, trace = report_run
        rebuilt = dcpimon.report_from_trace(trace)
        for line in ("hash-table miss rate", "samples/sec"):
            live = next(ln for ln in text.splitlines() if line in ln)
            post = next(ln for ln in rebuilt.splitlines() if line in ln)
            assert live == post
        assert "Shards" in rebuilt and "merge cost" in rebuilt

    def test_live_and_rebuilt_reports_agree_line_for_line(self, report_run):
        """Both paths render the one combined event list, so below the
        title (and above the live run's ``trace:`` footer) every line
        agrees -- the phase table's call counts included, which count
        the shards' session spans as well as the in-process ones."""
        text, trace = report_run
        live = text.split("\ntrace: ")[0].splitlines()
        rebuilt = dcpimon.report_from_trace(trace).splitlines()
        assert live[2:] == rebuilt[2:]
        execute = next(ln for ln in live if "session.execute" in ln)
        assert execute.split()[1] == "3"    # two shards + in-process

    def test_analysis_session_samples_like_the_shards(self, monkeypatch):
        """The in-process session the phase table and the hottest
        procedure come from runs shard 0's config: same periods, seed
        ``--seed``, obs on."""
        import repro.collect.session as session_module

        configs = []

        class Recording(session_module.ProfileSession):
            def __init__(self, machine_config, config):
                configs.append(config)
                super().__init__(machine_config, config)

        monkeypatch.setattr(session_module, "ProfileSession", Recording)
        args = dcpimon._build_parser().parse_args(
            ["report", *QUICK, "--seed", "5"])
        dcpimon.run_report(args)
        (config,) = configs
        assert (config.cycles_period, config.event_period) == ((240, 256),
                                                               64)
        assert config.seed == 5 and config.obs.enabled

    def test_cli_entry_point(self, capsys, tmp_path):
        code = main_dcpimon(["report", *QUICK, "--shards", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dcpimon" in out and "Collection" in out

    def test_from_trace_via_cli(self, capsys, report_run):
        _, trace = report_run
        assert main_dcpimon(["report", "--from-trace", trace]) == 0
        assert "Analysis phases" in capsys.readouterr().out


class TestOverhead:
    def test_measure_overhead_shape(self):
        result = dcpimon.measure_overhead(
            "mccalpin-assign", budget=6000, repeats=1)
        assert result["disabled_s"] > 0
        assert result["enabled_s"] > 0
        assert "overhead_pct" in result

    def test_gate_passes_with_generous_ceiling(self, capsys):
        code = main_dcpimon(["overhead", "--budget", "6000",
                             "--repeats", "1", "--max-pct", "1000"])
        assert code == 0
        assert "overhead" in capsys.readouterr().out

    def test_gate_fails_when_exceeded(self, capsys):
        code = main_dcpimon(["overhead", "--budget", "6000",
                             "--repeats", "1", "--max-pct=-1e9"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_pairs_alternate_and_report_their_median(self, monkeypatch):
        """A scripted clock: run durations in the order the runs are
        made.  Had pair 1 not run the enabled side first it would read
        -23 %, not +30 %."""
        durations = iter([9.0,              # warm-up
                          1.0, 1.1,         # disabled, enabled: +10 %
                          1.3, 1.0,         # enabled, disabled: +30 %
                          1.0, 1.02])       # disabled, enabled:  +2 %
        calls = itertools.count()

        def clock():        # a run starts at 0.0 and ends at its duration
            return next(durations) if next(calls) % 2 else 0.0

        monkeypatch.setattr(dcpimon, "time",
                            types.SimpleNamespace(perf_counter=clock))
        result = dcpimon.measure_overhead(
            "mccalpin-assign", budget=2000, repeats=3)
        assert result["overhead_pct"] == pytest.approx(10.0)
        assert result["spread_pct"] == pytest.approx(28.0)
        assert result["disabled_s"] == pytest.approx(1.0)
        assert result["enabled_s"] == pytest.approx(1.1)

    @pytest.mark.parametrize("spread, code, verdict", [
        (1.5, 1, "FAIL"), (2.5, 0, "unresolved")])
    def test_wide_spread_is_unresolved_not_red(self, monkeypatch, capsys,
                                               spread, code, verdict):
        monkeypatch.setattr(
            dcpimon, "measure_overhead", lambda *args, **kwargs: {
                "workload": "w", "budget": 1, "repeats": 5,
                "disabled_s": 1.0, "enabled_s": 1.05,
                "overhead_pct": 5.0, "spread_pct": spread})
        assert main_dcpimon(["overhead", "--max-pct", "2.0"]) == code
        captured = capsys.readouterr()
        assert verdict in captured.out + captured.err
        if verdict == "unresolved":
            assert "2.50 points apart" in captured.out
