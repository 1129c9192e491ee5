"""Crash recovery of the collection pipeline.

The invariant under test (the dcpichaos acceptance criterion): a run
that crashes and recovers produces profile counts equal to the
fault-free run's counts minus *exactly* the accounted losses -- never
a torn record, never a double count, never silent loss.  The
hypothesis property drives a random crash point through a full
profiling session; the directed tests pin down each recovery
mechanism (journal replay, checkpoint watermarks, inflight re-drain,
quarantine) individually.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.faults import audit
from repro.faults.injector import FaultPlan, FaultSpec
from repro.faults.scenarios import _run_session

BUDGET = 16_000
WORKLOAD = "gcc"


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The fault-free twin, run once and audited once."""
    root = str(tmp_path_factory.mktemp("ref") / "db")
    result = _run_session(WORKLOAD, 1, BUDGET, root, None)
    report = audit.sample_conservation(result)
    assert report["ok"]
    return report


def faulted_report(tmp_path, specs):
    root = str(tmp_path / "db")
    plan = FaultPlan(specs=tuple(specs), seed=1)
    result = _run_session(WORKLOAD, 1, BUDGET, root, plan)
    return result, audit.sample_conservation(result)


# -- the property: a crash anywhere conserves samples ----------------------

CRASH_POINTS = ("daemon.drain.cpu", "daemon.drain.merge",
                "daemon.checkpoint", "db.checkpoint", "session.restart")


@settings(max_examples=examples(12), deadline=None)
@given(point=st.sampled_from(CRASH_POINTS), hit=st.integers(1, 4))
def test_random_crash_conserves_samples(reference, tmp_path_factory,
                                        point, hit):
    """Crash at a random pipeline point; recover; nothing unaccounted."""
    tmp = tmp_path_factory.mktemp("crash")
    result, report = faulted_report(
        tmp, [FaultSpec(point, "crash", hits=(hit,))])
    comparison = audit.compare_runs(report, reference)
    assert comparison["ok"], (point, hit, comparison, report)
    if report["recoveries"]:
        assert result.daemon.recoveries >= 1


# -- directed recovery mechanics -------------------------------------------


def test_journal_replay_loses_nothing(reference, tmp_path):
    """Crash after journaling, before the merge ack: WAL replay saves
    every journaled sample -- loss identical to the fault-free run."""
    _, report = faulted_report(
        tmp_path, [FaultSpec("daemon.drain.merge", "crash", hits=(2,))])
    assert report["ok"]
    assert report["recoveries"] == 1
    assert audit.accounted_loss(report) == audit.accounted_loss(reference)
    assert report["db_samples"] == reference["db_samples"]


def test_crash_mid_checkpoint_never_double_counts(reference, tmp_path):
    """Die between writing profile files and the manifest rename: the
    orphaned files must not be adopted on recovery (that would count
    their samples twice once the journal replays)."""
    _, report = faulted_report(
        tmp_path, [FaultSpec("db.checkpoint", "crash", hits=(1,))])
    assert report["ok"]
    assert report["db_samples"] == reference["db_samples"]
    comparison = audit.compare_runs(report, reference)
    assert comparison["ok"], comparison


def test_restart_losses_are_accounted_in_driver(reference, tmp_path):
    """A machine restart wipes driver buffers; the loss lands in the
    per-CPU dropped counters, not in silence."""
    result, report = faulted_report(
        tmp_path, [FaultSpec("session.restart", "crash", hits=(3,))])
    assert report["ok"]
    assert report["dropped"] > reference["dropped"]
    assert audit.compare_runs(report, reference)["ok"]
    assert result.daemon.recoveries == 1


def test_crash_without_database_accounts_memory_as_lost(tmp_path):
    """No durable state: the dead daemon's samples become lost_samples,
    and the pipeline book still balances."""
    result, report = faulted_report(
        tmp_path, [FaultSpec("daemon.drain.cpu", "crash", hits=(4,))])
    # Build the no-db variant explicitly.
    plan = FaultPlan(specs=(
        FaultSpec("daemon.drain.cpu", "crash", hits=(4,)),), seed=1)
    nodb = _run_session(WORKLOAD, 1, BUDGET, None, plan)
    nodb_report = audit.sample_conservation(nodb)
    assert nodb_report["ok"]
    assert nodb_report["lost"] > 0
    # With a database + journal the same crash loses nothing extra.
    assert report["lost"] == 0


def test_crash_during_recovery_recovers_again(reference, tmp_path):
    """A fault that fires again during the recovery catch-up drain
    triggers another recovery round instead of escaping the session."""
    result, report = faulted_report(
        tmp_path, [FaultSpec("daemon.drain.cpu", "crash", hits=(3, 4))])
    assert report["ok"]
    assert result.daemon.recoveries == 2
    assert audit.compare_runs(report, reference)["ok"]


def test_drain_gives_up_after_budgeted_attempts(reference, tmp_path):
    """MAX_DRAIN_RETRIES failed flush attempts shed the backlog --
    not MAX_DRAIN_RETRIES + 1."""
    result, report = faulted_report(
        tmp_path, [FaultSpec("daemon.drain.flush", "transient",
                             hits=(1, 2, 3))])
    assert report["ok"]
    assert result.daemon.drain_failures == 1
    assert result.daemon.drain_retries == 3
    assert audit.compare_runs(report, reference)["ok"]


def test_transient_drain_retries_then_succeeds(reference, tmp_path):
    result, report = faulted_report(
        tmp_path, [FaultSpec("daemon.drain.flush", "transient",
                             hits=(3, 5))])
    assert report["ok"]
    assert result.daemon.drain_retries == 2
    assert result.daemon.drain_failures == 0
    assert report["db_samples"] == reference["db_samples"]


def test_persistent_drain_failure_sheds_backlog(reference, tmp_path):
    result, report = faulted_report(
        tmp_path, [FaultSpec("daemon.drain.flush", "transient",
                             after=2, limit=4)])
    assert report["ok"]
    assert result.daemon.drain_failures >= 1
    assert report["dropped"] > reference["dropped"]
    assert audit.compare_runs(report, reference)["ok"]


def test_recovered_stats_flow_into_obs_metrics(tmp_path):
    """Loss accounting must survive into the typed metric snapshot."""
    from repro.obs.schema import derive

    result, report = faulted_report(
        tmp_path, [FaultSpec("daemon.drain.cpu", "crash", hits=(2,))])
    assert report["ok"]
    flat = derive(result.metrics())
    assert flat["daemon.recoveries"] == result.daemon.recoveries
    assert flat["collect.recoveries"] == result.daemon.recoveries
    assert (flat["collect.samples_dropped"]
            == report["dropped"] + report["lost"])
    expected_rate = ((report["dropped"] + report["lost"])
                     / report["driver_samples"])
    assert flat["collect.loss_rate"] == pytest.approx(expected_rate)
    assert flat["daemon.lost_samples"] == report["lost"]


def test_analysis_flags_low_confidence_on_loss(tmp_path):
    """Graceful degradation: lossy collection yields warnings and a
    low-confidence flag, not an exception."""
    from repro.core.analyze import AnalysisConfig, analyze_image
    from repro.cpu.events import EventType

    result, report = faulted_report(
        tmp_path, [FaultSpec("session.restart", "crash", hits=(3,))])
    loss_rate = (audit.accounted_loss(report)
                 / report["driver_samples"])
    assert loss_rate > 0.02
    profile = max(result.daemon.profiles.values(),
                  key=lambda p: p.total(EventType.CYCLES))
    analyses = analyze_image(profile.image, profile,
                             config=AnalysisConfig(),
                             loss_rate=loss_rate)
    assert analyses
    for analysis in analyses.values():
        assert analysis.low_confidence
        assert any("lost" in w for w in analysis.warnings)
    clean = analyze_image(profile.image, profile,
                          config=AnalysisConfig(), loss_rate=0.0)
    assert not any(a.low_confidence for a in clean.values())
