"""The fleet subsystem: store merge identity, retention accounting,
transport faults, epoch queries, and the dcpifleet CLI."""

import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.check.analysis_checks import check_fleet_conservation
from repro.faults import (DELAY, DROP, DUPLICATE, FLEET_SHIP, FaultPlan,
                          FaultSpec)
from repro.fleet import (Delta, DeltaTransport, FleetConfig, FleetMachine,
                         FleetSession, FleetStore, IngestRetry,
                         RetentionPolicy, compact, compactable_windows,
                         downsample, parse_epochs)
from repro.fleet.cli import main as fleet_main
from repro.fleet.query import FleetQuery

# One small fleet simulated once per module; property tests re-ingest
# its deltas into fresh stores, which is cheap.
MACHINES = 2
EPOCHS = 3
BUDGET = 8_000


@pytest.fixture(scope="module")
def fleet_deltas():
    config = FleetConfig(machines=MACHINES, epochs=EPOCHS, seed=11)
    machines = [
        FleetMachine("m%02d" % i, config.machine_workload(i),
                     config.machine_seed(i))
        for i in range(MACHINES)
    ]
    deltas = []
    for _ in range(EPOCHS):
        for machine in machines:
            deltas.append(machine.run_epoch(BUDGET))
    shipped = sum(machine.shipped_samples for machine in machines)
    assert shipped > 0
    return deltas, shipped


def _fill(root, deltas):
    store = FleetStore(root)
    for delta in deltas:
        store.ingest(delta)
    return store


def _store_bytes(store):
    """The byte-identity oracle: canonical encoding of the merge."""
    return store.merged().encode_all()


# -- order independence (the PR 1 invariant, fleet-scale) ------------------


@settings(max_examples=examples(12), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_store_bytes_identical_under_reordering(fleet_deltas, tmp_path_factory,
                                                data):
    """Any permutation of delta arrivals produces the same store bytes."""
    deltas, _ = fleet_deltas
    order = data.draw(st.permutations(list(range(len(deltas)))))
    base = _fill(str(tmp_path_factory.mktemp("ordered")), deltas)
    shuffled = _fill(str(tmp_path_factory.mktemp("shuffled")),
                     [deltas[i] for i in order])
    assert _store_bytes(base) == _store_bytes(shuffled)


@settings(max_examples=examples(12), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_store_bytes_identical_under_duplication(fleet_deltas,
                                                 tmp_path_factory, data):
    """Replaying any subset of deltas (in any order) changes nothing:
    the (machine, epoch, batch) dedupe makes delivery idempotent."""
    deltas, shipped = fleet_deltas
    dupes = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(deltas) - 1), max_size=6))
    order = data.draw(st.permutations(
        list(range(len(deltas))) + dupes))
    base = _fill(str(tmp_path_factory.mktemp("clean")), deltas)
    noisy = _fill(str(tmp_path_factory.mktemp("noisy")),
                  [deltas[i] for i in order])
    assert _store_bytes(base) == _store_bytes(noisy)
    assert noisy.ledger["duplicates_dropped"] == len(dupes)
    assert noisy.total_samples() == shipped


def test_dedupe_survives_store_reopen(fleet_deltas, tmp_path):
    """The applied-delta ledger is committed atomically with the
    samples, so a replay after restart is still recognized."""
    deltas, shipped = fleet_deltas
    root = str(tmp_path / "store")
    _fill(root, deltas)
    reopened = FleetStore(root)
    assert reopened.ingest(deltas[0]) is False
    assert reopened.ledger["duplicates_dropped"] == 1
    assert reopened.total_samples() == shipped


# -- Layer 2 conservation invariant ----------------------------------------


def test_clean_fleet_conserves_exactly(fleet_deltas, tmp_path):
    """Clean runs: fleet-merged counts == sum of per-machine counts."""
    deltas, shipped = fleet_deltas
    store = _fill(str(tmp_path / "store"), deltas)
    assert store.total_samples() == shipped
    assert check_fleet_conservation(shipped=shipped,
                                    stored=store.total_samples()) == []


def test_conservation_check_flags_imbalance():
    lost = check_fleet_conservation(shipped=100, stored=90)
    assert len(lost) == 1
    assert lost[0].rule == "analysis/fleet-conservation"
    assert lost[0].severity == "error"
    assert "lost" in lost[0].message
    doubled = check_fleet_conservation(shipped=100, stored=120)
    assert "double" in doubled[0].message
    balanced = check_fleet_conservation(
        shipped=100, stored=80, transit_lost=12, residue=5, quarantined=3)
    assert balanced == []


def test_fleet_session_end_to_end_clean(tmp_path):
    config = FleetConfig(machines=2, epochs=2, seed=5,
                         epoch_instructions=BUDGET)
    result = FleetSession(config).run(FleetStore(str(tmp_path / "s")))
    report = result.report()
    assert report["ok"], report["findings"]
    assert report["store"]["stored_samples"] == report["shipped_samples"]
    assert report["transport"]["lost_samples"] == 0


def test_fleet_session_conserves_under_transport_faults(tmp_path):
    """Drops, duplicates and delays on the fleet hop: everything is
    either stored, or accounted as transit loss -- never silent."""
    plan = FaultPlan(specs=(
        FaultSpec(point=FLEET_SHIP, action=DROP, hits=(2,)),
        FaultSpec(point=FLEET_SHIP, action=DUPLICATE, hits=(3, 6)),
        FaultSpec(point=FLEET_SHIP, action=DELAY, hits=(5, 8)),
    ), seed=3)
    config = FleetConfig(machines=2, epochs=4, seed=5,
                         epoch_instructions=BUDGET, faults=plan)
    result = FleetSession(config).run(FleetStore(str(tmp_path / "s")))
    report = result.report()
    assert report["ok"], report["findings"]
    assert report["transport"]["lost_deltas"] == 1
    assert report["transport"]["lost_samples"] > 0
    assert report["store"]["duplicates_dropped"] == 2
    assert (report["store"]["stored_samples"]
            + report["transport"]["lost_samples"]
            == report["shipped_samples"])


# -- transport accounting ---------------------------------------------------


def _tiny_delta(batch, samples=10):
    return Delta(machine_id="m00", epoch=0, batch=batch, generation=1,
                 workload="w", seed=1,
                 profiles={"img": {"cycles": {0: samples}}},
                 periods={"cycles": 4.0})


def test_transport_fault_accounting():
    plan = FaultPlan(specs=(
        FaultSpec(point=FLEET_SHIP, action=DROP, hits=(1,)),
        FaultSpec(point=FLEET_SHIP, action=DELAY, hits=(2,)),
        FaultSpec(point=FLEET_SHIP, action=DUPLICATE, hits=(3,)),
    ), seed=1)
    transport = DeltaTransport(faults=plan.build())
    assert transport.ship(_tiny_delta(1)) == []          # dropped
    assert transport.ship(_tiny_delta(2)) == []          # held back
    third = _tiny_delta(3)
    deliveries = transport.ship(third)
    # The delayed delta arrives first, then the duplicate pair.
    assert [d.batch for d in deliveries] == [2, 3, 3]
    assert transport.flush() == []
    stats = transport.stats
    assert stats.shipped == 3
    assert stats.delivered == 3
    assert stats.lost_deltas == 1 and stats.lost_samples == 10
    assert stats.duplicated == 1 and stats.delayed == 1


def test_transport_flush_delivers_trailing_delayed():
    plan = FaultPlan(specs=(
        FaultSpec(point=FLEET_SHIP, action=DELAY, hits=(1,)),), seed=1)
    transport = DeltaTransport(faults=plan.build())
    assert transport.ship(_tiny_delta(1)) == []
    flushed = transport.flush()
    assert [d.batch for d in flushed] == [1]
    assert transport.stats.delivered == 1
    assert transport.stats.lost_samples == 0


# -- single-writer ingest lock ----------------------------------------------


def _fcntl_available():
    try:
        import fcntl  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.mark.skipif(not _fcntl_available(),
                    reason="advisory locking needs fcntl (POSIX)")
def test_concurrent_ingest_times_out_loudly(tmp_path):
    """A contended writer retries with backoff, then fails loudly.

    flock conflicts are per open file description, so two store
    handles in one process exercise the same path as two processes.
    The loser's backoff sleeps are captured (not slept) so the test
    asserts the seeded schedule was actually consumed.
    """
    from repro.fleet import FleetStoreBusyError, IngestRetry

    root = str(tmp_path / "store")
    retry = IngestRetry(attempts=3, base_ms=2.0, cap_ms=8.0, seed=7)
    first = FleetStore(root, retry=retry)
    second = FleetStore(root, retry=retry)
    slept = []
    second.shards[0]._sleep = slept.append
    with first.shards[0]._ingest_lock():
        with pytest.raises(FleetStoreBusyError, match="single-writer"):
            second.ingest(_tiny_delta(1))
    # Every backoff step in the seeded schedule was consumed.
    assert slept == [ms / 1000.0 for ms in retry.backoff_schedule()]
    # The loser applied nothing: the delta is still ingestable.
    assert second.ingest(_tiny_delta(1)) is True


@pytest.mark.skipif(not _fcntl_available(),
                    reason="advisory locking needs fcntl (POSIX)")
def test_contended_ingest_succeeds_within_backoff_budget(tmp_path):
    """A writer that finds the lock freed mid-backoff ingests fine."""
    root = str(tmp_path / "store")
    retry = IngestRetry(attempts=4, base_ms=1.0, cap_ms=4.0, seed=3)
    first = FleetStore(root, retry=retry)
    second = FleetStore(root, retry=retry)
    lock = first.shards[0]._ingest_lock()
    lock.__enter__()
    releases = iter([False, True])

    def sleep_then_release(_seconds):
        if next(releases, False):
            lock.__exit__(None, None, None)

    second.shards[0]._sleep = sleep_then_release
    assert second.ingest(_tiny_delta(1)) is True
    assert second.ledger["lock_retries"] == 2
    assert second.stats()["lock_retries"] == 2


@pytest.mark.skipif(not _fcntl_available(),
                    reason="advisory locking needs fcntl (POSIX)")
def test_ingest_lock_is_released_after_each_ingest(tmp_path):
    """Sequential ingests through distinct handles all succeed."""
    root = str(tmp_path / "store")
    first = FleetStore(root)
    assert first.ingest(_tiny_delta(1)) is True
    second = FleetStore(root)
    assert second.ingest(_tiny_delta(2)) is True
    # ... including when an earlier ingest was a rejected duplicate.
    third = FleetStore(root)
    assert third.ingest(_tiny_delta(2)) is False
    assert third.ingest(_tiny_delta(3)) is True


# -- retention --------------------------------------------------------------


def test_downsample_accounting_identity():
    counts = {0: 9, 4: 1, 8: 16, 12: 3}
    kept, residue = downsample(counts, 4)
    # Quotients keep original sample units; sub-quotient entries drop.
    assert kept == {0: 8, 8: 16}
    assert residue == sum(counts.values()) - sum(kept.values())
    assert downsample(counts, 1) == (counts, 0)


@given(counts=st.dictionaries(
    st.integers(min_value=0, max_value=4096),
    st.integers(min_value=1, max_value=500), max_size=40),
    divisor=st.integers(min_value=1, max_value=16))
def test_downsample_never_loses_silently(counts, divisor):
    kept, residue = downsample(counts, divisor)
    assert sum(kept.values()) + residue == sum(counts.values())
    assert all(value > 0 for value in kept.values())


def test_compactable_windows_respect_horizon():
    policy = RetentionPolicy(keep_full=3, window=2)
    # Newest epoch 7 -> horizon 5: windows [0,1], [2,3] qualify; [4,5]
    # straddles the horizon and must wait.
    assert compactable_windows(policy, [0, 1, 2, 3, 4, 5, 6, 7]) == [0, 2]
    assert compactable_windows(policy, []) == []
    # Everything still inside keep_full: nothing to do.
    assert compactable_windows(policy, [0, 1, 2]) == []


def test_retention_accounting_and_idempotence(fleet_deltas, tmp_path):
    """pre-compaction total == post-compaction total + recorded residue,
    and re-running compaction is a no-op."""
    deltas, shipped = fleet_deltas
    store = _fill(str(tmp_path / "store"), deltas)
    pre_total = store.total_samples()
    policy = RetentionPolicy(keep_full=1, window=2, count_divisor=3)
    report = compact(store, policy)
    assert report["windows"], "expected the [0,1] window to compact"
    assert report["pre_samples"] == (
        report["post_samples"] + report["residue"])
    assert (store.total_samples() + store.ledger["downsample_residue"]
            == pre_total == shipped)
    # Epoch 1 merged into epoch 0; epoch 2 stays full-res.
    assert store.epochs() == [0, 2]
    # Idempotent: the compacted window is recorded in the ledger.
    again = compact(store, policy)
    assert again["windows"] == []
    assert store.ledger["compactions"] == 1


def test_lossless_retention_keeps_every_sample(fleet_deltas, tmp_path):
    deltas, shipped = fleet_deltas
    store = _fill(str(tmp_path / "store"), deltas)
    before = store.merged().encode_all()
    report = compact(store, RetentionPolicy(keep_full=1, window=2,
                                            count_divisor=1))
    assert report["residue"] == 0
    assert report["epochs_removed"] > 0
    # The compaction and the query reduce with the same function, so a
    # lossless compaction leaves every merged profile byte-identical.
    assert store.merged().encode_all() == before
    assert store.total_samples() == shipped
    assert check_fleet_conservation(
        shipped=shipped, stored=store.total_samples()) == []


def test_retention_policy_parse_and_validation():
    policy = RetentionPolicy.parse("6:3:2")
    assert (policy.keep_full, policy.window, policy.count_divisor) \
        == (6, 3, 2)
    assert RetentionPolicy.parse("6").spec() == "6:4:1"
    assert RetentionPolicy.parse(policy.spec()) == policy
    with pytest.raises(ValueError):
        RetentionPolicy(keep_full=-1)
    with pytest.raises(ValueError):
        RetentionPolicy(window=0)
    with pytest.raises(ValueError):
        RetentionPolicy.parse("1:2:3:4")


# -- queries ----------------------------------------------------------------


def test_parse_epochs_forms():
    assert parse_epochs("1..3", [0, 1, 2, 3, 4]) == [1, 2, 3]
    assert parse_epochs("2", [0, 1, 2]) == [2]
    assert parse_epochs("all", [2, 0, 1]) == [0, 1, 2]
    assert parse_epochs(None, [1, 0]) == [0, 1]
    # Compacted-away interior epochs simply do not appear.
    assert parse_epochs("0..5", [0, 2, 5]) == [0, 2, 5]
    with pytest.raises(ValueError):
        parse_epochs("3..1", [1, 2, 3])


def test_top_and_timeseries_are_consistent(fleet_deltas, tmp_path):
    deltas, shipped = fleet_deltas
    store = _fill(str(tmp_path / "store"), deltas)
    query = FleetQuery(store)
    top = query.top()
    assert top["total_samples"] == store.total_samples(
        event=query.event)
    assert abs(sum(r["share"] for r in top["rows"]) - 1.0) < 1e-9
    # Shares are procedure-attributed via the shipped symbol tables.
    assert all(":" in row["name"] for row in top["rows"])
    series = query.timeseries(name=top["rows"][0]["name"])
    per_epoch = [point["rows"][top["rows"][0]["name"]]["samples"]
                 for point in series["series"].values()]
    assert sum(per_epoch) == top["rows"][0]["samples"]


def test_movers_significance_tracks_sampling_error(fleet_deltas, tmp_path):
    deltas, _ = fleet_deltas
    store = _fill(str(tmp_path / "store"), deltas)
    query = FleetQuery(store)
    movers = query.movers("0", "1..2")
    for row in movers["rows"]:
        # The bound is the z-scaled sqrt-count error of both shares.
        assert row["bound"] >= 0.0
        if row["significant"]:
            assert abs(row["delta"]) > row["bound"]
    # A huge z makes every bound unclearable: nothing is significant.
    strict = query.movers("0", "1..2", z=1e6)
    assert not any(row["significant"] for row in strict["rows"])
    # A min-share-delta floor above every delta silences them too.
    floored = query.movers("0", "1..2", z=0.0, min_share_delta=2.0)
    assert not any(row["significant"] for row in floored["rows"])


def test_regress_against_self_is_quiet(fleet_deltas, tmp_path):
    deltas, _ = fleet_deltas
    store = _fill(str(tmp_path / "store"), deltas)
    query = FleetQuery(store)
    baseline = query.baseline()
    report = query.regress(baseline=baseline)
    assert report["regressions"] == []


def test_regress_flags_inflated_share(fleet_deltas, tmp_path):
    """Deflating one procedure in the baseline makes today's share an
    increase -- regress must flag exactly when it is significant."""
    deltas, _ = fleet_deltas
    store = _fill(str(tmp_path / "store"), deltas)
    query = FleetQuery(store)
    baseline = query.baseline()
    hottest = max(baseline["samples"], key=baseline["samples"].get)
    removed = baseline["samples"][hottest] * 3 // 4
    baseline["samples"][hottest] -= removed
    baseline["total_samples"] -= removed
    report = query.regress(baseline=baseline)
    assert any(row["name"] == hottest for row in report["regressions"])
    # A share *decrease* of the same size is not a regression.
    inflated = query.baseline()
    inflated["samples"][hottest] += removed
    inflated["total_samples"] += removed
    report = query.regress(baseline=inflated)
    assert not any(row["name"] == hottest
                   for row in report["regressions"])


# -- determinism and the CLI ------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    code = fleet_main(argv, out=out)
    return code, out.getvalue()


def test_cli_run_is_deterministic(tmp_path):
    reports = []
    for name in ("a", "b"):
        root = str(tmp_path / name)
        code, _ = _run_cli([
            "run", "--store", root, "--machines", "2", "--epochs", "2",
            "--seed", "9", "--epoch-instructions", str(BUDGET),
            "--json", os.path.join(root, "report.json")])
        assert code == 0
        with open(os.path.join(root, "report.json")) as handle:
            reports.append(json.load(handle))
        stores = FleetStore(root)
        reports[-1]["_bytes"] = sorted(
            (k, v) for k, v in _store_bytes(stores).items())
    assert reports[0] == reports[1]


def test_cli_query_output_is_deterministic(fleet_deltas, tmp_path):
    deltas, _ = fleet_deltas
    outputs = []
    for name in ("a", "b"):
        root = str(tmp_path / name)
        _fill(root, deltas)
        _, top = _run_cli(["top", "--store", root, "--json", "-"])
        _, movers = _run_cli(["movers", "--store", root,
                              "--base-epochs", "0", "--epochs", "1..2",
                              "--json", "-"])
        outputs.append(top + movers)
    assert outputs[0] == outputs[1]


def test_cli_regress_exit_codes(fleet_deltas, tmp_path):
    deltas, _ = fleet_deltas
    root = str(tmp_path / "store")
    _fill(root, deltas)
    baseline_path = str(tmp_path / "baseline.json")
    code, _ = _run_cli(["regress", "--store", root,
                        "--write-baseline", baseline_path])
    assert code == 0
    # Against its own baseline: quiet, exit 0.
    code, text = _run_cli(["regress", "--store", root,
                           "--baseline", baseline_path])
    assert code == 0
    assert "no significant share regressions" in text
    # Deflate the hottest procedure in the committed baseline: its
    # current share is now a significant increase -> exit 2.
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    hottest = max(baseline["samples"], key=baseline["samples"].get)
    removed = baseline["samples"][hottest] * 3 // 4
    baseline["samples"][hottest] -= removed
    baseline["total_samples"] -= removed
    with open(baseline_path, "w") as handle:
        json.dump(baseline, handle)
    code, text = _run_cli(["regress", "--store", root,
                           "--baseline", baseline_path])
    assert code == 2
    assert "REGRESSION" in text and hottest in text
    # Misuse: neither or both comparison sources -> exit 1.
    code, _ = _run_cli(["regress", "--store", root])
    assert code == 1


def test_cli_regress_goes_red(tmp_path, capsys):
    """The fleet gate shown red against the committed baseline: a fleet
    that only serves altavista shifts the mix (exit 2); a store that
    is missing or holds nothing is no comparison (exit 1, never 0)."""
    baseline = os.path.join(os.path.dirname(__file__), "..",
                            "benchmarks", "baselines", "FLEET_quick.json")
    root = str(tmp_path / "shifted")
    code, _ = _run_cli([
        "run", "--store", root, "--machines", "3", "--epochs", "3",
        "--seed", "1", "--workloads", "altavista,altavista,altavista"])
    assert code == 0
    code, text = _run_cli(["regress", "--store", root,
                           "--epochs", "0..2", "--baseline", baseline])
    assert code == 2
    assert "REGRESSION" in text and "altavista:ScanIndex" in text
    empty = str(tmp_path / "empty")
    FleetStore(empty)
    for root in (empty, str(tmp_path / "typo")):
        code, text = _run_cli(["regress", "--store", root,
                               "--epochs", "0..2",
                               "--baseline", baseline])
        assert code == 1
        assert "no significant" not in text
    err = capsys.readouterr().err
    assert "nothing to compare" in err and "no such store" in err


@pytest.mark.parametrize("argv", [
    ["top"], ["movers", "--base-epochs", "0"], ["timeseries"],
    ["regress", "--base-epochs", "0"], ["classes"], ["verify"]],
    ids=lambda argv: argv[0])
def test_cli_queries_do_not_create_the_store_they_read(argv, tmp_path,
                                                       capsys):
    root = tmp_path / "typo"
    code, text = _run_cli([*argv, "--store", str(root)])
    assert code == 1 and text == ""
    assert "no such store" in capsys.readouterr().err
    assert not root.exists()


def test_cli_run_reports_conservation_findings(tmp_path):
    """A run whose invariant fails exits nonzero (the CI contract)."""
    root = str(tmp_path / "store")
    code, _ = _run_cli([
        "run", "--store", root, "--machines", "1", "--epochs", "1",
        "--seed", "2", "--epoch-instructions", str(BUDGET)])
    assert code == 0
    # Re-running a *different* fleet into the same store breaks the
    # books: the new session's delta ids collide with the committed
    # ones, so its (different) samples are deduped away and the
    # session's shipped total no longer balances -- the invariant
    # must catch it and the CLI must exit nonzero.
    code, text = _run_cli([
        "run", "--store", root, "--machines", "1", "--epochs", "1",
        "--seed", "3", "--epoch-instructions", str(BUDGET)])
    assert code == 1
    assert "fleet-conservation" in text
