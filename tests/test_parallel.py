"""The parallel shard runner and its deterministic reducer.

The load-bearing guarantee: merging worker shards is a commutative,
associative integer sum over (image, event, offset) keys, so worker
count, scheduling, and merge order never change the profile -- the same
invariant the paper's daemon relies on when draining per-CPU hash
tables in arbitrary order.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.collect.database import ProfileDatabase
from repro.collect.driver import Driver
from repro.collect.parallel import (ParallelSessionRunner, ShardSpec,
                                    merge_profiles, merge_shard_ctx,
                                    profile_rows, run_shard)
from repro.collect.session import SessionConfig
from repro.cpu.events import EventType
from repro.ctx import canonical_ledger_bytes
from repro.obs import derive

BUDGET = 15_000


def shard(workload, seed=1, mode="default", **settings):
    """A BUDGET-instruction shard sampling at (240, 256)/64."""
    return ShardSpec(workload,
                     SessionConfig(mode=mode, seed=seed,
                                   cycles_period=(240, 256),
                                   event_period=64, **settings),
                     BUDGET)


@pytest.fixture(scope="module")
def shard_results():
    """Three real shards, run once in-process and reused by the tests."""
    shards = [shard("mccalpin-assign"), shard("gcc"),
              shard("mccalpin-assign", seed=2, mode="cycles")]
    return [run_shard(spec) for spec in shards]


def merge(shards):
    """The reducer over shard results or bare profile maps."""
    return merge_profiles(
        row for item in shards
        for row in profile_rows(getattr(item, "profiles", item),
                                getattr(item, "periods", {})))


def merged_bytes(results):
    return merge(results).encode_all()


# -- order-independence on real profiling shards ---------------------------


@settings(max_examples=examples(25), deadline=None)
@given(order=st.permutations(range(3)))
def test_merge_order_never_changes_profile(shard_results, order):
    """Any merge order yields byte-identical canonical profiles."""
    baseline = merged_bytes(shard_results)
    shuffled = [shard_results[i] for i in order]
    assert merged_bytes(shuffled) == baseline


def test_merge_is_associative_on_real_shards(shard_results):
    """Reducing partial merges equals reducing everything at once."""
    left = merge(shard_results[:1]).counts
    right = merge(shard_results[1:]).counts
    assert merge([left, right]).counts == merge(shard_results).counts


# -- order-independence on synthetic sample maps (hypothesis) --------------


def _profile_maps():
    offsets = st.integers(min_value=0, max_value=64).map(lambda n: n * 4)
    by_offset = st.dictionaries(offsets, st.integers(1, 1_000), max_size=6)
    by_event = st.dictionaries(
        st.sampled_from((EventType.CYCLES, EventType.IMISS)),
        by_offset, max_size=2)
    return st.dictionaries(st.sampled_from(("libc", "vmunix", "app")),
                           by_event, max_size=3)


@settings(max_examples=examples(80), deadline=None)
@given(shards=st.lists(_profile_maps(), max_size=6), data=st.data())
def test_reducer_is_order_and_grouping_independent(shards, data):
    expected = merge(shards).counts
    order = data.draw(st.permutations(range(len(shards))))
    assert merge([shards[i] for i in order]).counts == expected
    if shards:
        split = data.draw(st.integers(0, len(shards)))
        regrouped = [merge(shards[:split]).counts,
                     merge(shards[split:]).counts]
        assert merge(regrouped).counts == expected


def test_reducer_keeps_each_events_largest_period():
    rows = [("app", EventType.CYCLES, {0: 1}, 256),
            ("libc", EventType.CYCLES, {4: 2}, 2048),
            ("app", EventType.IMISS, {8: 3}, 64)]
    for order in (rows, rows[::-1]):
        merged = merge_profiles(order)
        assert merged.periods == {EventType.CYCLES: 2048,
                                  EventType.IMISS: 64}
        assert merged.total() == 6


# -- context-dimension shards (repro.ctx) ----------------------------------


@pytest.fixture(scope="module")
def ctx_shard_results():
    """Three real ctx-enabled shards of the traffic scenarios."""
    shards = [shard(workload, seed=seed, context=True)
              for seed, workload in enumerate(
                  ("bursty", "slow-client", "mixed-tenant"), start=1)]
    return [run_shard(spec) for spec in shards]


@settings(max_examples=examples(25), deadline=None)
@given(order=st.permutations(range(3)))
def test_ctx_merge_is_order_independent_byte_for_byte(
        ctx_shard_results, order):
    """Profiles AND the merged context ledger survive any shard order."""
    baseline_profiles = merged_bytes(ctx_shard_results)
    baseline_ledger = canonical_ledger_bytes(
        merge_shard_ctx(ctx_shard_results))
    shuffled = [ctx_shard_results[i] for i in order]
    assert merged_bytes(shuffled) == baseline_profiles
    assert canonical_ledger_bytes(
        merge_shard_ctx(shuffled)) == baseline_ledger


def test_ctx_merge_is_associative_on_real_shards(ctx_shard_results):
    whole = canonical_ledger_bytes(merge_shard_ctx(ctx_shard_results))
    left = merge_shard_ctx(ctx_shard_results[:1])
    right = merge_shard_ctx(ctx_shard_results[1:])
    assert canonical_ledger_bytes(
        merge_shard_ctx([left, right])) == whole


def test_ctx_shards_ship_ledgers_with_requests(ctx_shard_results):
    for result in ctx_shard_results:
        assert result.ctx is not None
        assert result.ctx["schema"] == 1
        assert result.ctx["classes"]
        assert result.ctx["requests"]


def test_ctx_off_shards_ship_no_ledger(shard_results):
    assert all(result.ctx is None for result in shard_results)
    assert merge_shard_ctx(shard_results) is None


def test_ctx_shard_results_are_picklable(ctx_shard_results):
    clone = pickle.loads(pickle.dumps(ctx_shard_results[0]))
    assert clone.ctx == ctx_shard_results[0].ctx


# -- parallel vs serial byte-identity --------------------------------------


def test_pool_run_matches_serial_run_byte_identical():
    """A 4-worker pool and a serial loop produce identical databases."""
    shards = [shard(workload, seed=seed)
              for workload in ("mccalpin-assign", "gcc")
              for seed in (1, 2)]
    serial = ParallelSessionRunner(workers=1).run(shards)
    pooled = ParallelSessionRunner(workers=4).run(shards)
    assert serial.merged.encode_all() == pooled.merged.encode_all()
    assert serial.merged.total() == pooled.merged.total() > 0
    assert [r.spec for r in pooled.shards] == shards
    assert ([r.instructions for r in pooled.shards]
            == [r.instructions for r in serial.shards])


def test_shard_results_are_picklable(shard_results):
    for result in shard_results:
        clone = pickle.loads(pickle.dumps(result))
        assert clone.profiles == result.profiles
        assert clone.spec == result.spec


# -- merged-profile persistence and stats ----------------------------------


def test_merged_profiles_save_and_reload(tmp_path, shard_results):
    merged = merge(shard_results)
    database = ProfileDatabase(str(tmp_path / "db"))
    merged.save(database)
    image = merged.images()[0]
    event = sorted(merged.counts[image], key=str)[0]
    counts, _ = database.load(image, event)
    assert counts == merged.counts[image][event]


def test_merged_profiles_save_accepts_path(tmp_path, shard_results):
    merged = merge(shard_results)
    root = str(tmp_path / "db_from_path")
    merged.save(root)  # the README's documented form
    image = merged.images()[0]
    event = sorted(merged.counts[image], key=str)[0]
    counts, _ = ProfileDatabase(root).load(image, event)
    assert counts == merged.counts[image][event]


# -- fault-injected shards (crash recovery under the pool) -----------------


def _crash_plan():
    from repro.faults.injector import FaultPlan, FaultSpec

    # Shards drain once per 200k-instruction chunk; with BUDGET below
    # that, the first drain is the only one -- crash there.
    return FaultPlan(specs=(
        FaultSpec("daemon.drain.cpu", "crash", hits=(1,)),), seed=1)


def _shard_conserves(result):
    """The per-shard pipeline book, from shipped-back metrics alone."""
    flat = derive(result.obs)
    return (flat["driver.samples"]
            == flat["daemon.samples"] + flat["driver.overflow.dropped"]
            + flat["daemon.lost_samples"])


def test_faulted_shard_recovers_and_conserves():
    result = run_shard(shard("gcc", faults=_crash_plan()))
    assert derive(result.obs)["daemon.recoveries"] >= 1
    assert _shard_conserves(result)


def test_faulted_shard_spec_survives_pickling():
    spec = shard("gcc", faults=_crash_plan())
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.config.faults == spec.config.faults


def test_faulted_pool_run_matches_fault_free_minus_losses():
    """Parallel-shard variant of the recovery invariant: a crashing
    shard in a worker pool merges to the fault-free totals minus its
    accounted losses (here: zero extra loss -- the journal-less shard
    re-drains its pinned batches)."""
    clean = [shard("gcc"), shard("mccalpin-assign")]
    faulted = [shard("gcc", faults=_crash_plan()), clean[1]]
    reference = ParallelSessionRunner(workers=2).run(clean)
    chaotic = ParallelSessionRunner(workers=2).run(faulted)
    for result in chaotic.shards:
        assert _shard_conserves(result)
    # Results keep the shard list's order: gcc is shards[0].
    ref_stats = derive(reference.shards[0].obs)
    new_stats = derive(chaotic.shards[0].obs)
    # Identical streams (faults never touch the machine)...
    assert new_stats["driver.samples"] == ref_stats["driver.samples"]
    # ... and merged counts differ by exactly the accounted losses.
    accounted = (new_stats["collect.samples_dropped"]
                 - ref_stats["collect.samples_dropped"])
    unknown_shift = (new_stats["daemon.unknown_samples"]
                     - ref_stats["daemon.unknown_samples"])
    assert (reference.merged.total() - chaotic.merged.total()
            == accounted + unknown_shift)


# -- SessionConfig validation (typed-Optional fix) -------------------------


def test_session_config_rejects_bad_mode():
    with pytest.raises(ValueError, match="unknown session mode"):
        SessionConfig(mode="turbo").make_driver_config()


def test_session_config_rejects_bad_db_root_type():
    with pytest.raises(TypeError, match="db_root"):
        SessionConfig(db_root=42).make_driver_config()


def test_session_config_accepts_explicit_driver():
    """The driver's table and buffer sizes are session settings."""
    config = SessionConfig(mode="cycles", buckets=128, assoc=2,
                           overflow_capacity=16)
    assert config.make_driver_config() is config
    driver = Driver(2, config)
    assert driver.cpus[1].table.capacity == 128 * 2
    assert driver.kernel_memory_bytes() == 2 * (128 * 2 + 2 * 16) * 16
