"""Self-monitoring under the sharded runner: the snapshot reduction
must be order-independent, and serial vs pooled runs must agree."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.collect.parallel import (ParallelSessionRunner, ShardSpec,
                                    merge_shard_obs, run_shard)
from repro.collect.session import SessionConfig
from repro.obs import COUNTER, GAUGE, ObsConfig, derive, merge_metrics

WORKLOAD = "mccalpin-assign"
BUDGET = 12_000

ENTRY = st.one_of(
    st.builds(lambda v: {"type": COUNTER, "value": v},
              st.integers(min_value=0, max_value=10 ** 6)),
    st.builds(lambda v, p: {"type": GAUGE, "value": v,
                            "peak": max(v, p)},
              st.integers(min_value=0, max_value=10 ** 6),
              st.integers(min_value=0, max_value=10 ** 6)))

# Names map to a fixed kind so snapshots never disagree on type.
SNAPSHOT = st.dictionaries(
    st.sampled_from(["c.a", "c.b", "g.a"]), ENTRY, max_size=3).map(
        lambda d: {name: entry for name, entry in d.items()
                   if (entry["type"] == COUNTER) == name.startswith("c.")})


class TestReductionProperties:
    @given(st.lists(SNAPSHOT, max_size=6), st.randoms())
    @settings(max_examples=examples(50))
    def test_any_permutation_reduces_identically(self, snapshots, rng):
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        assert merge_metrics(shuffled) == merge_metrics(snapshots)

    @given(st.lists(SNAPSHOT, min_size=2, max_size=6),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=examples(50))
    def test_any_grouping_reduces_identically(self, snapshots, split):
        split = min(split, len(snapshots) - 1)
        two_level = merge_metrics([merge_metrics(snapshots[:split]),
                                   merge_metrics(snapshots[split:])])
        assert two_level == merge_metrics(snapshots)


def _spec(workload, seed, obs=True, **settings):
    """A BUDGET-instruction shard sampling at (240, 256)/64."""
    return ShardSpec(workload,
                     SessionConfig(seed=seed, cycles_period=(240, 256),
                                   event_period=64,
                                   obs=ObsConfig(enabled=True) if obs
                                   else None, **settings),
                     BUDGET)


def _specs(count=3, obs=True):
    return [_spec(WORKLOAD, seed, obs) for seed in range(1, count + 1)]


@pytest.fixture(scope="module")
def shard_results():
    """The same shard list executed serially, once per module."""
    return [run_shard(spec) for spec in _specs()]


class TestShardObs:
    def test_every_shard_ships_a_snapshot(self, shard_results):
        for shard in shard_results:
            assert shard.obs["driver.samples"]["value"] > 0
            assert shard.obs["session.instructions"]["value"] == BUDGET
            assert shard.trace_events  # obs shards carry their spans

    def test_merged_counters_equal_serial_sums(self, shard_results):
        merged = merge_shard_obs(shard_results)
        for name in ("driver.samples", "daemon.samples",
                     "session.instructions", "driver.hash.misses"):
            assert merged[name]["value"] == sum(
                shard.obs[name]["value"] for shard in shard_results)

    def test_merge_order_independent_on_real_shards(self, shard_results):
        forward = merge_shard_obs(shard_results)
        assert merge_shard_obs(shard_results[::-1]) == forward
        regrouped = merge_metrics(
            [merge_shard_obs(shard_results[:1]),
             merge_shard_obs(shard_results[1:])])
        assert regrouped == forward

    def test_serial_and_pooled_runs_report_identical_totals(self):
        serial = ParallelSessionRunner(workers=1).run(_specs())
        pooled = ParallelSessionRunner(workers=3).run(_specs())
        # The wall-clock gauge legitimately differs between runs;
        # every counter total must match exactly.
        def counters(snapshot):
            return {name: entry["value"]
                    for name, entry in snapshot.items()
                    if entry["type"] == COUNTER}

        assert counters(serial.obs) == counters(pooled.obs)
        assert serial.merged.encode_all() == pooled.merged.encode_all()

    def test_shard_results_pickle(self, shard_results):
        clone = pickle.loads(pickle.dumps(shard_results[0]))
        assert clone.obs == shard_results[0].obs
        assert clone.trace_events == shard_results[0].trace_events

    def test_obs_does_not_perturb_profiles(self):
        spec_on, spec_off = _specs(1, obs=True)[0], _specs(1, obs=False)[0]
        on, off = run_shard(spec_on), run_shard(spec_off)
        assert on.profiles == off.profiles
        assert on.cycles == off.cycles
        assert off.trace_events is None

    def test_derived_rates_are_exact_not_averaged(self, shard_results):
        merged = derive(merge_shard_obs(shard_results))
        hits = sum(s.obs["driver.hash.hits"]["value"]
                   for s in shard_results)
        misses = sum(s.obs["driver.hash.misses"]["value"]
                     for s in shard_results)
        assert merged["driver.hash.miss_rate"] == pytest.approx(
            misses / (hits + misses))


class TestCtxSpanLinkage:
    """dcpimon traces and sample profiles share request identity."""

    @pytest.fixture(scope="class")
    def ctx_shard(self):
        return run_shard(_spec("slow-client", 1, context=True))

    def test_trace_carries_one_instant_per_class(self, ctx_shard):
        instants = [event for event in ctx_shard.trace_events
                    if event.get("name") == "ctx.class"]
        by_name = {event["args"]["cls"]: event["args"]["span"]
                   for event in instants}
        assert set(by_name) == set(ctx_shard.ctx["classes"])
        assert len(instants) == len(by_name)

    def test_trace_spans_match_ledger_spans(self, ctx_shard):
        from repro.ctx import span_id

        instants = {event["args"]["cls"]: event["args"]["span"]
                    for event in ctx_shard.trace_events
                    if event.get("name") == "ctx.class"}
        for name, span in instants.items():
            assert span == span_id(name)
            assert ctx_shard.ctx["spans"][name] == span

    def test_ctx_off_trace_has_no_class_instants(self, shard_results):
        for shard in shard_results:
            assert all(event.get("name") != "ctx.class"
                       for event in shard.trace_events)
