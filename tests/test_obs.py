"""Tests for the ``repro.obs`` self-monitoring subsystem."""

import ast
import inspect
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
import repro.fleet
import repro.opt
from repro.alpha.assembler import assemble
from repro.collect.daemon import Daemon
from repro.collect.driver import Driver
from repro.collect.session import ProfileSession, SessionConfig
from repro.core.cfg import build_cfg
from repro.core.culprits import identify_culprits
from repro.core.equivalence import compute_equivalence
from repro.core.frequency import estimate_frequencies
from repro.core.schedule import schedule_cfg
from repro.core.solver import refine_global
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.faults.injector import FaultPlan, FaultSpec
from repro.fleet.machine import FleetMachine
from repro.obs import (COUNTER, GAUGE, NULL_OBS, ObsConfig, TraceRecorder,
                       derive, flatten_metrics, merge_metrics, read_events,
                       span_durations, trace_counters)
from repro.obs.trace import write_events
from repro.osim.loader import Loader
from repro.workloads.registry import get_workload


class FakeClock:
    """Deterministic clock: each read advances by *step* seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step
        self.reads = 0

    def __call__(self):
        self.reads += 1
        value = self.now
        self.now += self.step
        return value


class TestMetrics:
    def test_flatten(self):
        flat = flatten_metrics({
            "c": {"type": COUNTER, "value": 2},
            "g": {"type": GAUGE, "value": 7, "peak": 9}})
        assert flat == {"c": 2, "g": 7, "g.peak": 9}

    def test_kind_conflict_raises(self):
        with pytest.raises(TypeError):
            merge_metrics([{"name": {"type": COUNTER, "value": 1}},
                           {"name": {"type": GAUGE, "value": 1,
                                     "peak": 1}}])


def _snapshot_from(spec):
    """A typed snapshot from {name: [int deltas]} (counters only)."""
    return {name: {"type": COUNTER, "value": sum(deltas)}
            for name, deltas in spec.items()}


SNAPSHOT_SPECS = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.lists(st.integers(min_value=0, max_value=100), max_size=4),
    max_size=3)


class TestMerge:
    def test_counters_sum_gauges_max(self):
        merged = merge_metrics([
            {"n": {"type": COUNTER, "value": 3},
             "g": {"type": GAUGE, "value": 10, "peak": 10}},
            {"n": {"type": COUNTER, "value": 4},
             "g": {"type": GAUGE, "value": 2, "peak": 12}}])
        assert merged["n"]["value"] == 7
        assert merged["g"]["value"] == 10
        assert merged["g"]["peak"] == 12

    @given(st.lists(SNAPSHOT_SPECS, max_size=5), st.randoms())
    def test_merge_is_order_independent(self, specs, rng):
        snapshots = [_snapshot_from(spec) for spec in specs]
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        assert merge_metrics(snapshots) == merge_metrics(shuffled)

    @given(st.lists(SNAPSHOT_SPECS, min_size=2, max_size=5),
           st.integers(min_value=1, max_value=4))
    def test_merge_is_grouping_independent(self, specs, split):
        snapshots = [_snapshot_from(spec) for spec in specs]
        split = min(split, len(snapshots) - 1)
        left = merge_metrics(snapshots[:split])
        right = merge_metrics(snapshots[split:])
        assert (merge_metrics([left, right])
                == merge_metrics(snapshots))


class TestNullObs:
    def test_disabled_config_builds_null(self):
        assert ObsConfig(enabled=False).build() is NULL_OBS

    def test_null_obs_is_inert_and_clock_free(self):
        clock = FakeClock()
        obs = ObsConfig(enabled=False, clock=clock).build()
        with obs.span("outer"):
            with obs.span("s", detail=1):
                pass
        assert clock.reads == 0

    def test_enabled_config_builds_live(self):
        obs = ObsConfig(enabled=True, clock=FakeClock()).build()
        with obs.span("s"):
            pass
        assert obs.enabled
        assert [event["name"] for event in obs.trace.events] == ["s"]


class TestTrace:
    def test_span_nesting_and_timing(self):
        clock = FakeClock(step=1.0)
        trace = TraceRecorder(clock=clock)
        with trace.span("outer"):
            with trace.span("inner", detail="x"):
                pass
        # Events appended at close: inner first.
        inner, outer = trace.events
        assert inner["name"] == "inner"
        assert inner["args"] == {"detail": "x"}
        assert outer["ts"] <= inner["ts"]
        assert outer["dur"] >= inner["dur"]

    def test_write_and_read_jsonl_and_json(self, tmp_path):
        trace = TraceRecorder(clock=FakeClock())
        with trace.span("s"):
            pass
        events = trace.events + [{"ph": "C", "name": "metric", "ts": 0,
                                  "args": {"value": 42}}]
        for name in ("t.jsonl", "t.json"):
            path = tmp_path / name
            write_events(str(path), events)
            assert read_events(str(path)) == events
        # the .json form is a single loadable array
        assert isinstance(json.loads((tmp_path / "t.json").read_text()),
                          list)

    def test_span_durations_self_time(self):
        events = [
            {"ph": "X", "name": "child", "ts": 10.0, "dur": 30.0,
             "pid": 0, "tid": 0},
            {"ph": "X", "name": "parent", "ts": 0.0, "dur": 100.0,
             "pid": 0, "tid": 0},
        ]
        phases = span_durations(events)
        assert phases["parent"]["total_us"] == 100.0
        assert phases["parent"]["self_us"] == 70.0
        assert phases["child"]["self_us"] == 30.0

    def test_span_durations_separate_pids_do_not_nest(self):
        events = [
            {"ph": "X", "name": "a", "ts": 0.0, "dur": 100.0,
             "pid": 0, "tid": 0},
            {"ph": "X", "name": "b", "ts": 10.0, "dur": 30.0,
             "pid": 1, "tid": 0},
        ]
        phases = span_durations(events)
        assert phases["a"]["self_us"] == 100.0

    def test_trace_counters_keeps_last_value(self):
        events = [{"ph": "C", "name": "x", "ts": ts, "args": {"value": v}}
                  for ts, v in ((2.0, 9), (1.0, 1))]
        assert trace_counters(events) == {"x": 9}


def make_driver():
    driver = Driver(1, SessionConfig(buckets=16, assoc=4,
                                     overflow_capacity=8))
    driver.cost_scale = 1.0
    return driver


def make_daemon(pid=7):
    loader = Loader()
    daemon = Daemon(loader, periods={EventType.CYCLES: 100.0})
    image = loader.link(assemble(
        ".image app\n.proc main\n    nop\n    ret\n.end"))
    loader.notify_exec(pid, [image])
    return loader, daemon, image


class TestDaemonPeakResident:
    def test_peak_survives_epoch_clear_without_drain(self):
        """The old code sampled the peak only inside ``drain()``: a
        footprint spike cleared by ``advance_epoch`` before the next
        drain was lost.  Every allocation-relevant point samples now."""
        loader, daemon, image = make_daemon()
        driver = make_driver()
        for i in range(32):
            driver.record(0, 7, image.base + 4 * (i % 2),
                          EventType.CYCLES, i)
        daemon.drain(driver)
        loaded_peak = daemon.peak_resident_bytes()
        assert loaded_peak > daemon.resident_bytes() - 1  # sanity
        daemon.advance_epoch()  # clears profiles, shrinking residency
        assert daemon.resident_bytes() < loaded_peak
        assert daemon.peak_resident_bytes() == loaded_peak

    def test_loadmap_growth_is_sampled(self):
        loader, daemon, image = make_daemon()
        before = daemon.peak_resident_bytes()
        extra = loader.link(assemble(
            ".image lib\n.proc f\n    nop\n    ret\n.end"))
        loader.notify_exec(8, [extra])
        assert daemon.peak_resident_bytes() > before


class TestSchemaViews:
    def test_driver_stats_match_schema(self):
        driver = make_driver()
        for i in range(6):
            driver.record(0, 1, 0x100 + 4 * (i % 3), EventType.CYCLES, i)
        flat = derive(driver.metrics())
        assert flat["driver.samples"] == 6
        assert (flat["driver.hash.hits"] + flat["driver.hash.misses"]
                == flat["driver.samples"])
        assert flat["driver.hash.miss_rate"] == pytest.approx(
            flat["driver.hash.misses"] / flat["driver.samples"])

    def test_daemon_stats_match_schema(self):
        loader, daemon, image = make_daemon()
        driver = make_driver()
        driver.record(0, 7, image.base, EventType.CYCLES, 0)
        daemon.drain(driver)
        flat = derive(daemon.metrics())
        assert flat["daemon.samples"] == 1
        assert flat["daemon.resident_bytes"] == daemon.resident_bytes()
        assert (flat["daemon.resident_bytes.peak"]
                == daemon.peak_resident_bytes())

    def test_hashtable_stats_keys(self):
        driver = make_driver()
        driver.record(0, 1, 0x100, EventType.CYCLES, 0)
        table_stats = driver.cpus[0].table.metrics()
        assert set(table_stats) == {"hashtable.hits", "hashtable.misses",
                                    "hashtable.evictions"}


#: Live-registry calls: a count made through one of them is a second
#: tally beside the object that already keeps it.
_TALLY_CALLS = ("counter", "gauge", "histogram", "timeit")


def _obs_calls(package, calls):
    """``file:line obs.<call>`` for every call named in *calls* that
    *package* makes on an ``obs`` receiver (``obs``, ``self.obs``,
    ``x.obs``)."""
    root = os.path.dirname(package.__file__)
    found = []
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in calls):
                    continue
                receiver = node.func.value
                if (isinstance(receiver, ast.Name) and receiver.id == "obs"
                        or isinstance(receiver, ast.Attribute)
                        and receiver.attr == "obs"):
                    found.append("%s:%d obs.%s" % (
                        os.path.relpath(path, root), node.lineno,
                        node.func.attr))
    return found


@pytest.mark.parametrize("package, calls", [
    pytest.param(repro.fleet, _TALLY_CALLS + ("span",), id="fleet"),
    pytest.param(repro.opt, _TALLY_CALLS + ("span",), id="opt"),
    pytest.param(repro, _TALLY_CALLS, id="repro"),
])
def test_fleet_and_opt_keep_one_tally(package, calls):
    """A count lives in the object that keeps it (the driver's per-CPU
    state, the daemon, fleet transport and spool stats, the shard
    ledger, plan and rewrite stats), never also in a live registry,
    where the two tallies drift apart.  Fleet and optimizer report
    through their result objects and open no span either."""
    assert _obs_calls(package, calls) == []


@pytest.mark.parametrize("func", [
    build_cfg, schedule_cfg, compute_equivalence, estimate_frequencies,
    refine_global, identify_culprits, Driver, Daemon, Daemon.recover,
    FleetMachine], ids=lambda func: func.__qualname__)
def test_no_pass_or_collector_takes_obs(func):
    """Only a session's collection stack and ``analyze_procedure``
    record spans; the passes and collectors they call take no hook."""
    assert "obs" not in inspect.signature(func).parameters


def _counts(flat):
    """*flat* minus the keys that read the host clock: the only ones
    an observed run may add or change."""
    return {key: value for key, value in flat.items()
            if not key.startswith(("session.wall_s", "collection."))}


@pytest.mark.parametrize("point, hit", [
    ("session.restart", 3), ("daemon.drain.cpu", 3),
    ("daemon.checkpoint", 1)])
def test_observing_a_crashed_run_changes_no_count(tmp_path, point, hit):
    """With self-monitoring on, a run across a daemon crash reports
    the same counts as with it off: the resident peak is the live
    daemon's, not that of a gauge it shared with the dead one."""
    workload = get_workload("gcc")

    def flat(enabled):
        config = SessionConfig(
            cycles_period=(240, 256), event_period=64,
            drain_interval=4_000, checkpoint_drains=2,
            db_root=str(tmp_path / ("on" if enabled else "off")),
            obs=ObsConfig(enabled=True) if enabled else None,
            faults=FaultPlan(specs=(FaultSpec(point, "crash",
                                              hits=(hit,)),), seed=1))
        session = ProfileSession(
            MachineConfig(num_cpus=workload.num_cpus), config)
        return derive(session.run(workload,
                                  max_instructions=24_000).metrics())

    on, off = flat(True), flat(False)
    assert on["daemon.recoveries"] == 1
    assert on["session.wall_s"] > 0 and "session.wall_s" not in off
    assert _counts(on) == _counts(off)


def test_derive_adds_nothing_for_fleet_keys():
    snapshot = {"fleet.deltas_shipped": {"type": COUNTER, "value": 4}}
    assert [key for key in derive(snapshot)
            if key.startswith("fleet.")] == ["fleet.deltas_shipped"]
