"""Tests for the ``repro.obs`` self-monitoring subsystem."""

import ast
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.fleet
import repro.opt
from repro.alpha.assembler import assemble
from repro.collect.daemon import Daemon
from repro.collect.driver import Driver, DriverConfig
from repro.cpu.events import EventType
from repro.obs import (COUNTER, GAUGE, HISTOGRAM, NULL_OBS,
                       MetricsRegistry, ObsConfig, TraceRecorder,
                       derive, flatten_metrics, merge_metrics, read_events,
                       span_durations, trace_counters)
from repro.osim.loader import Loader


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
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("x") is counter
        assert counter.snapshot() == {"type": COUNTER, "value": 5}

    def test_gauge_tracks_peak(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.set(3)
        snap = gauge.snapshot()
        assert snap["type"] == GAUGE
        assert snap["value"] == 3
        assert snap["peak"] == 10

    def test_histogram_buckets(self):
        hist = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["type"] == HISTOGRAM
        assert snap["count"] == 3
        assert snap["total"] == pytest.approx(55.5)
        assert sum(snap["buckets"]) == 3

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.gauge("name")

    def test_timeit_uses_injected_clock(self):
        clock = FakeClock(step=0.25)
        registry = MetricsRegistry(clock=clock)
        with registry.timeit("t"):
            pass
        snap = registry.histogram("t").snapshot()
        assert snap["count"] == 1
        assert snap["total"] == pytest.approx(0.25)

    def test_flatten(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        flat = flatten_metrics(registry.to_dict())
        assert flat["c"] == 2
        assert flat["g"] == 7
        assert flat["g.peak"] == 7


def _registry_from(spec):
    """Build a registry from {name: [int deltas]} (counters only)."""
    registry = MetricsRegistry()
    for name, deltas in spec.items():
        for delta in deltas:
            registry.counter(name).inc(delta)
    return registry.to_dict()


SNAPSHOT_SPECS = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.lists(st.integers(min_value=0, max_value=100), max_size=4),
    max_size=3)


class TestMerge:
    def test_counters_sum_gauges_max(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("n").inc(3)
        r2.counter("n").inc(4)
        r1.gauge("g").set(10)
        r2.gauge("g").set(2)
        merged = merge_metrics([r1.to_dict(), r2.to_dict()])
        assert merged["n"]["value"] == 7
        assert merged["g"]["value"] == 10
        assert merged["g"]["peak"] == 10

    def test_histograms_add_bucketwise(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.histogram("h", bounds=(1.0,)).observe(0.5)
        r2.histogram("h", bounds=(1.0,)).observe(2.0)
        merged = merge_metrics([r1.to_dict(), r2.to_dict()])
        assert merged["h"]["count"] == 2
        assert merged["h"]["buckets"] == [1, 1]

    @given(st.lists(SNAPSHOT_SPECS, max_size=5), st.randoms())
    def test_merge_is_order_independent(self, specs, rng):
        snapshots = [_registry_from(spec) for spec in specs]
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        assert merge_metrics(snapshots) == merge_metrics(shuffled)

    @given(st.lists(SNAPSHOT_SPECS, min_size=2, max_size=5),
           st.integers(min_value=1, max_value=4))
    def test_merge_is_grouping_independent(self, specs, split):
        snapshots = [_registry_from(spec) for spec in specs]
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
        obs.counter("c").inc(5)
        obs.gauge("g").set(1)
        obs.histogram("h").observe(2.0)
        with obs.timeit("t"):
            with obs.span("s", detail=1):
                pass
        assert clock.reads == 0
        assert obs.registry.to_dict() == {}
        assert obs.trace.events == ()
        assert obs.snapshot() == {}

    def test_enabled_config_builds_live(self):
        obs = ObsConfig(enabled=True, clock=FakeClock()).build()
        obs.counter("c").inc()
        assert obs.enabled
        assert obs.snapshot()["c"]["value"] == 1


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
        trace.counter("metric", 42)
        for name in ("t.jsonl", "t.json"):
            path = tmp_path / name
            trace.write(str(path))
            events = read_events(str(path))
            assert [e["name"] for e in events] == ["s", "metric"]
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
        trace = TraceRecorder(clock=FakeClock())
        trace.counter("x", 1)
        trace.counter("x", 9)
        assert trace_counters(trace.events) == {"x": 9}

    def test_observability_finish_writes_trace(self, tmp_path):
        path = tmp_path / "out.jsonl"
        obs = ObsConfig(enabled=True, trace_path=str(path),
                        clock=FakeClock()).build()
        with obs.span("only"):
            pass
        obs.finish()
        assert [e["name"] for e in read_events(str(path))] == ["only"]


def make_driver(**overrides):
    defaults = dict(buckets=16, assoc=4, overflow_capacity=8,
                    cost_scale=1.0)
    defaults.update(overrides)
    return Driver(1, DriverConfig(**defaults))


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

    def test_resident_gauge_follows_when_enabled(self):
        loader = Loader()
        obs = ObsConfig(enabled=True, clock=FakeClock()).build()
        daemon = Daemon(loader, periods={EventType.CYCLES: 100.0},
                        obs=obs)
        image = loader.link(assemble(
            ".image app\n.proc main\n    nop\n    ret\n.end"))
        loader.notify_exec(7, [image])
        snap = obs.registry.to_dict()["daemon.resident_bytes"]
        assert snap["value"] == daemon.resident_bytes()
        assert snap["peak"] == daemon.peak_resident_bytes()


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
_TALLY_CALLS = ("counter", "gauge", "histogram", "timeit", "span")


def _obs_tally_calls(package):
    """``file:line obs.<call>`` for every live-registry call in *package*
    made on an ``obs`` receiver (``obs``, ``self.obs``, ``x.obs``)."""
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
                        and node.func.attr in _TALLY_CALLS):
                    continue
                receiver = node.func.value
                if (isinstance(receiver, ast.Name) and receiver.id == "obs"
                        or isinstance(receiver, ast.Attribute)
                        and receiver.attr == "obs"):
                    found.append("%s:%d obs.%s" % (
                        os.path.relpath(path, root), node.lineno,
                        node.func.attr))
    return found


@pytest.mark.parametrize("package", [repro.fleet, repro.opt],
                         ids=["fleet", "opt"])
def test_fleet_and_opt_keep_one_tally(package):
    """Fleet and optimizer counts live in their reports (transport and
    spool stats, the shard ledger, plan and rewrite stats), never also
    in the live registry, where the two tallies drift apart."""
    assert _obs_tally_calls(package) == []


def test_derive_adds_nothing_for_fleet_keys():
    snapshot = {"fleet.deltas_shipped": {"type": COUNTER, "value": 4}}
    assert [key for key in derive(snapshot)
            if key.startswith("fleet.")] == ["fleet.deltas_shipped"]
