"""The layer boundaries the traced run records, and what they yield.

Layers are the repository's packages.  :func:`targets` lists the
public calls into each one (the span recorder wraps exactly these);
:func:`per_layer_metrics` turns the recorded spans plus the exact
counts a workload took from public snapshots into the per-layer
metrics named in ``BENCHMARK.json``.

Times are *self seconds per round* -- a round is the fixed amount of
work a workload repeats (see README) -- so a value does not depend on
how many rounds fitted into the measurement window.
"""

import statistics

from perfbench.recorder import op_latency_ms, work_rate

#: span name -> per-layer metric holding its self time per round.
SELF_TIME_METRICS = {
    "workloads.setup": "workloads.setup_s",
    "cpu.machine_run": "cpu.machine_run_s",
    "collect.session.run": "collect.session.other_s",
    "collect.driver.record": "collect.driver.record_s",
    "collect.daemon.drain": "collect.daemon.drain_s",
    "collect.database.merge_to_disk": "collect.database.merge_to_disk_s",
    "collect.database.merge_epoch": "collect.database.merge_epoch_s",
    "collect.database.load": "collect.database.load_s",
    "core.cfg": "core.cfg_s",
    "core.schedule": "core.schedule_s",
    "core.equivalence": "core.equivalence_s",
    "core.frequency": "core.frequency_s",
    "core.culprits": "core.culprits_s",
    "core.analyze_procedure": "core.analyze_other_s",
    "fleet.transport.ship": "fleet.transport.ship_s",
    "fleet.store.ingest": "fleet.store.ingest_s",
    "fleet.query.top": "fleet.query.top_s",
    "fleet.query.movers": "fleet.query.movers_s",
    "fleet.query.timeseries": "fleet.query.timeseries_s",
    "fleet.query.regress": "fleet.query.regress_s",
    "opt.build_plan": "opt.plan_s",
    "opt.rewrite_image": "opt.rewrite_s",
    "opt.verify_identity": "opt.oracle_s",
    "check.transval": "check.transval_s",
}

#: metric -> span whose *inclusive* time per round it reports: the
#: phases of one optimize run as a dcpiopt user sees them (their
#: children are cpu.*, collect.* and core.* spans, counted there).
INCLUSIVE_METRICS = {
    "opt.profile_s": "collect.session.run",
    "opt.analyze_s": "opt.analyze_image",
}

#: Spans the benchmark opens around its own loop; their self time is
#: what no layer span covered.
BENCH_SPANS = ("bench.op", "bench.busy", "bench.side")

#: Exact counts a workload reports under the metric's own name.
COUNT_METRICS = (
    "cpu.instructions", "cpu.cycles",
    "cpu.fastpath.compiled_variants", "cpu.fastpath.variant_misses",
    "cpu.fastpath.bails", "cpu.fastpath.headroom_skips",
    "collect.driver.samples", "collect.driver.evictions",
    "collect.driver.dropped",
    "collect.daemon.drains", "collect.daemon.entries",
    "collect.daemon.unknown_samples",
    "collect.database.commits", "collect.database.disk_bytes",
    "collect.database.profiles_loaded",
    "core.procedures", "core.instructions_analyzed",
    "core.culprits_reported", "core.low_confidence_procs",
    "fleet.store.deltas_applied", "fleet.store.duplicates_dropped",
    "fleet.store.lock_retries", "fleet.store.samples_ingested",
    "fleet.store.disk_bytes",
    "opt.plans_built", "opt.rewrites_accepted", "opt.rewrites_rejected",
    "check.transval_rejected",
)

#: metric -> (numerator count, denominator count, scale): ratios of
#: exact counts, so exact themselves.  Simulated cycles, not host time.
RATIO_METRICS = {
    "cpu.fastpath.replay_fraction":
        ("cpu.fastpath.replayed_instructions", "cpu.instructions", 1.0),
    "collect.driver.hash_hit_rate":
        ("collect.driver.hash_hits", "collect.driver.hash_lookups", 1.0),
    "collect.driver.handler_cycles_per_sample":
        ("collect.driver.handler_cycles", "collect.driver.samples", 1.0),
    "collect.daemon.aggregation":
        ("collect.daemon.samples", "collect.daemon.entries", 1.0),
    "collect.daemon.cycles_per_sample":
        ("collect.daemon.cycles", "collect.daemon.samples", 1.0),
    "collect.overhead_pct":
        ("collect.overhead_cycles", "collect.baseline_cycles", 100.0),
    "opt.mean_speedup_pct":
        ("opt.speedup_sum", "opt.reports", 100.0),
}

#: Every per-layer metric with its unit, in BENCHMARK.json order.
UNITS = {}
UNITS.update({name: "s" for name in SELF_TIME_METRICS.values()})
UNITS.update({name: "s" for name in INCLUSIVE_METRICS})
UNITS.update({name: "count" for name in COUNT_METRICS})
UNITS.update({
    "collect.database.disk_bytes": "bytes",
    "fleet.store.disk_bytes": "bytes",
    "cpu.fastpath.replay_fraction": "ratio",
    "collect.driver.hash_hit_rate": "ratio",
    "collect.driver.handler_cycles_per_sample": "cycles",
    "collect.daemon.aggregation": "ratio",
    "collect.daemon.cycles_per_sample": "cycles",
    "collect.overhead_pct": "%",
    "opt.mean_speedup_pct": "%",
    "cpu.host_ns_per_instr": "ns",
    "collect.driver.record_ns_per_sample": "ns",
    "collect.database.load_profiles_per_s": "1/s",
    "fleet.store.ingest_ms_growth": "ratio",
    "fleet.query.ms_p50": "ms",
    "fleet.machine.run_epoch_s": "s",
    "check.transval_ms_per_image": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    # Demoted from the end-to-end list (README, "demoted metrics"):
    # wall time as measured.
    "bench.wall_work_per_s": "1/s",
    "bench.op_ms_p50": "ms",
    "bench.op_ms_p95": "ms",
    "bench.cpu_slowdown": "ratio",
    "bench.io_slowdown": "ratio",
})


def targets():
    """``(owner, attribute, span name)`` for every wrapped call."""
    from repro.check import transval
    from repro.collect.daemon import Daemon
    from repro.collect.database import ProfileDatabase
    from repro.collect.driver import Driver
    from repro.collect.session import ProfileSession
    from repro.core import (analyze, cfg, culprits, equivalence, frequency,
                            schedule)
    from repro.cpu.machine import Machine
    from repro.fleet.machine import FleetMachine
    from repro.fleet.query import FleetQuery
    from repro.fleet.store import FleetStore
    from repro.fleet.transport import DeltaTransport
    from repro.opt import oracle, passes, rewrite
    from repro.workloads.base import Workload

    rows = [
        (Machine, "run", "cpu.machine_run"),
        (ProfileSession, "run", "collect.session.run"),
        (Driver, "record", "collect.driver.record"),
        (Daemon, "drain", "collect.daemon.drain"),
        (Daemon, "merge_to_disk", "collect.database.merge_to_disk"),
        (ProfileDatabase, "merge_epoch", "collect.database.merge_epoch"),
        (ProfileDatabase, "load_all", "collect.database.load"),
        (cfg, "build_cfg", "core.cfg"),
        (schedule, "schedule_cfg", "core.schedule"),
        (equivalence, "compute_equivalence", "core.equivalence"),
        (frequency, "estimate_frequencies", "core.frequency"),
        (culprits, "identify_culprits", "core.culprits"),
        (analyze, "analyze_procedure", "core.analyze_procedure"),
        (analyze, "analyze_image", "opt.analyze_image"),
        (DeltaTransport, "ship", "fleet.transport.ship"),
        (FleetStore, "ingest", "fleet.store.ingest"),
        (FleetQuery, "top", "fleet.query.top"),
        (FleetQuery, "movers", "fleet.query.movers"),
        (FleetQuery, "timeseries", "fleet.query.timeseries"),
        (FleetQuery, "regress", "fleet.query.regress"),
        (FleetMachine, "run_epoch", "fleet.machine.run_epoch"),
        (passes, "build_plan", "opt.build_plan"),
        (rewrite, "rewrite_image", "opt.rewrite_image"),
        (oracle, "verify_identity", "opt.verify_identity"),
        (transval, "validate_workload_plans", "check.transval"),
        # Runs from inside Workload.setup (an image_transform probe):
        # without its own span the proof would be charged to set-up.
        (transval, "validate_plan", "check.transval"),
    ]
    pending = [Workload]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not Workload and "setup" in vars(cls):
            rows.append((cls, "setup", "workloads.setup"))
    return rows


def _per(value, count):
    return value / count if count else 0.0


def per_layer_metrics(tracer, rounds, counts):
    """Every per-layer metric of one traced run.

    *rounds* are the recorder's rounds (traced and untraced ones
    alternate, see the harness); *counts* the exact counts of round 0.
    """
    timed = tracer.summary("timed")
    traced = [rnd for rnd in rounds if rnd.traced]
    plain = [rnd for rnd in rounds if not rnd.traced]
    n = len(traced)

    def self_s(span):
        return _per(timed.get(span, {}).get("self_s", 0.0), n)

    values = {name: 0.0 for name in UNITS}
    for span, metric in SELF_TIME_METRICS.items():
        values[metric] = self_s(span)
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0)
    for metric, (numer, denom, scale) in RATIO_METRICS.items():
        values[metric] = scale * _per(counts.get(numer, 0),
                                      counts.get(denom, 0))

    values["cpu.host_ns_per_instr"] = 1e9 * _per(
        self_s("cpu.machine_run"), counts.get("cpu.instructions", 0))
    values["collect.driver.record_ns_per_sample"] = 1e9 * _per(
        self_s("collect.driver.record"),
        counts.get("collect.driver.samples", 0))
    values["collect.database.load_profiles_per_s"] = _per(
        counts.get("collect.database.profiles_loaded", 0),
        self_s("collect.database.load"))
    growth = [rnd.measures["fleet.store.ingest_ms_growth"]
              for rnd in rounds
              if "fleet.store.ingest_ms_growth" in rnd.measures]
    if growth:
        values["fleet.store.ingest_ms_growth"] = statistics.median(growth)
    queries = tracer.durations("fleet.query.")
    if queries:
        values["fleet.query.ms_p50"] = 1e3 * statistics.median(queries)
    # Delta generation happens once, before the timed region.
    values["fleet.machine.run_epoch_s"] = tracer.summary("setup").get(
        "fleet.machine.run_epoch", {}).get("total_s", 0.0)
    for metric, span in INCLUSIVE_METRICS.items():
        values[metric] = _per(timed.get(span, {}).get("total_s", 0.0), n)
    values["check.transval_ms_per_image"] = 1e3 * _per(
        self_s("check.transval"), counts.get("opt.plans_built", 0))

    busy = sum(rnd.timed_s for rnd in traced)
    covered = sum(row["self_s"] for span, row in timed.items()
                  if span not in BENCH_SPANS)
    values["trace.coverage_pct"] = 100.0 * _per(covered, busy)
    # Throughput and latencies from the rounds no wrapper was
    # installed in.
    values["bench.wall_work_per_s"] = work_rate(plain, "paid_wall")
    values["bench.op_ms_p50"], values["bench.op_ms_p95"] = \
        op_latency_ms(plain)
    values["bench.cpu_slowdown"] = statistics.mean(
        rnd.yard.cpu_slowdown for rnd in rounds)
    values["bench.io_slowdown"] = statistics.mean(
        rnd.yard.io_slowdown for rnd in rounds)
    if traced and plain:
        values["trace.overhead_pct"] = 100.0 * (
            work_rate(plain, "calibrated_s")
            / work_rate(traced, "calibrated_s") - 1.0)
    return values


def layer_table(tracer, rounds):
    """Table-4-style text: where one traced round's wall time went."""
    timed = tracer.summary("timed")
    traced = [rnd for rnd in rounds if rnd.traced]
    n = max(len(traced), 1)
    busy = sum(rnd.timed_s for rnd in traced) or 1.0
    lines = ["%-34s %10s %8s %9s" % ("layer (self time)", "s/round",
                                     "share", "calls/rnd")]
    for span, row in sorted(timed.items(),
                            key=lambda item: -item[1]["self_s"]):
        lines.append("%-34s %10.4f %7.1f%% %9d"
                     % (span, row["self_s"] / n,
                        100.0 * row["self_s"] / busy, row["calls"] // n))
    return "\n".join(lines)
