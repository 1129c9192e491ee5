"""``dcpimon`` -- the profiler profiling itself.

The paper's own evaluation (sections 5 and 8) is a self-monitoring
exercise: how many samples per second, how well the per-CPU hash
tables aggregate, how much memory the daemon holds, where the analysis
time goes.  ``dcpimon`` renders exactly that report for this
reproduction, from the ``repro.obs`` metrics and trace spans:

* ``dcpimon report`` runs a sharded collection (obs-enabled shards)
  plus one in-process analysis pass, prints the self-profile report,
  and optionally writes the combined Chrome-trace JSONL (open in
  ``about:tracing`` / Perfetto, or feed back via ``--from-trace``).
* ``dcpimon report --from-trace FILE`` rebuilds the same report
  post-hoc from a trace file alone -- the derived metrics ride along
  as counter events, the shard facts as metadata events.  The live
  report is rendered from that same event list by the same code, so
  the two agree line for line below the title.
* ``dcpimon overhead`` measures the wall-clock cost of enabling
  self-monitoring against the identical disabled run, in alternating
  pairs, and can assert a ceiling (``--max-pct``), which CI gates at
  2%; pairs that disagree by more than the ceiling read ``unresolved``.
"""

import argparse
import statistics
import sys
import time
from dataclasses import replace

from repro.obs import derive, span_durations, trace_counters
from repro.obs.report import render_report
from repro.obs.trace import (PH_COUNTER, PH_METADATA, read_events,
                             write_events)

#: Metadata event names used to make traces self-describing.
META_SHARD = "dcpimon.shard"
META_MERGE = "dcpimon.merge"


def _shard_rows(run):
    """Per-shard report rows from a :class:`ParallelRunResult`."""
    return [{"label": shard.spec.label(),
             "wall_s": shard.elapsed,
             "samples": shard.samples,
             "instructions": shard.instructions}
            for shard in run.shards]


def _analysis_phases(events):
    """The analyze.*/session.* span table for the report."""
    return {name: entry for name, entry in span_durations(events).items()
            if name.startswith(("analyze.", "session."))}


def _combined_events(obs, run, flat):
    """One self-describing event list: in-process spans (pid 0), each
    shard's spans re-stamped to its own pid, derived metrics as counter
    series, and shard/merge facts as metadata -- everything
    ``--from-trace`` needs to rebuild the report."""
    events = [dict(event) for event in obs.trace.events]
    events.append({"ph": PH_METADATA, "name": "process_name", "ts": 0,
                   "pid": 0, "tid": 0, "args": {"name": "dcpimon"}})
    for index, shard in enumerate(run.shards):
        pid = index + 1
        events.append({"ph": PH_METADATA, "name": "process_name",
                       "ts": 0, "pid": pid, "tid": 0,
                       "args": {"name": shard.spec.label()}})
        for event in shard.trace_events or ():
            stamped = dict(event)
            stamped["pid"] = pid
            events.append(stamped)
    for row in _shard_rows(run):
        events.append({"ph": PH_METADATA, "name": META_SHARD, "ts": 0,
                       "pid": 0, "tid": 0, "args": dict(row)})
    events.append({"ph": PH_METADATA, "name": META_MERGE, "ts": 0,
                   "pid": 0, "tid": 0, "args": {"merge_s": run.merge_s}})
    for name, value in sorted(flat.items()):
        if isinstance(value, (int, float)):
            events.append({"ph": PH_COUNTER, "name": name, "ts": 0,
                           "pid": 0, "tid": 0, "args": {"value": value}})
    return events


def _analyze_hottest(result, obs):
    """Run the full analysis pipeline on the hottest profiled image so
    the report has a per-phase time breakdown."""
    from repro.core.analyze import AnalysisConfig, analyze_image
    from repro.cpu.events import EventType

    hottest, best = None, -1
    for profile in result.profiles.values():
        total = sum(profile.procedure_totals(EventType.CYCLES).values())
        if total > best:
            hottest, best = profile, total
    if hottest is None:
        return None
    config = AnalysisConfig(obs=obs)
    with obs.span("analyze.image", image=hottest.image.name):
        analyze_image(hottest.image, hottest, config)
    return hottest.image.name


def run_report(args):
    """The live path: sharded collection + in-process analysis."""
    from repro.collect.parallel import ParallelSessionRunner, ShardSpec
    from repro.collect.session import ProfileSession, SessionConfig
    from repro.cpu.config import MachineConfig
    from repro.obs import ObsConfig
    from repro.workloads.registry import get_workload

    # Shards and the analysis session below all sample at
    # (240, 256)/64; shard i runs seed args.seed + i.
    config = SessionConfig(mode=args.mode, seed=args.seed,
                           cycles_period=(240, 256), event_period=64,
                           obs=ObsConfig(enabled=True))
    specs = [ShardSpec(args.workload,
                       replace(config, seed=args.seed + index),
                       args.max_instructions)
             for index in range(args.shards)]
    runner = ParallelSessionRunner(workers=args.workers)
    run = runner.run(specs)

    # One in-process observed session feeds the analysis passes; its
    # spans land in the trace the report's phase table is built from.
    workload = get_workload(args.workload)
    session = ProfileSession(MachineConfig(num_cpus=workload.num_cpus),
                             config)
    result = session.run(workload, max_instructions=args.max_instructions)
    # Reuse the session's live obs so analysis spans share its clock.
    obs = result.obs
    analyzed = _analyze_hottest(result, obs)

    events = _combined_events(obs, run, derive(run.obs))
    if args.trace:
        write_events(args.trace, events)

    title = "%s (%d shards%s)" % (
        args.workload, args.shards,
        ", analyzed %s" % analyzed if analyzed else "")
    text = _render(events, title)
    if args.trace:
        text += "\ntrace: %s (%d events)\n" % (args.trace, len(events))
    return text


def report_from_trace(path):
    """Rebuild the report from a trace written by ``dcpimon report``."""
    return _render(read_events(path), "(from %s)" % path)


def _render(events, title):
    """The report of one combined event list (both report paths)."""
    flat = trace_counters(events)
    phases = _analysis_phases(events)
    shard_rows = [event["args"] for event in events
                  if event.get("ph") == PH_METADATA
                  and event.get("name") == META_SHARD]
    merge_s = None
    for event in events:
        if (event.get("ph") == PH_METADATA
                and event.get("name") == META_MERGE):
            merge_s = event["args"].get("merge_s")
    return render_report(flat, shards=shard_rows, merge_s=merge_s,
                         phases=phases, title=title)


def measure_overhead(workload_name, mode="default", budget=40_000,
                     seed=1, repeats=3):
    """Wall-clock cost of self-monitoring: enabled vs disabled runs.

    Runs the identical (workload, seed) session as *repeats* pairs,
    alternating which side goes first so that drift on the host lands
    on both, and reports the median of the per-pair overheads with the
    distance between their quartiles -- how far the pairs disagree.
    Returns {"disabled_s", "enabled_s", "overhead_pct", "spread_pct",
    ...}.
    """
    from repro.collect.session import ProfileSession, SessionConfig
    from repro.cpu.config import MachineConfig
    from repro.obs import ObsConfig
    from repro.workloads.registry import get_workload

    def one(enabled):
        workload = get_workload(workload_name)
        config = SessionConfig(
            mode=mode, seed=seed,
            obs=ObsConfig(enabled=True) if enabled else None)
        session = ProfileSession(
            MachineConfig(num_cpus=workload.num_cpus), config)
        started = time.perf_counter()
        session.run(workload, max_instructions=budget)
        return time.perf_counter() - started

    one(False)  # warm-up: imports, opcode tables, allocator
    disabled, enabled = [], []
    for pair in range(repeats):
        if pair % 2:
            enabled.append(one(True))
            disabled.append(one(False))
        else:
            disabled.append(one(False))
            enabled.append(one(True))
    pcts = [(on - off) / off * 100.0 for off, on in zip(disabled, enabled)]
    overhead_pct, spread_pct = median_spread(pcts)
    return {
        "workload": workload_name,
        "budget": budget,
        "repeats": repeats,
        "disabled_s": statistics.median(disabled),
        "enabled_s": statistics.median(enabled),
        "overhead_pct": overhead_pct,
        "spread_pct": spread_pct,
    }


def median_spread(values):
    """The median of per-pair *values* and the distance between their
    quartiles: how far the pairs disagree (0 for a single pair).  A
    difference no wider than the spread is unresolved."""
    if len(values) > 1:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low = high = values[0]
    return statistics.median(values), high - low


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dcpimon",
        description="self-monitoring report for the profiling pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render the self-profile report")
    report.add_argument("--workload", default="mccalpin")
    report.add_argument("--mode", default="default",
                        choices=["cycles", "default", "mux"])
    report.add_argument("--shards", type=int, default=2)
    report.add_argument("--workers", type=int, default=None)
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--max-instructions", type=int, default=60_000)
    report.add_argument("--trace", default=None,
                        help="write the combined Chrome trace here "
                             "(JSONL; .json = array form)")
    report.add_argument("--from-trace", default=None,
                        help="post-hoc: rebuild the report from a "
                             "previously written trace file")
    report.add_argument("--quick", action="store_true",
                        help="small run for smoke tests / CI")

    overhead = sub.add_parser(
        "overhead", help="measure the cost of enabling self-monitoring")
    overhead.add_argument("--workload", default="mccalpin-assign")
    overhead.add_argument("--mode", default="default",
                          choices=["cycles", "default", "mux"])
    overhead.add_argument("--budget", type=int, default=40_000,
                          help="instructions per timed run")
    overhead.add_argument("--seed", type=int, default=1)
    overhead.add_argument("--repeats", type=int, default=3)
    overhead.add_argument("--max-pct", type=float, default=None,
                          help="fail (exit 1) if overhead exceeds this")
    overhead.add_argument("--quick", action="store_true",
                          help="small run for smoke tests / CI")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        if args.quick:
            args.shards = min(args.shards, 2)
            args.max_instructions = min(args.max_instructions, 20_000)
            args.workers = args.workers or 2
        if args.from_trace:
            print(report_from_trace(args.from_trace), end="")
            return 0
        print(run_report(args), end="")
        return 0

    if args.command == "overhead":
        if args.quick:
            args.budget = min(args.budget, 15_000)
            args.repeats = min(args.repeats, 2)
        result = measure_overhead(args.workload, mode=args.mode,
                                  budget=args.budget, seed=args.seed,
                                  repeats=args.repeats)
        print("dcpimon overhead: %s, %d instructions x%d"
              % (result["workload"], result["budget"], result["repeats"]))
        print("  disabled  %8.3f s" % result["disabled_s"])
        print("  enabled   %8.3f s" % result["enabled_s"])
        print("  overhead  %+7.2f %%  (median of pairs, quartiles "
              "%.2f points apart)"
              % (result["overhead_pct"], result["spread_pct"]))
        if args.max_pct is None:
            return 0
        # The ceiling is also the resolution asked for: pairs further
        # apart than its size cannot tell either side of it.
        if result["spread_pct"] > abs(args.max_pct):
            print("unresolved: the pairs' quartiles are %.2f points apart,"
                  " wider than --max-pct %.2f%%"
                  % (result["spread_pct"], args.max_pct))
            return 0
        if result["overhead_pct"] > args.max_pct:
            print("FAIL: overhead %.2f%% exceeds --max-pct %.2f%%"
                  % (result["overhead_pct"], args.max_pct),
                  file=sys.stderr)
            return 1
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
