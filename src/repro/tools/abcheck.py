"""``dcpiab``: verify the simulator fast path changes nothing observable.

The block-level issue cache (:mod:`repro.cpu.fastpath`) is a pure
performance optimization: with it on or off, a profiling session must
produce byte-identical profile databases, event-sample totals,
ground-truth attributions (counts, head-of-queue cycles, per-reason
stall breakdowns, per-instruction event counts, edge counts) and, per
core, the cache / TLB / write-buffer / predictor counters.  This
tool runs every registered workload three times -- fast path on with
the process-wide replay-code cache emptied first (cold), on again with
the cache the first leg filled (warm), then forced off -- canonicalizes
the observable states to bytes, and fails a workload on the first byte
that differs.  The summary line adds up how the cold legs' trace
entries ended (``sim.fastpath.trace_exits.<kind>``), so a gate that
never took one exit path shows it, and the runs the cold legs gave a
generated step and the calls of those steps
(``sim.fastpath.compiled_runs`` / ``compiled_calls``), so the identity
covers that tier too.  The warm leg must also leave the very same
``FastPath.snapshot()`` as the cold one: the cache may change time,
never a count.  CI runs it across the full workload registry on every
push and, with a larger budget, nightly; it is also handy after any
pipeline change ("did I just fork the two paths?").

Usage::

    dcpiab [workloads ...] [--max-instructions N] [--seed N] [--list]
"""

import argparse
import sys
import time

from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.codegen import clear_replay_cache, replay_cache_stats
from repro.cpu.config import MachineConfig
from repro.cpu.fastpath import TRACE_EXITS


def _canonical(value):
    """Render *value* as deterministic bytes (sorted dicts, str keys)."""
    if isinstance(value, dict):
        items = sorted((repr(k), _canonical(v)) for k, v in value.items())
        return b"{" + b",".join(
            k.encode() + b":" + v for k, v in items) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_canonical(v) for v in value) + b"]"
    return repr(value).encode()


def fingerprint(result):
    """Canonical bytes of everything the fast path must not perturb."""
    machine = result.machine
    return _canonical({
        "gt_count": machine.gt_count,
        "gt_head": machine.gt_head,
        "gt_stall": machine.gt_stall,
        "gt_events": machine.gt_events,
        "gt_edges": machine.gt_edges,
        "profiles": result.daemon.export_profiles(),
        "event_samples": dict(result.driver.event_samples),
        "time": machine.time,
        "instructions": machine.instructions_retired,
    })


def model_counters(machine):
    """Per core, the hit / miss counts of every model the pipeline
    probes: both paths inline the hit probes, so these are where a hit
    counted twice or not at all shows.  Kept out of
    :func:`fingerprint`, whose digest perfbench records."""
    return [{
        "l1i": (core.ihier.l1.hits, core.ihier.l1.misses),
        "l1d": (core.dhier.l1.hits, core.dhier.l1.misses),
        "l2": (core.l2.hits, core.l2.misses),
        "board": (core.board.hits, core.board.misses),
        "itb": (core.itb.hits, core.itb.misses),
        "dtb": (core.dtb.hits, core.dtb.misses),
        "wb": (core.wb.merges, core.wb.allocations),
        "bp": (core.bp.predictions, core.bp.mispredictions),
    } for core in machine.cores]


def run_session(workload, fastpath, seed, max_instructions, mode,
                **options):
    """One profiled run with the fast path forced on or off; *options*
    are further :class:`SessionConfig` fields (edge sampling, drain
    interval)."""
    config = MachineConfig(num_cpus=workload.num_cpus)
    config.fastpath = fastpath
    session = ProfileSession(
        config, SessionConfig(mode=mode, cycles_period=(240, 256),
                              event_period=64, seed=seed, **options))
    started = time.perf_counter()
    result = session.run(workload, max_instructions=max_instructions)
    return result, time.perf_counter() - started


def check_workload(workload, seed=1, max_instructions=80_000,
                   mode="default", **options):
    """Return (identical, summary line, cold leg's
    ``FastPath.snapshot()``) for one workload's three legs: cold-cache
    fast, warm-cache fast, slow; *options* go to :func:`run_session`."""
    clear_replay_cache()
    fast, fast_wall = run_session(workload, True, seed,
                                  max_instructions, mode, **options)
    warm, warm_wall = run_session(workload, True, seed,
                                  max_instructions, mode, **options)
    slow, slow_wall = run_session(workload, False, seed,
                                  max_instructions, mode, **options)

    def observed(result):
        return fingerprint(result), model_counters(result.machine)
    fast_seen = observed(fast)
    snap = fast.machine.fastpath.snapshot()
    differs = []
    if observed(slow) != fast_seen:
        differs.append("slow")
    if (observed(warm) != fast_seen
            or warm.machine.fastpath.snapshot() != snap):
        differs.append("warm")
    replay_pct = (100.0 * snap["replayed_instructions"]
                  / max(fast.machine.instructions_retired, 1))
    line = ("%-22s %-9s slow=%.3fs fast=%.3fs warm=%.3fs x%.2f "
            "replay=%.0f%%"
            % (getattr(workload, "name", str(workload)),
               "DIFFERS(%s)" % ",".join(differs) if differs
               else "identical",
               slow_wall, fast_wall, warm_wall,
               slow_wall / fast_wall if fast_wall else 0.0, replay_pct))
    return not differs, line, snap


def main(argv=None):
    from repro.workloads.registry import get_workload, workload_names

    parser = argparse.ArgumentParser(
        prog="dcpiab",
        description="A/B-check the simulator fast path: profile each "
                    "workload with the block issue cache on (cold and "
                    "warm replay-code cache) and off, and fail unless "
                    "every observable is byte-identical")
    parser.add_argument("workloads", nargs="*",
                        help="workload names (default: every registered "
                             "workload)")
    parser.add_argument("--max-instructions", type=int, default=80_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", default="default",
                        choices=["cycles", "default", "mux"])
    parser.add_argument("--list", action="store_true",
                        help="list registered workloads and exit")
    args = parser.parse_args(argv)

    names = args.workloads or workload_names()
    if args.list:
        for name in names:
            print(name)
        return 0
    failures = 0
    traces = dict.fromkeys(["compiled_runs", "compiled_calls",
                            "trace_entries"] + [
        "trace_exits." + kind for kind in TRACE_EXITS], 0)
    for name in names:
        identical, line, snap = check_workload(
            get_workload(name), seed=args.seed,
            max_instructions=args.max_instructions, mode=args.mode)
        print(line)
        if not identical:
            failures += 1
        for key in traces:
            traces[key] += snap[key]
    # Process history, read from the module: never part of a snapshot.
    hits, misses, _ = replay_cache_stats()
    print("dcpiab: %d/%d workloads byte-identical on 3 legs "
          "(cold fast, warm fast, slow); replay cache %d hits, %d misses; "
          "%d compiled runs, %d compiled calls; %d trace entries, exits %s"
          % (len(names) - failures, len(names), hits, misses,
             traces["compiled_runs"], traces["compiled_calls"],
             traces["trace_entries"], " ".join(
                 "%s=%d" % (kind, traces["trace_exits." + kind])
                 for kind in TRACE_EXITS)))
    if failures:
        print("dcpiab: fast path diverged on %d workload(s)" % failures,
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
