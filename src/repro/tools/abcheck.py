"""``dcpiab``: verify the simulator fast path changes nothing observable.

The block-level issue cache (:mod:`repro.cpu.fastpath`) is a pure
performance optimization: with it on or off, a profiling session must
produce byte-identical profile databases, event-sample totals, and
ground-truth attributions (counts, head-of-queue cycles, per-reason
stall breakdowns, per-instruction event counts, edge counts).  This
tool runs every registered workload three times -- fast path on with
the process-wide replay-code cache emptied first (cold), on again with
the cache the first leg filled (warm), then forced off -- canonicalizes
the observable states to bytes, and fails a workload on the first byte
that differs.  The warm leg must also leave the very same
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
from repro.cpu.config import MachineConfig
from repro.cpu.fastpath import clear_replay_cache, replay_cache_stats


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


def run_session(workload, fastpath, seed, max_instructions, mode):
    """One profiled run with the fast path forced on or off."""
    config = MachineConfig(num_cpus=workload.num_cpus)
    config.fastpath = fastpath
    session = ProfileSession(
        config, SessionConfig(mode=mode, cycles_period=(240, 256),
                              event_period=64, seed=seed))
    started = time.perf_counter()
    result = session.run(workload, max_instructions=max_instructions)
    return result, time.perf_counter() - started


def check_workload(workload, seed=1, max_instructions=80_000,
                   mode="default"):
    """Return (identical, summary line) for one workload's three
    legs: cold-cache fast, warm-cache fast, slow."""
    clear_replay_cache()
    fast, fast_wall = run_session(workload, True, seed,
                                  max_instructions, mode)
    warm, warm_wall = run_session(workload, True, seed,
                                  max_instructions, mode)
    slow, slow_wall = run_session(workload, False, seed,
                                  max_instructions, mode)
    fast_print = fingerprint(fast)
    snap = fast.machine.fastpath.snapshot()
    differs = []
    if fingerprint(slow) != fast_print:
        differs.append("slow")
    if (fingerprint(warm) != fast_print
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
    return not differs, line


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
    for name in names:
        identical, line = check_workload(
            get_workload(name), seed=args.seed,
            max_instructions=args.max_instructions, mode=args.mode)
        print(line)
        if not identical:
            failures += 1
    # Process history, read from the module: never part of a snapshot.
    hits, misses, _ = replay_cache_stats()
    print("dcpiab: %d/%d workloads byte-identical on 3 legs "
          "(cold fast, warm fast, slow); replay cache %d hits, %d misses"
          % (len(names) - failures, len(names), hits, misses))
    if failures:
        print("dcpiab: fast path diverged on %d workload(s)" % failures,
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
