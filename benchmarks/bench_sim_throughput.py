"""Simulator throughput: the block-level issue cache, on vs off.

Not a figure from the paper -- this benchmark gates the simulator's own
speed, the way Table 3 gates the profiler's overhead.  For each
workload it runs the same profiled execution twice, with the fast path
(predecode + block-level issue cache, :mod:`repro.cpu.fastpath`)
forced on and forced off, and reports instructions per wall-clock
second and the resulting speedup multiplier.

Two properties are asserted:

* the fast path is *sound*: both runs produce byte-identical profile
  databases, event-sample totals, and ground-truth attributions
  (the same fingerprint ``dcpiab`` checks nightly);
* the fast path is *worth having*: the multiplier clears a
  conservative floor on every workload in ``WORKLOADS``, all of them
  code where straight-line replay applies.  Streaming workloads, whose
  blocks blacklist themselves, have no row.

The recorded ``timing.instructions_per_sec`` is for humans: timing
regressions are gated by ``python3 perfbench/run.py`` (``work_per_s``
on ``sim-replay``/``sim-stream``), not by ``dcpibench compare``.
"""

import time

from conftest import QUICK, clamp_budget, profile_workload, write_result

from repro.cpu.config import MachineConfig
from repro.tools.abcheck import fingerprint
from repro.workloads.registry import get_workload

WORKLOADS = ("gcc", "wave5", "timesharing")
BUDGET = 200_000
SEED = 1

#: Conservative speedup floor asserted per workload (measured
#: multipliers are well above this; CI machines vary).  Quick-mode
#: budgets amortize much less of the variant-compile warmup, so the
#: quick floor only guards against the cache making things *worse*.
MIN_SPEEDUP = 1.05
QUICK_MIN_SPEEDUP = 0.75


def _timed_run(name, fastpath):
    workload = get_workload(name)
    config = MachineConfig(num_cpus=workload.num_cpus)
    config.fastpath = fastpath
    # CPU time, not wall: bench workers run in parallel and contend
    # for cores; the speedup ratio must not depend on neighbors.
    started = time.process_time()
    result = profile_workload(workload, seed=SEED,
                              max_instructions=BUDGET,
                              machine_config=config)
    elapsed = time.process_time() - started
    return result, elapsed


def run_throughput():
    rows = []
    for name in WORKLOADS:
        fast, fast_cpu = _timed_run(name, True)
        slow, slow_cpu = _timed_run(name, False)
        instructions = fast.machine.instructions_retired
        snap = fast.machine.fastpath.snapshot()
        rows.append({
            "workload": name,
            "instructions": instructions,
            "slow_ips": instructions / slow_cpu,
            "fast_ips": instructions / fast_cpu,
            "speedup": slow_cpu / fast_cpu,
            "replay_fraction": (snap["replayed_instructions"]
                                / max(instructions, 1)),
            "identical": fingerprint(fast) == fingerprint(slow),
        })
    return rows


def render(rows):
    lines = ["Simulator throughput: block issue cache on vs off",
             "(budget %d instructions, seed %d)"
             % (clamp_budget(BUDGET), SEED),
             "%-14s %12s %12s %8s %8s %10s"
             % ("Workload", "slow i/s", "fast i/s", "speedup",
                "replay%", "identical")]
    for row in rows:
        lines.append("%-14s %12.0f %12.0f %7.2fx %7.0f%% %10s"
                     % (row["workload"], row["slow_ips"],
                        row["fast_ips"], row["speedup"],
                        row["replay_fraction"] * 100,
                        "yes" if row["identical"] else "NO"))
    return "\n".join(lines)


def test_sim_throughput(benchmark):
    rows = benchmark.pedantic(run_throughput, rounds=1, iterations=1,
                              warmup_rounds=0)
    write_result("sim_throughput", render(rows))
    for row in rows:
        # Soundness: the fast path must change nothing observable.
        assert row["identical"], row["workload"]
        # The issue cache must actually engage on these workloads...
        assert row["replay_fraction"] > 0.5, row
        # ...and clear the conservative throughput floor.
        floor = QUICK_MIN_SPEEDUP if QUICK else MIN_SPEEDUP
        assert row["speedup"] > floor, row
