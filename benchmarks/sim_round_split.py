"""Where one ``sim-replay`` round goes: compile / replay bodies /
slow-path instructions / replay dispatch.

A measurement recipe, not a benchmark (``dcpibench`` does not collect
it and nothing asserts on it): it regenerates the round split quoted
in EXPERIMENTS.md "Simulator throughput", which ROADMAP decision rule
3(e) reads.  It runs perfbench's ``sim-replay`` round -- seven programs
at the bench period, 200 000 instructions each -- and splits the wall
time of a warm round four ways:

* *compile*: time inside ``compile()`` as :mod:`repro.cpu.codegen`
  calls it for replay code (the module-level name is shadowed by a
  timing wrapper; generated steps' compiles are not timed);
* *replay bodies*: time inside the compiled replay functions, from a
  second round in which every variant's and trace's ``fn`` is
  bracketed;
* *slow-path instructions*: the instructions the fast round did not
  replay, charged at the per-instruction rate of the same round with
  ``config.fastpath = False``;
* *replay dispatch*: the remainder -- the gate's key build, the call,
  the bulk bookkeeping after each replay, and bails.  A dispatch is one
  gate entry into a block or a trace (``sim.fastpath.dispatches``).

*Slow-path instructions* is a lower bound and *replay dispatch* an
upper bound: the instructions the fast path leaves are the ones with
misses, write-buffer waits and deliveries, which cost more than the
mean of an all-slow-path round, and the remainder absorbs the
difference.

It also prints where the round's replays stopped: ``sim.fastpath.bails``
by the probe that did not hit (a replay is a clean prefix; the slow
path runs the instruction that missed), next to the gate's refusals;
how the trace entries ended (``sim.fastpath.trace_exits.<kind>``); and
the instructions the slow path ran, by the refusal that began their
segment (``sim.fastpath.slow_instructions.<cause>``).
``sim-stream`` as the argument runs that workload's programs instead.

Usage::

    PYTHONPATH=src python benchmarks/sim_round_split.py [sim-stream]
"""

import sys
import time

from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu import codegen, fastpath
from repro.cpu.config import MachineConfig
from repro.workloads.registry import get_workload

ROUNDS = {
    "sim-replay": ("gcc", "x11perf", "wave5", "specint95", "specfp95",
                   "parallel-specfp", "timesharing"),
    "sim-stream": ("mccalpin-assign", "mccalpin-scale", "mccalpin-sum",
                   "mccalpin-saxpy", "bigcode", "altavista", "dss"),
}
STOPS = ["bails." + reason for reason in fastpath.BAIL_REASONS] + [
    "headroom_skips", "variant_misses"]
EXITS = ["trace_exits." + kind for kind in fastpath.TRACE_EXITS]
CAUSES = ["slow_instructions." + cause for cause in fastpath.SLOW_CAUSES]
COUNTS = STOPS + EXITS + CAUSES + [
    "dispatches", "traces", "trace_entries"]
BUDGET = 200_000
PERIOD = dict(mode="default", cycles_period=(240, 256), event_period=64)

clock = time.perf_counter
spent = {"compile": 0.0, "compiles": 0, "bodies": 0.0}
tier_up = fastpath.FastPath.compile_variant
compile_trace = fastpath.FastPath.compile_trace


def timed_compile(source, filename, *args):
    if filename != "<fastpath-variant>":
        return compile(source, filename, *args)
    started = clock()
    code = compile(source, filename, *args)
    spent["compile"] += clock() - started
    spent["compiles"] += 1
    return code


def bracket(unit):
    fn = unit.fn

    def body(*args):
        started = clock()
        res = fn(*args)
        spent["bodies"] += clock() - started
        return res
    unit.fn = body


def timed_tier_up(self, variant):
    tier_up(self, variant)
    bracket(variant)


def timed_compile_trace(self, trace):
    compile_trace(self, trace)
    bracket(trace)


def one_round(programs, fast, time_bodies=False):
    fastpath.FastPath.compile_variant = (
        timed_tier_up if time_bodies else tier_up)
    fastpath.FastPath.compile_trace = (
        timed_compile_trace if time_bodies else compile_trace)
    spent.update(compile=0.0, compiles=0, bodies=0.0)
    out = dict(wall=0.0, n=0, replayed=0, replays=0)
    out.update(dict.fromkeys(COUNTS, 0))
    for name in programs:
        program = get_workload(name)
        config = MachineConfig(num_cpus=program.num_cpus)
        config.fastpath = fast
        session = ProfileSession(config, SessionConfig(seed=1, **PERIOD))
        started = clock()
        result = session.run(program, max_instructions=BUDGET)
        out["wall"] += clock() - started
        out["n"] += result.instructions
        if fast:
            snap = result.machine.fastpath.snapshot()
            out["replayed"] += snap["replayed_instructions"]
            out["replays"] += snap["replays"]
            for key in COUNTS:
                out[key] += snap[key]
    return dict(out, **spent)


def main():
    programs = ROUNDS[sys.argv[1] if len(sys.argv) > 1 else "sim-replay"]
    codegen.compile = timed_compile    # shadows the builtin in codegen
    one_round(programs, True)          # imports settle, the cache fills
    slow = min((one_round(programs, False) for _ in range(3)),
               key=lambda r: r["wall"])
    fast = min((one_round(programs, True) for _ in range(3)),
               key=lambda r: r["wall"])
    bodies = one_round(programs, True, time_bodies=True)["bodies"]
    per_slow = slow["wall"] / slow["n"]
    unreplayed = fast["n"] - fast["replayed"]
    slow_s = unreplayed * per_slow
    print("round %.3f s; pure slow path %.3f s (%.2f us/instr); "
          "fast/slow x%.2f" % (fast["wall"], slow["wall"],
                               1e6 * per_slow, slow["wall"] / fast["wall"]))
    print("  compile()          %.3f s (%d calls)"
          % (fast["compile"], fast["compiles"]))
    print("  replay bodies      %.3f s (%d replays, %d instructions)"
          % (bodies, fast["replays"], fast["replayed"]))
    print("  slow-path instrs   %.3f s (%d instructions)"
          % (slow_s, unreplayed))
    print("  replay dispatch    %.3f s (the remainder)"
          % (fast["wall"] - fast["compile"] - bodies - slow_s))
    print("dispatches %d (%.1f instructions each), %d replays; "
          "%d traces, %d trace entries"
          % (fast["dispatches"], fast["replayed"] / max(fast["dispatches"], 1),
             fast["replays"], fast["traces"], fast["trace_entries"]))
    print("replays stopped or refused: "
          + ", ".join("%s %d" % (key, fast[key]) for key in STOPS))
    print("trace exits: " + ", ".join(
        "%s %d" % (key.partition(".")[2], fast[key]) for key in EXITS))
    print("slow-path instructions by cause: " + ", ".join(
        "%s %d" % (key.partition(".")[2], fast[key]) for key in CAUSES))


if __name__ == "__main__":
    main()
