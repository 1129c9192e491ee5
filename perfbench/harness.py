"""Closed-loop measurement of one workload in this process.

One client, no pools: a workload's *round* -- a fixed, seed-determined
amount of work -- is repeated until the measurement window is used up,
each round into a fresh scratch directory.  Because every round does
identical work, every round must report identical exact counts (a
round that does not is a failed determinism check).  ``work_per_s`` and
``setup_s`` are medians over the rounds and over the set-ups, each in
seconds of the reference machine
(:meth:`perfbench.recorder.Calibration.seconds`).

End-to-end metrics come from a run with tracing off.  In a traced run
plain and traced rounds alternate, so the tracing overhead is measured
between neighbours in one process and the per-layer numbers come from
the traced rounds only.
"""

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time

from perfbench import layers
from perfbench.recorder import (Calibration, Recorder, Round, Stopwatch,
                                op_latency_ms, work_rate)
from perfbench.tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: Set-up runs at least three times, and a short one -- repetitions of
#: a 0.3 s set-up differ by a tenth -- until it has taken three seconds
#: or run nine times; ``setup_s`` is the median.
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 3.0

#: A run measures at least this many rounds, however slow the machine:
#: the median of three is not moved by one slow round.
MIN_ROUNDS = 3

#: Yardstick readings before and after every set-up.
SETUP_READINGS = 8

#: End-to-end metrics every workload reports (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def environment(seed):
    """Where and on what the numbers were taken."""
    commit = None
    # Only in a checkout that is a repository itself: git would search
    # the directories above it, and a run reads nothing outside.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {"python": platform.python_version(), "nproc": nproc,
            "load_1min": load, "noisy": load > nproc, "commit": commit,
            "seed": seed}


def set_up(workload, seed, scratch, tracer, once):
    """Run the workload's set-up, repeatedly unless *once*; return the
    state of the last repetition and every repetition's
    reference-machine seconds.

    Traced when there is a *tracer*, so that set-up-only layers such
    as fleet.machine.* are seen.
    """
    fewest, most = (1, 1) if once else SETUP_REPEATS
    seconds = []
    spent = 0.0
    state = None
    while len(seconds) < fewest or (len(seconds) < most
                                    and spent < SETUP_SECONDS):
        path = os.path.join(scratch, "setup%d" % len(seconds))
        os.makedirs(path)
        state = None        # free the previous repetition first
        gc.collect()
        yard = Calibration()
        for _ in range(SETUP_READINGS):
            yard.read(scratch)
        with Stopwatch() as watch, (tracer.span("bench.setup") if tracer
                                    else contextlib.nullcontext()):
            state = workload.setup(seed, path)
        for _ in range(SETUP_READINGS):
            yard.read(scratch)
        seconds.append(yard.seconds(watch.wall, watch.user))
        spent += watch.wall
    return state, seconds


def run_workload(workload, seed, seconds, trace=False, smoke=False,
                 out_dir=None):
    """Measure *workload*; return the full result dict.

    ``result["line"]`` is the contract's last-line object.
    """
    env = environment(seed)
    tracer = Tracer() if trace else None
    targets = layers.targets() if trace else ()
    scratch = os.path.join(SCRATCH, "%s-%d" % (workload.name, os.getpid()))
    os.makedirs(scratch)
    rec = Recorder(scratch, tracer)
    try:
        if trace:
            tracer.install(targets, skip=workload.trace_skip)
        state, setup_times = set_up(workload, seed, scratch, tracer,
                                    once=trace or smoke)
        if trace:
            tracer.uninstall()
            tracer.phase = "timed"

        started = time.perf_counter()
        while True:
            index = len(rec.rounds)
            traced = trace and index % 2 == 1
            path = os.path.join(scratch, "round%d" % index)
            os.makedirs(path)
            # Cyclic garbage of the round before (a Machine is one
            # big cycle) is freed now, not whenever the collector's
            # counters say: without this sim-stream's peak_rss_mb read
            # 58 or 61 MiB by chance.
            gc.collect()
            rnd = rec.begin_round(traced, path)
            if traced:
                tracer.install(targets, skip=workload.trace_skip)
            try:
                workload.round(state, rec)
            finally:
                if traced:
                    tracer.uninstall()
            shutil.rmtree(path)
            first = rec.rounds[0]
            if rnd.counts != first.counts:
                rec.fail("round %d is not a repeat of round 0: %s differ"
                         % (index, sorted(
                             key for key in set(rnd.counts) | set(first.counts)
                             if rnd.counts.get(key) != first.counts.get(key))))
            elif ([span for span, _ in rnd.segments]
                  != [span for span, _ in first.segments]):
                rec.fail("round %d timed another sequence of operations "
                         "than round 0" % index)
            least = 2 if trace else 1 if smoke else MIN_ROUNDS
            if len(rec.rounds) >= least and (
                    smoke or time.perf_counter() - started >= seconds):
                break

        if trace:
            tracer.phase = "extras"
        # Untimed checks and exact statistics that need a pass of
        # their own; recorded like a round but never timed.
        rec.round = extras = Round(-1, False,
                                   os.path.join(scratch, "extras"))
        os.makedirs(extras.path)
        workload.extras(state, rec, trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)   # only when no other run is using it

    rounds = rec.rounds
    exact = dict(rounds[0].counts)
    exact.update(extras.counts)
    if trace:
        values = layers.per_layer_metrics(tracer, rounds, exact)
        units = layers.UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "work_per_s": work_rate(rounds, "calibrated_s"),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    attempted = rec.attempted
    failed = min(len(rec.failures), attempted)
    line = {"correct": not rec.failures, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
    if smoke:
        line["smoke"] = True    # never compared with a real run
    result = {
        "workload": workload.name, "trace": bool(trace), "smoke": smoke,
        "env": env, "seconds": seconds, "rounds": len(rounds),
        "operations": attempted, "work_unit": workload.unit,
        "operation": workload.operation, "exact": exact,
        "wall_work_per_s": work_rate(rounds, "paid_wall"),
        "round_wall_s": [rnd.paid_wall for rnd in rounds],
        "round_user_s": [rnd.paid_user for rnd in rounds],
        "round_calibrated_s": [rnd.calibrated_s for rnd in rounds],
        "round_cpu_slowdown": [rnd.yard.cpu_slowdown for rnd in rounds],
        "round_io_slowdown": [rnd.yard.io_slowdown for rnd in rounds],
        "op_ms_p50_p95": op_latency_ms(rounds),
        "failures": rec.failures, "line": line,
    }
    if trace:
        result["layer_table"] = layers.layer_table(tracer, rounds)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        kind = "trace" if trace else "e2e"
        with open(os.path.join(out_dir, "%s.%s.json"
                               % (workload.name, kind)), "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
        if trace:
            with open(os.path.join(out_dir, "%s.spans.json"
                                   % workload.name), "w") as handle:
                json.dump(tracer.chrome_trace(), handle)
    return result


def render(result):
    """The human-readable report of one run."""
    env = result["env"]
    lines = [
        "== %s (%s%s) ==" % (result["workload"],
                             "traced" if result["trace"] else "untraced",
                             ", smoke" if result["smoke"] else ""),
        "python %s, nproc %d, load %.2f%s, commit %s, seed %d"
        % (env["python"], env["nproc"], env["load_1min"],
           " NOISY" if env["noisy"] else "", env["commit"], env["seed"]),
        "%d rounds, %d operations (operation: %s; work: %s), %d failed"
        % (result["rounds"], result["operations"], result["operation"],
           result["work_unit"], result["line"]["failed"]),
    ]
    for title, key in (("wall seconds per round", "round_wall_s"),
                       ("  of which user mode", "round_user_s"),
                       ("  interpreter slowdown", "round_cpu_slowdown"),
                       ("  file-write slowdown", "round_io_slowdown"),
                       ("reference-machine seconds", "round_calibrated_s")):
        lines.append("%-26s %s" % (title + ":", " ".join(
            "%.3f" % value for value in result[key])))
    lines.append("work per wall second, as measured: %.6g"
                 % result["wall_work_per_s"])
    lines.append("operation latency: p50 %.4g ms, p95 %.4g ms"
                 % tuple(result["op_ms_p50_p95"]))
    for name, metric in result["line"]["metrics"].items():
        lines.append("  %-42s %16.6g %s"
                     % (name, metric["value"], metric["unit"]))
    if result["trace"]:
        lines.append(result["layer_table"])
    lines.append("exact: " + json.dumps(result["exact"], sort_keys=True))
    lines.extend("FAILED: " + message for message in result["failures"])
    return "\n".join(lines)
