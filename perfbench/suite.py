"""Run every workload, one fresh child process after another.

    PYTHONPATH=src python -m perfbench --seed 1 [--workload W] [--trace]

Each workload runs through ``perfbench/run.py`` -- the command
``BENCHMARK.json`` names -- in its own process, so ``peak_rss_mb`` and
every cache start clean; nothing runs in parallel (two cores: one for
the workload, one for everything else on the box).  End-to-end metrics
come from the untraced run; ``--trace`` adds a traced run per workload
for the per-layer metrics and the layer table.  The names every child
printed are checked against ``BENCHMARK.json``.
"""

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from perfbench.harness import ROOT, SCRATCH

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload, seed, seconds, trace, smoke=False, out_dir=None):
    """One ``run.py`` process; returns (exit status, full result).

    The child's report goes straight to our standard output; the full
    result (exact counts, environment) is read back from *out_dir*.
    """
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = out_dir or tempfile.mkdtemp(prefix="out-", dir=SCRATCH)
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--out-dir", scratch]
    if smoke:
        command.append("--smoke")
    try:
        sys.stdout.flush()
        status = subprocess.run(command, cwd=ROOT).returncode
        path = os.path.join(scratch, "%s.%s.json"
                            % (workload, "trace" if trace else "e2e"))
        result = None
        if os.path.exists(path):
            with open(path) as handle:
                result = json.load(handle)
        return status, result
    finally:
        if out_dir is None:
            shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)   # only when no other run is using it


def check_names(spec, result):
    """Problems with the metric names *result* printed, as strings."""
    section = "per_layer" if result["trace"] else "end_to_end"
    expected = {(entry["name"], entry["unit"]) for entry in spec[section]}
    printed = {(name, metric["unit"])
               for name, metric in result["line"]["metrics"].items()}
    return ["%s: %s %s not in BENCHMARK.json %s" % (
                result["workload"], name, unit, section)
            for name, unit in sorted(printed - expected)] + [
            "%s: BENCHMARK.json %s metric %s %s not printed" % (
                result["workload"], section, name, unit)
            for name, unit in sorted(expected - printed)]


def summary_table(spec, results):
    names = [entry["name"] for entry in spec["end_to_end"]]
    lines = ["%-14s" % "workload" + "".join("%14s" % n for n in names)
             + "%8s" % "failed"]
    for result in results:
        metrics = result["line"]["metrics"]
        lines.append("%-14s" % result["workload"] + "".join(
            "%14.6g" % metrics[name]["value"] for name in names)
            + "%8d" % result["line"]["failed"])
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--trace", action="store_true",
                        help="add a traced run per workload")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir",
                        help="keep every run's full result JSON (and "
                             "Chrome-trace spans) in this directory")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    known = [entry["name"] for entry in spec["workloads"]]
    workloads = args.workload or known
    problems = []
    untraced = []
    for workload in workloads:
        for trace in (False, True) if args.trace else (False,):
            status, result = run_child(workload, args.seed,
                                       spec["run_seconds"], trace,
                                       smoke=args.smoke,
                                       out_dir=args.out_dir)
            if result is None:
                problems.append("%s: no result (exit %d)"
                                % (workload, status))
                continue
            if status:
                problems.append("%s: exit status %d, %d failed operations"
                                % (workload, status,
                                   result["line"]["failed"]))
            problems.extend(check_names(spec, result))
            if not trace:
                untraced.append(result)
    print()
    print(summary_table(spec, untraced))
    for problem in problems:
        print("PROBLEM: " + problem)
    return 1 if problems else 0
