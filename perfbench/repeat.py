"""Does the benchmark agree with itself?

    PYTHONPATH=src python -m perfbench.repeat --sets 2 --seed 1

runs the whole benchmark ``--sets`` times on the same code and prints,
per workload and end-to-end metric, the first set's value, a later
set's, how far apart they are and the bound ``BENCHMARK.json`` fixes.
Exit status is non-zero when two sets are further apart than the bound
-- in either direction: the code did not change, so a set that reads
much better is as wrong as one that reads much worse -- when a run
failed, or when the exact counts of two runs differ: simulated
statistics repeat exactly, host times only within the bound.
"""

import argparse
import sys

from perfbench.suite import load_spec, run_child


def apart(first, later):
    """How far *later* is from *first*, as a share of *first*."""
    return abs(later - first) / first


def disagreements(spec, sets):
    """Table rows and problems for *sets*, a list of
    ``{workload: {metric: value}}``, each later set against the first.
    """
    rows, problems = [], []
    for index, values in enumerate(sets[1:], 1):
        for workload in values:
            if workload not in sets[0]:     # its run in set 0 failed
                continue
            for entry in spec["end_to_end"]:
                name, bound = entry["name"], entry["bound"]
                first = sets[0][workload][name]
                later = values[workload][name]
                share = apart(first, later)
                outside = share > bound
                rows.append("%-14s %-12s %13.6g %13.6g %7.1f%% %6.0f%%%s" % (
                    workload, name, first, later, 100 * share, 100 * bound,
                    "  OUTSIDE" if outside else ""))
                if outside:
                    problems.append(
                        "set %d: %s %s is %.1f%% from set 0 (bound %.0f%%)"
                        % (index, workload, name, 100 * share, 100 * bound))
    return rows, problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m perfbench.repeat",
        description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = load_spec()
    problems = []
    sets = []       # per set: {workload: {metric: value}}
    exact = {}      # workload -> exact block of its first run
    for index in range(args.sets):
        values = {}
        for workload in (entry["name"] for entry in spec["workloads"]):
            status, result = run_child(workload, args.seed,
                                       spec["run_seconds"], trace=False)
            if status or result is None:
                problems.append("set %d: %s exited with status %d"
                                % (index, workload, status))
                continue
            if result["env"]["noisy"]:
                print("NOISY: load average %.2f above nproc"
                      % result["env"]["load_1min"])
            if exact.setdefault(workload, result["exact"]) \
                    != result["exact"]:
                problems.append("set %d: %s exact counts differ from "
                                "the first run's" % (index, workload))
            values[workload] = {
                name: metric["value"]
                for name, metric in result["line"]["metrics"].items()}
        sets.append(values)

    rows, outside = disagreements(spec, sets)
    print()
    print("%-14s %-12s %13s %13s %8s %7s" % (
        "workload", "metric", "set 0", "later set", "apart", "bound"))
    for row in rows:
        print(row)
    for problem in problems + outside:
        print("PROBLEM: " + problem)
    return 1 if problems or outside else 0


if __name__ == "__main__":
    sys.exit(main())
