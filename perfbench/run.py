"""Measure one workload in this process (the ``BENCHMARK.json`` command).

    python3 perfbench/run.py --workload sim-replay --seed 1 \\
        --seconds 10 --trace 0

prints a readable report and, as the last line of standard output, the
result object.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics.  Exit status is non-zero when any
check failed, and 2 when the program under test cannot be imported.
"""

import argparse
import json
import os
import sys


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up, one round; output is marked "
                             "and must never be compared")
    parser.add_argument("--out-dir",
                        help="also write the full result (and, traced, "
                             "the Chrome-trace spans) as JSON here")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in (os.path.join(root, "src"), root):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from perfbench import harness
        from perfbench.workloads import all_workloads
        workloads = all_workloads()
    except ImportError as exc:
        print("perfbench: cannot import the program under test: %s" % exc,
              file=sys.stderr)
        return 2
    if args.workload not in workloads:
        print("perfbench: unknown workload %r; known: %s"
              % (args.workload, ", ".join(workloads)), file=sys.stderr)
        return 2
    result = harness.run_workload(
        workloads[args.workload](), args.seed, args.seconds,
        trace=bool(args.trace), smoke=args.smoke, out_dir=args.out_dir)
    print(harness.render(result))
    print(json.dumps(result["line"]))
    return 0 if result["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
