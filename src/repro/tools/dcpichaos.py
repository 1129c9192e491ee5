"""``dcpichaos`` -- run the fault-injection matrix and audit loss.

Runs every registered fault scenario (or a chosen subset), machine
scenarios once per workload, and checks each family's conservation
invariant (:mod:`repro.faults.scenarios`): no unaccounted loss, no
torn record, no double count.  Exit status is 0 only if every case
holds; each broken invariant prints ``FAIL <scenario>[/<workload>]:
<failure>``.  CI runs ``dcpichaos --quick`` as a smoke gate and the
full matrix over two workloads.
"""

import argparse
import sys

from repro.obs.report import add_json_flag, text_stream, write_report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcpichaos",
        description="fault-injection matrix for the collection pipeline "
                    "and the fleet")
    parser.add_argument(
        "--quick", action="store_true",
        help="run only the quick (CI smoke) scenario subset")
    parser.add_argument(
        "--scenarios", default=None,
        help="comma-separated scenario names (default: all registered)")
    parser.add_argument(
        "--workloads", default="gcc",
        help="comma-separated workload names each machine scenario "
             "runs (default: gcc -- its working set actually evicts "
             "and spills); fleet scenarios run their own mix")
    parser.add_argument(
        "--seed", type=int, default=1, help="fault-plan / session seed")
    parser.add_argument(
        "--max-instructions", type=int, default=None,
        help="instruction budget of one collection run: a machine "
             "session or one fleet epoch (default: the family's preset)")
    add_json_flag(parser)
    parser.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and exit")
    return parser


def _list_scenarios(out):
    from repro.faults.scenarios import SCENARIOS

    out.write("%-24s %-7s %-5s %s\n"
              % ("scenario", "family", "quick", "description"))
    for scenario in SCENARIOS:
        out.write("%-24s %-7s %-5s %s\n"
                  % (scenario.name,
                     "machine" if scenario.fleet is None else "fleet",
                     "yes" if scenario.quick else "",
                     scenario.description))


def _label(case):
    return "/".join(filter(None, (case["scenario"], case["workload"])))


def render_table(cases, out):
    header = ("%-24s %-16s %9s %9s %6s %6s %6s %-4s"
              % ("scenario", "workload", "samples", "kept", "quar",
                 "recov", "loss%", "ok"))
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for case in cases:
        out.write("%-24s %-16s %9d %9d %6d %6d %6.2f %-4s\n"
                  % (case["scenario"], case["workload"] or "(fleet)",
                     case["samples"], case["kept"], case["quarantined"],
                     case["recoveries"], case["loss_rate"] * 100.0,
                     "ok" if case["ok"] else "FAIL"))


def main(argv=None, out=None):
    args = build_parser().parse_args(argv)
    text_out = text_stream(args.json, out)
    if args.list:
        _list_scenarios(text_out)
        return 0

    from repro.faults.scenarios import get_scenario, run_matrix

    names = None
    if args.scenarios:
        names = [name.strip() for name in args.scenarios.split(",")
                 if name.strip()]
        for name in names:   # fail fast on typos
            get_scenario(name)
    workloads = [name.strip() for name in args.workloads.split(",")
                 if name.strip()]
    cases = run_matrix(workloads=workloads, quick=args.quick,
                       seed=args.seed, budget=args.max_instructions,
                       names=names)
    render_table(cases, text_out)
    failures = [case for case in cases if not case["ok"]]
    text_out.write("\n%d case(s), %d failure(s), %d recoveries, "
                   "max loss rate %.2f%%\n"
                   % (len(cases), len(failures),
                      sum(case["recoveries"] for case in cases),
                      max((case["loss_rate"] for case in cases),
                          default=0.0) * 100.0))
    for case in failures:
        for failure in case["failures"]:
            text_out.write("FAIL %s: %s\n" % (_label(case), failure))
    if args.json:
        elapsed = {_label(case): case.pop("elapsed_s") for case in cases}
        write_report(args.json, "dcpichaos", {"cases": cases},
                     timing={"elapsed_s": elapsed}, out=out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
