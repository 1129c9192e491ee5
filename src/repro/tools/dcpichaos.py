"""``dcpichaos`` -- run the fault-injection matrix and audit loss.

Runs every registered fault scenario (or a chosen subset) against one
or more workloads, each time alongside a fault-free twin with the same
seed, and checks the conservation invariant: recovered profile counts
equal the fault-free counts minus exactly the accounted losses --
never a torn record, never a double-count, never silent loss.

Exit status is 0 only if every case holds the invariant; CI runs
``dcpichaos --quick`` as a smoke gate and the nightly job runs the
full matrix.
"""

import argparse
import json
import sys

from repro.obs.report import add_json_flag, text_stream, write_report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcpichaos",
        description="fault-injection matrix for the collection pipeline")
    parser.add_argument(
        "--quick", action="store_true",
        help="run only the quick (CI smoke) scenario subset")
    parser.add_argument(
        "--fleet", action="store_true",
        help="run the fleet scenario family (transport/spool/crash/"
             "shard faults against a whole simulated fleet) instead "
             "of the single-machine matrix")
    parser.add_argument(
        "--scenarios", default=None,
        help="comma-separated scenario names (default: all registered)")
    parser.add_argument(
        "--workloads", default="gcc",
        help="comma-separated workload names (default: gcc -- its "
             "working set actually evicts and spills)")
    parser.add_argument(
        "--seed", type=int, default=1, help="fault-plan / session seed")
    parser.add_argument(
        "--max-instructions", type=int, default=None,
        help="instruction budget per run (default: matrix preset)")
    add_json_flag(parser)
    parser.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and exit")
    return parser


def _list_scenarios(out):
    from repro.faults.scenarios import FLEET_SCENARIOS, SCENARIOS

    out.write("%-24s %-5s %s\n" % ("scenario", "quick", "description"))
    for scenario in SCENARIOS:
        out.write("%-24s %-5s %s\n"
                  % (scenario.name, "yes" if scenario.quick else "",
                     scenario.description))
    out.write("\nfleet scenarios (--fleet):\n")
    for scenario in FLEET_SCENARIOS:
        out.write("%-24s %-5s %s\n"
                  % (scenario.name, "yes" if scenario.quick else "",
                     scenario.description))


def render_fleet_table(cases, out):
    header = ("%-24s %9s %8s %7s %7s %6s %7s %5s %-4s"
              % ("scenario", "shipped", "stored", "dropped", "retries",
                 "quar", "recov", "loss%", "ok"))
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for case in cases:
        out.write("%-24s %9d %8d %7d %7d %6d %7d %5.2f %-4s\n"
                  % (case["scenario"], case["shipped_samples"],
                     case["stored_samples"],
                     case["resilience"]["spool_dropped_samples"],
                     case["resilience"]["ship_retries"],
                     case["quarantined_samples"], case["recoveries"],
                     case["loss_rate"] * 100.0,
                     "ok" if case["ok"] else "FAIL"))


def _explain_fleet_failure(case, out):
    out.write("FAIL %s:\n" % case["scenario"])
    if not case["conservation_ok"]:
        out.write("  conservation violated: %s\n"
                  % json.dumps(case["findings"], sort_keys=True))
    if not case["deterministic"]:
        out.write("  twin run diverged: merged bytes or resilience "
                  "report differ under the same seed\n")
    if case["serial_identical"] is False:
        out.write("  sharded merge != serial merge: %d-shard store "
                  "is not byte-identical to shards=1\n"
                  % case["shards"])
    if case["crash_transparent"] is False:
        out.write("  crash not transparent: an epoch's stored bytes "
                  "differ from the fault-free run's\n")


def render_table(cases, out):
    header = ("%-22s %-16s %9s %8s %6s %6s %7s %5s %-4s"
              % ("scenario", "workload", "samples", "dropped", "lost",
                 "quar", "recov", "loss%", "ok"))
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for case in cases:
        faulted = case["faulted"]
        out.write("%-22s %-16s %9d %8d %6d %6d %7d %5.2f %-4s\n"
                  % (case["scenario"], case["workload"],
                     faulted["driver_samples"], faulted["dropped"],
                     faulted["lost"],
                     faulted.get("quarantined_samples", 0),
                     case["recoveries"], case["loss_rate"] * 100.0,
                     "ok" if case["ok"] else "FAIL"))


def _explain_failure(case, out):
    comparison = case["comparison"]
    out.write("FAIL %s/%s:\n" % (case["scenario"], case["workload"]))
    for side in ("reference", "faulted"):
        report = case[side]
        if not report["ok"]:
            out.write("  %s run unbalanced: %s\n"
                      % (side, json.dumps(report, sort_keys=True)))
    if not comparison["identical_streams"]:
        out.write("  sample streams diverged: faulted=%d reference=%d "
                  "(faults perturbed the machine)\n"
                  % (case["faulted"]["driver_samples"],
                     case["reference"]["driver_samples"]))
    if not comparison["counts_conserved"]:
        out.write("  unaccounted loss: kept %d -> %d but accounted "
                  "delta is %d (+%d unknown-shift)\n"
                  % (comparison["kept_reference"],
                     comparison["kept_faulted"],
                     comparison["accounted_delta"],
                     comparison["unknown_delta"]))


def main(argv=None, out=None):
    args = build_parser().parse_args(argv)
    text_out = text_stream(args.json, out)
    if args.list:
        _list_scenarios(text_out)
        return 0

    from repro.faults.scenarios import (get_fleet_scenario, get_scenario,
                                        run_fleet_matrix, run_matrix)

    names = None
    if args.scenarios:
        names = [name.strip() for name in args.scenarios.split(",")
                 if name.strip()]
        for name in names:   # fail fast on typos
            if args.fleet:
                get_fleet_scenario(name)
            else:
                get_scenario(name)
    if args.fleet:
        cases = run_fleet_matrix(quick=args.quick, seed=args.seed,
                                 budget=args.max_instructions,
                                 names=names)
        render_fleet_table(cases, text_out)
    else:
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
        if case.get("fleet"):
            _explain_fleet_failure(case, text_out)
        else:
            _explain_failure(case, text_out)
    if args.json:
        elapsed = {"/".join(filter(None, (case["scenario"],
                                          case.get("workload")))):
                   case.pop("elapsed_s") for case in cases}
        write_report(args.json, "dcpichaos", {"cases": cases},
                     timing={"elapsed_s": elapsed}, out=out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
