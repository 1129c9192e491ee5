"""``dcpiopt`` -- the profile-guided optimizer CLI (repro.opt).

Three subcommands close the paper's loop from the command line:

* ``dcpiopt run``    -- profile a registry workload, build the rewrite
  plan, statically prove it semantics-preserving (Layer 4,
  :mod:`repro.check.transval`), then verify architectural identity
  plus zero new Layer-1 findings dynamically, re-run, and print the
  realized-speedup report.  Exits 0 only when the rewrite was
  accepted; a static rejection prints its per-block counterexamples
  and skips the A/B runs entirely.
* ``dcpiopt report`` -- render a saved run report as before/after
  cycles, CPI and I-cache-miss deltas.
* ``dcpiopt sweep``  -- realized speedup as a function of profile
  quality (sampling period x injected collection loss) across one or
  more workloads; its JSON rows are what the speedup curve is built
  from.

``run`` and ``sweep`` write their JSON report with ``--json PATH|-``
in the one envelope of :func:`repro.obs.report.write_report`;
``report`` reads only that envelope.
"""

import argparse
import json
import sys

from repro.obs.report import (REPORT_SCHEMA, add_json_flag, text_stream,
                              write_report)
from repro.opt import (OptConfig, optimize_workload, pass_contributions,
                       sweep_workload)
from repro.workloads import OPT_TARGETS

#: Pass names accepted by ``--passes`` (order is display order).
PASS_NAMES = ("layout", "schedule", "split")


def _parse_period(text):
    """``lo:hi`` or a single mean value -> an inclusive (lo, hi) range."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    else:
        mean = int(text)
        lo, hi = max(1, mean - mean // 16), mean + mean // 16
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(
            "period must be lo:hi with 1 <= lo <= hi, got %r" % text)
    return (lo, hi)


def _parse_passes(text):
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in PASS_NAMES]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            "passes must be a comma list from %s" % (PASS_NAMES,))
    return OptConfig(layout="layout" in names,
                     schedule="schedule" in names,
                     split="split" in names)


def format_run(report):
    """Human-readable rendering of an ``optimize_workload`` report."""
    base = report["baseline"]
    opt = report["optimized"]
    lines = [
        "dcpiopt: %s  [%s]"
        % (report["workload"],
           "ACCEPTED" if report["accepted"] else "REJECTED"),
        "%-12s %12s %12s %10s" % ("", "baseline", "optimized", "delta"),
    ]
    for key, fmt in (("cycles", "%d"), ("instructions", "%d"),
                     ("imiss", "%d")):
        lines.append("%-12s %12s %12s %+10d"
                     % (key, fmt % base[key], fmt % opt[key],
                        opt[key] - base[key]))
    lines.append("%-12s %12.3f %12.3f %+10.3f"
                 % ("cpi", base["cpi"], opt["cpi"],
                    opt["cpi"] - base["cpi"]))
    lines.append("speedup: %.2f%% of baseline cycles"
                 % (report["speedup"] * 100.0))
    if report.get("contributions"):
        parts = ", ".join(
            "%s %+.2f%%" % (name, value * 100.0)
            for name, value in report["contributions"].items())
        lines.append("per-pass (isolated): %s" % parts)
    if report["passes"]:
        lines.append("plan: " + ", ".join(
            "%s=%d" % (key, value)
            for key, value in sorted(report["passes"].items())))
    for name, static in sorted(report.get("static", {}).items()):
        lines.append("static (%s): %s  [%d proc(s), %d block(s)]"
                     % (name, static["verdict"],
                        static["procs_checked"],
                        static["blocks_checked"]))
        if static["verdict"] == "bailed" and static["reason"]:
            lines.append("        %s" % static["reason"])
        for ce in static["counterexamples"]:
            where = ("%s+%#x" % (ce["proc"], ce["block"])
                     if ce["block"] >= 0 else (ce["proc"] or "-"))
            lines.append("COUNTEREXAMPLE [%s] %s: %s"
                         % (ce["rule"], where, ce["message"]))
            if ce["detail"]:
                lines.append("        %s" % ce["detail"])
    for skip in report["skipped"]:
        lines.append("skipped: %s" % skip)
    for mismatch in report["mismatches"]:
        lines.append("MISMATCH: %s" % mismatch)
    for image, rows in sorted(report["check_findings"].items()):
        for row in rows:
            lines.append("FINDING (%s): %s" % (image, row))
    return "\n".join(lines)


def _run(args):
    report_obj = optimize_workload(
        args.workload, mode=args.mode, seed=args.seed,
        max_instructions=args.max_instructions,
        cycles_period=args.period, opt_config=args.passes,
        loss=args.loss, verify_instructions=args.verify_instructions)
    payload = report_obj.report()
    if args.contributions:
        payload["contributions"] = pass_contributions(
            args.workload, mode=args.mode, seed=args.seed,
            max_instructions=args.max_instructions,
            cycles_period=args.period, loss=args.loss,
            verify_instructions=args.verify_instructions)
    if args.json:
        write_report(args.json, "dcpiopt", payload)
    print(format_run(payload), file=text_stream(args.json))
    return 0 if payload["accepted"] else 1


def _report(args):
    with open(args.report) as handle:
        payload = json.load(handle)
    found = (payload.get("schema"), payload.get("tool"))
    if found != (REPORT_SCHEMA, "dcpiopt"):
        print("not a dcpiopt report (schema %r, tool %r)" % found,
              file=sys.stderr)
        return 1
    print(format_run(payload))
    return 0


def _sweep(args):
    rows = []
    for name in args.workloads:
        rows.extend(sweep_workload(
            name, periods=tuple(args.period), losses=tuple(args.loss),
            mode=args.mode, seed=args.seed,
            max_instructions=args.max_instructions,
            verify_instructions=args.verify_instructions))
    if args.json:
        write_report(args.json, "dcpiopt", {"rows": rows})
    out = text_stream(args.json)
    print("%-14s %8s %6s %9s %9s %s"
          % ("workload", "period", "loss", "speedup", "samples",
             "accepted"), file=out)
    for row in rows:
        print("%-14s %8.0f %5.0f%% %8.2f%% %9d %s"
              % (row["workload"], row["period"],
                 row["loss"] * 100.0, row["speedup"] * 100.0,
                 row["samples"], row["accepted"]), file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcpiopt",
        description="profile-guided optimizer (repro.opt)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="profile, optimize, verify and measure one workload")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--mode", default="cycles",
                       choices=["cycles", "default", "mux"])
    run_p.add_argument("--period", type=_parse_period,
                       default=(240, 256),
                       help="CYCLES sampling period as lo:hi or a mean")
    run_p.add_argument("--loss", type=float, default=0.0,
                       help="injected collection-loss fraction [0, 1)")
    run_p.add_argument("--max-instructions", type=int, default=200_000,
                       help="profiling-run budget (the verify runs go "
                       "to completion)")
    run_p.add_argument("--verify-instructions", type=int, default=None,
                       help="cap the oracle's A/B runs (identity needs "
                       "completed runs; leave unset)")
    run_p.add_argument("--passes", type=_parse_passes, default=None,
                       help="comma list from %s (default: all)"
                       % (PASS_NAMES,))
    run_p.add_argument("--contributions", action="store_true",
                       help="also measure each pass in isolation")
    add_json_flag(run_p)

    rep_p = sub.add_parser(
        "report", help="render a saved dcpiopt run report")
    rep_p.add_argument("report", help="JSON file written by dcpiopt run")

    sweep_p = sub.add_parser(
        "sweep", help="realized speedup vs sampling period and loss")
    sweep_p.add_argument("--workloads", nargs="+",
                         default=list(OPT_TARGETS))
    sweep_p.add_argument("--period", type=_parse_period, nargs="+",
                         default=[(240, 256), (960, 1024),
                                  (3840, 4096)])
    sweep_p.add_argument("--loss", type=float, nargs="+",
                         default=[0.0, 0.1, 0.3])
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.add_argument("--mode", default="cycles",
                         choices=["cycles", "default", "mux"])
    sweep_p.add_argument("--max-instructions", type=int,
                         default=200_000)
    sweep_p.add_argument("--verify-instructions", type=int, default=None)
    add_json_flag(sweep_p)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "report":
        return _report(args)
    return _sweep(args)


if __name__ == "__main__":
    sys.exit(main())
