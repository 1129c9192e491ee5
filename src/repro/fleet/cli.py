"""``dcpifleet`` -- run a simulated fleet and query its central store.

Subcommands::

    dcpifleet run        simulate N machines for E epochs into a store
    dcpifleet top        fleet-wide hot images/procedures
    dcpifleet movers     biggest CPU-share movers between epoch ranges
    dcpifleet timeseries per-epoch share series
    dcpifleet regress    exit-nonzero regression gate (CI primitive)
    dcpifleet classes    fleet-wide per-request-class attribution
    dcpifleet verify     shard integrity + conservation audit (exit 1)

``regress`` exits 2 when any procedure's CPU share increased beyond
both the sampling-error significance bound and the configured floor,
and 1 when either side of the comparison holds no samples; CI runs it
against a committed baseline (``--write-baseline`` regenerates one).
Every subcommand but ``run`` only reads: on a path that holds no store
it exits 1 and creates nothing.  Every subcommand prints text and,
with ``--json PATH|-``, writes its report in the one envelope of
:func:`repro.obs.report.write_report`.  All output is deterministic
for a given store.
"""

import argparse
import os
import sys

from repro.fleet.query import DEFAULT_Z, FleetQuery, load_baseline
from repro.fleet.store import STORE_META_NAME, FleetStore
from repro.obs.report import add_json_flag, text_stream, write_report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcpifleet",
        description="simulated fleet profiling: run machines, query the "
                    "central epoch store")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", required=True, help="store directory")
    add_json_flag(common)

    def command(name, summary):
        return sub.add_parser(name, help=summary, parents=[common])

    run = command("run", "simulate a fleet into a store")
    run.add_argument("--machines", type=int, default=3)
    run.add_argument("--epochs", type=int, default=3)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--epoch-instructions", type=int, default=24_000)
    run.add_argument("--workloads", default=None,
                     help="comma-separated traffic sources (default: "
                          "altavista,timesharing,dss round-robin)")
    run.add_argument("--retention", default=None, metavar="K[:W[:D]]",
                     help="keep K epochs full-res, compact aligned "
                          "W-windows, divide counts by D")
    run.add_argument("--no-check", dest="check", action="store_false",
                     help="skip the fleet-conservation invariant check")
    run.add_argument("--context", action="store_true",
                     help="thread the request-context dimension "
                          "(repro.ctx) through every machine and ship "
                          "each epoch's ledger with its delta")
    run.add_argument("--shards", type=int, default=1,
                     help="shard count for a newly created store "
                          "(default 1)")
    run.add_argument("--durable", action="store_true",
                     help="give every machine a local database + "
                          "drain journal (crash-recoverable daemons)")
    run.add_argument("--spool-capacity", type=int, default=8,
                     help="bounded unacked-delta spool per machine "
                          "(default 8)")

    any_epochs = "epoch range A..B, single epoch, or 'all' (default)"

    def query_command(name, summary, epochs_help=any_epochs):
        cmd = command(name, summary)
        cmd.add_argument("--event", default="cycles")
        cmd.add_argument("--by", default="procedure",
                         choices=["procedure", "image"])
        cmd.add_argument("--epochs", default=None, help=epochs_help)
        return cmd

    top = query_command("top", "fleet-wide hottest code")
    top.add_argument("--limit", type=int, default=20)

    movers = query_command(
        "movers", "biggest share movers between two epoch ranges",
        epochs_help="newer epoch range (A..B)")
    movers.add_argument("--base-epochs", required=True,
                        help="older epoch range to compare against")
    movers.add_argument("--z", type=float, default=DEFAULT_Z,
                        help="significance z-score (default %.2f)"
                             % DEFAULT_Z)
    movers.add_argument("--min-share-delta", type=float, default=0.0,
                        help="extra absolute-share floor for "
                             "significance")
    movers.add_argument("--limit", type=int, default=20)

    series = query_command("timeseries", "per-epoch share series")
    series.add_argument("--name", default=None,
                        help="restrict to one image:procedure label")

    regress = query_command(
        "regress", "regression gate: exit 2 on significant share "
                   "increases", epochs_help="epoch range under test")
    regress.add_argument("--base-epochs", default=None,
                         help="compare against these epochs of the "
                              "same store")
    regress.add_argument("--baseline", default=None, metavar="FILE",
                         help="compare against a committed baseline "
                              "file instead")
    regress.add_argument("--write-baseline", default=None,
                         metavar="FILE",
                         help="write the current ranges as a baseline "
                              "and exit")
    regress.add_argument("--z", type=float, default=DEFAULT_Z)
    regress.add_argument("--min-share-delta", type=float, default=0.005,
                         help="ignore share increases below this "
                              "(default 0.005)")

    classes = command("classes", "per-request-class attribution from "
                                 "shipped context ledgers")
    classes.add_argument("--epochs", default=None, help=any_epochs)
    classes.add_argument("--limit", type=int, default=5,
                         help="culprit procedures per class")

    command("verify", "re-validate every shard's committed profiles "
                      "and audit the store's conservation books")
    return parser


def _share(value):
    return "%6.2f%%" % (value * 100.0)


def render_top(report, out, limit=None):
    out.write("fleet top (%s, epochs %s, %d samples)\n"
              % (report["event"], report["epochs"],
                 report["total_samples"]))
    out.write("%-44s %10s %8s\n" % ("name", "samples", "share"))
    for row in report["rows"][:limit]:
        out.write("%-44s %10d %s\n"
                  % (row["name"], row["samples"], _share(row["share"])))


def render_movers(report, out, limit=None):
    out.write("fleet movers (%s, %s -> %s, z=%.2f)\n"
              % (report["event"],
                 report.get("base_epochs", report.get("base")),
                 report["epochs"], report["z"]))
    out.write("%-44s %8s %8s %8s %8s %s\n"
              % ("name", "base", "new", "delta", "bound", "sig"))
    for row in report["rows"][:limit]:
        out.write("%-44s %s %s %+7.2f%% %7.2f%% %s\n"
                  % (row["name"], _share(row["share_base"]),
                     _share(row["share_new"]), row["delta"] * 100.0,
                     row["bound"] * 100.0,
                     "*" if row["significant"] else ""))


def render_timeseries(report, out):
    out.write("fleet timeseries (%s, by %s%s)\n"
              % (report["event"], report["by"],
                 ", name=%s" % report["name"] if report["name"] else ""))
    names = sorted({name
                    for point in report["series"].values()
                    for name in point["rows"]})
    for name in names:
        out.write("%s\n" % name)
        for epoch in report["epochs"]:
            point = report["series"][epoch]
            row = point["rows"].get(name)
            if row is None:
                continue
            out.write("  e%04d %10d %s\n"
                      % (epoch, row["samples"], _share(row["share"])))


def cmd_run(args, out):
    from repro.fleet.machine import (DEFAULT_WORKLOADS, FleetConfig,
                                     FleetSession)
    from repro.fleet.retention import RetentionPolicy

    workloads = DEFAULT_WORKLOADS
    if args.workloads:
        workloads = tuple(name.strip()
                          for name in args.workloads.split(",")
                          if name.strip())
    retention = (RetentionPolicy.parse(args.retention)
                 if args.retention else None)
    config = FleetConfig(
        machines=args.machines, epochs=args.epochs, workloads=workloads,
        seed=args.seed, epoch_instructions=args.epoch_instructions,
        retention=retention, context=args.context, shards=args.shards,
        durable=args.durable, spool_capacity=args.spool_capacity)
    store = FleetStore(args.store, shards=args.shards)
    result = FleetSession(config).run(store, check=args.check)
    report = result.report()
    stats = report["store"]
    out.write("fleet: %d machine(s) x %d epoch(s), %d deltas, "
              "%d samples -> %s (%d bytes)\n"
              % (args.machines, args.epochs, stats["deltas_applied"],
                 stats["stored_samples"], args.store,
                 stats["disk_bytes"]))
    for finding in result.findings:
        out.write("FINDING %s\n" % finding)
    return (0 if report["ok"] else 1), report


def cmd_top(args, out):
    query = FleetQuery(FleetStore(args.store), event=args.event)
    report = query.top(epochs=args.epochs, by=args.by,
                       limit=args.limit)
    render_top(report, out)
    return 0, report


def cmd_movers(args, out):
    query = FleetQuery(FleetStore(args.store), event=args.event)
    report = query.movers(args.base_epochs, args.epochs, by=args.by,
                          z=args.z,
                          min_share_delta=args.min_share_delta,
                          limit=args.limit)
    render_movers(report, out)
    return 0, report


def cmd_timeseries(args, out):
    query = FleetQuery(FleetStore(args.store), event=args.event)
    report = query.timeseries(name=args.name, by=args.by,
                              epochs=args.epochs)
    render_timeseries(report, out)
    return 0, report


def cmd_regress(args, out):
    query = FleetQuery(FleetStore(args.store), event=args.event)
    if args.write_baseline:
        baseline = query.baseline(epochs=args.epochs, by=args.by)
        write_report(args.write_baseline, "dcpifleet", baseline)
        out.write("wrote baseline (%d samples, %d names) -> %s\n"
                  % (baseline["total_samples"],
                     len(baseline["samples"]), args.write_baseline))
        return 0, None
    if (args.baseline is None) == (args.base_epochs is None):
        out.write("regress needs exactly one of --baseline / "
                  "--base-epochs\n")
        return 1, None
    baseline = load_baseline(args.baseline) if args.baseline else None
    report = query.regress(
        epochs=args.epochs, base_epochs=args.base_epochs,
        baseline=baseline, by=args.by, z=args.z,
        min_share_delta=args.min_share_delta)
    if not report["base_total"] or not report["new_total"]:
        # Every share of an empty side is 0: nothing can "regress".
        print("regress: nothing to compare (%d baseline samples, %d "
              "under test)" % (report["base_total"],
                               report["new_total"]), file=sys.stderr)
        return 1, None
    render_movers(report, out, limit=20)
    regressions = report["regressions"]
    if regressions:
        out.write("\nREGRESSION: %d procedure(s) gained significant "
                  "CPU share:\n" % len(regressions))
        for row in regressions:
            out.write("  %-44s %s -> %s (+%.2f%% > bound %.2f%%)\n"
                      % (row["name"], _share(row["share_base"]),
                         _share(row["share_new"]), row["delta"] * 100.0,
                         row["bound"] * 100.0))
        return 2, report
    out.write("\nno significant share regressions\n")
    return 0, report


def cmd_classes(args, out):
    from repro.fleet.query import parse_epochs
    from repro.tools.dcpitrace import (_cycles_period, build_report,
                                       format_report)

    store = FleetStore(args.store)
    epochs = None
    if args.epochs not in (None, "all"):
        epochs = parse_epochs(args.epochs, store.epochs())
    merged = store.ctx_meta(epochs=epochs)
    if merged is None:
        out.write("no context ledgers in %s (run the fleet with "
                  "--context)\n" % args.store)
        return 1, None
    period = max(_cycles_period(shard.db) for shard in store.shards)
    report = build_report(merged, period=period, db=args.store,
                          limit=args.limit)
    out.write(format_report(report, title="dcpifleet classes") + "\n")
    return 0, report


def cmd_verify(args, out):
    """Shard integrity + offline conservation audit over a store dir.

    Every shard database re-validates its committed profiles
    (corrupt payloads are quarantined with their declared samples
    accounted -- the PR 4 machinery), then the store's own books are
    audited: every ingested sample must still be stored, removed as
    downsample residue, or quarantined.  Exit 1 on any violation.
    """
    from repro.check.analysis_checks import check_fleet_conservation

    store = FleetStore(args.store)
    shard_reports = {}
    for index, verify in sorted(store.verify().items()):
        shard_reports["s%02d" % index] = verify
    stats = store.stats()
    findings = check_fleet_conservation(
        shipped=stats["samples_ingested"],
        stored=stats["stored_samples"],
        residue=stats["downsample_residue"],
        quarantined=stats["quarantined_samples"],
        label="store:%s" % args.store)
    report = {
        "store": args.store,
        "shards": shard_reports,
        "stats": stats,
        "findings": [finding.to_dict() for finding in findings],
        "ok": not findings,
    }
    out.write("fleet verify %s: %d shard(s), %d epoch(s), %d samples\n"
              % (args.store, stats["shards"], stats["epochs"],
                 stats["stored_samples"]))
    for name, verify in sorted(shard_reports.items()):
        out.write("  %s: checked %d, quarantined %d "
                  "(%d samples in quarantine)\n"
                  % (name, verify["checked"], verify["quarantined"],
                     verify["lost_samples"]))
    for finding in findings:
        out.write("FINDING %s\n" % finding)
    out.write("conservation %s\n" % ("ok" if not findings else "VIOLATED"))
    return (0 if not findings else 1), report


def main(argv=None, out=None):
    args = build_parser().parse_args(argv)
    if args.command != "run" and not os.path.isfile(
            os.path.join(args.store, STORE_META_NAME)):
        # Only ``run`` creates a store; opening one would.
        print("no such store: %s" % args.store, file=sys.stderr)
        return 1
    handler = {
        "run": cmd_run,
        "top": cmd_top,
        "movers": cmd_movers,
        "timeseries": cmd_timeseries,
        "regress": cmd_regress,
        "classes": cmd_classes,
        "verify": cmd_verify,
    }[args.command]
    code, report = handler(args, text_stream(args.json, out))
    if args.json and report is not None:
        write_report(args.json, "dcpifleet", report, out=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
