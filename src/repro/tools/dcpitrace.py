"""``dcpitrace`` -- per-request-class attribution reports (repro.ctx).

Two subcommands:

* ``dcpitrace run``     -- profile a registry workload with the
  request-context dimension enabled and commit the context ledger to
  a profile database (alongside the samples, atomically).
* ``dcpitrace report``  -- read a database's context ledger and print
  the per-class report (``--json PATH|-`` also writes it in the one
  envelope of :func:`repro.obs.report.write_report`): CYCLES samples
  and estimated cycles, exact per-class CPI from the OS's per-request
  accounting, the top culprit procedures, and request tail percentiles
  (p50/p95/p99 of cycles per request).

Exit codes: 0 on success; 1 when the database carries no context
ledger (the session ran without ``context=True``) or does not exist
(``report`` only reads: it creates nothing).

The report is computed from the committed blob only -- no session
state -- so it works identically on a single run, a crash-recovered
database, or a merged multi-epoch history.
"""

import argparse
import os
import sys

from repro.collect.database import ProfileDatabase
from repro.cpu.events import EventType
from repro.ctx import CTX_SCHEMA, merge_ledger_meta, span_id
from repro.obs.report import add_json_flag, text_stream, write_report


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0
    rank = max(1, int(round(pct / 100.0 * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _cycles_period(database):
    """The CYCLES sampling period recorded in the database (or 1)."""
    records = database._load_manifest().get("records", {})
    for record in records.values():
        if record.get("event") == str(EventType.CYCLES):
            return max(1, int(record.get("period", 1)))
    return 1


def _merged_ledger(database):
    """All committed epoch ledgers reduced into one blob (or None)."""
    blob = database.get_meta("ctx")
    if blob is None:
        return None
    if blob.get("schema", 0) > CTX_SCHEMA:
        raise ValueError("context ledger schema %s is newer than "
                         "supported %s" % (blob.get("schema"), CTX_SCHEMA))
    epochs = blob.get("epochs", {})
    return merge_ledger_meta([epochs[key] for key in sorted(epochs)])


def tail_stats(cycles):
    """Tail percentiles of a per-request cycles list."""
    ordered = sorted(int(c) for c in cycles)
    count = len(ordered)
    return {
        "n": count,
        "p50": percentile(ordered, 50),
        "p95": percentile(ordered, 95),
        "p99": percentile(ordered, 99),
        "max": ordered[-1] if ordered else 0,
        "mean": (sum(ordered) // count) if count else 0,
    }


def build_report(ledger_meta, period=1, db="", limit=5):
    """The ``dcpitrace report`` payload (plain JSON-safe dicts)."""
    classes = {}
    cycles_key = str(EventType.CYCLES.value)
    total_samples = sum(
        by_event.get(cycles_key, 0)
        for by_event in ledger_meta.get("classes", {}).values())
    names = set(ledger_meta.get("classes", {}))
    names.update(ledger_meta.get("requests", {}))
    for name in sorted(names):
        by_event = ledger_meta.get("classes", {}).get(name, {})
        samples = by_event.get(cycles_key, 0)
        requests = ledger_meta.get("requests", {}).get(name, {})
        req_cycles = [entry.get("cycles", 0)
                      for entry in requests.values()]
        req_instructions = sum(entry.get("instructions", 0)
                               for entry in requests.values())
        culprits = sorted(
            ledger_meta.get("culprits", {}).get(name, {}).items(),
            key=lambda item: (-item[1], item[0]))[:limit]
        classes[name] = {
            "span": span_id(name),
            "samples": {event: count
                        for event, count in sorted(by_event.items())},
            "cycles_samples": samples,
            "est_cycles": samples * period,
            "share": (samples / total_samples) if total_samples else 0.0,
            "requests": len(requests),
            "request_cycles": sum(req_cycles),
            "request_instructions": req_instructions,
            "cpi": (sum(req_cycles) / req_instructions
                    if req_instructions else 0.0),
            "culprits": [{"procedure": proc, "samples": count}
                         for proc, count in culprits],
            "tail": tail_stats(req_cycles),
        }
    return {
        "db": db,
        "period": period,
        "classes": classes,
        "other_samples": ledger_meta.get("other_samples", 0),
        "table": {
            "slots": ledger_meta.get("table_slots", 0),
            "evictions": ledger_meta.get("table_evictions", 0),
            "interns": ledger_meta.get("table_interns", 0),
        },
    }


def format_report(report, title="dcpitrace report"):
    """Human-readable rendering of :func:`build_report` output."""
    lines = ["%s (%s)" % (title, report["db"] or "-"),
             "%-18s %8s %6s %6s %8s %8s %8s  %s"
             % ("class", "cycles", "share", "cpi",
                "p50", "p95", "p99", "top culprit")]
    for name, cls in report["classes"].items():
        top = (cls["culprits"][0]["procedure"]
               if cls["culprits"] else "-")
        tail = cls["tail"]
        lines.append("%-18s %8d %5.1f%% %6.2f %8d %8d %8d  %s"
                     % (name, cls["est_cycles"], cls["share"] * 100.0,
                        cls["cpi"], tail["p50"], tail["p95"],
                        tail["p99"], top))
    table = report["table"]
    lines.append("context table: %d slots, %d interns, %d evictions; "
                 "%d unattributed samples"
                 % (table["slots"], table["interns"],
                    table["evictions"], report["other_samples"]))
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcpitrace",
        description="per-request-class attribution (repro.ctx)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="profile a workload with the "
                           "context dimension on")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--out", required=True,
                       help="profile database directory")
    run_p.add_argument("--max-instructions", type=int, default=400_000)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--mode", default="default",
                       choices=["cycles", "default", "mux"])
    run_p.add_argument("--ctx-slots", type=int, default=64)

    rep_p = sub.add_parser("report", help="per-class report from a "
                           "context-enabled database")
    rep_p.add_argument("db", help="profile database directory")
    add_json_flag(rep_p)
    rep_p.add_argument("--limit", type=int, default=5,
                       help="culprit procedures per class")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "run":
        return _run(args)
    return _report(args)


def _run(args):
    from repro.collect.session import ProfileSession, SessionConfig
    from repro.cpu.config import MachineConfig
    from repro.workloads.registry import get_workload

    workload = get_workload(args.workload)
    session = ProfileSession(
        MachineConfig(num_cpus=workload.num_cpus),
        SessionConfig(mode=args.mode, seed=args.seed, db_root=args.out,
                      context=True, ctx_slots=args.ctx_slots))
    result = session.run(workload,
                         max_instructions=args.max_instructions)
    ledger = result.ctx_ledger
    print("profiled %d instructions; %d request classes, %d requests "
          "-> %s"
          % (result.instructions, len(ledger.classes),
             sum(len(reqs) for reqs in ledger.requests.values()),
             args.out))
    return 0


def _report(args):
    if not os.path.isdir(args.db):
        print("no such database: %s" % args.db, file=sys.stderr)
        return 1
    database = ProfileDatabase(args.db)
    merged = _merged_ledger(database)
    if merged is None:
        print("no context ledger in %s (run with the context "
              "dimension enabled: dcpitrace run / context=True)"
              % args.db, file=sys.stderr)
        return 1
    report = build_report(merged, period=_cycles_period(database),
                          db=args.db, limit=args.limit)
    if args.json:
        write_report(args.json, "dcpitrace", report)
    print(format_report(report), file=text_stream(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
