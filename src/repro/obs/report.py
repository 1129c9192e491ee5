"""Reports: the one JSON writer every ``dcpi*`` tool uses, and the
``dcpimon`` self-profile renderer.

:func:`write_report` is the envelope.  ``dcpicheck``, ``dcpichaos``,
``dcpifleet``, ``dcpitrace`` and ``dcpiopt`` take one flag,
``--json PATH|-`` (:func:`add_json_flag`), and route every report
through it: ``schema`` and ``tool`` at the top level next to the
tool's body keys, host-clock values under ``timing`` (so two runs of
the same inputs are byte-equal once ``timing`` is dropped), dumped
with sorted keys.  With ``-`` the report owns stdout and the tool's
human text goes to stderr (:func:`text_stream`).

:func:`render_report` takes the derived flat metrics
(:func:`repro.obs.schema.derive`), the per-shard run facts, and the
span aggregation (:func:`repro.obs.trace.span_durations`) and renders
the terminal report: collection rates, per-CPU spill pressure, daemon
memory, shard wall times, and the per-analysis-phase time breakdown.
"""

import argparse
import json
import os
import re
import sys
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence

#: Version of the report envelope.  Above every number a tool wrote
#: before there was one envelope, so an old file is refused, not
#: misread.
REPORT_SCHEMA = 3


def add_json_flag(parser: argparse.ArgumentParser) -> None:
    """The ``--json PATH|-`` flag of every report-writing tool."""
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the JSON report to PATH ('-' = stdout; the text "
             "output then goes to stderr)")


def text_stream(json_path: Optional[str],
                out: Optional[IO[str]] = None) -> IO[str]:
    """Where human text goes: stderr when the report owns stdout."""
    if json_path == "-":
        return sys.stderr
    return out if out is not None else sys.stdout


def write_report(path: str, tool: str, body: Mapping[str, Any],
                 timing: Optional[Mapping[str, Any]] = None,
                 out: Optional[IO[str]] = None) -> None:
    """Write *tool*'s report: *body* in the envelope, to *path*.

    ``-`` writes to *out* (default stdout); a missing parent directory
    of *path* is created.  Values must be JSON values already.
    """
    report = dict(body, schema=REPORT_SCHEMA, tool=tool,
                  timing=dict(timing or {}))
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path == "-":
        (out if out is not None else sys.stdout).write(text)
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


_CPU_KEY = re.compile(r"^driver\.cpu(\d+)\.(.+)$")


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024 or unit == "GB":
            return ("%d %s" % (value, unit) if unit == "B"
                    else "%.1f %s" % (value, unit))
        value /= 1024.0
    return "%d B" % value


def _fmt_pct(ratio: float) -> str:
    return "%.2f%%" % (ratio * 100.0)


def per_cpu_rows(flat: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """[{cpu, samples, spills, evictions}] from the flat metrics."""
    by_cpu: Dict[int, Dict[str, Any]] = {}
    for name, value in flat.items():
        match = _CPU_KEY.match(name)
        if match:
            by_cpu.setdefault(int(match.group(1)), {})[
                match.group(2)] = value
    return [{"cpu": cpu,
             "samples": values.get("samples", 0),
             "spills": values.get("overflow.spills", 0),
             "evictions": values.get("hash.evictions", 0)}
            for cpu, values in sorted(by_cpu.items())]


def render_report(flat: Mapping[str, Any],
                  shards: Sequence[Mapping[str, Any]] = (),
                  merge_s: Optional[float] = None,
                  phases: Optional[Mapping[str, Mapping[str, Any]]] = None,
                  title: str = "self-profile") -> str:
    """Render the full dcpimon report; returns the text."""
    lines = ["dcpimon %s" % title, "=" * max(24, len(title) + 8), ""]

    samples = flat.get("driver.samples", 0)
    lines.append("Collection")
    lines.append("  samples                  %12d" % samples)
    if "collection.samples_per_sec" in flat:
        lines.append("  samples/sec              %12.0f"
                     % flat["collection.samples_per_sec"])
    lines.append("  instructions             %12d"
                 % flat.get("session.instructions", 0))
    lines.append("  simulated cycles         %12d"
                 % flat.get("session.cycles", 0))
    lines.append("  hash-table miss rate     %12s  (aggregation x%.1f)"
                 % (_fmt_pct(flat.get("driver.hash.miss_rate", 0.0)),
                    flat.get("driver.hash.aggregation_factor", 0.0)))
    lines.append("  evictions                %12d  (rate %s)"
                 % (flat.get("driver.hash.evictions", 0),
                    _fmt_pct(flat.get("driver.eviction_rate", 0.0))))
    lines.append("  overflow spills          %12d  buffers"
                 % flat.get("driver.overflow.spills", 0))
    lines.append("  dropped samples          %12d"
                 % flat.get("driver.overflow.dropped", 0))
    lines.append("  loss rate                %12s"
                 % _fmt_pct(flat.get("collect.loss_rate", 0.0)))
    lines.append("  avg handler cost         %12.1f  cycles/sample"
                 % flat.get("driver.avg_cost", 0.0))
    lines.append("  kernel memory            %12s"
                 % _fmt_bytes(flat.get("driver.kernel_memory_bytes", 0)))
    lines.append("")

    cpu_rows = per_cpu_rows(flat)
    if cpu_rows:
        lines.append("Per-CPU")
        lines.append("  cpu      samples     spills  evictions")
        for row in cpu_rows:
            lines.append("  %-3d %12d %10d %10d"
                         % (row["cpu"], row["samples"], row["spills"],
                            row["evictions"]))
        lines.append("")

    lines.append("Daemon")
    lines.append("  entries processed        %12d"
                 % flat.get("daemon.entries", 0))
    lines.append("  aggregation factor       %12.1f  samples/entry"
                 % flat.get("daemon.aggregation_factor", 0.0))
    lines.append("  modelled cost            %12d  cycles (%.1f/sample)"
                 % (flat.get("daemon.cycles", 0),
                    flat.get("daemon.cost_per_sample", 0.0)))
    lines.append("  unknown samples          %12d  (%s)"
                 % (flat.get("daemon.unknown_samples", 0),
                    _fmt_pct(flat.get("daemon.unknown_fraction", 0.0))))
    lines.append("  resident bytes           %12s  (peak %s)"
                 % (_fmt_bytes(flat.get("daemon.resident_bytes", 0)),
                    _fmt_bytes(flat.get("daemon.resident_bytes.peak", 0))))
    if (flat.get("daemon.recoveries") or flat.get("daemon.lost_samples")
            or flat.get("daemon.drain_retries")):
        lines.append("  crash recoveries         %12d"
                     % flat.get("daemon.recoveries", 0))
        lines.append("  lost samples             %12d  (daemon-side)"
                     % flat.get("daemon.lost_samples", 0))
        lines.append("  drain retries            %12d  (%d abandoned)"
                     % (flat.get("daemon.drain_retries", 0),
                        flat.get("daemon.drain_failures", 0)))
    lines.append("")

    if shards:
        lines.append("Shards")
        lines.append("  %-28s %9s %10s %12s"
                     % ("shard", "wall_s", "samples", "instructions"))
        for shard in shards:
            lines.append("  %-28s %9.3f %10d %12d"
                         % (shard["label"], shard["wall_s"],
                            shard["samples"], shard["instructions"]))
        if merge_s is not None:
            lines.append("  merge cost %.4f s" % merge_s)
        lines.append("")

    if phases:
        lines.append("Analysis phases")
        lines.append("  %-28s %6s %10s %10s"
                     % ("phase", "calls", "total_s", "self_s"))
        ordered = sorted(phases.items(),
                         key=lambda kv: -kv[1]["total_us"])
        for name, entry in ordered:
            lines.append("  %-28s %6d %10.4f %10.4f"
                         % (name, entry["count"],
                            entry["total_us"] / 1e6,
                            entry["self_us"] / 1e6))
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
