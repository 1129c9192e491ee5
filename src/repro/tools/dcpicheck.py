"""``dcpicheck``: the static-analysis and invariant-verification CLI.

Runs any subset of the four check layers (``image``, ``analysis``,
``lint``, ``rewrite``) over every registered workload, prints the
findings, and exits 1 when any of them is an error; warnings and
infos are reported but never fail the run.  CI uses it as a gate;
``--json PATH|-`` writes the report in the one envelope of
:func:`repro.obs.report.write_report` (per-layer runtimes under
``timing``).

Examples::

    dcpicheck --layers image,lint
    dcpicheck --workloads mccalpin-assign,gcc --json out/report.json
    dcpicheck --layers analysis --max-instructions 30000
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.check.findings import ERROR, LAYERS
from repro.check.runner import (DEFAULT_MAX_INSTRUCTIONS, CheckConfig,
                                run_checks)
from repro.obs.report import add_json_flag, text_stream, write_report

def _parse_layers(text: str) -> List[str]:
    layers = [part.strip() for part in text.split(",") if part.strip()]
    for layer in layers:
        if layer not in LAYERS:
            raise argparse.ArgumentTypeError(
                "unknown layer %r; known: %s" % (layer, ", ".join(LAYERS)))
    return layers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpicheck",
        description="static analysis & invariant checks "
                    "(image | analysis | lint | rewrite)")
    parser.add_argument(
        "--layers", type=_parse_layers, default=list(LAYERS),
        help="comma-separated subset of: %s (default: all)"
             % ",".join(LAYERS))
    parser.add_argument(
        "--workloads", default="",
        help="comma-separated workload names (default: every "
             "registered name, see dcpiab --list)")
    parser.add_argument(
        "--max-instructions", type=int,
        default=DEFAULT_MAX_INSTRUCTIONS,
        help="per-workload instruction budget for the analysis layer")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--src", default=None,
        help="source root for the lint layer (default: the installed "
             "repro package)")
    add_json_flag(parser)
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="print only the summary line")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    workloads = tuple(part.strip()
                      for part in args.workloads.split(",")
                      if part.strip())
    config = CheckConfig(
        layers=tuple(args.layers),
        workloads=workloads,
        max_instructions=args.max_instructions,
        seed=args.seed,
        src_root=args.src,
    )
    report = run_checks(config)

    if args.json:
        write_report(args.json, "dcpicheck", report.to_dict(),
                     timing={"runtime_s": {
                         layer: round(seconds, 3)
                         for layer, seconds in report.runtime_s.items()}})
    text_out = text_stream(args.json)
    if not args.quiet:
        for finding in sorted(report.findings, key=lambda f: f.sort_key()):
            print(finding, file=text_out)
            if finding.detail:
                print("        %s" % finding.detail, file=text_out)
    print("dcpicheck: layers=%s workloads=%d -- %s"
          % (",".join(report.layers), len(report.workloads),
             report.summary()), file=text_out)
    errors = report.counts()[ERROR]
    if errors:
        print("dcpicheck: FAIL (%d error finding(s))" % errors,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
