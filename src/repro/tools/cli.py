"""Command-line entry points.

* ``dcpid``      -- profile a named workload and save a session bundle.
* ``dcpiprof``   -- per-procedure sample listing from a bundle.
* ``dcpicalc``   -- per-instruction CPI/culprit listing from a bundle.
* ``dcpistats``  -- cross-run statistics from several bundles.
* ``dcpibench``  -- run the benchmark suite in parallel; compare runs.
* ``dcpimon``    -- self-monitoring report (the profiler profiling
  itself: rates, memory, per-phase time) and overhead measurement.
* ``dcpiab``     -- verify the simulator fast path is observationally
  byte-identical to the slow path on every registered workload.
* ``dcpichaos``  -- run the fault-injection matrix and assert the
  sample-conservation invariant (no unaccounted loss, ever).
* ``dcpifleet``  -- simulate a fleet of profiled machines shipping
  epoch deltas into one central store; query it (top, movers,
  timeseries, regress).
* ``dcpitrace``  -- per-request-class attribution: run a workload
  with the context dimension on, report per-class CPI, culprits and
  request tail percentiles (repro.ctx).

Example::

    dcpid --workload mccalpin --out /tmp/session
    dcpiprof /tmp/session
    dcpicalc /tmp/session --procedure copy_loop
    dcpibench --quick --workers 4
    dcpimon report --quick --trace /tmp/trace.jsonl
"""

import argparse
import sys

from repro.collect.bundle import load_bundle, save_bundle
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.obs import derive


def _load_bundle(path):
    """:func:`load_bundle`'s profiles.  What the bundle says about
    itself goes to stderr: its warnings, and one low-confidence line
    when its accounted loss exceeds the analysis threshold."""
    from repro.core.analyze import LOSS_RATE_THRESHOLD

    profiles, meta = load_bundle(path)
    for warning in meta["warnings"]:
        print("%s: warning: %s" % (path, warning), file=sys.stderr)
    rate = meta["loss"]["loss_rate"]
    if rate > LOSS_RATE_THRESHOLD:
        print("%s: low confidence: collection lost %.2f%% of samples "
              "(dropped, lost or quarantined; threshold %.2f%%)"
              % (path, rate * 100.0, LOSS_RATE_THRESHOLD * 100.0),
              file=sys.stderr)
    return profiles


def main_dcpid(argv=None):
    """Profile a named workload and write a session bundle."""
    from repro.workloads.registry import get_workload, workload_names

    parser = argparse.ArgumentParser(
        prog="dcpid", description="run the profiling daemon on a workload")
    parser.add_argument("--workload", required=True,
                        help="one of: %s" % ", ".join(workload_names()))
    parser.add_argument("--out", required=True, help="bundle directory")
    parser.add_argument("--mode", default="default",
                        choices=["cycles", "default", "mux"])
    parser.add_argument("--max-instructions", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--period", type=int, default=256,
                        help="mean CYCLES sampling period (cycles)")
    args = parser.parse_args(argv)

    workload = get_workload(args.workload)
    config = SessionConfig(
        mode=args.mode, seed=args.seed,
        cycles_period=(int(args.period * 0.94), args.period))
    machine_config = MachineConfig(num_cpus=workload.num_cpus)
    session = ProfileSession(machine_config, config)
    result = session.run(workload, max_instructions=args.max_instructions)
    save_bundle(result, args.out)
    print("profiled %d instructions, %d cycles, %d samples -> %s"
          % (result.instructions, result.cycles,
             derive(result.metrics())["driver.samples"], args.out))
    return 0


def main_dcpiprof(argv=None):
    parser = argparse.ArgumentParser(
        prog="dcpiprof", description="samples per procedure")
    parser.add_argument("bundle", help="session bundle directory")
    parser.add_argument("--event", default="cycles")
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)

    from repro.tools.dcpiprof import dcpiprof

    profiles = _load_bundle(args.bundle)
    print(dcpiprof(profiles.values(), event=EventType(args.event),
                   limit=args.limit))
    return 0


def main_dcpicalc(argv=None):
    parser = argparse.ArgumentParser(
        prog="dcpicalc", description="per-instruction CPI and culprits")
    parser.add_argument("bundle", help="session bundle directory")
    parser.add_argument("--procedure", required=True)
    parser.add_argument("--image", default=None,
                        help="image name (required if ambiguous)")
    args = parser.parse_args(argv)

    from repro.tools.dcpicalc import dcpicalc

    profiles = _load_bundle(args.bundle)
    matches = []
    for profile in profiles.values():
        for proc in profile.image.procedures:
            if proc.name == args.procedure:
                if args.image and profile.image.name != args.image:
                    continue
                matches.append((profile.image, proc, profile))
    if not matches:
        print("procedure %r not found" % args.procedure, file=sys.stderr)
        return 1
    if len(matches) > 1:
        print("ambiguous procedure; images: %s"
              % ", ".join(m[0].name for m in matches), file=sys.stderr)
        return 1
    image, proc, profile = matches[0]
    print(dcpicalc(image, proc, profile))
    return 0


def main_dcpix(argv=None):
    parser = argparse.ArgumentParser(
        prog="dcpix", description="profile -> pixie-format block counts")
    parser.add_argument("bundle", help="session bundle directory")
    parser.add_argument("--image", required=True)
    args = parser.parse_args(argv)

    from repro.tools.dcpix import dcpix

    profiles = _load_bundle(args.bundle)
    profile = profiles.get(args.image)
    if profile is None:
        print("image %r not in bundle; have: %s"
              % (args.image, ", ".join(profiles)), file=sys.stderr)
        return 1
    print(dcpix(profile.image, profile))
    return 0


def main_dcpicfg(argv=None):
    parser = argparse.ArgumentParser(
        prog="dcpicfg", description="annotated CFG as Graphviz DOT")
    parser.add_argument("bundle", help="session bundle directory")
    parser.add_argument("--procedure", required=True)
    parser.add_argument("--image", default=None)
    args = parser.parse_args(argv)

    from repro.tools.dcpicfg import dcpicfg

    profiles = _load_bundle(args.bundle)
    for profile in profiles.values():
        if args.image and profile.image.name != args.image:
            continue
        for proc in profile.image.procedures:
            if proc.name == args.procedure:
                print(dcpicfg(profile.image, proc, profile))
                return 0
    print("procedure %r not found" % args.procedure, file=sys.stderr)
    return 1


def main_dcpibench(argv=None):
    """Run the benchmark suite in parallel; write BENCH_*.json results."""
    from repro.tools.benchrunner import main

    return main(argv)


def main_dcpimon(argv=None):
    """Self-monitoring report and overhead measurement."""
    from repro.tools.dcpimon import main

    return main(argv)


def main_dcpiab(argv=None):
    """A/B identity check: simulator fast path on vs off."""
    from repro.tools.abcheck import main

    return main(argv)


def main_dcpichaos(argv=None):
    """Fault-injection matrix with sample-conservation audits."""
    from repro.tools.dcpichaos import main

    return main(argv)


def main_dcpicheck(argv=None):
    """Static analysis & invariant checks (image | analysis | lint)."""
    from repro.tools.dcpicheck import main

    return main(argv)


def main_dcpifleet(argv=None):
    """Simulated fleet: run machines, query the central epoch store."""
    from repro.fleet.cli import main

    return main(argv)


def main_dcpitrace(argv=None):
    """Per-request-class attribution reports (repro.ctx)."""
    from repro.tools.dcpitrace import main

    return main(argv)


def main_dcpistats(argv=None):
    parser = argparse.ArgumentParser(
        prog="dcpistats", description="cross-run profile statistics")
    parser.add_argument("bundles", nargs="+",
                        help="session bundle directories (one per run)")
    parser.add_argument("--event", default="cycles")
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)

    from repro.tools.dcpistats import dcpistats

    profile_sets = []
    for path in args.bundles:
        profiles = _load_bundle(path)
        profile_sets.append(list(profiles.values()))
    print(dcpistats(profile_sets, event=EventType(args.event),
                    limit=args.limit))
    return 0


def main_dcpiopt(argv=None):
    """Profile-guided optimizer: rewrite, verify, measure (repro.opt)."""
    from repro.tools.dcpiopt import main

    return main(argv)
