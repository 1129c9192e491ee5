"""``dcpibench``: run the benchmark suite in parallel, track the results.

The benchmark suite regenerates the paper's tables and figures; this
runner turns it into something CI can gate on.  It discovers the
``bench_*.py`` modules, fans them out across worker processes (via the
same :class:`~repro.collect.parallel.ParallelSessionRunner` pool that
shards profiling runs), and collects the machine-readable
``BENCH_<name>.json`` fact sheets the benchmarks' conftest emits --
sample counts, simulated cycles and overhead percentages, per-test
outcomes, per-subsystem blocks -- each with a ``timing`` sub-dict for
whatever the host clock measured.  The ``compare`` subcommand diffs the
facts of two result directories exactly and exits nonzero when one
moved, so "the behaviour changed" fails the build, not just "the
numbers crashed".  It never reads ``timing``: timing regressions are
``python3 perfbench/run.py``'s job.

Usage::

    dcpibench [--quick] [--workers N] [names ...]
    dcpibench compare OLD_DIR NEW_DIR
"""

import argparse
import fnmatch
import glob
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.collect.parallel import ParallelSessionRunner

#: Instruction-budget clamp applied by --quick (overridable with
#: --max-instructions).  Large enough that every benchmark's
#: qualitative assertions still hold; small enough for a CI smoke job.
QUICK_BUDGET = 120_000

#: Per-benchmark wall-clock limit (seconds).
DEFAULT_TIMEOUT = 900


@dataclass(frozen=True)
class BenchJob:
    """One benchmark module scheduled for a worker."""

    name: str
    path: str
    results_dir: str
    env: tuple = ()            # frozen (key, value) pairs
    timeout: int = DEFAULT_TIMEOUT


@dataclass
class BenchOutcome:
    name: str
    returncode: int
    elapsed_s: float
    result: Optional[dict] = None
    output_tail: str = ""

    @property
    def passed(self):
        return self.returncode == 0 and (
            self.result is None or self.result.get("passed", False))


def default_bench_dir():
    """Find the benchmarks directory: cwd, cwd/benchmarks, or the
    source checkout next to the installed package."""
    candidates = [
        os.path.join(os.getcwd(), "benchmarks"),
        os.getcwd(),
    ]
    here = os.path.dirname(os.path.abspath(__file__))
    candidates.append(os.path.normpath(
        os.path.join(here, "..", "..", "..", "benchmarks")))
    for candidate in candidates:
        if glob.glob(os.path.join(candidate, "bench_*.py")):
            return candidate
    raise SystemExit(
        "dcpibench: no bench_*.py found near %s; use --bench-dir"
        % os.getcwd())


def discover_benchmarks(bench_dir):
    """Return sorted [(name, path)] for every benchmark module."""
    pairs = []
    for path in sorted(glob.glob(os.path.join(bench_dir, "bench_*.py"))):
        stem = os.path.basename(path)[len("bench_"):-len(".py")]
        pairs.append((stem, path))
    return pairs


def _child_env(results_dir, quick, max_instructions):
    env = dict(os.environ)
    # Make sure workers can import repro even when it is not installed
    # (development checkouts run with PYTHONPATH=src).
    src_dir = os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src_dir not in parts:
        parts.insert(0, src_dir)
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["DCPIBENCH_RESULTS"] = results_dir
    if quick:
        env["DCPIBENCH_QUICK"] = "1"
    if max_instructions:
        env["DCPIBENCH_MAX_INSTRUCTIONS"] = str(max_instructions)
    return env


def run_bench(job):
    """Run one benchmark module under pytest; the pool's worker function."""
    started = time.perf_counter()
    command = [sys.executable, "-m", "pytest", os.path.basename(job.path),
               "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
    try:
        proc = subprocess.run(
            command, cwd=os.path.dirname(job.path), env=dict(job.env),
            capture_output=True, text=True, timeout=job.timeout)
        returncode, output = proc.returncode, proc.stdout + proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode = -1
        output = "TIMEOUT after %ds\n%s" % (job.timeout, exc.stdout or "")
    return BenchOutcome(
        name=job.name, returncode=returncode,
        elapsed_s=time.perf_counter() - started,
        output_tail=output[-2000:])


def _attach_results(outcomes, results_dir):
    """Read each benchmark's fact sheet into its outcome."""
    for outcome in outcomes:
        path = os.path.join(results_dir, "BENCH_%s.json" % outcome.name)
        if os.path.exists(path):
            with open(path) as handle:
                outcome.result = json.load(handle)
        elif outcome.returncode == 0:
            # The module ran but the harness produced nothing -- treat
            # as a failure so CI notices broken plumbing.
            outcome.returncode = 1


def run_suite(args):
    bench_dir = os.path.abspath(args.bench_dir or default_bench_dir())
    results_dir = os.path.abspath(
        args.results_dir or os.path.join(bench_dir, "results"))
    os.makedirs(results_dir, exist_ok=True)
    benchmarks = discover_benchmarks(bench_dir)
    if args.names:
        selected = []
        for name, path in benchmarks:
            if any(fnmatch.fnmatch(name, pat) or pat == name
                   for pat in args.names):
                selected.append((name, path))
        benchmarks = selected
    if args.list:
        for name, path in benchmarks:
            print(name)
        return 0
    if not benchmarks:
        print("dcpibench: nothing matched", file=sys.stderr)
        return 2

    max_instructions = args.max_instructions
    if args.quick and not max_instructions:
        max_instructions = QUICK_BUDGET
    env = tuple(sorted(_child_env(results_dir, args.quick,
                                  max_instructions).items()))
    jobs = [BenchJob(name=name, path=path, results_dir=results_dir,
                     env=env, timeout=args.timeout)
            for name, path in benchmarks]

    runner = ParallelSessionRunner(workers=args.workers)
    print("dcpibench: %d benchmarks, %d workers%s"
          % (len(jobs), runner.workers,
             ", quick (budget clamp %d)" % max_instructions
             if max_instructions else ""))
    started = time.perf_counter()
    outcomes = runner.map(run_bench, jobs)
    _attach_results(outcomes, results_dir)

    failed = [o for o in outcomes if not o.passed]
    for outcome in outcomes:
        metrics = (outcome.result or {}).get("metrics", {})
        print("  %-24s %-6s %6.1fs  %8d samples  %s"
              % (outcome.name,
                 "ok" if outcome.passed else "FAIL",
                 outcome.elapsed_s,
                 metrics.get("samples", 0),
                 "overhead %.2f%%" % metrics["overhead_pct_mean"]
                 if "overhead_pct_mean" in metrics else ""))
    print("dcpibench: %d/%d passed in %.1fs -> %s"
          % (len(outcomes) - len(failed), len(outcomes),
             time.perf_counter() - started, results_dir))
    for outcome in failed:
        print("\n--- %s (exit %d) ---\n%s"
              % (outcome.name, outcome.returncode, outcome.output_tail),
              file=sys.stderr)
    return 1 if failed else 0


# -- compare ---------------------------------------------------------------


def load_results(dirpath):
    """{benchmark name: parsed BENCH_*.json} for a results directory."""
    results = {}
    for path in sorted(glob.glob(os.path.join(dirpath, "BENCH_*.json"))):
        with open(path) as handle:
            payload = json.load(handle)
        results[payload.get("benchmark",
                            os.path.basename(path)[6:-5])] = payload
    return results


@dataclass
class Comparison:
    regressions: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.regressions


def _diff_facts(name, old, new, comparison, prefix=""):
    """Every shared fact must be equal; "timing" is never read."""
    for key in sorted(set(old) | set(new)):
        if key == "timing":
            continue
        label = prefix + key
        if key not in old or key not in new:
            comparison.notes.append(
                "%s: %s only in %s results"
                % (name, label, "old" if key in old else "new"))
        elif isinstance(old[key], dict) and isinstance(new[key], dict):
            _diff_facts(name, old[key], new[key], comparison, label + ".")
        elif old[key] != new[key]:
            comparison.regressions.append(
                "%s: %s %r -> %r" % (name, label, old[key], new[key]))


def compare_results(old, new):
    """Diff two result sets; regressions are what CI should fail on.

    The simulator, the seeded faults and the modelled clocks are all
    deterministic, so under the same setup (``quick`` and
    ``max_instructions_clamp``) every fact on both sides -- pass/fail,
    per-test outcomes, ``metrics``, ``obs`` and every recorded block,
    key by key -- must be equal; a difference is a regression naming
    the benchmark, block and key.  Comparison is by presence: a
    benchmark, block or key on one side only is a note.  Across
    different setups only "passed before, fails now" is a regression.
    ``timing`` sub-dicts are never compared.
    """
    comparison = Comparison()
    for name in sorted(set(old) | set(new)):
        if name not in new:
            comparison.notes.append("%s: missing from new results" % name)
            continue
        if name not in old:
            comparison.notes.append("%s: new benchmark" % name)
            continue
        o, n = old[name], new[name]
        if all(o.get(key) == n.get(key)
               for key in ("quick", "max_instructions_clamp")):
            _diff_facts(name, o, n, comparison)
        else:
            comparison.notes.append(
                "%s: different quick/clamp setup; only pass/fail compared"
                % name)
            if o.get("passed") and not n.get("passed"):
                comparison.regressions.append(
                    "%s: passed before, fails now" % name)
    return comparison


def run_compare(args):
    old = load_results(args.old)
    new = load_results(args.new)
    if not old or not new:
        print("dcpibench compare: no BENCH_*.json under %s"
              % (args.old if not old else args.new), file=sys.stderr)
        return 2
    comparison = compare_results(old, new)
    for note in comparison.notes:
        print("note: %s" % note)
    for regression in comparison.regressions:
        print("REGRESSION: %s" % regression)
    print("compared %d benchmarks: %d regression(s), %d note(s)"
          % (len(set(old) & set(new)), len(comparison.regressions),
             len(comparison.notes)))
    return 0 if comparison.ok else 1


# -- entry point -----------------------------------------------------------


def _build_run_parser():
    parser = argparse.ArgumentParser(
        prog="dcpibench",
        description="run the benchmark suite and write BENCH_*.json "
                    "results (use 'dcpibench compare OLD NEW' to diff "
                    "two result sets)")
    parser.add_argument("names", nargs="*",
                        help="benchmark names or globs (default: all)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: cpu count)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: clamp instruction budgets "
                             "to %d" % QUICK_BUDGET)
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="explicit instruction-budget clamp")
    parser.add_argument("--bench-dir", default=None)
    parser.add_argument("--results-dir", default=None)
    parser.add_argument("--timeout", type=int, default=DEFAULT_TIMEOUT,
                        help="per-benchmark timeout (seconds)")
    parser.add_argument("--list", action="store_true",
                        help="list matching benchmarks and exit")
    return parser


def _build_compare_parser():
    parser = argparse.ArgumentParser(
        prog="dcpibench compare",
        description="diff the facts of two BENCH_*.json result "
                    "directories exactly; exit 1 when one moved")
    parser.add_argument("old", help="baseline results directory")
    parser.add_argument("new", help="candidate results directory")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return run_compare(_build_compare_parser().parse_args(argv[1:]))
    return run_suite(_build_run_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
