"""The repo's gates, one pytest row each.

Every command a CI job used to spell in YAML is a row here: the tool's
own ``main(argv)`` called in process, its report written under
``tmp_path``, its assertions ordinary Python.  A row's docstring says
which gate it is and names the tier-1 test that shows the gate red.

Tiers are markers (``pyproject.toml`` registers both and deselects
them by default; a ``-m`` on the command line replaces that):

* unmarked        -- seconds; part of plain tier-1;
* ``required_gate`` -- a clock or minutes; CI's ``gates`` job, every push;
* ``nightly_gate``  -- the full benchmark budgets; ``nightly.yml``.

pytest is the runner::

    python -m pytest tests/test_gates.py -k NAME            # one gate
    python -m pytest tests/test_gates.py --collect-only -m ""  # the list
    python -m pytest tests/test_gates.py -m "not nightly_gate" \\
        --durations=0 --basetemp=benchmarks/results/gates   # what CI runs

A row keeps one budget unless a measurement says two (2-core box, in
process): ``dcpiab`` 50 k 6 s against 400 k 17 s + mux 10 s;
``dcpichaos --quick`` (7 machine + all 10 fleet scenarios) 6 s
against the whole registry with two workloads 15 s, and a ``fleet``
row that names the 10 fleet scenarios alone;
``dcpibench --quick`` 44 s against full budgets; and the fleet pair,
because the committed ``FLEET_quick.json`` is the 3x3 seed-1 fleet's
shape and the 6x8 retention fleet reads as a regression against it
(``dssquery:ScanLineitem`` 26.97 % -> 30.87 %, bound 2.72 %).
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.faults.scenarios import SCENARIOS
from repro.obs.report import REPORT_SCHEMA
from repro.tools import cli
from repro.workloads.registry import workload_names

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
BASELINES = os.path.join(ROOT, "benchmarks", "baselines")
REGISTRY = workload_names()
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    PERFBENCH_WORKLOADS = [row["name"]
                           for row in json.load(_handle)["workloads"]]

required = pytest.mark.required_gate
nightly = pytest.mark.nightly_gate


def _subprocess(argv, timeout):
    """Run ``python argv...`` from the repo root with ``repro``
    importable whether or not the package is installed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part)
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, timeout=timeout, text=True,
        capture_output=True, env=dict(os.environ, PYTHONPATH=path))


def _report(text, tool):
    """A report as the one writer emits it, envelope checked."""
    report = json.loads(text)
    assert report["schema"] == REPORT_SCHEMA
    assert report["tool"] == tool
    return report


# -- dcpicheck ----------------------------------------------------------------


@pytest.mark.parametrize("layers", ["image,analysis,lint", "rewrite"])
def test_check(layers, tmp_path, capsys):
    """Correctness (answers): static analysis, the paper's invariants
    and the lint rules over every registered workload; ``rewrite`` is
    Layer 4, every shipped optimizer plan proven without running it.
    Any error finding fails.  Red:
    ``test_dcpicheck.py::TestGating::test_seeded_violation_fails_the_gate``
    (the exit code) and ``test_transval.py::TestRejects`` (Layer 4).

    ``bigcode`` is seeded random straight-line filler, so its image
    layer reports reads of never-written temporaries (warnings) and
    overwritten results (infos).  Expected, and not fixed: the row
    pins them to that image and to below error severity."""
    report = tmp_path / "CHECK.json"
    code = cli.main_dcpicheck([
        "--layers", layers, "-q", "--json", str(report)])
    assert code == 0, capsys.readouterr().err
    payload = _report(report.read_text(), "dcpicheck")
    assert payload["workloads"] == REGISTRY
    assert payload["counts"]["error"] == 0
    assert {finding["location"].split(":")[0]
            for finding in payload["findings"]} <= {"bigcode"}


# -- dcpiab -------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    pytest.param(["--max-instructions", "50000"], id="50k"),
    pytest.param(["--max-instructions", "400000"], id="400k",
                 marks=required),
    pytest.param(["--mode", "mux", "--max-instructions", "100000"],
                 id="mux-100k", marks=required),
])
def test_dcpiab(argv, capsys):
    """Correctness (answers): cold-cache fast path == warm-cache fast
    path == slow path, byte for byte, on every registered workload;
    mux mode rotates the counters, so replays meet other headroom and
    overflow timings.  Red: ``test_warm_leg_divergence_is_named`` in
    ``test_fastpath.py::TestDcpiabThreeLegs``.

    The identity covers trace code only where traces ran: every way a
    trace entry ends must occur.  The registry's interior branches
    never turn against their trace without a mispredict, so the
    direction guard is exercised, on the same three legs in each mode,
    by ``test_fastpath_identity.py::test_trace_leaves_on_its_direction_guard``
    instead.  Generated steps (``compiled runs``) must have run, so the
    identity covers that tier as well, and so must their calls."""
    code = cli.main_dcpiab(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    assert "%d/%d workloads byte-identical" % (
        len(REGISTRY), len(REGISTRY)) in out
    assert "replay cache 0 hits" not in out
    # Hot runs ran as generated steps on the fast legs.
    assert "; 0 compiled runs," not in out, out
    assert " 0 compiled calls;" not in out, out
    exits = dict(item.split("=") for item in
                 out.rstrip().rpartition(" exits ")[2].split())
    assert [kind for kind, count in exits.items() if count == "0"] in (
        [], ["guard"]), exits


# -- dcpichaos ----------------------------------------------------------------


FLEET_SCENARIOS = [scenario.name for scenario in SCENARIOS
                   if scenario.fleet is not None]


def _chaos_cases(workloads, quick=False):
    """Rows the matrix runs: machine scenarios once per workload,
    fleet scenarios once."""
    return sum(len(workloads) if scenario.fleet is None else 1
               for scenario in SCENARIOS
               if scenario.quick or not quick)


@pytest.mark.parametrize("argv, cases", [
    pytest.param(["--quick"], _chaos_cases(["gcc"], quick=True),
                 id="quick"),
    pytest.param(["--workloads", "gcc,mccalpin"],
                 _chaos_cases(["gcc", "mccalpin"]), id="gcc+mccalpin",
                 marks=required),
    pytest.param(["--scenarios", ",".join(FLEET_SCENARIOS)],
                 len(FLEET_SCENARIOS), id="fleet"),
])
def test_chaos(argv, cases, tmp_path, capsys):
    """Robustness: every machine fault scenario next to a fault-free
    twin with the same seed -- no unaccounted sample loss, no torn
    record, no double count; every fleet scenario twice for
    bit-determinism, balancing stored + transit-lost + spool-dropped +
    residue + quarantined == shipped.  Red, in
    ``test_faults.py::TestChaosCli``:
    ``test_dropped_accounting_term_fails_the_gate`` and
    ``test_dropped_fleet_accounting_term_fails_the_gate``."""
    report = tmp_path / "CHAOS.json"
    code = cli.main_dcpichaos([*argv, "--json", str(report)])
    assert code == 0, capsys.readouterr().out
    payload = _report(report.read_text(), "dcpichaos")["cases"]
    assert len(payload) == cases
    assert all(case["ok"] and not case["failures"] for case in payload)


# -- dcpifleet ----------------------------------------------------------------


def test_fleet_regress(tmp_path, capsys):
    """Correctness (answers): a 3-machine x 3-epoch fleet balances its
    conservation books (``run`` exits 0) and no procedure's fleet-wide
    CPU share grew beyond the sampling-error bound against the
    committed profile shape.  Red:
    ``test_fleet.py::test_cli_regress_goes_red`` (a shifted workload
    mix exits 2; a missing or empty store exits 1, never 0)."""
    store = str(tmp_path / "store")
    assert cli.main_dcpifleet([
        "run", "--store", store, "--machines", "3", "--epochs", "3",
        "--seed", "1", "--json", str(tmp_path / "FLEET.json")]) == 0
    report = _report((tmp_path / "FLEET.json").read_text(), "dcpifleet")
    assert report["ok"] and not report["findings"]
    assert report["store"]["stored_samples"] > 0
    code = cli.main_dcpifleet([
        "regress", "--store", store, "--epochs", "0..2",
        "--baseline", os.path.join(BASELINES, "FLEET_quick.json")])
    assert code == 0, capsys.readouterr().out


def test_fleet_retention(tmp_path, capsys):
    """Robustness: a 6x8 fleet under an aggressive retention policy
    (keep 3 epochs, compact 2-windows, divide counts by 4) still
    balances -- downsample residue and the atomic window replacement
    engage -- and ``movers`` / ``timeseries`` answer over mixed
    compacted and full-resolution ranges.  Red:
    ``test_fleet.py::test_cli_run_reports_conservation_findings``."""
    store = str(tmp_path / "store")
    assert cli.main_dcpifleet([
        "run", "--store", store, "--machines", "6", "--epochs", "8",
        "--seed", "1", "--retention", "3:2:4",
        "--json", str(tmp_path / "FLEET.json")]) == 0
    report = _report((tmp_path / "FLEET.json").read_text(), "dcpifleet")
    assert report["ok"] and report["store"]["downsample_residue"] > 0
    capsys.readouterr()
    assert cli.main_dcpifleet([
        "movers", "--store", store, "--base-epochs", "0..3",
        "--epochs", "4..7", "--json", "-"]) == 0
    movers = _report(capsys.readouterr().out, "dcpifleet")
    assert movers["base_total"] > 0 and movers["new_total"] > 0
    assert cli.main_dcpifleet(
        ["timeseries", "--store", store, "--json", "-"]) == 0
    series = _report(capsys.readouterr().out, "dcpifleet")["series"]
    assert series and all(point["total_samples"] > 0
                          for point in series.values())


# -- dcpitrace ----------------------------------------------------------------


@pytest.mark.parametrize("workload, classes", [
    ("bursty", {"req.burst", "req.steady"}),
    ("slow-client", {"client.fast", "client.slow"}),
    ("mixed-tenant", {"tenant.a", "tenant.b", "tenant.c"}),
], ids=["bursty", "slow-client", "mixed-tenant"])
def test_trace(workload, classes, tmp_path, capsys):
    """Correctness (answers): every request class of every traffic
    scenario is attributed -- requests, CYCLES samples, culprits,
    ordered tail percentiles -- and no sample falls outside a class.
    The budget is the tool's default; the workloads exit on their own
    after 28 092 / 15 040 / 21 402 instructions.  Red:
    ``test_trace_rejects_a_database_without_contexts`` below."""
    db = str(tmp_path / "db")
    assert cli.main_dcpitrace([
        "run", "--workload", workload, "--out", db, "--seed", "1"]) == 0
    assert cli.main_dcpitrace(["report", db]) == 0
    capsys.readouterr()
    assert cli.main_dcpitrace(["report", db, "--json", "-"]) == 0
    text = capsys.readouterr().out
    (tmp_path / "TRACE.json").write_text(text)
    report = _report(text, "dcpitrace")
    assert set(report["classes"]) == classes
    for name, cls in report["classes"].items():
        assert cls["requests"] > 0, name
        assert cls["cycles_samples"] > 0, name
        assert cls["culprits"], name
        tail = cls["tail"]
        assert tail["p50"] <= tail["p95"] <= tail["p99"], name
    assert report["other_samples"] == 0


def test_trace_rejects_a_database_without_contexts(tmp_path, capsys):
    """A gate that cannot pass vacuously: ``report`` on a real store
    shard that was collected without ``--context`` exits 1 and says
    why.  (The YAML step this replaces pointed at a path that stopped
    existing in PR 13 and went green on the directory it created.)
    The missing-path case is
    ``test_dcpitrace.py::TestCli::test_missing_database_is_not_created``."""
    store = str(tmp_path / "store")
    assert cli.main_dcpifleet([
        "run", "--store", store, "--machines", "1", "--epochs", "1",
        "--seed", "1"]) == 0
    db = os.path.join(store, "shards", "s00", "db")
    assert os.path.isfile(os.path.join(db, "MANIFEST.json"))
    capsys.readouterr()
    assert cli.main_dcpitrace(["report", db]) == 1
    assert "no context ledger" in capsys.readouterr().err


# -- dcpiopt ------------------------------------------------------------------


def test_opt_run(tmp_path, capsys):
    """Correctness (answers): profile -> plan -> rewrite -> verify ->
    re-run closes on ``opt-branchy``: statically validated, oracle
    identical, zero new Layer-1 findings, >= 5 % of baseline cycles
    reclaimed.  Red:
    ``test_opt.py::test_cli_run_exits_nonzero_on_a_rejected_rewrite``."""
    out = tmp_path / "OPT.json"
    assert cli.main_dcpiopt([
        "run", "--workload", "opt-branchy", "--max-instructions",
        "60000", "--json", str(out)]) == 0
    assert cli.main_dcpiopt(["report", str(out)]) == 0
    assert "ACCEPTED" in capsys.readouterr().out
    report = _report(out.read_text(), "dcpiopt")
    assert report["accepted"], report["mismatches"]
    assert report["static_ok"], report["static"]
    assert report["identical"], report["mismatches"]
    assert not report["check_findings"]
    assert report["speedup"] >= 0.05


def test_opt_sweep(tmp_path):
    """Correctness (answers): every optimization target across three
    sampling periods and three injected loss rates -- a degraded
    profile may yield less speedup, never wrong code.  ``sweep`` exits
    0 whatever it finds; the row is the acceptance check.  Writes the
    speedup-vs-period curve next to the rows.  Red:
    ``test_opt.py::test_optimize_rejects_are_not_speedups``."""
    out = tmp_path / "OPT_sweep.json"
    assert cli.main_dcpiopt(["sweep", "--json", str(out)]) == 0
    payload = _report(out.read_text(), "dcpiopt")
    curve = {}
    for row in payload["rows"]:
        assert row["accepted"], row
        curve.setdefault((row["workload"], row["period"]),
                         []).append(row["speedup"])
    assert len(curve) == 9 and len(payload["rows"]) == 27
    lines = ["workload        period  mean speedup"]
    for (name, period), points in sorted(curve.items()):
        lines.append("%-14s %7.0f %11.2f%%"
                     % (name, period, 100.0 * sum(points) / len(points)))
    (tmp_path / "OPT_curve.txt").write_text("\n".join(lines) + "\n")


# -- dcpimon ------------------------------------------------------------------


def test_dcpimon_report(tmp_path, capsys):
    """Observability: the profiler profiling itself renders every
    section and leaves a Chrome trace.  Red: the section asserts of
    ``test_dcpimon.py::TestReport`` fail on a missing heading."""
    trace = tmp_path / "dcpimon_trace.jsonl"
    assert cli.main_dcpimon(["report", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    for heading in ("Collection", "Per-CPU", "Daemon", "Shards",
                    "Analysis phases"):
        assert heading in out
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {"X", "M", "C"} <= {event["ph"] for event in events}


@required
def test_dcpimon_overhead(capsys):
    """Performance (a clock, hence not tier-1): self-monitoring costs
    under 2 % of a 40 k-instruction run, median of five alternating
    pairs; pairs whose quartiles are further apart than the 2 % read
    ``unresolved`` and pass.  Red:
    ``test_dcpimon.py::TestOverhead::test_gate_fails_when_exceeded``."""
    code = cli.main_dcpimon(["overhead", "--budget", "40000",
                             "--repeats", "5", "--max-pct", "2.0"])
    assert code == 0, capsys.readouterr().err


# -- dcpibench and perfbench: the tools that are processes --------------------


@pytest.mark.parametrize("budget", [
    pytest.param(["--quick"], id="quick", marks=required),
    pytest.param([], id="full", marks=nightly),
])
def test_bench(budget, tmp_path, capsys):
    """Correctness (answers) and performance that is measured: all 25
    benchmarks pass and, at ``--quick``, every deterministic fact
    equals the committed baseline (timing is never compared).  The
    baselines are quick-mode, so at full budgets ``compare`` checks
    only "passed before, fails now".  Red: the ``compare`` regression
    tests of ``test_benchrunner.py``."""
    results = str(tmp_path / "results")
    run = _subprocess(["-m", "repro.tools.benchrunner", *budget,
                       "--workers", "2", "--results-dir", results],
                      timeout=9000)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    code = cli.main_dcpibench(["compare", BASELINES, results])
    assert code == 0, capsys.readouterr().out


@required
@pytest.mark.parametrize("workload", PERFBENCH_WORKLOADS)
def test_perfbench_smoke(workload):
    """Not a measurement: one set-up and one round of each
    ``BENCHMARK.json`` workload, so the benchmark's command line and
    its correctness checks cannot rot unseen.  Red:
    ``perfbench/tests/test_smoke.py`` (a failing check exits 1)."""
    run = _subprocess(["perfbench/run.py", "--workload", workload,
                       "--smoke"], timeout=1200)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    line = json.loads(run.stdout.splitlines()[-1])
    assert line["correct"] and line["smoke"] and not line["failed"]
