"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures: it
runs the experiment (timed via pytest-benchmark), renders the same rows
or series the paper reports, writes them to ``benchmarks/results/``,
and asserts the qualitative shape the paper claims (who wins, by
roughly what factor).  Absolute numbers differ -- the substrate is a
simulator, not the authors' AlphaStations -- as documented in
EXPERIMENTS.md.

Besides the historical free-text ``.txt`` renderings, this conftest is
the machine-readable half of the ``dcpibench`` harness
(:mod:`repro.tools.benchrunner`): it records every profiling session a
benchmark runs, captures per-test outcomes and durations, and writes a
``BENCH_<name>.json`` fact sheet per benchmark module at session end
(see EXPERIMENTS.md: deterministic facts, plus ``timing`` sub-dicts
that are never compared).  Two environment knobs drive it:

* ``DCPIBENCH_MAX_INSTRUCTIONS`` -- clamp every explicit instruction
  budget (quick/CI mode); run-to-completion runs are left alone.
* ``DCPIBENCH_RESULTS`` -- where to write results (default
  ``benchmarks/results``).
"""

import math
import os
import platform
import time

from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.obs import derive, merge_metrics
from repro.obs.report import write_report

RESULTS_DIR = os.environ.get(
    "DCPIBENCH_RESULTS",
    os.path.join(os.path.dirname(__file__), "results"))

#: Default scaled sampling configuration (see DESIGN.md substitution
#: table): mean period 248 cycles vs the paper's 62K; overhead numbers
#: are charged at the 62K-equivalent rate via the driver's cost scale.
FAST_PERIOD = (240, 256)
EVENT_PERIOD = 64

QUICK = os.environ.get("DCPIBENCH_QUICK") == "1"
_CLAMP = int(os.environ.get("DCPIBENCH_MAX_INSTRUCTIONS", "0")) or None

# Per-session state feeding the JSON results: which test is running,
# every profiling session it executed, per-test outcomes, and the .txt
# rendering each module produced.
_CURRENT = {"nodeid": None}
_SESSIONS = []
_REPORTS = {}
_TEXTS = {}
_BLOCKS = {}


def clamp_budget(requested):
    """Apply the quick-mode instruction-budget clamp, if any.

    ``None`` budgets mean "run the workload to completion" and are not
    clamped: those workloads are small by construction, and truncating
    them would change what the benchmark measures.
    """
    if _CLAMP is None or requested is None:
        return requested
    return min(requested, _CLAMP)


def _module_stem(nodeid):
    """'.../bench_table3_overhead.py::test' -> 'table3_overhead'."""
    path = (nodeid or "").split("::", 1)[0]
    stem = os.path.basename(path)
    if stem.endswith(".py"):
        stem = stem[:-3]
    if stem.startswith("bench_"):
        stem = stem[len("bench_"):]
    return stem or "unknown"


def write_result(name, text):
    """Persist rendered output under benchmarks/results/<name>.txt."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    print("\n" + text)
    _TEXTS.setdefault(_module_stem(_CURRENT["nodeid"]), []).append(
        os.path.basename(path))
    return path


def record_block(block, facts, timing=None):
    """Merge *facts* into this module's *block* of the BENCH_*.json.

    Facts are deterministic -- simulated counts, byte sizes, seeded
    fault accounting -- and ``dcpibench compare`` requires every one of
    them to reproduce exactly between identically-configured runs.
    Anything derived from the host clock or from OS scheduling goes in
    *timing*: it lands in the block's "timing" sub-dict, written for
    humans and never compared (``perfbench`` owns timing regressions).
    """
    target = _BLOCKS.setdefault(
        _module_stem(_CURRENT["nodeid"]), {}).setdefault(block, {})
    target.update(facts)
    if timing:
        target.setdefault("timing", {}).update(timing)


def _record_session(kind, workload, mode, seed, result, cpu_s):
    record = {
        "test": _CURRENT["nodeid"],
        "kind": kind,
        "workload": getattr(workload, "name", str(workload)),
        "mode": mode,
        "seed": seed,
        "instructions": result.instructions,
        "cycles": result.cycles,
        # CPU seconds, not wall: parallel bench workers contend for
        # cores.  Feeds the payload's "timing" only.
        "cpu_s": cpu_s,
    }
    if kind == "profile":
        record["samples"] = sum(result.driver.event_samples.values())
        record["adjusted_cycles"] = result.adjusted_cycles
        # Raw self-monitoring counts (repro.obs typed snapshot);
        # summed across sessions at payload time so derived rates are
        # exact, not averages of averages.
        record["obs"] = result.metrics()
    _SESSIONS.append(record)
    return result


def profile_workload(workload, mode="default", seed=1,
                     max_instructions=80_000, period=FAST_PERIOD,
                     machine_config=None, event_period=EVENT_PERIOD,
                     **session_overrides):
    """Run one profiled execution of *workload*; return SessionResult."""
    config = machine_config or MachineConfig(num_cpus=workload.num_cpus)
    session = ProfileSession(
        config,
        SessionConfig(mode=mode, cycles_period=period,
                      event_period=event_period, seed=seed,
                      **session_overrides))
    started = time.process_time()
    result = session.run(workload,
                         max_instructions=clamp_budget(max_instructions))
    cpu_s = time.process_time() - started
    return _record_session("profile", workload, mode, seed, result, cpu_s)


def baseline_workload(workload, seed=1, max_instructions=80_000):
    config = MachineConfig(num_cpus=workload.num_cpus)
    session = ProfileSession(config, SessionConfig(seed=seed))
    started = time.process_time()
    result = session.run_baseline(
        workload, max_instructions=clamp_budget(max_instructions))
    cpu_s = time.process_time() - started
    return _record_session("baseline", workload, None, seed, result, cpu_s)


def mean_ci95(values):
    """Return (mean, 95% confidence half-width) of *values*."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(variance / n)


def run_once(benchmark, func):
    """Run *func* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1,
                              warmup_rounds=0)


# -- the machine-readable result harness (dcpibench) -----------------------


def pytest_runtest_setup(item):
    _CURRENT["nodeid"] = item.nodeid


def pytest_runtest_logreport(report):
    record = _REPORTS.setdefault(
        report.nodeid, {"outcome": "passed", "duration_s": 0.0})
    record["duration_s"] += report.duration
    # A failed setup/teardown (error) or call (failure) both count.
    if report.outcome != "passed":
        record["outcome"] = report.outcome


def _overheads(records):
    """Pair profiled and baseline runs; return overhead %s per pair."""
    baselines = {}
    for record in records:
        if record["kind"] == "baseline":
            baselines[(record["workload"], record["seed"])] = record
    overheads = []
    for record in records:
        if record["kind"] != "profile":
            continue
        base = baselines.get((record["workload"], record["seed"]))
        if base is None or not base["cycles"]:
            continue
        overheads.append(
            (record["adjusted_cycles"] - base["cycles"])
            / base["cycles"] * 100.0)
    return overheads


def _obs_block(profiled):
    """Aggregate per-session obs snapshots into the payload's "obs"
    block: merge the raw counts, derive rates from the merged totals,
    and keep the aggregate scalars -- not per-CPU keys, and not the
    ``sim.*`` fast-path counters ``dcpiab`` and perfbench gate."""
    snapshots = [r["obs"] for r in profiled if r.get("obs")]
    if not snapshots:
        return None
    flat = derive(merge_metrics(snapshots))
    block = {}
    for name, value in flat.items():
        if name.startswith(("driver.cpu", "sim.")):
            continue
        block[name] = (round(value, 6)
                       if isinstance(value, float) else value)
    return block


def bench_payload(stem, tests, records, exitstatus):
    """One module's fact sheet as ``(body, timing)``: everything in
    *body* is deterministic under a given (quick, clamp) setup."""
    profiled = [r for r in records if r["kind"] == "profile"]
    overheads = _overheads(records)
    metrics = {
        "tests": len(tests),
        "sessions": len(records),
        "instructions": sum(r["instructions"] for r in records),
        "cycles": sum(r["cycles"] for r in records),
        "samples": sum(r.get("samples", 0) for r in profiled),
    }
    if overheads:
        # Simulated cycles, not host time -- a fact like the rest.
        metrics["overhead_pct_mean"] = round(
            sum(overheads) / len(overheads), 4)
    timing = {
        "elapsed_s": round(sum(t["duration_s"] for t in tests), 4),
        "tests": {t["id"]: round(t["duration_s"], 4) for t in tests},
        "python": platform.python_version(),
    }
    timed = [r for r in records if r["cpu_s"]]
    if timed:
        timing["cpu_s"] = round(sum(r["cpu_s"] for r in timed), 6)
        timing["instructions_per_sec"] = round(
            sum(r["instructions"] for r in timed) / timing["cpu_s"], 1)
    body = {
        "benchmark": stem,
        "file": "bench_%s.py" % stem,
        "quick": QUICK,
        "max_instructions_clamp": _CLAMP,
        "passed": exitstatus == 0 and all(
            t["outcome"] == "passed" for t in tests),
        "tests": {t["id"]: t["outcome"] for t in tests},
        "metrics": metrics,
        "obs": _obs_block(profiled),
        "text_results": sorted(set(_TEXTS.get(stem, []))),
    }
    body.update(_BLOCKS.get(stem, {}))
    return body, timing


def pytest_sessionfinish(session, exitstatus):
    """Write one BENCH_<name>.json per benchmark module that ran."""
    by_module = {}
    for nodeid, record in _REPORTS.items():
        stem = _module_stem(nodeid)
        by_module.setdefault(stem, []).append(dict(record, id=nodeid))
    if not by_module:
        return
    sessions_by_module = {}
    for record in _SESSIONS:
        sessions_by_module.setdefault(
            _module_stem(record["test"]), []).append(record)
    for stem, tests in sorted(by_module.items()):
        body, timing = bench_payload(
            stem, sorted(tests, key=lambda t: t["id"]),
            sessions_by_module.get(stem, []), exitstatus)
        write_report(os.path.join(RESULTS_DIR, "BENCH_%s.json" % stem),
                     "dcpibench", body, timing=timing)
