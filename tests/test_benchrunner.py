"""The dcpibench harness: discovery, JSON results, and regression gate."""

import copy
import importlib.util
import json
import os
import re

import pytest

from repro.tools.benchrunner import (compare_results, default_bench_dir,
                                     discover_benchmarks, load_results, main)

REPO_BENCH_DIR = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "benchmarks"))
BASELINES_DIR = os.path.join(REPO_BENCH_DIR, "baselines")


def test_discovers_the_suite():
    benchmarks = discover_benchmarks(REPO_BENCH_DIR)
    names = [name for name, _ in benchmarks]
    assert len(names) >= 10
    assert "table3_overhead" in names
    assert all(path.endswith(".py") for _, path in benchmarks)
    assert default_bench_dir()  # resolvable from the repo checkout


def _payload(name, elapsed=10.0, samples=5000, overhead=1.0, passed=True,
             clamp=None):
    test_id = "bench_%s.py::test" % name
    return {
        "benchmark": name,
        "file": "bench_%s.py" % name,
        "quick": clamp is not None,
        "max_instructions_clamp": clamp,
        "passed": passed,
        "tests": {test_id: "passed" if passed else "failed"},
        "metrics": {
            "tests": 1,
            "sessions": 4,
            "instructions": 200_000,
            "cycles": 400_000,
            "samples": samples,
            "overhead_pct_mean": overhead,
        },
        "obs": {"driver.hash.evictions": 0},
        "timing": {"elapsed_s": elapsed, "tests": {test_id: elapsed},
                   "instructions_per_sec": 500_000.0},
    }


def _write_results(dirpath, payloads):
    os.makedirs(dirpath, exist_ok=True)
    for payload in payloads:
        path = os.path.join(dirpath,
                            "BENCH_%s.json" % payload["benchmark"])
        with open(path, "w") as handle:
            json.dump(payload, handle)
    return dirpath


@pytest.fixture
def result_dirs(tmp_path):
    old = [_payload("alpha"), _payload("beta", elapsed=5.0, overhead=2.0)]
    new = copy.deepcopy(old)
    _write_results(str(tmp_path / "old"), old)
    return tmp_path, old, new


def _compare(tmp_path, new, old=None):
    if old is not None:
        _write_results(str(tmp_path / "old"), old)
    _write_results(str(tmp_path / "new"), new)
    return compare_results(load_results(str(tmp_path / "old")),
                           load_results(str(tmp_path / "new")))


def test_compare_identical_runs_is_clean(result_dirs):
    tmp_path, _, new = result_dirs
    comparison = _compare(tmp_path, new)
    assert comparison.ok
    assert not comparison.regressions
    assert not comparison.notes


def test_compare_ignores_timing(result_dirs):
    """Timing is perfbench's job: no timing value, top-level or inside
    a block, can fail the fact gate."""
    tmp_path, old, new = result_dirs
    new[0]["timing"]["elapsed_s"] = 30.0  # 3x the old 10s
    new[0]["timing"]["instructions_per_sec"] = 100_000.0  # -80%
    old[0]["fleet"] = {"merge_samples": 9,
                       "timing": {"merge_samples_per_sec": 900.0}}
    new[0]["fleet"] = {"merge_samples": 9,
                       "timing": {"merge_samples_per_sec": 90.0}}
    comparison = _compare(tmp_path, new, old)
    assert comparison.ok and not comparison.notes
    assert main(["compare", str(tmp_path / "old"),
                 str(tmp_path / "new")]) == 0


def test_compare_flags_new_failure(result_dirs):
    tmp_path, _, new = result_dirs
    new[1]["passed"] = False
    new[1]["tests"]["bench_beta.py::test"] = "failed"
    comparison = _compare(tmp_path, new)
    assert "beta: passed True -> False" in comparison.regressions
    # The failing test is named, not just the module.
    assert any("tests.bench_beta.py::test" in r
               for r in comparison.regressions)
    # Across setups (nightly full budgets vs the quick baselines) a
    # lost assertion is the one thing still compared.
    new[1]["quick"] = True
    comparison = _compare(tmp_path, new)
    assert comparison.regressions == ["beta: passed before, fails now"]


def test_compare_flags_overhead_regression(result_dirs):
    tmp_path, _, new = result_dirs
    # Simulated cycles, hence a fact, hence exact -- in both directions.
    new[1]["metrics"]["overhead_pct_mean"] = 1.9999  # was 2.0
    comparison = _compare(tmp_path, new)
    assert comparison.regressions == [
        "beta: metrics.overhead_pct_mean 2.0 -> 1.9999"]
    assert main(["compare", str(tmp_path / "old"),
                 str(tmp_path / "new")]) == 1


def test_compare_flags_sample_drift_same_setup(result_dirs):
    tmp_path, _, new = result_dirs
    new[0]["metrics"]["samples"] = 5001  # one sample, same clamp
    comparison = _compare(tmp_path, new)
    assert comparison.regressions == [
        "alpha: metrics.samples 5000 -> 5001"]


def test_compare_ignores_sample_drift_across_different_clamps(result_dirs):
    tmp_path, _, new = result_dirs
    new[0] = _payload("alpha", samples=500, clamp=50_000)
    comparison = _compare(tmp_path, new)
    assert comparison.ok
    assert any("alpha: different quick/clamp setup" in n
               for n in comparison.notes)


def test_compare_notes_added_and_missing_benchmarks(result_dirs):
    tmp_path, _, new = result_dirs
    new = [new[0], _payload("gamma")]
    comparison = _compare(tmp_path, new)
    assert comparison.ok  # appearance/disappearance is not a regression
    assert any("missing" in n for n in comparison.notes)
    assert any("new benchmark" in n for n in comparison.notes)


def test_compare_notes_one_sided_blocks_and_keys(result_dirs):
    """Comparison is by presence: what only one side recorded is a
    note, and everything shared is still held exact."""
    tmp_path, old, new = result_dirs
    new[0]["fleet"] = {"samples_ingested": 123}  # new block
    old[1]["obs"]["driver.retired_key"] = 1  # key the writer dropped
    new[1]["metrics"]["samples"] = 4999
    comparison = _compare(tmp_path, new, old)
    assert sorted(comparison.notes) == [
        "alpha: fleet only in new results",
        "beta: obs.driver.retired_key only in old results"]
    assert comparison.regressions == [
        "beta: metrics.samples 5000 -> 4999"]


def test_compare_cli_errors_on_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["compare", str(empty), str(empty)]) == 2


@pytest.mark.parametrize("block, key, old_value, new_value", [
    ("fleet", "samples_ingested", 100, 120),
    ("ctx", "bursty_cycles_samples", 700, 699),
    ("opt", "accepted", 3, 2),
    ("resilience", "ship_retries", 2, 3),
    ("obs", "driver.hash.evictions", 0, 1),
], ids=["fleet", "ctx", "opt", "resilience", "obs"])
def test_compare_flags_block_drift(result_dirs, capsys, block, key,
                                   old_value, new_value):
    """Every recorded block is held exact -- including "ctx", which the
    per-block compare tables used to skip -- and the failure names the
    benchmark, block and key."""
    tmp_path, old, new = result_dirs
    old[0][block] = {key: old_value, "unchanged": 900}
    new[0][block] = {key: new_value, "unchanged": 900}
    comparison = _compare(tmp_path, new, old)
    assert comparison.regressions == [
        "alpha: %s.%s %d -> %d" % (block, key, old_value, new_value)]
    assert main(["compare", str(tmp_path / "old"),
                 str(tmp_path / "new")]) == 1
    assert "REGRESSION: alpha: %s.%s" % (block, key) in \
        capsys.readouterr().out


def test_run_single_benchmark_end_to_end(tmp_path):
    """dcpibench really runs a benchmark, and the fact sheet it emits
    is the committed baseline: drift fails pytest, not just CI."""
    results_dir = str(tmp_path / "results")
    exit_code = main(["--quick", "--workers", "1", "fig1_dcpiprof",
                      "--results-dir", results_dir,
                      "--bench-dir", REPO_BENCH_DIR])
    assert exit_code == 0
    path = os.path.join(results_dir, "BENCH_fig1_dcpiprof.json")
    with open(path) as handle:
        payload = json.load(handle)
    assert payload["passed"] is True
    assert payload["quick"] is True
    assert payload["tool"] == "dcpibench"
    assert payload["benchmark"] == "fig1_dcpiprof"
    assert payload["metrics"]["samples"] > 0
    assert payload["timing"]["elapsed_s"] > 0
    assert payload["timing"]["instructions_per_sec"] > 0
    assert payload["tests"] and all(
        outcome == "passed" for outcome in payload["tests"].values())
    # The human-readable rendering still lands next to the JSON.
    assert payload["text_results"] == ["fig1_dcpiprof.txt"]
    assert os.path.exists(os.path.join(results_dir, "fig1_dcpiprof.txt"))
    baseline = load_results(BASELINES_DIR)["fig1_dcpiprof"]
    comparison = compare_results({"fig1_dcpiprof": baseline},
                                 {"fig1_dcpiprof": payload})
    assert not comparison.regressions and not comparison.notes


def _load_bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "dcpibench_conftest", os.path.join(REPO_BENCH_DIR, "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_baselines_match_the_current_writer():
    """Staleness gate: every benchmark module has a committed baseline
    whose shape is what today's conftest writes for that module."""
    baselines = load_results(BASELINES_DIR)
    benchmarks = dict(discover_benchmarks(REPO_BENCH_DIR))
    assert sorted(baselines) == sorted(benchmarks)
    comparison = compare_results(baselines, baselines)
    assert comparison.ok and not comparison.notes

    body, _ = _load_bench_conftest().bench_payload("x", [], [], 0)
    writer_keys = set(body) | {"schema", "tool", "timing"}
    for name, path in benchmarks.items():
        with open(path) as handle:
            blocks = set(re.findall(r'record_block\(\s*"(\w+)"',
                                    handle.read()))
        baseline = baselines[name]
        assert set(baseline) == writer_keys | blocks, name
        assert baseline["passed"] and baseline["quick"], name
        assert all(isinstance(baseline[block], dict) for block in blocks)
        # Fact sheets gate the collection system, not the simulator's
        # fast-path counters.
        assert not [key for key in baseline["obs"] or ()
                    if key.startswith("sim.")], name


def test_fact_sheet_fails_when_pytest_fails():
    """A module whose tests all passed still fails its sheet when pytest
    exits nonzero (an error outside any test, say)."""
    conftest = _load_bench_conftest()
    tests = [{"id": "bench_x.py::test", "outcome": "passed",
              "duration_s": 0.1}]
    assert conftest.bench_payload("x", tests, [], 0)[0]["passed"] is True
    assert conftest.bench_payload("x", tests, [], 1)[0]["passed"] is False
