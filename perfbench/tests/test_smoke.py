"""All six workloads in smoke mode: names, exactness, failing checks."""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest
from conftest import ROOT

from perfbench import run
from perfbench.suite import load_spec
from perfbench.workloads import all_workloads, collect

RUN = os.path.join(ROOT, "perfbench", "run.py")


def smoke(workload, seed, trace, out_dir):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke", "--out-dir", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    kind = "trace" if trace else "e2e"
    with open(os.path.join(out_dir, "%s.%s.json" % (workload, kind))) as f:
        return line, json.load(f)


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.mark.parametrize("workload", list(all_workloads()))
def test_smoke_run(workload, spec, tmp_path):
    line, first = smoke(workload, 1, 0, tmp_path / "a")
    assert set(line) == {"correct", "attempted", "failed", "metrics",
                         "smoke"}
    assert line["smoke"] is True and line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {(name, m["unit"]) for name, m in line["metrics"].items()} \
        == {(e["name"], e["unit"]) for e in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert first["rounds"] == 1 and first["env"]["seed"] == 1

    # Simulated statistics repeat exactly with the seed ...
    _, again = smoke(workload, 1, 0, tmp_path / "b")
    assert again["exact"] == first["exact"]
    # ... and move with it.
    _, other = smoke(workload, 2, 0, tmp_path / "c")
    assert other["exact"] != first["exact"]

    # The traced run prints every per-layer metric and perturbs nothing.
    line, traced = smoke(workload, 1, 1, tmp_path / "d")
    assert {(name, m["unit"]) for name, m in line["metrics"].items()} \
        == {(e["name"], e["unit"]) for e in spec["per_layer"]}
    assert traced["rounds"] == 2
    for key, value in first["exact"].items():
        assert traced["exact"][key] == value, key
    assert line["metrics"]["trace.coverage_pct"]["value"] > 80.0
    with open(tmp_path / "d" / ("%s.spans.json" % workload)) as handle:
        assert json.load(handle)["traceEvents"]
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_tmp"))


def test_a_failed_check_fails_the_command(monkeypatch, capsys):
    """Corrupt one stored profile before verify(): exit status 1."""
    read = collect.CollectDense.read

    def corrupt_then_read(self, roots, rec):
        victim = sorted(glob.glob(os.path.join(
            roots["gcc"], "epoch*", "*.prof")))[0]
        with open(victim, "r+b") as handle:
            handle.seek(12)
            handle.write(b"\xff\xff\xff\xff")
        read(self, roots, rec)

    monkeypatch.setattr(collect.CollectDense, "read", corrupt_then_read)
    status = run.main(["--workload", "collect-dense", "--seed", "1",
                       "--smoke"])
    assert status == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_unknown_workload_and_missing_program(tmp_path):
    assert run.main(["--workload", "no-such"]) == 2
    # A directory holding only BENCHMARK.json and perfbench/: no result.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=180)
    assert done.returncode == 2
    assert done.stdout == ""
