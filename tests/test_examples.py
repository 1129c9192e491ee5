"""Smoke tests: the shipped examples must run to completion.

Every example honors the ``DCPI_EXAMPLE_BUDGET`` environment variable
(instructions to simulate), so CI can execute the whole set -- even the
variance study that takes minutes at full scale -- with a tiny budget.
Each runs in a subprocess so a crash cannot take the test runner down.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")

ALL_EXAMPLES = (
    "quickstart.py",
    "continuous_daemon.py",
    "binary_workflow.py",
    "query_tuning.py",
    "variance_investigation.py",
    "x11_server_analysis.py",
)

#: Small enough for a CI smoke job, big enough that every example still
#: collects samples to analyze.
SMOKE_BUDGET = "60000"


def run_example(name, budget=None, timeout=240, tmpdir=None):
    env = dict(os.environ)
    if budget is not None:
        env["DCPI_EXAMPLE_BUDGET"] = budget
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs_with_tiny_budget(name, tmp_path):
    result = run_example(name, budget=SMOKE_BUDGET, tmpdir=tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout  # every example narrates its findings
    # Whatever an example puts in the temp dir, it removes.
    assert list(tmp_path.iterdir()) == []


def test_quickstart_output_shape():
    result = run_example("quickstart.py")
    out = result.stdout
    for needle in ("dcpiprof", "dcpicalc", "Best-case",
                   "stall summary", "Total tallied"):
        assert needle in out
