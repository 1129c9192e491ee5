"""The workflows say only what YAML alone can say.

No session that edits ``.github/workflows/`` can execute it, so tier-1
reads it instead: every command line is an install, ``ruff``, ``mypy``
or pytest (what a gate runs and asserts is a row of
``tests/test_gates.py``), the verdict job of each file needs every
other job of that file, and every job has a timeout.  A gate cannot be
added, renamed or dropped from the required set without this file
going red.
"""

import copy
import os
import re

import pytest
import yaml

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
WORKFLOWS = os.path.join(ROOT, ".github", "workflows")

#: file -> the job whose ``needs`` is the file's verdict.
VERDICT = {"ci.yml": "gate", "nightly.yml": "report-failure"}

#: What one line of a ``run:`` value may be.  ``exit 1`` is the whole
#: body of ``gate`` (its ``if:`` reads the needed jobs' results).
ALLOWED = re.compile(
    r"(python -m pip install |pip install |ruff check |mypy "
    r"|python -m pytest |exit 1$)")


def load(name):
    with open(os.path.join(WORKFLOWS, name)) as handle:
        return yaml.safe_load(handle)


def violations(name, workflow):
    """Every way *workflow* breaks the rules above, as strings."""
    found = []
    jobs = workflow["jobs"]
    for job_name, job in jobs.items():
        if not isinstance(job.get("timeout-minutes"), int):
            found.append("%s: %s has no timeout-minutes"
                         % (name, job_name))
        for step in job["steps"]:
            for line in step.get("run", "").strip().splitlines():
                if ("<<" in line or "dcpi" in line
                        or not ALLOWED.match(line.strip())):
                    found.append("%s: %s runs %r"
                                 % (name, job_name, line.strip()))
    verdict = VERDICT[name]
    others = set(jobs) - {verdict}
    if set(jobs[verdict].get("needs", ())) != others:
        found.append("%s: %s.needs != %s"
                     % (name, verdict, sorted(others)))
    return found


@pytest.mark.parametrize("name", sorted(VERDICT))
def test_workflow_holds_no_gate_logic(name):
    assert sorted(os.listdir(WORKFLOWS)) == sorted(VERDICT)
    assert violations(name, load(name)) == []


def test_the_structure_check_can_go_red():
    ci = load("ci.yml")
    dropped = copy.deepcopy(ci)
    dropped["jobs"]["gate"]["needs"].remove("gates")
    assert "gate.needs" in violations("ci.yml", dropped)[0]
    direct = copy.deepcopy(ci)
    direct["jobs"]["gates"]["steps"][-2]["run"] = "dcpiab --mode mux\n"
    assert "runs 'dcpiab" in violations("ci.yml", direct)[0]
    untimed = copy.deepcopy(ci)
    del untimed["jobs"]["tests"]["timeout-minutes"]
    assert "timeout" in violations("ci.yml", untimed)[0]


def test_the_gate_jobs_select_rows_by_marker():
    """``gates`` runs every row that is not nightly, after ``tests``;
    the nightly job runs the rest; both keep the reports."""
    gates = load("ci.yml")["jobs"]["gates"]
    nightly = load("nightly.yml")["jobs"]["gates-nightly"]
    assert gates["needs"] == ["tests"]
    for job, marker in ((gates, '-m "not nightly_gate"'),
                        (nightly, "-m nightly_gate")):
        runs = [step["run"] for step in job["steps"] if "run" in step]
        assert sum("pip install -e .[test]" in run for run in runs) == 1
        (row_run,) = [run for run in runs if "pytest" in run]
        assert "tests/test_gates.py" in row_run and marker in row_run
        assert "--basetemp=benchmarks/results/gates" in row_run
        (upload,) = [step for step in job["steps"]
                     if "upload-artifact" in step.get("uses", "")]
        assert upload["with"]["path"] == "benchmarks/results/"


def test_tier_markers_stay_inside_the_gate_table():
    """``dcpibench``'s child pytest processes and ``python -m pytest
    perfbench/tests`` inherit the default ``-m`` expression; it must
    deselect nothing there."""
    carriers = []
    for tree in ("benchmarks", "perfbench", "tests"):
        for folder, _, files in os.walk(os.path.join(ROOT, tree)):
            for fname in files:
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(folder, fname)
                with open(path) as handle:
                    if re.search(r"mark\.(required|nightly)_gate",
                                 handle.read()):
                        carriers.append(os.path.relpath(path, ROOT))
    assert carriers == [os.path.join("tests", "test_gates.py")]
