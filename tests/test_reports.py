"""One report envelope and one ``--json PATH|-`` flag for every tool.

``dcpicheck``, ``dcpichaos``, ``dcpifleet``, ``dcpitrace`` and
``dcpiopt`` write their JSON reports through
:func:`repro.obs.report.write_report`; this file checks the envelope
each one actually emits, and that the command lines README shows for
them parse with the tool's own parser.
"""

import json
import os
import re
import shlex
import shutil

import pytest

from repro.fleet import cli as dcpifleet
from repro.obs.report import REPORT_SCHEMA
from repro.tools import cli, dcpichaos, dcpicheck, dcpiopt, dcpitrace

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

PARSERS = {
    "dcpicheck": dcpicheck.build_parser,
    "dcpichaos": dcpichaos.build_parser,
    "dcpifleet": dcpifleet.build_parser,
    "dcpitrace": dcpitrace.build_parser,
    "dcpiopt": dcpiopt.build_parser,
}


def _check_argv(work):
    src = work / "src"
    src.mkdir()
    (src / "noise.py").write_text(
        "import random\n\n\ndef jitter():\n    return random.random()\n")
    return ["--layers", "lint", "--src", str(src), "--json", "-"]


def _trace_argv(work):
    db = str(work / "db")
    assert cli.main_dcpitrace([
        "run", "--workload", "slow-client", "--out", db,
        "--max-instructions", "15000"]) == 0
    return ["report", db, "--json", "-"]


@pytest.mark.parametrize("tool, setup", [
    ("dcpicheck", _check_argv),
    ("dcpichaos", lambda work: [
        "--scenarios", "crash-mid-drain", "--json", "-"]),
    ("dcpifleet", lambda work: [
        "run", "--store", str(work / "store"), "--machines", "2",
        "--epochs", "2", "--epoch-instructions", "6000", "--json", "-"]),
    ("dcpitrace", _trace_argv),
    ("dcpiopt", lambda work: [
        "run", "--workload", "opt-branchy", "--max-instructions", "20000",
        "--json", "-"]),
])
def test_report_envelope(tool, setup, tmp_path, capsys):
    """``--json -`` puts exactly the report on stdout, stamped with the
    envelope's schema and the tool's name; two runs of the same inputs
    are byte-equal once ``timing`` (host clock) is dropped."""
    work = tmp_path / "work"
    reports = []
    for _ in range(2):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        argv = setup(work)
        capsys.readouterr()
        getattr(cli, "main_" + tool)(argv)
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == REPORT_SCHEMA
        assert report["tool"] == tool
        assert isinstance(report.pop("timing"), dict)
        reports.append(json.dumps(report, indent=2, sort_keys=True))
    assert reports[0] == reports[1]


def _readme_command_lines():
    """Every ``dcpi*`` line of README's fenced bash blocks, continuation
    lines joined, as an argv list."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    for block in re.findall(r"^```bash\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv:
                yield argv


def test_readme_command_lines_parse(capsys):
    """The examples README gives for the report-writing tools are
    accepted by those tools' parsers (none is run)."""
    seen, failures = set(), []
    for argv in _readme_command_lines():
        if argv[0] not in PARSERS:
            continue
        seen.add(argv[0])
        try:
            PARSERS[argv[0]]().parse_args(argv[1:])
        except SystemExit:
            failures.append("%s\n  %s" % (" ".join(argv),
                                          capsys.readouterr().err.strip()))
    assert not failures, "\n".join(failures)
    assert seen == set(PARSERS)
