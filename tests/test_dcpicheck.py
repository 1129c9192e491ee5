"""End-to-end tests for the ``dcpicheck`` CLI."""

import json

import pytest

from repro.obs.report import REPORT_SCHEMA
from repro.tools.dcpicheck import main

BAD_MODULE = """\
import random


def jitter():
    return random.random()
"""


@pytest.fixture
def bad_src(tmp_path):
    """A source tree with exactly one seeded lint violation."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "noise.py").write_text(BAD_MODULE)
    return str(src)


class TestGating:
    def test_clean_image_run_exits_zero(self, capsys):
        code = main(["--layers", "image",
                     "--workloads", "mccalpin-assign"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 error(s)" in out

    def test_seeded_violation_fails_the_gate(self, bad_src, capsys):
        code = main(["--layers", "lint", "--src", bad_src])
        out = capsys.readouterr().out
        assert code == 1
        assert "lint/unseeded-random" in out

    def test_unknown_layer_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["--layers", "image,nonsense"])

    def test_unknown_workload_is_a_keyerror(self):
        with pytest.raises(KeyError):
            main(["--layers", "image", "--workloads", "no-such-load"])


class TestJsonReport:
    def test_report_schema(self, bad_src, tmp_path):
        report_path = tmp_path / "out" / "report.json"
        code = main(["--layers", "lint", "--src", bad_src,
                     "--json", str(report_path)])
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["tool"] == "dcpicheck"
        assert payload["layers"] == ["lint"]
        assert payload["counts"]["error"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "lint/unseeded-random"
        assert finding["severity"] == "error"
        assert "noise.py" in finding["location"]
        assert "lint" in payload["timing"]["runtime_s"]

    def test_rewrite_layer_report_is_deterministic(self, capsys):
        # Two Layer-4 runs over the same seeded profile must serialize
        # byte-identically once ``timing`` (wall-clock runtimes) is
        # dropped: the epoch store and CI diffing both key on stable
        # report bytes.
        payloads = []
        for _ in range(2):
            code = main(["--layers", "rewrite",
                         "--workloads", "opt-branchy",
                         "--json", "-"])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["schema"] == REPORT_SCHEMA
            assert payload["layers"] == ["rewrite"]
            payload.pop("timing")
            payloads.append(json.dumps(payload, indent=2, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_json_to_stdout_is_parseable(self, bad_src, capsys):
        code = main(["--layers", "lint", "--src", bad_src,
                     "--json", "-"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["counts"]["error"] == 1
        # Human-readable output moves to stderr so stdout stays JSON.
        assert "dcpicheck:" in captured.err


class TestCliEntryPoint:
    def test_cli_module_delegates(self, bad_src):
        from repro.tools.cli import main_dcpicheck

        assert main_dcpicheck(["--layers", "lint", "--src",
                               bad_src, "-q"]) == 1
