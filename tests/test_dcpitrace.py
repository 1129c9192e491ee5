"""``dcpitrace``: the per-request-class report tool (repro.ctx).

Covers the pure report math (percentiles, tails, report building), the
CLI round trip over a real context-enabled profiling run, determinism
of the emitted JSON, and the loud exit when a database carries no
context ledger.
"""

import json

import pytest

from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.ctx import span_id
from repro.obs.report import REPORT_SCHEMA
from repro.tools.dcpitrace import build_report, main, percentile, tail_stats
from repro.workloads.registry import get_workload

BUDGET = 15_000


# -- pure math --------------------------------------------------------------


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0
        assert percentile([], 99) == 0

    def test_single_value_is_every_percentile(self):
        assert percentile([7], 50) == 7
        assert percentile([7], 99) == 7

    def test_nearest_rank_on_ten_values(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert percentile(values, 50) == 60
        assert percentile(values, 95) == 100
        assert percentile(values, 99) == 100

    def test_monotonic_in_pct(self):
        values = sorted(range(1, 101))
        picks = [percentile(values, pct) for pct in (10, 50, 90, 99)]
        assert picks == sorted(picks)


class TestTailStats:
    def test_empty(self):
        stats = tail_stats([])
        assert stats == {"n": 0, "p50": 0, "p95": 0, "p99": 0,
                         "max": 0, "mean": 0}

    def test_unsorted_input_is_sorted_first(self):
        stats = tail_stats([300, 100, 200])
        assert stats["n"] == 3
        assert stats["p50"] == 200
        assert stats["max"] == 300
        assert stats["mean"] == 200


# -- build_report on a synthetic ledger -------------------------------------


def _meta():
    return {
        "schema": 1,
        "classes": {"req.a": {"cycles": 30, "imiss": 2},
                    "req.b": {"cycles": 10}},
        "culprits": {"req.a": {"srv:hot": 25, "srv:cold": 5,
                               "libc:memcpy": 25}},
        "requests": {"req.a": {"1:10": {"cycles": 4000,
                                        "instructions": 2000,
                                        "process": "srv",
                                        "done": True}},
                     "req.b": {"1:11": {"cycles": 900,
                                        "instructions": 300,
                                        "process": "srv",
                                        "done": True}}},
        "other_samples": 3,
        "table_slots": 64,
        "table_evictions": 1,
        "table_interns": 5,
    }


class TestBuildReport:
    def test_schema_and_shares(self):
        report = build_report(_meta(), period=2048, db="x")
        # The envelope (schema, tool) is the writer's, not the body's.
        assert "schema" not in report
        assert report["period"] == 2048
        assert set(report["classes"]) == {"req.a", "req.b"}
        a, b = report["classes"]["req.a"], report["classes"]["req.b"]
        assert a["cycles_samples"] == 30
        assert a["est_cycles"] == 30 * 2048
        assert a["share"] == pytest.approx(0.75)
        assert b["share"] == pytest.approx(0.25)

    def test_cpi_is_request_cycles_over_instructions(self):
        report = build_report(_meta())
        assert report["classes"]["req.a"]["cpi"] == pytest.approx(2.0)
        assert report["classes"]["req.b"]["cpi"] == pytest.approx(3.0)

    def test_culprits_sorted_by_count_then_name_and_limited(self):
        report = build_report(_meta(), limit=2)
        culprits = report["classes"]["req.a"]["culprits"]
        assert [c["procedure"] for c in culprits] == [
            "libc:memcpy", "srv:hot"]

    def test_spans_are_deterministic_ids(self):
        report = build_report(_meta())
        assert report["classes"]["req.a"]["span"] == span_id("req.a")

    def test_table_and_other_samples_pass_through(self):
        report = build_report(_meta())
        assert report["other_samples"] == 3
        assert report["table"] == {"slots": 64, "evictions": 1,
                                   "interns": 5}

    def test_report_is_json_safe_and_deterministic(self):
        one = json.dumps(build_report(_meta()), sort_keys=True)
        two = json.dumps(build_report(_meta()), sort_keys=True)
        assert one == two


# -- CLI round trip over a real run -----------------------------------------


@pytest.fixture(scope="module")
def traced_db(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("trace") / "db")
    rc = main(["run", "--workload", "slow-client", "--out", root,
               "--max-instructions", str(BUDGET), "--seed", "3"])
    assert rc == 0
    return root


class TestCli:
    def test_report_json_covers_the_workload_classes(self, traced_db,
                                                     capsys):
        assert main(["report", traced_db, "--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == REPORT_SCHEMA
        assert report["tool"] == "dcpitrace"
        assert {"client.fast", "client.slow"} <= set(report["classes"])
        fast = report["classes"]["client.fast"]
        assert fast["requests"] > 0
        assert fast["tail"]["n"] == fast["requests"]
        assert fast["tail"]["p50"] <= fast["tail"]["p99"]

    def test_report_json_is_deterministic(self, traced_db, capsys):
        main(["report", traced_db, "--json", "-"])
        first = capsys.readouterr().out
        main(["report", traced_db, "--json", "-"])
        assert capsys.readouterr().out == first

    def test_human_report_renders_every_class(self, traced_db, capsys):
        assert main(["report", traced_db]) == 0
        out = capsys.readouterr().out
        assert "client.fast" in out
        assert "client.slow" in out
        assert "context table:" in out

    def test_ctxless_database_exits_one_loudly(self, tmp_path, capsys):
        root = str(tmp_path / "plain")
        session = ProfileSession(MachineConfig(num_cpus=2),
                                 SessionConfig(db_root=root))
        session.run(get_workload("slow-client"),
                    max_instructions=BUDGET)
        assert main(["report", root, "--json", "-"]) == 1
        err = capsys.readouterr().err
        assert "no context ledger" in err

    def test_missing_database_is_not_created(self, tmp_path, capsys):
        # Exit 1 for the right reason: a report reads, so a mistyped
        # path must not become an empty database with no ledger.
        root = tmp_path / "typo" / "db"
        assert main(["report", str(root)]) == 1
        assert "no such database" in capsys.readouterr().err
        assert not root.parent.exists()
