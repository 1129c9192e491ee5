"""The fault-injection harness: injector, audits, scenario registry.

The injector must be deterministic (same plan, same seed, same firing
pattern and corruption bytes), precise (fires exactly at the requested
hits), and invisible when disabled (NULL_INJECTOR is what production
code paths carry).  The audit module encodes the robustness contract:
no *unaccounted* loss, ever.
"""

import json
import os

import pytest

from repro.faults import audit
from repro.faults.injector import (NULL_INJECTOR, FaultPlan, FaultSpec,
                                   InjectedCrash, TransientDrainError,
                                   bitflip_at_rest, truncate_at_rest)
from repro.obs.report import REPORT_SCHEMA


class TestFaultSpec:
    def test_rejects_unknown_point(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("daemon.coffee_break", "crash", hits=(1,))

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec("daemon.drain.cpu", "explode", hits=(1,))

    def test_matches_listed_hits_only(self):
        spec = FaultSpec("daemon.drain.cpu", "crash", hits=(2, 5))
        assert [h for h in range(1, 8) if spec.matches(h, 0)] == [2, 5]

    def test_after_and_limit_window(self):
        spec = FaultSpec("daemon.drain.flush", "transient",
                         after=3, limit=2)
        fired = 0
        hits_fired = []
        for hit in range(1, 10):
            if spec.matches(hit, fired):
                fired += 1
                hits_fired.append(hit)
        assert hits_fired == [3, 4]


class TestFaultInjector:
    def plan(self, *specs, seed=7):
        return FaultPlan(specs=tuple(specs), seed=seed)

    def test_crash_fires_at_requested_hit(self):
        inj = self.plan(
            FaultSpec("daemon.drain.cpu", "crash", hits=(3,))).build()
        inj.check("daemon.drain.cpu")
        inj.check("daemon.drain.cpu")
        with pytest.raises(InjectedCrash) as err:
            inj.check("daemon.drain.cpu")
        assert err.value.point == "daemon.drain.cpu"
        assert err.value.hit == 3
        # The hit was consumed; the next check passes.
        inj.check("daemon.drain.cpu")

    def test_transient_raises_typed_error(self):
        inj = self.plan(
            FaultSpec("daemon.drain.flush", "transient", hits=(1,))).build()
        with pytest.raises(TransientDrainError):
            inj.check("daemon.drain.flush")
        inj.check("daemon.drain.flush")

    def test_unrelated_points_unaffected(self):
        inj = self.plan(
            FaultSpec("daemon.drain.cpu", "crash", hits=(1,))).build()
        inj.check("db.write")
        inj.check("session.restart")
        with pytest.raises(InjectedCrash):
            inj.check("daemon.drain.cpu")

    def test_fired_accounting(self):
        inj = self.plan(
            FaultSpec("driver.overflow", "drop", hits=(1, 2))).build()
        assert inj.fires("driver.overflow") is not None
        assert inj.fires("driver.overflow") is not None
        assert inj.fires("driver.overflow") is None
        assert inj.stats()[("driver.overflow", "drop")] == 2

    def test_corrupt_bytes_truncate_and_bitflip(self):
        data = bytes(range(64)) * 4
        trunc = self.plan(
            FaultSpec("db.write", "truncate", hits=(1,))).build()
        flip = self.plan(
            FaultSpec("db.write", "bitflip", hits=(1,))).build()
        shorter = trunc.corrupt_bytes("db.write", data)
        assert len(shorter) < len(data)
        flipped = flip.corrupt_bytes("db.write", data)
        assert len(flipped) == len(data)
        diff = [i for i in range(len(data)) if flipped[i] != data[i]]
        assert len(diff) == 1
        # Untargeted writes pass through untouched.
        assert trunc.corrupt_bytes("db.write", data) == data

    def test_determinism_same_seed_same_bytes(self):
        data = bytes(range(256))
        plan = self.plan(FaultSpec("db.write", "bitflip", hits=(1,)),
                         seed=42)
        assert (plan.build().corrupt_bytes("db.write", data)
                == plan.build().corrupt_bytes("db.write", data))

    def test_null_injector_is_inert(self):
        assert not NULL_INJECTOR.enabled
        NULL_INJECTOR.check("daemon.drain.cpu")
        assert NULL_INJECTOR.fires("driver.overflow") is None
        assert NULL_INJECTOR.corrupt_bytes("db.write", b"abc") == b"abc"

    def test_at_rest_helpers_deterministic(self):
        data = bytes(range(128))
        assert bitflip_at_rest(data, seed=3) == bitflip_at_rest(data, seed=3)
        assert bitflip_at_rest(data, seed=3) != data
        assert truncate_at_rest(data, seed=3) == truncate_at_rest(
            data, seed=3)
        assert len(truncate_at_rest(data, seed=3)) < len(data)


class TestAudit:
    def report(self, **overrides):
        base = {
            "driver_samples": 100, "dropped": 0, "lost": 0,
            "daemon_samples": 100, "unknown": 10, "recoveries": 0,
            "pipeline_balanced": True, "db_samples": 90,
            "quarantined_samples": 0, "db_balanced": True, "ok": True,
        }
        base.update(overrides)
        return base

    def test_identical_runs_conserve(self):
        comparison = audit.compare_runs(self.report(), self.report())
        assert comparison["ok"]
        assert comparison["accounted_delta"] == 0

    def test_accounted_loss_conserves(self):
        faulted = self.report(dropped=15, daemon_samples=85,
                              db_samples=75)
        comparison = audit.compare_runs(faulted, self.report())
        assert comparison["ok"]
        assert comparison["accounted_delta"] == 15

    def test_unaccounted_loss_detected(self):
        # 15 samples vanished but only 5 were accounted: FAIL.
        faulted = self.report(dropped=5, daemon_samples=85,
                              db_samples=75, pipeline_balanced=False,
                              ok=False)
        comparison = audit.compare_runs(faulted, self.report())
        assert not comparison["ok"]

    def test_double_count_detected(self):
        # The database holds more than the daemon ever processed.
        faulted = self.report(db_samples=130, db_balanced=False,
                              ok=False)
        comparison = audit.compare_runs(faulted, self.report())
        assert not comparison["ok"]

    def test_unknown_shift_is_not_loss(self):
        # A dropped loadmap reroutes 20 samples to 'unknown'; nothing
        # was lost, the invariant must still hold.
        faulted = self.report(unknown=30, db_samples=70)
        comparison = audit.compare_runs(faulted, self.report())
        assert comparison["ok"]
        assert comparison["unknown_delta"] == 20

    def test_perturbed_machine_detected(self):
        faulted = self.report(driver_samples=99, daemon_samples=99,
                              db_samples=89)
        comparison = audit.compare_runs(faulted, self.report())
        assert not comparison["identical_streams"]
        assert not comparison["ok"]


class TestScenarioRegistry:
    def test_names_unique_and_quick_subset_nonempty(self):
        from repro.faults.scenarios import SCENARIOS

        names = [s.name for s in SCENARIOS]
        assert len(names) == len(set(names))
        assert len([s for s in SCENARIOS if s.quick]) >= 4
        assert len(names) >= 10

    def test_get_scenario_rejects_typos(self):
        from repro.faults.scenarios import get_scenario

        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("crash-mid-drian")

    def test_every_fault_point_is_covered(self):
        """The matrix exercises every injectable pipeline stage."""
        from repro.faults.scenarios import SCENARIOS

        covered = {spec.point
                   for scenario in SCENARIOS
                   for spec in scenario.specs}
        assert {"driver.overflow", "daemon.drain.flush",
                "daemon.drain.cpu", "daemon.drain.merge",
                "daemon.checkpoint", "db.checkpoint", "daemon.loadmap",
                "session.restart"} <= covered
        assert {s.post for s in SCENARIOS if s.post} == {
            "bitflip", "truncate", "manifest"}


class TestChaosCli:
    def test_list_scenarios(self, capsys):
        from repro.tools.dcpichaos import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "crash-mid-drain" in out
        assert "torn-db-write" in out

    def test_rejects_unknown_scenario(self):
        from repro.tools.dcpichaos import main

        with pytest.raises(KeyError, match="unknown scenario"):
            main(["--scenarios", "no-such-fault"])

    def test_single_scenario_run_exits_zero(self, tmp_path, capsys):
        from repro.tools.dcpichaos import main

        json_path = str(tmp_path / "chaos.json")
        code = main(["--scenarios", "machine-restart",
                     "--max-instructions", "16000",
                     "--json", json_path])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "machine-restart" in out
        import json as json_module
        with open(json_path) as handle:
            report = json_module.load(handle)
        assert (report["schema"], report["tool"]) == (REPORT_SCHEMA,
                                                      "dcpichaos")
        cases = report["cases"]
        assert cases[0]["ok"]
        assert cases[0]["recoveries"] == 1

    def test_dropped_accounting_term_fails_the_gate(self, monkeypatch,
                                                    capsys):
        # The gate shown red: forget the driver-side drops and a burst
        # of vanished overflow buffers is unaccounted loss.
        from repro.tools.dcpichaos import main

        monkeypatch.setattr(
            audit, "accounted_loss",
            lambda report: (report["lost"]
                            + report.get("quarantined_samples", 0)))
        assert main(["--scenarios", "overflow-burst"]) == 1
        out = capsys.readouterr().out
        assert "1 failure(s)" in out and "unaccounted loss" in out

    def test_dropped_fleet_accounting_term_fails_the_gate(
            self, monkeypatch, capsys):
        # Same for the fleet books: forget what the transport lost and
        # a delta that vanished in transit no longer balances.
        from repro.check import analysis_checks
        from repro.tools.dcpichaos import main

        balance = analysis_checks.check_fleet_conservation
        monkeypatch.setattr(
            analysis_checks, "check_fleet_conservation",
            lambda **terms: balance(**dict(terms, transit_lost=0)))
        assert main(["--scenarios", "fleet-ship-drop"]) == 1
        out = capsys.readouterr().out
        assert "conservation violated" in out and "silently lost" in out
        assert "FAIL fleet-ship-drop: conservation violated" in out

    def test_machine_and_fleet_rows_share_the_common_keys(self, capsys):
        """One report, one table: both families' rows carry the same
        keys the renderer reads, and a fleet row's quarantine is
        loss like a machine row's."""
        from repro.tools.dcpichaos import main

        capsys.readouterr()
        assert main(["--scenarios", "torn-db-write,fleet-shard-corrupt",
                     "--max-instructions", "8000", "--json", "-"]) == 0
        machine, fleet = json.loads(capsys.readouterr().out)["cases"]
        common = {"scenario", "workload", "seed", "budget", "samples",
                  "kept", "quarantined", "recoveries", "loss_rate",
                  "failures", "ok"}
        assert common <= set(machine) and common <= set(fleet)
        assert (machine["workload"], fleet["workload"]) == ("gcc", None)
        for case in (machine, fleet):
            assert case["ok"] and case["failures"] == []
            assert case["quarantined"] > 0
            assert case["loss_rate"] >= case["quarantined"] / case["samples"]


class TestRunCase:
    def test_crash_case_holds_invariant(self, tmp_path):
        from repro.faults.scenarios import get_scenario, run_case

        case = run_case(get_scenario("crash-mid-drain"), "gcc",
                        str(tmp_path), budget=16_000)
        assert case["ok"], case["failures"]
        assert case["recoveries"] >= 1
        assert case["faulted"]["pipeline_balanced"]
        assert case["faulted"]["db_balanced"]

    def test_torn_write_is_quarantined_not_decoded(self, tmp_path):
        from repro.faults.scenarios import get_scenario, run_case

        case = run_case(get_scenario("torn-db-write"), "gcc",
                        str(tmp_path), budget=16_000)
        assert case["ok"], case["failures"]
        assert case["faulted"]["quarantined_samples"] > 0
        assert case["corrupted_file"]

    def test_torn_manifest_rebuild_loses_nothing(self, tmp_path):
        from repro.collect.database import MANIFEST_NAME, ProfileDatabase
        from repro.faults.scenarios import get_scenario, run_case

        case = run_case(get_scenario("torn-manifest"), "gcc",
                        str(tmp_path), budget=16_000)
        assert case["ok"], case["failures"]
        assert (case["faulted"]["db_samples"]
                == case["reference"]["db_samples"])
        assert case["corrupted_file"] == "MANIFEST.json"
        # What was torn is the one-line compact manifest, and the
        # rebuild publishes the same format again.
        root = str(tmp_path / "fault")
        path = os.path.join(root, MANIFEST_NAME)
        with open(path) as handle:
            torn = handle.read()
        assert "\n" not in torn and ": " not in torn
        with pytest.raises(ValueError):
            json.loads(torn)
        rebuilt = ProfileDatabase(root)
        rebuilt.update_checkpoint({"epoch": 0})
        with open(path) as handle:
            text = handle.read()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))
        assert rebuilt.total_samples() == case["reference"]["db_samples"]
