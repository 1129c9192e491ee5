"""BENCHMARK.json against the builder's contract and against the code."""

import os
import re

from conftest import ROOT

from perfbench import harness, layers
from perfbench.suite import load_spec
from perfbench.workloads import all_workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_shape_and_limits():
    data = load_spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 65536
    assert data["paths"] == ["perfbench"]
    assert data["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(data["run_seconds"], int)
    assert 1 <= data["run_seconds"] <= 60
    runs = 4 + 22 * len(data["workloads"])
    assert runs * (data["run_seconds"] + 12) < 3420

    assert 2 <= len(data["workloads"]) <= 8
    for entry in data["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(data["end_to_end"]) <= 16
    for entry in data["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    assert 1 <= len(data["per_layer"]) <= 128
    for entry in data["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in data[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")


def test_bounds_are_the_ones_the_readme_derives():
    """Widening a bound is a decision (README, "Noise"), not an edit."""
    assert {entry["name"]: entry["bound"]
            for entry in load_spec()["end_to_end"]} \
        == {"setup_s": 0.25, "work_per_s": 0.20, "peak_rss_mb": 0.05}


def test_setup_s_has_the_largest_bound():
    bounds = {entry["name"]: entry for entry in load_spec()["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s"
    assert bounds["setup_s"]["better"] == "lower"
    assert bounds["setup_s"]["bound"] == max(
        entry["bound"] for entry in bounds.values())


def test_names_equal_what_the_code_prints():
    data = load_spec()
    assert [(e["name"], e["unit"]) for e in data["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(e["name"], e["unit"]) for e in data["per_layer"]] \
        == list(layers.UNITS.items())
    assert [(e["name"], e["why"]) for e in data["workloads"]] \
        == [(name, cls.why) for name, cls in all_workloads().items()]


def test_every_span_has_a_layer_metric_or_is_inclusive():
    spans = {name for _, _, name in layers.targets()}
    reported = set(layers.SELF_TIME_METRICS) \
        | set(layers.INCLUSIVE_METRICS.values()) \
        | {"fleet.machine.run_epoch"}
    assert spans == reported
