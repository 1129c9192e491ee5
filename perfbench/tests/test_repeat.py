"""repeat.py: two sets agree when they are within the bound, either way."""

from perfbench.repeat import apart, disagreements

SPEC = {"end_to_end": [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15},
]}


def sets(work_per_s, setup_s):
    return [{"w": {"work_per_s": 100.0, "setup_s": 2.0}},
            {"w": {"work_per_s": work_per_s, "setup_s": setup_s}}]


def test_apart_is_a_share_of_the_first_value_in_either_direction():
    assert apart(100.0, 130.0) == apart(100.0, 70.0) == 0.3


def test_sets_within_the_bound_agree():
    rows, problems = disagreements(SPEC, sets(93.0, 2.2))
    assert len(rows) == 2 and problems == []


def test_a_later_set_that_is_worse_disagrees():
    _, problems = disagreements(SPEC, sets(70.0, 2.0))
    assert len(problems) == 1 and "w work_per_s is 30.0%" in problems[0]
    _, problems = disagreements(SPEC, sets(100.0, 2.5))
    assert len(problems) == 1 and "w setup_s is 25.0%" in problems[0]


def test_a_later_set_that_is_better_disagrees_as_well():
    _, problems = disagreements(SPEC, sets(130.0, 2.0))
    assert len(problems) == 1 and "w work_per_s is 30.0%" in problems[0]
    _, problems = disagreements(SPEC, sets(100.0, 1.5))
    assert len(problems) == 1 and "w setup_s is 25.0%" in problems[0]


def test_a_workload_missing_from_the_first_set_is_skipped():
    later = sets(100.0, 2.0)[1]
    assert disagreements(SPEC, [{}, later]) == ([], [])
