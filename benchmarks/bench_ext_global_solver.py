"""Extension: the global flow-constraint solver (paper section 6.1.4).

The paper reports "experimenting with a global constraint solver to
adjust the frequency estimates where they violate the flow
constraints"; :mod:`repro.core.solver` implements it.  This benchmark
measures the effect on the Figure 8 experiment: flow residuals drop to
(near) zero and the sample-weighted frequency-error distribution must
not regress -- quantifying whether the experiment was worth shipping.
"""

from conftest import profile_workload, run_once, write_result
from repro.core.analyze import AnalysisConfig, analyze_image
from repro.core.solver import flow_residual
from repro.core.validate import score, weight_within
from repro.workloads.generator import generate_suite

SUITE = 8
BUDGET = 400_000
PERIOD = (60, 64)


def _residual(analysis):
    return flow_residual(analysis.cfg, analysis.freq.classes, analysis.freq)


def run_solver_experiment():
    points_plain = []
    points_solved = []
    residual_plain = 0.0
    residual_solved = 0.0
    for workload in generate_suite(count=SUITE, base_seed=300,
                                   rounds=200):
        result = profile_workload(workload, mode="cycles", seed=1,
                                  max_instructions=BUDGET,
                                  period=PERIOD, charge_overhead=False)
        profile = result.profile_for(workload.name)
        if profile is None:
            continue
        image = result.daemon.images[workload.name]
        machine = result.machine
        plain = analyze_image(image, profile)
        solved = analyze_image(image, profile,
                               AnalysisConfig(global_solver=True))
        points_plain.extend(score(machine, plain)[0])
        points_solved.extend(score(machine, solved)[0])
        for proc in image.procedures:
            if proc.name in plain:
                residual_plain += _residual(plain[proc.name])
                residual_solved += _residual(solved[proc.name])
    return points_plain, points_solved, residual_plain, residual_solved


def render(plain, solved, res_plain, res_solved):
    return "\n".join([
        "Extension: global flow-constraint solver (section 6.1.4)",
        "flow residual: local propagation=%.0f  global solver=%.0f"
        % (res_plain, res_solved),
        "weight within 10%%: local=%.1f%%  global=%.1f%%"
        % (weight_within(plain, 10) * 100,
           weight_within(solved, 10) * 100),
        "weight within 15%%: local=%.1f%%  global=%.1f%%"
        % (weight_within(plain, 15) * 100,
           weight_within(solved, 15) * 100),
    ])


def test_global_solver(benchmark):
    plain, solved, res_plain, res_solved = run_once(
        benchmark, run_solver_experiment)
    write_result("ext_global_solver", render(plain, solved, res_plain,
                                             res_solved))
    # The solver's whole point: flow constraints get (much) tighter.
    assert res_solved < res_plain * 0.5
    # And accuracy must not pay for it.
    assert (weight_within(solved, 15)
            >= weight_within(plain, 15) - 0.05)
