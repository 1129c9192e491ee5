"""Orchestration for ``dcpicheck``: run check layers, build the report.

The runner knows how to materialize each layer's inputs:

* **image** -- instantiate each workload on a fresh machine (linking
  fixes absolute addresses) and run :func:`repro.check.image_checks.
  check_image` over every linked image, without executing anything;
* **analysis** -- profile each workload under a CYCLES-mode
  :class:`ProfileSession`, analyze every sampled procedure, and verify
  the paper's invariants against both the analysis outputs and the
  simulator's ground truth;
* **lint** -- walk the ``repro`` package source through
  :func:`repro.check.lint.lint_paths`;
* **rewrite** -- from the same session's profile, build the rewrite
  plans ``dcpiopt`` would, and statically prove each plan
  semantics-preserving with :mod:`repro.check.transval` (Layer 4) --
  no optimized run is ever executed.

Findings are deduplicated across workloads (several registry entries
link the same generated images) and aggregated into a
:class:`~repro.check.findings.CheckReport` with per-layer runtimes;
any error finding in it fails the run.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.check.findings import LAYERS, CheckReport, Finding

#: Default instruction budget per workload for the analysis layer --
#: enough for every procedure to accumulate samples at the default
#: CYCLES period while keeping a full-registry run interactive.
DEFAULT_MAX_INSTRUCTIONS = 60_000


@dataclass
class CheckConfig:
    """Settings for one ``dcpicheck`` run."""

    layers: Tuple[str, ...] = LAYERS
    #: empty = every registered name (``workload_names()``: the Table 2
    #: lineup plus ``bigcode``, ``mccalpin`` and the ``opt-*`` targets).
    workloads: Tuple[str, ...] = ()
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    seed: int = 1
    src_root: Optional[str] = None    # default: the repro package

    def __post_init__(self) -> None:
        for layer in self.layers:
            if layer not in LAYERS:
                raise ValueError("unknown layer %r; known: %s"
                                 % (layer, ", ".join(LAYERS)))

    def resolved_workloads(self) -> Tuple[str, ...]:
        if self.workloads:
            return self.workloads
        from repro.workloads.registry import workload_names

        return tuple(workload_names())

    def resolved_src_root(self) -> str:
        if self.src_root is not None:
            return self.src_root
        import repro

        return os.path.dirname(os.path.abspath(repro.__file__))


def _dedupe(findings: Sequence[Finding]) -> List[Finding]:
    seen = set()
    out: List[Finding] = []
    for finding in findings:
        if finding not in seen:
            seen.add(finding)
            out.append(finding)
    return out


def run_image_layer(workloads: Sequence[str],
                    seed: int = 1) -> List[Finding]:
    """Layer 1 over every image each workload links."""
    from repro.check.image_checks import check_image
    from repro.cpu.config import MachineConfig
    from repro.cpu.machine import Machine
    from repro.workloads.registry import get_workload

    findings: List[Finding] = []
    for name in workloads:
        workload = get_workload(name)
        machine = Machine(MachineConfig(num_cpus=workload.num_cpus),
                          seed=seed)
        workload.setup(machine)
        for image in machine.loader.images:
            findings.extend(check_image(image))
    return _dedupe(findings)


def profile_workload(name: object, max_instructions: int,
                     seed: int) -> Tuple[object, Any]:
    """``(workload, SessionResult)`` of the CYCLES-mode session the
    analysis and rewrite layers read; neither modifies the result, so
    :func:`run_checks` profiles each workload once for both."""
    from repro.collect.session import ProfileSession, SessionConfig
    from repro.cpu.config import MachineConfig
    from repro.workloads.registry import get_workload

    workload = get_workload(name) if isinstance(name, str) else name
    session = ProfileSession(
        MachineConfig(num_cpus=workload.num_cpus),
        SessionConfig(mode="cycles", seed=seed))
    return workload, session.run(workload,
                                 max_instructions=max_instructions)


Profiler = Callable[[object, int, int], Tuple[object, Any]]


def run_analysis_layer(workloads: Sequence[str],
                       max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                       seed: int = 1,
                       profiler: Profiler = profile_workload,
                       ) -> List[Finding]:
    """Layer 2: profile each workload, verify analysis invariants."""
    from repro.check.analysis_checks import (check_equivalence_truth,
                                             check_flow_conservation,
                                             check_merge_determinism,
                                             verify_procedure)
    from repro.core.analyze import analyze_image

    findings: List[Finding] = []
    for name in workloads:
        _, result = profiler(name, max_instructions, seed)
        machine = result.machine
        for profile in result.profiles.values():
            analyses = analyze_image(profile.image, profile)
            for analysis in analyses.values():
                findings.extend(verify_procedure(analysis))
                findings.extend(check_flow_conservation(
                    machine, analysis.cfg))
                findings.extend(check_equivalence_truth(
                    machine, analysis.cfg, analysis.freq.classes))
        export = result.export_mergeable()
        findings.extend(check_merge_determinism(
            export["profiles"], export["periods"], label=name))
    return _dedupe(findings)


def run_lint_layer(src_root: str) -> List[Finding]:
    """Layer 3 over the package source tree."""
    from repro.check.lint import lint_paths

    return lint_paths(src_root)


def plan_workload(name: object,
                  max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                  seed: int = 1,
                  profiler: Profiler = profile_workload,
                  ) -> Tuple[object, List[Any]]:
    """Profile *name* and build its rewrite plans, optimizer-style.

    *name* is a registry name or a Workload object.  Returns
    ``(workload, plans)`` -- the exact inputs
    :func:`repro.check.transval.validate_workload_plans` wants.
    Workloads whose profile captured no cycles produce no plan.
    """
    from repro.opt.optimizer import plan_session

    workload, collected = profiler(name, max_instructions, seed)
    plans, _ = plan_session(collected)
    return workload, plans


def run_rewrite_layer(workloads: Sequence[str],
                      max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                      seed: int = 1,
                      profiler: Profiler = profile_workload,
                      ) -> List[Finding]:
    """Layer 4: statically validate each workload's rewrite plans."""
    from repro.check.transval import validate_workload_plans

    findings: List[Finding] = []
    for name in workloads:
        workload, plans = plan_workload(
            name, max_instructions=max_instructions, seed=seed,
            profiler=profiler)
        if not plans:
            continue
        reports = validate_workload_plans(workload, plans, seed=seed)
        for report in reports.values():
            findings.extend(report.to_findings())
    return _dedupe(findings)


def run_checks(config: Optional[CheckConfig] = None) -> CheckReport:
    """Run the configured layers; return the aggregated report."""
    config = config or CheckConfig()
    workloads = config.resolved_workloads()
    report = CheckReport(layers=tuple(config.layers),
                         workloads=tuple(workloads))
    runtimes: Dict[str, float] = {}
    # One session per workload, shared by the analysis and rewrite
    # layers (its time lands on whichever runs first).
    profiler = functools.lru_cache(maxsize=None)(profile_workload)
    for layer in config.layers:
        started = time.perf_counter()
        if layer == "image":
            report.extend(run_image_layer(workloads, seed=config.seed))
        elif layer == "analysis":
            report.extend(run_analysis_layer(
                workloads, max_instructions=config.max_instructions,
                seed=config.seed, profiler=profiler))
        elif layer == "lint":
            report.extend(run_lint_layer(config.resolved_src_root()))
        elif layer == "rewrite":
            report.extend(run_rewrite_layer(
                workloads, max_instructions=config.max_instructions,
                seed=config.seed, profiler=profiler))
        runtimes[layer] = time.perf_counter() - started
    report.runtime_s = runtimes
    return report
