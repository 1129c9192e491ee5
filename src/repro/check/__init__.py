"""repro.check: static analysis and invariant verification (dcpicheck).

Four layers (ISSUE 5, Layer 4 in ISSUE 10):

1. **image** -- dataflow + CFG well-formedness + predecode agreement
   checks over :mod:`repro.alpha` images (:mod:`repro.check.
   image_checks`);
2. **analysis** -- machine-checkable invariants of the paper's analysis
   pipeline: flow conservation, equivalence classes, schedule/slotting
   rules, culprit coverage, merge determinism (:mod:`repro.check.
   analysis_checks`);
3. **lint** -- repo-specific AST lint rules for determinism, pickle
   safety and NULL-object hook discipline (:mod:`repro.check.lint`);
4. **rewrite** -- static translation validation of the profile-guided
   rewriter's plans: symbolic per-block equivalence proofs that never
   execute either image (:mod:`repro.check.transval`).

Entry points: :func:`run_checks` (programmatic) and the ``dcpicheck``
CLI (:mod:`repro.tools.dcpicheck`).
"""

from repro.check.findings import (ERROR, INFO, LAYERS, WARNING,
                                  CheckReport, Finding)
from repro.check.runner import (CheckConfig, plan_workload,
                                run_analysis_layer, run_checks,
                                run_image_layer, run_lint_layer,
                                run_rewrite_layer)
from repro.check.transval import (Counterexample, TransvalReport,
                                  validate_plan, validate_result,
                                  validate_workload_plans)

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "LAYERS",
    "Finding",
    "CheckReport",
    "CheckConfig",
    "run_checks",
    "run_image_layer",
    "run_analysis_layer",
    "run_lint_layer",
    "run_rewrite_layer",
    "plan_workload",
    "Counterexample",
    "TransvalReport",
    "validate_plan",
    "validate_result",
    "validate_workload_plans",
]
