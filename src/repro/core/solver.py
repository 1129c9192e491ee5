"""Global flow-constraint solver for frequency estimates.

Paper section 6.1.4: "We are currently experimenting with a global
constraint solver to adjust the frequency estimates where they violate
the flow constraints."  This module implements that experiment.

Local propagation fills unknowns but leaves *inconsistent* estimates
alone: when sampled estimates of a block and its edges disagree, the
flow equation block = sum(in edges) = sum(out edges) is violated.  The
solver adjusts all class counts simultaneously by minimizing

    sum_c  w_c * (x_c - e_c)^2  +  lam * ||A x||^2      s.t.  x >= 0

where e_c are the heuristic estimates, w_c confidence-derived weights
(high-confidence estimates resist adjustment), and A the flow
constraint matrix over equivalence classes.  The quadratic program is
solved in closed form (ridge system) followed by clipping at zero and
one re-solve with actives pinned -- adequate for procedure-sized CFGs.
"""

import numpy as np

from repro.core.frequency import HIGH, LOW, MEDIUM

#: Weight of the flow-constraint penalty relative to the data terms.
CONSTRAINT_WEIGHT = 50.0

#: Confidence -> data-term weight.  Unknown classes get a tiny weight
#: pulling them toward zero only weakly.
WEIGHTS = {HIGH: 10.0, MEDIUM: 3.0, LOW: 1.0}
PROPAGATED_FACTOR = 0.5
UNKNOWN_WEIGHT = 1e-3


def _flow_matrix(cfg, classes, class_index):
    """Rows of A: one per (block, side) flow equation."""
    rows = []
    n = len(class_index)
    for block in cfg.blocks:
        for edges, skip in ((block.preds, block.index == cfg.entry),
                            (block.succs, False)):
            if skip or not edges:
                continue
            row = np.zeros(n)
            row[class_index[classes.class_of[block.index]]] += 1.0
            for edge in edges:
                row[class_index[classes.class_of[("e", edge.index)]]] -= 1.0
            rows.append(row)
    return np.array(rows) if rows else np.zeros((0, n))


def refine_global(cfg, classes, analysis):
    """Adjust *analysis* class counts to respect flow constraints.

    Mutates ``analysis.class_count`` in place and returns the maximum
    relative adjustment applied to any previously-known class.
    """
    class_ids = sorted(classes.members)
    class_index = {cid: i for i, cid in enumerate(class_ids)}
    n = len(class_ids)
    if n == 0:
        return 0.0

    estimates = np.zeros(n)
    weights = np.full(n, UNKNOWN_WEIGHT)
    for cid in class_ids:
        value = analysis.class_count.get(cid)
        if value is None:
            continue
        i = class_index[cid]
        estimates[i] = value
        weight = WEIGHTS[analysis.class_confidence.get(cid, LOW)]
        if analysis.class_propagated.get(cid):
            weight *= PROPAGATED_FACTOR
        weights[i] = weight

    flow = _flow_matrix(cfg, classes, class_index)
    # Normal equations of the penalized least squares problem.
    lhs = np.diag(weights) + CONSTRAINT_WEIGHT * flow.T.dot(flow)
    rhs = weights * estimates
    try:
        solution = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return 0.0

    # Enforce non-negativity: clip, pin the clipped variables at zero,
    # and re-solve the free ones once.
    negative = solution < 0
    if negative.any():
        free = ~negative
        if free.any():
            lhs_free = lhs[np.ix_(free, free)]
            rhs_free = rhs[free]
            try:
                solution_free = np.linalg.solve(lhs_free, rhs_free)
                solution = np.zeros(n)
                solution[free] = solution_free
            except np.linalg.LinAlgError:
                solution = np.clip(solution, 0.0, None)
        solution = np.clip(solution, 0.0, None)

    max_shift = 0.0
    for cid in class_ids:
        i = class_index[cid]
        old = analysis.class_count.get(cid)
        new = float(solution[i])
        if old is not None and old > 0:
            max_shift = max(max_shift, abs(new - old) / old)
        analysis.class_count[cid] = new
        if old is None:
            analysis.class_confidence.setdefault(cid, LOW)
            analysis.class_propagated[cid] = True
    return max_shift


def flow_residual(cfg, classes, analysis):
    """Total absolute flow-constraint violation of the current counts
    (useful to verify the solver actually tightened things)."""
    total = 0.0
    for block in cfg.blocks:
        count = analysis.block_count(block.index)
        for edges, skip in ((block.preds, block.index == cfg.entry),
                            (block.succs, False)):
            if skip or not edges:
                continue
            edge_sum = sum(analysis.edge_count(e.index) for e in edges)
            total += abs(count - edge_sum)
    return total
