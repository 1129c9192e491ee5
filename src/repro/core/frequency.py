"""Frequency and CPI estimation from CYCLES samples (paper section 6.1).

The sample count S_i of instruction *i* is proportional to F_i * C_i
(frequency times cycles-at-head); the job here is to factor that
product.  The heuristic follows the paper:

1. group blocks and edges into frequency-equivalence classes;
2. within each class, look at the *issue points* (instructions with
   statically-computed minimum head time M_i > 0): an issue point that
   suffered no dynamic stall has S_i / M_i ~= F (in sample units);
3. average a cluster of the smaller ratios (small ratios are the stall-
   free issue points), refined over dependence chains, falling back to
   sum(S)/sum(M) for sample-poor classes;
4. propagate estimates through the CFG's flow constraints (frequency of
   a block equals the sum of its incoming and of its outgoing edges);
5. grade each estimate low/medium/high confidence.

Counts are expressed in *execution-count units*: ``count = F * P``
where P is the sampling period, directly comparable with instrumented
execution counts (the paper's Figures 8 and 9 comparison).
"""

from repro.core.equivalence import compute_equivalence

LOW, MEDIUM, HIGH = "low", "medium", "high"
_CONF_RANK = {LOW: 0, MEDIUM: 1, HIGH: 2}


# Constants of the estimation heuristic (paper defaults in spirit).
CLUSTER_RATIO = 1.5         # max/min ratio within a cluster
MIN_CLUSTER_FRAC = 0.25     # cluster must hold this share of points
MIN_CLASS_SAMPLES = 40      # below this, use sum(S)/sum(M)
# A class estimate is high-confidence with this many clustered points,
# this max/min tightness and this many samples.
HIGH_CONF_POINTS = 3
HIGH_CONF_TIGHTNESS = 1.25
HIGH_CONF_SAMPLES = 200
MAX_PROPAGATION_PASSES = 100


class FrequencyAnalysis:
    """Result of frequency estimation for one procedure."""

    def __init__(self, cfg, classes, period):
        self.cfg = cfg
        self.classes = classes
        self.period = period
        #: class id -> estimated count (executions, i.e. F * P), or None
        self.class_count = {}
        #: class id -> confidence level
        self.class_confidence = {}
        #: class id -> True if the estimate came from flow propagation
        self.class_propagated = {}

    # -- lookups -----------------------------------------------------------

    def block_count(self, block_index):
        """Estimated executions of block *block_index* (0 if unknown)."""
        cid = self.classes.class_of.get(block_index)
        value = self.class_count.get(cid)
        return value if value is not None else 0.0

    def edge_count(self, edge_index):
        cid = self.classes.class_of.get(("e", edge_index))
        value = self.class_count.get(cid)
        return value if value is not None else 0.0

    def count_of(self, addr):
        """Estimated executions of the instruction at *addr*."""
        block = self.cfg.block_at(addr)
        return self.block_count(block.index)

    def block_confidence(self, block_index):
        cid = self.classes.class_of.get(block_index)
        return self.class_confidence.get(cid, LOW)

    def edge_confidence(self, edge_index):
        cid = self.classes.class_of.get(("e", edge_index))
        return self.class_confidence.get(cid, LOW)

    def cpi_of(self, addr, samples):
        """Average cycles at head per execution for the instruction at
        *addr* given its CYCLES sample count."""
        count = self.count_of(addr)
        if count <= 0:
            return 0.0
        return samples * self.period / count


def _issue_point_ratios(block, schedule, samples):
    """Return the list of (ratio, weight_samples) for a block's issue
    points, with dependence-chain refinement (section 6.1.3).

    For an issue point *i* whose static stall waits on an earlier
    instruction *j* in the same block, the ratio uses the sums of S and
    M over (j, i]: dynamic stalls of *j* overlap *i*'s static stall, so
    the summed ratio is more reliable than S_i / M_i alone.
    """
    rows = schedule.rows
    addr_index = {row.inst.addr: k for k, row in enumerate(rows)}
    ratios = []
    for k, row in enumerate(rows):
        if row.m <= 0:
            continue
        start = k
        if row.dep_source is not None and row.dep_source in addr_index:
            j = addr_index[row.dep_source]
            if j < k:
                start = j + 1
        sum_s = 0
        sum_m = 0
        for pos in range(start, k + 1):
            sum_s += samples.get(rows[pos].inst.addr, 0)
            sum_m += rows[pos].m
        if sum_m > 0:
            ratios.append((sum_s / sum_m, sum_s))
    return ratios


def _cluster_estimate(ratios):
    """Average the smallest tight cluster of ratios.

    Returns (estimate, n_points, tightness) or None if no acceptable
    cluster exists.
    """
    if not ratios:
        return None
    # Zero ratios are issue points that received no samples at all --
    # sampling noise, not evidence of zero frequency (the instruction
    # demonstrably executed if its class has samples).  Skip them.
    values = sorted(r for r, _ in ratios if r > 0)
    if not values:
        return None
    n = len(values)
    min_size = max(1, int(MIN_CLUSTER_FRAC * n))
    for start in range(n):
        lo = values[start]
        cluster = [v for v in values[start:]
                   if v <= CLUSTER_RATIO * lo]
        if len(cluster) >= min_size:
            estimate = sum(cluster) / len(cluster)
            tightness = max(cluster) / min(cluster)
            return estimate, len(cluster), tightness
    return None


def estimate_frequencies(cfg, schedules, samples, period,
                         edge_samples=None):
    """Estimate execution counts for every class of *cfg*.

    Args:
        cfg: the procedure's :class:`CFG`.
        schedules: {block index: BlockSchedule} from the static scheduler.
        samples: {absolute address: CYCLES sample count}.
        period: mean sampling period in cycles.
        edge_samples: optional {(from addr, to addr): count} from the
            double-sampling prototype (paper section 7); branch-sourced
            pairs split a known block count between a conditional
            branch's two out-edges by their sampled ratio.

    Returns a :class:`FrequencyAnalysis`.
    """
    classes = compute_equivalence(cfg)
    analysis = FrequencyAnalysis(cfg, classes, period)

    # Phase 1: direct estimates from issue points, class by class.
    for cid, members in classes.members.items():
        blocks = [m for m in members if not isinstance(m, tuple)]
        if not blocks:
            continue
        ratios = []
        class_samples = 0
        sum_s_all = 0
        sum_m_all = 0
        for bindex in blocks:
            schedule = schedules[bindex]
            ratios.extend(_issue_point_ratios(
                cfg.blocks[bindex], schedule, samples))
            for row in schedule.rows:
                s = samples.get(row.inst.addr, 0)
                class_samples += s
                sum_s_all += s
                sum_m_all += row.m
        if class_samples == 0:
            continue  # no evidence; leave for propagation
        if class_samples < MIN_CLASS_SAMPLES or not ratios:
            if sum_m_all > 0:
                analysis.class_count[cid] = sum_s_all / sum_m_all * period
                analysis.class_confidence[cid] = LOW
                analysis.class_propagated[cid] = False
            continue
        clustered = _cluster_estimate(ratios)
        if clustered is None:
            if sum_m_all > 0:
                analysis.class_count[cid] = sum_s_all / sum_m_all * period
                analysis.class_confidence[cid] = LOW
                analysis.class_propagated[cid] = False
            continue
        estimate, points, tightness = clustered
        analysis.class_count[cid] = estimate * period
        if (points >= HIGH_CONF_POINTS
                and tightness <= HIGH_CONF_TIGHTNESS
                and class_samples >= HIGH_CONF_SAMPLES):
            confidence = HIGH
        elif points >= 2 and class_samples >= MIN_CLASS_SAMPLES:
            confidence = MEDIUM
        else:
            confidence = LOW
        analysis.class_confidence[cid] = confidence
        analysis.class_propagated[cid] = False

    # Phase 2: local propagation along flow constraints.
    _propagate(cfg, classes, analysis)

    # Phase 3: edge samples, when collected, split known block counts
    # between conditional out-edges by the sampled taken ratio (both
    # edges are sampled under the same time bias -- the branch's own
    # head time -- so their sample ratio estimates their execution
    # ratio).  Applied only where flow constraints left the edges
    # unknown: sampled ratios are binomially noisy, so they must never
    # override exact flow arithmetic.
    if edge_samples:
        changed = _apply_edge_samples(cfg, classes, analysis,
                                      edge_samples)
        if changed:
            _propagate(cfg, classes, analysis)
    return analysis


def _apply_edge_samples(cfg, classes, analysis, edge_samples):
    min_evidence = 8
    changed = False
    for block in cfg.blocks:
        last = block.last
        if last.info.kind not in ("cbranch", "fbranch"):
            continue
        taken_edge = next((e for e in block.succs if e.kind == "taken"),
                          None)
        fall_edge = next((e for e in block.succs if e.kind == "fall"),
                         None)
        if taken_edge is None or fall_edge is None:
            continue
        s_taken = edge_samples.get((last.addr, last.target), 0)
        s_fall = edge_samples.get((last.addr, last.addr + 4), 0)
        total = s_taken + s_fall
        if total < min_evidence:
            continue
        block_cid = classes.class_of.get(block.index)
        block_count = analysis.class_count.get(block_cid)
        if block_count is None:
            continue
        ratio = s_taken / total
        for edge, share in ((taken_edge, ratio), (fall_edge, 1 - ratio)):
            cid = classes.class_of.get(("e", edge.index))
            if analysis.class_count.get(cid) is None:
                analysis.class_count[cid] = block_count * share
                analysis.class_confidence[cid] = MEDIUM
                analysis.class_propagated[cid] = True
                changed = True
    return changed


def _propagate(cfg, classes, analysis):
    """Iteratively solve block = sum(in edges) = sum(out edges).

    New estimates are written to the whole equivalence class at once
    and never go negative; existing (sampled) estimates are preserved.
    Linear-time per pass; passes are bounded.
    """
    class_of = classes.class_of
    count = analysis.class_count

    def known(node):
        return count.get(class_of[node]) is not None

    def value(node):
        return count[class_of[node]]

    def set_value(node, val, source_conf):
        cid = class_of[node]
        if count.get(cid) is not None:
            return False
        count[cid] = max(0.0, val)
        analysis.class_confidence[cid] = source_conf
        analysis.class_propagated[cid] = True
        return True

    def conf_of(node):
        return analysis.class_confidence.get(class_of[node], LOW)

    for _ in range(MAX_PROPAGATION_PASSES):
        changed = False
        for block in cfg.blocks:
            for edges, orientation in ((block.preds, "in"),
                                       (block.succs, "out")):
                if orientation == "in" and block.index == cfg.entry:
                    continue
                real = [e for e in edges]
                if not real:
                    continue
                enodes = [("e", e.index) for e in real]
                unknown = [n for n in enodes if not known(n)]
                if known(block.index):
                    if len(unknown) == 1:
                        others = sum(value(n) for n in enodes
                                     if known(n))
                        conf = min(
                            [conf_of(block.index)]
                            + [conf_of(n) for n in enodes if known(n)],
                            key=lambda c: _CONF_RANK[c])
                        conf = _degrade(conf)
                        changed |= set_value(unknown[0],
                                             value(block.index) - others,
                                             conf)
                elif not unknown:
                    total = sum(value(n) for n in enodes)
                    conf = min((conf_of(n) for n in enodes),
                               key=lambda c: _CONF_RANK[c])
                    conf = _degrade(conf)
                    changed |= set_value(block.index, total, conf)
        if not changed:
            break


def _degrade(confidence):
    """Propagated estimates are one notch less trustworthy."""
    if confidence == HIGH:
        return MEDIUM
    return LOW
