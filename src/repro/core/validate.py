"""Accuracy validation of the analysis against ground truth
(the paper's section 6.2 methodology).

The paper validated frequency estimates against dcpix-instrumented
execution counts; here the simulator's exact per-instruction and
per-edge counts play that role.  :func:`score` turns the analyses a
caller already built into the raw series behind Figures 8, 9 and 10:
per-instruction and per-CFG-edge relative errors of the estimated
execution counts, and per-procedure (IMISS events, attributed I-cache
stall-cycle range) pairs.
"""

from repro.core.cfg import EXIT
from repro.core.culprits import identify_culprits
from repro.cpu.events import EventType

#: Histogram bucket edges used by the paper's Figures 8 and 9 (percent).
BUCKETS = (-45, -35, -25, -15, -5, 5, 15, 25, 35, 45)


def true_edge_count(machine, cfg, edge):
    """Exact executions of CFG *edge* from the machine's ground truth."""
    block = cfg.blocks[edge.src]
    last = block.last
    kind = last.info.kind
    if kind in ("cbranch", "fbranch"):
        if edge.kind == "taken":
            return machine.gt_edges.get((last.addr, last.target), 0)
        return machine.gt_edges.get((last.addr, last.addr + 4), 0)
    if kind == "br" and last.op == "br":
        return machine.gt_edges.get((last.addr, last.target), 0)
    # Single-successor block (fallthrough, call): the edge runs exactly
    # as often as the block's last instruction.
    return machine.gt_count.get(last.addr, 0)


def bucketize(points):
    """Aggregate weighted error points into the paper's histogram.

    Returns {bucket_label: {confidence: weight_fraction}} plus the
    total weight, where bucket_label is the bucket's center (e.g. -15
    covers errors in (-20%, -10%]) and the extreme buckets are open.
    """
    total = sum(weight for _, weight, _ in points) or 1.0
    histogram = {}
    for error, weight, confidence in points:
        pct = error * 100.0
        label = None
        for edge in BUCKETS:
            if pct <= edge:
                label = edge
                break
        if label is None:
            label = BUCKETS[-1] + 10
        bucket = histogram.setdefault(label, {})
        bucket[confidence] = bucket.get(confidence, 0.0) + weight / total
    return histogram, total


def weight_within(points, pct):
    """Fraction of weight whose |error| is within *pct* percent."""
    total = sum(weight for _, weight, _ in points)
    if not total:
        return 0.0
    good = sum(weight for error, weight, _ in points
               if abs(error) * 100.0 <= pct)
    return good / total


class FixedFrequency:
    """A frequency oracle built from known execution counts.

    The paper's Figure 10 experiment substitutes instrumented execution
    counts for the estimates "to isolate the effect of culprit analysis
    from that of frequency estimation" (footnote 6); this adapter plays
    the role of dcpix's counts.
    """

    def __init__(self, cfg, counts, period):
        self.cfg = cfg
        self.period = period
        self._counts = counts

    def block_count(self, block_index):
        block = self.cfg.blocks[block_index]
        return float(self._counts.get(block.start, 0))

    def count_of(self, addr):
        return float(self._counts.get(addr, 0))

    def block_confidence(self, block_index):
        return HIGH_CONFIDENCE

    def edge_count(self, edge_index):
        return 0.0


HIGH_CONFIDENCE = "high"


def score(machine, analyses):
    """Score *analyses* against *machine*'s ground truth in one pass.

    *analyses* is the ``{procedure: ProcedureAnalysis}`` mapping
    :func:`~repro.core.analyze.analyze_image` returns; nothing is
    analysed again.  Returns ``(frequency, edges, icache)``, each in
    the image's procedure order:

    * *frequency* -- ``(relative_error, samples, confidence)`` per
      instruction with CYCLES samples and at least five true
      executions (tiny counts are pure noise in both systems);
    * *edges* -- ``(relative_error, true_executions, confidence)`` per
      CFG edge with at least five true executions;
    * *icache* -- one ``{"procedure", "imiss", "lo", "hi"}`` dict per
      procedure with at least ten CYCLES samples: the true IMISS
      events and the [lo, hi] I-cache stall cycles culprit analysis
      attributes when it runs on exact execution counts (the paper's
      footnote 6) over the analysis's own CFG and schedules.
    """
    frequency, edges, icache = [], [], []
    for analysis in sorted(analyses.values(), key=lambda a: a.proc.start):
        for row in analysis.instructions:
            true = machine.gt_count.get(row.inst.addr, 0)
            if true >= 5 and row.samples:
                frequency.append(((row.count - true) / true, row.samples,
                                  row.confidence))
        cfg, freq = analysis.cfg, analysis.freq
        for edge in cfg.edges:
            if edge.dst == EXIT:
                continue
            true = true_edge_count(machine, cfg, edge)
            if true >= 5:
                edges.append(((freq.edge_count(edge.index) - true) / true,
                              true, freq.edge_confidence(edge.index)))
        proc = analysis.proc
        samples = analysis.profile.samples_for(proc, EventType.CYCLES)
        if sum(samples.values()) < 10:
            continue
        culprit_map = identify_culprits(
            cfg, analysis.schedules,
            FixedFrequency(cfg, machine.gt_count, analysis.period),
            samples, analysis.profile, proc)
        lo = hi = 0.0
        for culprits in culprit_map.values():
            for culprit in culprits:
                if culprit.reason == "icache":
                    lo += culprit.min_cycles
                    hi += culprit.max_cycles
        imiss = sum(machine.gt_events.get(inst.addr, {}).get(
            EventType.IMISS, 0) for inst in proc.instructions())
        icache.append({"procedure": proc.name, "imiss": imiss,
                       "lo": lo, "hi": hi})
    return frequency, edges, icache


def correlation(xs, ys):
    """Pearson correlation coefficient of two equal-length series."""
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5
