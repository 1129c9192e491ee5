"""Layer 2: machine-checkable invariants of the analysis passes.

The paper's estimation pipeline rests on invariants it never verifies
at runtime; this module states each one as an executable check:

* **flow conservation** (ground truth): with the simulator's exact
  per-instruction and per-edge counts, executions into every CFG block
  must equal the block's executions must equal the executions out of it
  (up to a small slack for executions in flight when the instruction
  budget halts the machine mid-procedure);
* **frequency equivalence**: every member of a cycle-equivalence class
  must have the *same* ground-truth execution count -- the correctness
  claim behind section 6.1.2's class-level estimation;
* **static schedule**: issue points have ``M_i >= 1``, dual-issued
  followers have ``M_i == 0`` and must satisfy the slotting predicate
  (``PAIR_OK``) against their leader at the same issue slot, and the
  block's best case equals the last issue slot + 1;
* **culprit coverage**: every sampled dynamic stall above the analysis
  threshold either carries at least one surviving culprit whose ranges
  cover the stall cycles, or is explicitly marked ``unexplained``;
* **merge determinism**: re-merging the same shard sample maps under
  different orderings and regroupings must serialize byte-identically
  (the structural restatement of the daemon's order-independence).

Estimate-level flow residuals are also reported, at warning severity:
the paper accepts that heuristic estimates may violate flow constraints
(section 6.1.4 proposes a global solver for exactly that reason), so a
residual is diagnostic, not a defect.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.findings import ERROR, WARNING, Finding
from repro.core.culprits import DYN_THRESHOLD

#: Absolute slack (executions) allowed before ground-truth flow
#: imbalance is a finding: procedures interrupted by the instruction
#: budget or a context switch are mid-flight at one block per CPU.
FLOW_SLACK = 8.0
#: Relative slack on top of the absolute one.
FLOW_REL_SLACK = 0.01

#: Estimated-count residual (relative) beyond which a warning is filed.
ESTIMATE_REL_TOL = 0.5
#: Estimated counts below this many executions are too noisy to judge.
ESTIMATE_MIN_COUNT = 50.0

#: Numeric slack for culprit cycle-range arithmetic.
_EPS = 1e-6


def _within(a: float, b: float, slack: float = FLOW_SLACK,
            rel: float = FLOW_REL_SLACK) -> bool:
    return abs(a - b) <= slack + rel * max(abs(a), abs(b))


def _proc_loc(cfg: object, addr: Optional[int] = None) -> str:
    proc = cfg.proc  # type: ignore[attr-defined]
    name = "%s:%s" % (proc.image.name, proc.name)
    if addr is not None:
        return "%s:+%#x" % (name, addr - proc.image.base)
    return name


# -- ground-truth flow conservation -----------------------------------------

def true_block_count(gt_count: Dict[int, int], block: object) -> int:
    """Exact executions of *block* (executions of its first inst)."""
    return gt_count.get(block.start, 0)  # type: ignore[attr-defined]


def check_flow_conservation(machine: object, cfg: object,
                            slack: float = FLOW_SLACK) -> List[Finding]:
    """Verify exact flow conservation at every node of *cfg*."""
    from repro.core.validate import true_edge_count

    findings: List[Finding] = []
    if cfg.missing_edges:  # type: ignore[attr-defined]
        return findings  # unresolved indirect jumps: flow is unknowable
    gt_count = machine.gt_count  # type: ignore[attr-defined]
    for block in cfg.blocks:  # type: ignore[attr-defined]
        count = true_block_count(gt_count, block)
        if block.index != 0 and block.preds:
            in_sum = sum(true_edge_count(machine, cfg, e)
                         for e in block.preds)
            if not _within(in_sum, count, slack):
                findings.append(Finding(
                    "analysis/flow-conservation", ERROR,
                    _proc_loc(cfg, block.start),
                    "block %d executed %d times but its in-edges "
                    "carry %d" % (block.index, count, in_sum)))
        out_kinds = {e.kind for e in block.succs}
        if block.succs and "exit" not in out_kinds:
            out_sum = sum(true_edge_count(machine, cfg, e)
                          for e in block.succs)
            if not _within(out_sum, count, slack):
                findings.append(Finding(
                    "analysis/flow-conservation", ERROR,
                    _proc_loc(cfg, block.start),
                    "block %d executed %d times but its out-edges "
                    "carry %d" % (block.index, count, out_sum)))
    return findings


def check_equivalence_truth(machine: object, cfg: object,
                            classes: object,
                            slack: float = FLOW_SLACK) -> List[Finding]:
    """Members of one frequency-equivalence class must run equally."""
    from repro.core.validate import true_edge_count

    findings: List[Finding] = []
    if cfg.missing_edges:  # type: ignore[attr-defined]
        return findings
    gt_count = machine.gt_count  # type: ignore[attr-defined]
    blocks = cfg.blocks  # type: ignore[attr-defined]
    edges = cfg.edges  # type: ignore[attr-defined]
    zero = classes.zero  # type: ignore[attr-defined]
    for cid, members in classes.members.items():  # type: ignore[attr-defined]
        counts = []
        for member in members:
            if member in zero:
                continue
            if isinstance(member, tuple):
                edge = edges[member[1]]
                if edge.kind == "exit":
                    continue  # exit edges have no separate ground truth
                counts.append((member,
                               true_edge_count(machine, cfg, edge)))
            else:
                counts.append((member,
                               true_block_count(gt_count,
                                                blocks[member])))
        if len(counts) < 2:
            continue
        values = [v for _, v in counts]
        lo, hi = min(values), max(values)
        if not _within(float(lo), float(hi), slack):
            findings.append(Finding(
                "analysis/equivalence-violated", ERROR, _proc_loc(cfg),
                "equivalence class %d members executed between %d and "
                "%d times" % (cid, lo, hi),
                detail="members=%r" % (sorted(
                    str(m) for m, _ in counts),)))
    # Zero-flow members (bridges) must really never execute.
    for member in zero:
        if isinstance(member, tuple):
            edge = edges[member[1]]
            if edge.kind == "exit":
                continue
            value = true_edge_count(machine, cfg, edge)
        else:
            value = true_block_count(gt_count, blocks[member])
        if value > slack:
            findings.append(Finding(
                "analysis/equivalence-violated", ERROR, _proc_loc(cfg),
                "member %s proved zero-flow but executed %d times"
                % (member, value)))
    return findings


# -- static-schedule invariants ---------------------------------------------

def check_schedule_invariants(cfg: object,
                              schedules: Dict[int, object]
                              ) -> List[Finding]:
    """Structural invariants of every block's static schedule."""
    from repro.cpu.issue import PAIR_OK

    findings: List[Finding] = []
    for block in cfg.blocks:  # type: ignore[attr-defined]
        schedule = schedules[block.index]
        rows = schedule.rows
        prev = None
        for row in rows:
            loc = _proc_loc(cfg, row.inst.addr)
            if row.paired:
                if row.m != 0:
                    findings.append(Finding(
                        "analysis/schedule-m", ERROR, loc,
                        "dual-issued follower has M=%d (expected 0)"
                        % row.m))
                if prev is None:
                    findings.append(Finding(
                        "analysis/schedule-pairing", ERROR, loc,
                        "first instruction of a block marked paired"))
                else:
                    if prev.issue != row.issue:
                        findings.append(Finding(
                            "analysis/schedule-pairing", ERROR, loc,
                            "paired instructions issue in different "
                            "cycles (%d vs %d)"
                            % (prev.issue, row.issue)))
                    if prev.paired:
                        findings.append(Finding(
                            "analysis/schedule-pairing", ERROR, loc,
                            "three instructions share one issue slot"))
                    key = (prev.inst.info.cls, row.inst.info.cls)
                    if not PAIR_OK[key]:
                        findings.append(Finding(
                            "analysis/schedule-pairing", ERROR, loc,
                            "pair %s+%s violates the dual-issue "
                            "slotting rules" % key))
            else:
                if row.m < 1:
                    findings.append(Finding(
                        "analysis/schedule-m", ERROR, loc,
                        "issue point has M=%d (expected >= 1)" % row.m))
                if prev is not None and row.issue <= prev.issue:
                    findings.append(Finding(
                        "analysis/schedule-order", ERROR, loc,
                        "issue slot %d does not advance past %d"
                        % (row.issue, prev.issue)))
            prev = row
        if rows and schedule.best_case_cycles != rows[-1].issue + 1:
            findings.append(Finding(
                "analysis/schedule-best-case", ERROR, _proc_loc(cfg),
                "block %d best case %d != last issue slot %d + 1"
                % (block.index, schedule.best_case_cycles,
                   rows[-1].issue)))
    return findings


# -- culprit coverage --------------------------------------------------------

def check_culprit_coverage(cfg: object, schedules: Dict[int, object],
                           freq: object, samples: Dict[int, int],
                           culprit_map: Dict[int, List[object]],
                           period: float) -> List[Finding]:
    """Every dynamic stall of ``DYN_THRESHOLD`` cycles per execution or
    more (the analysis's own threshold) must be explained or marked
    unexplained."""
    findings: List[Finding] = []
    for block in cfg.blocks:  # type: ignore[attr-defined]
        count = freq.block_count(block.index)  # type: ignore[attr-defined]
        if count <= 0:
            continue
        for row in schedules[block.index].rows:
            s = samples.get(row.inst.addr, 0)
            if s == 0:
                continue
            dyn = s * period / count - row.m
            if dyn < DYN_THRESHOLD:
                continue
            total_dyn = dyn * count
            loc = _proc_loc(cfg, row.inst.addr)
            culprits = culprit_map.get(row.inst.addr)
            if not culprits:
                findings.append(Finding(
                    "analysis/unexplained-stall", ERROR, loc,
                    "%.0f dynamic stall cycles have no culprit and no "
                    "unexplained marker" % total_dyn))
                continue
            covered = 0.0
            for culprit in culprits:
                if culprit.min_cycles > culprit.max_cycles + _EPS:
                    findings.append(Finding(
                        "analysis/culprit-range", ERROR, loc,
                        "culprit %s has min %.1f > max %.1f"
                        % (culprit.reason, culprit.min_cycles,
                           culprit.max_cycles)))
                covered += culprit.max_cycles
            if covered + _EPS < total_dyn * (1.0 - 1e-9):
                findings.append(Finding(
                    "analysis/unexplained-stall", ERROR, loc,
                    "culprit ranges cover %.0f of %.0f dynamic stall "
                    "cycles with no unexplained remainder"
                    % (covered, total_dyn)))
    return findings


# -- estimate-level flow residuals ------------------------------------------

def check_estimate_flow(cfg: object, freq: object,
                        rel_tol: float = ESTIMATE_REL_TOL
                        ) -> List[Finding]:
    """Report (as warnings) large flow residuals in the estimates."""
    findings: List[Finding] = []
    if cfg.missing_edges:  # type: ignore[attr-defined]
        return findings
    for block in cfg.blocks:  # type: ignore[attr-defined]
        count = freq.block_count(block.index)  # type: ignore[attr-defined]
        if count < ESTIMATE_MIN_COUNT:
            continue
        if freq.block_confidence(block.index) == "low":  # type: ignore[attr-defined]
            # Low-confidence classes are estimated from a handful of
            # samples; their residuals measure sampling noise, not a
            # propagation defect (paper section 6.1.3).
            continue
        for edge_list, side in ((block.preds, "in"),
                                (block.succs, "out")):
            if not edge_list or (side == "in" and block.index == 0):
                continue
            if any(e.kind == "exit" for e in edge_list):
                continue
            total = sum(freq.edge_count(e.index)  # type: ignore[attr-defined]
                        for e in edge_list)
            if total <= 0:
                continue
            residual = abs(total - count) / max(total, count)
            if residual > rel_tol:
                findings.append(Finding(
                    "analysis/flow-residual", WARNING,
                    _proc_loc(cfg, block.start),
                    "estimated %s-flow %.0f disagrees with block count "
                    "%.0f by %.0f%%"
                    % (side, total, count, residual * 100.0)))
    return findings


# -- merge determinism -------------------------------------------------------

def split_profiles(profiles: Dict[str, Dict[object, Dict[int, int]]],
                   ways: int = 3) -> List[Dict[str, Dict[object,
                                                         Dict[int, int]]]]:
    """Deterministically split one profile map into *ways* shards."""
    shards: List[Dict[str, Dict[object, Dict[int, int]]]] = [
        {} for _ in range(ways)]
    for image_name, by_event in profiles.items():
        for event, by_offset in by_event.items():
            for offset, count in by_offset.items():
                shard = shards[offset % ways]
                dest = shard.setdefault(image_name, {}).setdefault(
                    event, {})
                # Split even the counts so shards genuinely overlap.
                half = count // 2
                if half and ways > 1:
                    other = shards[(offset + 1) % ways]
                    odest = other.setdefault(image_name, {}).setdefault(
                        event, {})
                    odest[offset] = odest.get(offset, 0) + half
                    count -= half
                dest[offset] = dest.get(offset, 0) + count
    return shards


def check_merge_determinism(
        profiles: Dict[str, Dict[object, Dict[int, int]]],
        periods: Dict[object, float],
        label: str = "session") -> List[Finding]:
    """Structurally verify the shard merge is order-independent.

    Splits *profiles* into overlapping shards, then merges them under
    the identity, reversed, and rotated orders plus a regrouped
    (pre-merged pair) variant; all four serializations must be
    byte-identical.
    """
    from repro.collect.parallel import merge_profiles, profile_rows

    def merged(variant: Sequence[object]) -> Any:
        return merge_profiles(row for shard in variant
                              for row in profile_rows(shard, periods))

    shards = split_profiles(profiles)
    reference = merged(shards).encode_all()
    findings: List[Finding] = []
    variants: List[Tuple[str, List[object]]] = [
        ("reversed", list(reversed(shards))),
        ("rotated", shards[1:] + shards[:1]),
    ]
    if len(shards) >= 2:
        variants.append(
            ("regrouped", [merged(shards[:2]).counts] + shards[2:]))
    for name, variant in variants:
        if merged(variant).encode_all() != reference:
            findings.append(Finding(
                "analysis/merge-nondeterminism", ERROR, label,
                "shard merge under %s order serialized differently"
                % name))
    return findings


def verify_procedure(analysis: object) -> List[Finding]:
    """Run the per-procedure invariant checks on a ProcedureAnalysis.

    This is the hook :mod:`repro.core.analyze` calls when
    ``AnalysisConfig.verify_invariants`` is set; ground-truth checks
    need the simulator and run separately (see
    :mod:`repro.check.runner`).
    """
    from repro.cpu.events import EventType

    cfg = analysis.cfg  # type: ignore[attr-defined]
    schedules = analysis.schedules  # type: ignore[attr-defined]
    freq = analysis.freq  # type: ignore[attr-defined]
    profile = analysis.profile  # type: ignore[attr-defined]
    proc = analysis.proc  # type: ignore[attr-defined]
    samples = profile.samples_for(proc, EventType.CYCLES)
    culprit_map = {row.inst.addr: row.culprits
                   for row in analysis.instructions  # type: ignore[attr-defined]
                   if row.culprits}
    findings = check_schedule_invariants(cfg, schedules)
    findings.extend(check_culprit_coverage(
        cfg, schedules, freq, samples, culprit_map,
        analysis.period))  # type: ignore[attr-defined]
    findings.extend(check_estimate_flow(cfg, freq))
    return findings


# -- fleet conservation ------------------------------------------------------

def check_fleet_conservation(shipped: int, stored: int,
                             transit_lost: int = 0, residue: int = 0,
                             quarantined: int = 0,
                             spool_dropped: int = 0,
                             label: str = "fleet") -> List[Finding]:
    """Fleet-merged counts must equal the sum of per-machine sessions.

    The fleet extension of PR 4's sample-conservation books: every
    sample a machine's daemon shipped is either committed in the
    central store (any shard), lost in transit (accounted by the
    transport), dropped from a machine's bounded unacked-delta spool
    (accounted by the spool), removed by retention downsampling
    (accounted as residue), or quarantined by a shard database
    (accounted by the quarantine ledger).  On a clean run every
    accounted term is zero and the invariant collapses to
    ``stored == shipped`` exactly.  Any imbalance -- silent loss or
    double counting -- is an ERROR finding.
    """
    findings: List[Finding] = []
    accounted = (stored + transit_lost + spool_dropped + residue
                 + quarantined)
    if accounted != shipped:
        direction = ("silently lost"
                     if accounted < shipped else "double-counted")
        findings.append(Finding(
            "analysis/fleet-conservation", ERROR, label,
            "fleet store holds %d samples but machines shipped %d "
            "(transit-lost %d, spool-dropped %d, downsample residue "
            "%d, quarantined %d): %d %s"
            % (stored, shipped, transit_lost, spool_dropped, residue,
               quarantined, abs(shipped - accounted), direction)))
    return findings
