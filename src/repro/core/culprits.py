"""Dynamic-stall explanation: "guilty until proven innocent"
(paper section 6.3).

For every instruction whose observed cycles-at-head exceed its static
minimum M_i, start from the full list of dynamic-stall causes and rule
out the ones that are impossible or extremely unlikely here:

* **I-cache miss** -- ruled out unless the instruction can plausibly
  start a new fetch: it lies at the start of a cache line, or it heads a
  basic block some frequent predecessor of which ends in a different
  cache line (the paper's exact rule, including ignoring predecessors
  executed much less often than the stalled instruction).  When IMISS
  samples were collected they give an upper bound on I-cache stall
  cycles, computed pessimistically with a full memory-fill cost.
* **D-cache / DTB miss** -- require that an operand of the stalled
  instruction was produced by a load (the culprit pointer names that
  load), or that the instruction is itself a memory operation (DTB).
* **Write-buffer overflow** -- stores only.
* **Branch mispredict** -- block heads whose predecessors end in a
  conditional or indirect transfer (or the procedure entry, reached via
  an indirect call).
* **IMUL/FDIV busy** -- a multiply/divide issued shortly before.

Candidates that survive are reported with pessimistic [min, max] cycle
ranges; if everything was ruled out the stall is *unexplained*.
"""

from dataclasses import dataclass

from repro.cpu.events import EventType

#: Per-execution dynamic-stall cycles below which no explanation is
#: attempted; repro.check's coverage rule judges the same stalls.
DYN_THRESHOLD = 0.25
#: Cache-line size assumed by the I-cache rule (matches MachineConfig).
LINE_BYTES = 32
#: Pessimistic fill costs used for event-derived upper bounds.
ICACHE_FILL_MAX = 88
DCACHE_FILL_MAX = 88
TLB_PENALTY = 40
MISPREDICT_PENALTY = 5
#: Predecessor blocks executed less than this fraction as often as the
#: stalled instruction are ignored by the I-cache rule.
RARE_PRED_FRACTION = 0.05
#: How many instructions back a mul/div can still congest its unit.
FU_WINDOW = 8
#: Issue classes with a non-pipelined unit -> the culprit they report.
FU_REASONS = {"IMUL": "imul", "FDIV": "fdiv"}


@dataclass
class Culprit:
    """One possible explanation for an instruction's dynamic stall."""

    reason: str
    min_cycles: float
    max_cycles: float
    source_addr: int = None

    def __repr__(self):
        src = (" from %#x" % self.source_addr) if self.source_addr else ""
        return "<Culprit %s [%.0f, %.0f]%s>" % (
            self.reason, self.min_cycles, self.max_cycles, src)


def _load_producers(block):
    """For each instruction, the in-block load (if any) feeding each of
    its source registers; returns {addr: load addr or 'unknown'}."""
    writer = {}
    result = {}
    for inst in block.instructions:
        feeding = None
        unknown = False
        for src in inst.srcs:
            if src in writer:
                producer = writer[src]
                if producer.is_load:
                    feeding = producer.addr
            else:
                unknown = True
        if feeding is not None:
            result[inst.addr] = feeding
        elif unknown and inst.srcs:
            result[inst.addr] = "unknown"
        if inst.dst is not None:
            writer[inst.dst] = inst
    return result


def _icache_possible(inst, block, cfg, freq):
    """The paper's I-cache elimination rule."""
    if inst.addr != block.start:
        # Mid-block: only a new cache line can miss.
        return inst.addr % LINE_BYTES == 0
    if block.index == cfg.entry:
        # Reached by a call from elsewhere: cannot rule out.
        return True
    my_count = freq.block_count(block.index)
    preds = block.preds
    if not preds:
        return True
    for edge in preds:
        pred_block = cfg.blocks[edge.src]
        if my_count > 0:
            pred_count = freq.block_count(pred_block.index)
            if pred_count < RARE_PRED_FRACTION * my_count:
                continue  # executed much less often: ignore
        last = pred_block.last
        if last.addr // LINE_BYTES != inst.addr // LINE_BYTES:
            return True
    return inst.addr % LINE_BYTES == 0


def _branch_possible(inst, block, cfg):
    if inst.addr != block.start:
        return False
    if block.index == cfg.entry:
        return True  # indirect call arrival
    for edge in block.preds:
        last = cfg.blocks[edge.src].last
        if last.info.kind in ("cbranch", "fbranch", "jump"):
            return True
    return False


def _fu_busy_possible(pos, block, unit_cls):
    """Address of a *unit_cls* instruction within FU_WINDOW before
    position *pos* of *block*, or None."""
    for other in block.instructions[max(0, pos - FU_WINDOW):pos]:
        if other.info.cls == unit_cls:
            return other.addr
    return None


def identify_culprits(cfg, schedules, freq, samples, profile, proc):
    """Explain each instruction's dynamic stall.

    Args:
        cfg, schedules, freq: prior analysis stages.
        samples: {addr: CYCLES samples}.
        profile: the :class:`ImageProfile` (for event-sample bounds).
        proc: the procedure.

    Returns {addr: list of Culprit} (addresses with stalls only).
    """
    period = profile.periods.get(EventType.CYCLES, 1.0)
    imiss_samples = (profile.samples_for(proc, EventType.IMISS)
                     if EventType.IMISS in profile.counts else None)
    imiss_period = profile.periods.get(EventType.IMISS, 1.0)
    dtb_samples = (profile.samples_for(proc, EventType.DTBMISS)
                   if EventType.DTBMISS in profile.counts else None)
    result = {}

    for block in cfg.blocks:
        schedule = schedules[block.index]
        producers = _load_producers(block)
        count = freq.block_count(block.index)
        for pos, row in enumerate(schedule.rows):
            inst = row.inst
            s = samples.get(inst.addr, 0)
            if count <= 0 or s == 0:
                continue
            observed = s * period / count
            dyn = observed - row.m
            if dyn < DYN_THRESHOLD:
                continue
            total_dyn = dyn * count
            candidates = []

            if _icache_possible(inst, block, cfg, freq):
                upper = total_dyn
                if imiss_samples is not None:
                    est_misses = imiss_samples.get(inst.addr, 0) * imiss_period
                    upper = min(upper, est_misses * ICACHE_FILL_MAX)
                if upper > 0:
                    candidates.append(
                        Culprit("icache", 0.0, upper))

            producer = producers.get(inst.addr)
            if producer is not None:
                source = producer if producer != "unknown" else None
                candidates.append(
                    Culprit("dcache", 0.0, total_dyn, source))
                dtb_upper = total_dyn
                if dtb_samples is not None:
                    est = dtb_samples.get(inst.addr, 0)
                    dtb_upper = min(dtb_upper,
                                    est * profile.periods.get(
                                        EventType.DTBMISS, 1.0)
                                    * TLB_PENALTY)
                if dtb_upper > 0:
                    candidates.append(
                        Culprit("dtb", 0.0, dtb_upper, source))
            elif inst.is_memory:
                candidates.append(Culprit("dtb", 0.0, total_dyn))

            if inst.is_store:
                candidates.append(Culprit("wb", 0.0, total_dyn))

            if _branch_possible(inst, block, cfg):
                candidates.append(
                    Culprit("branchmp", 0.0,
                            min(total_dyn, MISPREDICT_PENALTY * count)))

            # Only the unit's own instructions can wait for it.
            fu_reason = FU_REASONS.get(inst.info.cls)
            if fu_reason is not None:
                busy_src = _fu_busy_possible(pos, block, inst.info.cls)
                if busy_src is not None:
                    candidates.append(
                        Culprit(fu_reason, 0.0, total_dyn, busy_src))

            if not candidates:
                candidates.append(
                    Culprit("unexplained", total_dyn, total_dyn))
            else:
                # Pessimistic min: what no other candidate could cover.
                for culprit in candidates:
                    others = sum(c.max_cycles for c in candidates
                                 if c is not culprit)
                    culprit.min_cycles = max(0.0, total_dyn - others)
                covered = sum(c.max_cycles for c in candidates)
                if covered < total_dyn:
                    candidates.append(
                        Culprit("unexplained", total_dyn - covered,
                                total_dyn - covered))
            result[inst.addr] = candidates
    return result
