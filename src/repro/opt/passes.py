"""Profile-guided planning passes: the deciding half of repro.opt.

:func:`build_plan` turns the analyses :func:`repro.core.analyze_image`
produced for one image into a :class:`~repro.opt.rewrite.RewritePlan`:

* **layout** -- Pettis-Hansen style chaining: merge basic blocks along
  their hottest CFG edges so the frequent path becomes straight-line
  fallthrough code (taken branches become not-taken; unconditional
  branches on the hot path disappear);
* **schedule** -- list scheduling inside each block against the
  machine's own dual-issue/latency rules (via
  :func:`repro.core.schedule.schedule_block`, the *same* model the
  analysis charged static stalls with), so reported static stalls are
  actually removed rather than estimated away;
* **split** -- hot/cold splitting: never-executed blocks move to the
  tail of their procedure, and whole procedures are reordered hottest
  first, packing the hot working set onto fewer I-cache pages (the
  direct-mapped L1I maps different code pages onto the same lines, so
  fewer hot pages means deterministically fewer conflict misses).

Safety rails: a procedure is *frozen* (kept byte-identical, modulo the
image-level move) whenever its CFG has unresolved indirect edges or any
branch in the image targets the middle of one of its blocks -- the plan
only rearranges code it can prove it fully understands.  Everything
else is the rewriter's job (:mod:`repro.opt.rewrite`), including
refusing plans whose fingerprint no longer matches.
"""

from repro.alpha.opcodes import CONTROL_KINDS, DIRECT_BRANCH_KINDS
from repro.core.cfg import EXIT
from repro.core.schedule import schedule_block
from repro.cpu.issue import result_latency
from repro.opt.rewrite import (BlockPlan, ProcPlan, RewritePlan,
                               image_fingerprint)


#: Blocks executed at most this often count as cold.
COLD_COUNT = 0.5


class OptConfig:
    """Which passes run."""

    __slots__ = ("layout", "schedule", "split")

    def __init__(self, layout=True, schedule=True, split=True):
        self.layout = layout
        self.schedule = schedule
        self.split = split


def _chain_blocks(cfg, freq):
    """Pettis-Hansen bottom-up chaining; returns a block-index order.

    Edges are visited hottest first; an edge merges two chains when its
    source ends one chain and its destination starts another, making
    the edge a fallthrough.  The entry block's chain is emitted first
    (the rewriter needs the procedure to begin at its entry), remaining
    chains hottest first.
    """
    weights = {}
    for edge in cfg.edges:
        if edge.dst == EXIT or edge.dst == edge.src:
            continue
        count = freq.edge_count(edge.index)
        if count > 0:
            key = (edge.src, edge.dst)
            weights[key] = weights.get(key, 0.0) + count
    chain_of = list(range(len(cfg.blocks)))
    chains = {index: [index] for index in chain_of}
    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    for (src, dst), _count in ordered:
        head, tail = chain_of[src], chain_of[dst]
        if head == tail:
            continue
        if chains[head][-1] != src or chains[tail][0] != dst:
            continue
        chains[head].extend(chains[tail])
        for member in chains[tail]:
            chain_of[member] = head
        del chains[tail]

    def heat(chain):
        return max(freq.block_count(member) for member in chains[chain])

    entry_chain = chain_of[cfg.entry]
    rest = sorted((chain for chain in chains if chain != entry_chain),
                  key=lambda chain: (-heat(chain), chain))
    order = list(chains[entry_chain])
    for chain in rest:
        order.extend(chains[chain])
    return order


def _split_cold(order, freq):
    """Stable-partition *order* so cold blocks sink to the tail."""
    entry, rest = order[0], order[1:]
    hot = [b for b in rest if freq.block_count(b) > COLD_COUNT]
    cold = [b for b in rest if freq.block_count(b) <= COLD_COUNT]
    return [entry] + hot + cold


# Opcodes that must keep their exact position inside a block: calls and
# anything whose side effects the scheduler does not model.
_BARRIER_OPS = ("jsr", "bsr", "call_pal")


#: Dynamic-stall culprit reasons caused by the *producer* of a value
#: (a load that missed): the stall charged at the consumer moves with
#: the producer's result latency.
_PRODUCER_REASONS = ("dcache", "dtb")


def _observed_stalls(analysis, block):
    """Profile-observed extra result latency, per producer address.

    The analysis charges dynamic stalls at the stalled *consumer* and
    names the producing load as the culprit (``from 0x...``).  For
    scheduling, that observation means the producer's effective result
    latency is its static latency plus those stall cycles -- the
    knowledge that separates profile-guided scheduling from static
    scheduling (a compiler assumes loads hit; the profile knows which
    ones do not).
    """
    extra = {}
    if analysis is None:
        return extra
    for inst in block.instructions:
        row = analysis.by_addr.get(inst.addr)
        if row is None or row.dyn_per_exec <= 0.0:
            continue
        sources = {c.source_addr for c in row.culprits
                   if c.source_addr and c.reason in _PRODUCER_REASONS}
        for addr in sources:
            extra[addr] = max(extra.get(addr, 0.0), row.dyn_per_exec)
    return extra


def _schedule_block_order(block, extra):
    """List-schedule *block*; return a better instruction order or None.

    Builds a dependence DAG (register RAW with the machine's result
    latencies plus the profile-observed stalls in *extra*, WAR/WAW,
    conservative memory ordering: stores are ordered against every
    earlier memory op, loads against the last store) and greedily emits
    the ready instruction with the longest critical path.  A candidate
    is accepted only if :func:`~repro.core.schedule.schedule_block`
    scores it strictly faster with the observed stalls folded in (each
    producer in *extra* delivers that many cycles later) AND no worse
    without them -- hoisting a missing load must never cost best-case
    cycles.  One scheduler answers both questions; its agreement with
    the simulator is checked by
    ``tests/test_schedule.py::TestAgreesWithTheSimulator``.
    """
    insts = block.instructions
    if len(insts) < 3:
        return None
    last = insts[-1]
    pinned_term = (last.info.kind in CONTROL_KINDS
                   and last.op not in ("jsr",))
    body = insts[:-1] if pinned_term else list(insts)
    if len(body) < 2:
        return None

    count = len(body)
    preds = [0] * count
    succs = [[] for _ in range(count)]
    crit = [dict() for _ in range(count)]   # i -> {succ: latency}
    last_def = {}
    readers = {}
    last_store = None
    loads_after_store = []
    barrier = None
    for i, inst in enumerate(body):
        deps = {}
        if barrier is not None:
            deps[barrier] = 0
        is_barrier = (inst.op in _BARRIER_OPS
                      or inst.info.kind in CONTROL_KINDS)
        if is_barrier:
            for j in range(i):
                deps[j] = 0
        for src in inst.srcs:
            producer = last_def.get(src)
            if producer is not None:
                lat = (result_latency(body[producer].op)
                       + extra.get(body[producer].addr, 0.0))
                deps[producer] = max(deps.get(producer, 0), lat)
        if inst.dst is not None:
            for reader in readers.get(inst.dst, ()):
                if reader != i:
                    deps.setdefault(reader, 0)
            previous = last_def.get(inst.dst)
            if previous is not None:
                deps.setdefault(previous, 0)
        if inst.is_store:
            if last_store is not None:
                deps.setdefault(last_store, 0)
            for load in loads_after_store:
                deps.setdefault(load, 0)
        elif inst.is_load and last_store is not None:
            deps.setdefault(last_store, 0)
        for j, lat in deps.items():
            crit[j][i] = max(crit[j].get(i, 0), lat)
        if is_barrier:
            barrier = i
        for src in inst.srcs:
            readers.setdefault(src, []).append(i)
        if inst.dst is not None:
            last_def[inst.dst] = i
            readers[inst.dst] = []
        if inst.is_store:
            last_store = i
            loads_after_store = []
        elif inst.is_load:
            loads_after_store.append(i)

    for i in range(count):
        for j in crit[i]:
            preds[j] += 1
            succs[i].append(j)

    # Critical-path heights, computed in reverse (edges go forward).
    height = [1] * count
    for i in range(count - 1, -1, -1):
        for j, lat in crit[i].items():
            height[i] = max(height[i], height[j] + max(1, lat))

    ready = [i for i in range(count) if preds[i] == 0]
    emitted = []
    while ready:
        ready.sort(key=lambda i: (-height[i], i))
        pick = ready.pop(0)
        emitted.append(pick)
        for j in succs[pick]:
            preds[j] -= 1
            if preds[j] == 0:
                ready.append(j)
    if len(emitted) != count:        # cycle: should not happen
        return None
    if emitted == list(range(count)):
        return None
    candidate = [body[i] for i in emitted]
    if pinned_term:
        candidate.append(last)
    if schedule_block(candidate, extra).best_case_cycles \
            >= schedule_block(insts, extra).best_case_cycles:
        return None
    if schedule_block(candidate).best_case_cycles \
            > schedule_block(insts).best_case_cycles:
        return None
    return candidate


def build_plan(image, analyses, config=None):
    """Plan one image's rewrite from its per-procedure analyses.

    *image* is the **linked** image that was profiled; *analyses* the
    mapping :func:`repro.core.analyze.analyze_image` returned for it.
    Returns a :class:`RewritePlan` in image-relative coordinates,
    applicable to any instruction-identical rebuild of the image.
    """
    config = config or OptConfig()
    base = image.base or 0

    # Any direct branch into the middle of a block freezes its
    # procedure: moving that block would leave the branch pointing at
    # the wrong instruction sequence.
    branch_targets = [
        inst.target for inst in image.instructions
        if inst.info.kind in DIRECT_BRANCH_KINDS
        and inst.target is not None
    ]

    stats = {"blocks_moved": 0, "scheduled_blocks": 0, "procs_moved": 0,
             "frozen_procs": 0, "cold_blocks_demoted": 0}
    entries = []
    for proc in image.procedures:
        analysis = analyses.get(proc.name)
        frozen = analysis is None
        cfg = analysis.cfg if analysis is not None else None
        if not frozen and cfg.missing_edges:
            frozen = True
        if not frozen:
            starts = {block.start for block in cfg.blocks}
            for target in branch_targets:
                if proc.start <= target < proc.end \
                        and target not in starts:
                    frozen = True
                    break
        if frozen:
            if analysis is not None:
                stats["frozen_procs"] += 1
            block = BlockPlan(proc.start - base, proc.end - base)
            entries.append((proc, analysis,
                            ProcPlan(proc.name, [block], frozen=True)))
            continue

        order = list(range(len(cfg.blocks)))
        if config.layout:
            order = _chain_blocks(cfg, analysis.freq)
        if config.split:
            split = _split_cold(order, analysis.freq)
            stats["cold_blocks_demoted"] += sum(
                1 for a, b in zip(order, split) if a != b and
                analysis.freq.block_count(b) <= COLD_COUNT)
            order = split
        for position, index in enumerate(order):
            original_next = index + 1 if index + 1 < len(cfg.blocks) \
                else None
            new_next = (order[position + 1]
                        if position + 1 < len(order) else None)
            if original_next != new_next:
                stats["blocks_moved"] += 1

        blocks = []
        for index in order:
            block = cfg.blocks[index]
            plan = BlockPlan(block.start - base, block.end - base)
            if config.schedule:
                candidate = _schedule_block_order(
                    block, _observed_stalls(analysis, block))
                if candidate is not None:
                    plan.order = [inst.addr - base for inst in candidate]
                    stats["scheduled_blocks"] += 1
            blocks.append(plan)
        entries.append((proc, analysis, ProcPlan(proc.name, blocks)))

    # Image-level procedure reordering (split pass): entry procedure
    # stays first; the rest go hottest first so the hot working set
    # packs onto the fewest I-cache pages.
    if config.split and len(entries) > 1:
        def proc_heat(entry):
            analysis = entry[1]
            return analysis.total_samples if analysis is not None else 0

        head, tail = entries[0], entries[1:]
        reordered = sorted(
            range(len(tail)),
            key=lambda i: (-proc_heat(tail[i]), i))
        stats["procs_moved"] = sum(
            1 for position, i in enumerate(reordered) if position != i)
        entries = [head] + [tail[i] for i in reordered]

    data_offset = None
    if image.data_base is not None:
        data_offset = image.data_base - base
    return RewritePlan(
        image.name, image_fingerprint(image),
        [entry[2] for entry in entries], data_offset, stats=stats)
