"""Differential property: the static validator vs the dynamic oracle.

Hypothesis composes random programs from the synthetic-workload
assembly generators, builds real optimizer plans for them, and then
either ships the plan as-is or corrupts it (reordering dependent
instructions, permuting or dropping blocks, freezing procs, moving the
data pin).  For every (program, plan) pair both verifiers run:

* **soundness** -- if the static validator accepts (or the rewrite
  legitimately bails), the dynamic A/B oracle must find the runs
  architecturally identical.  A static accept over a decidable dynamic
  divergence is the one outcome translation validation exists to make
  impossible;
* **planner completeness** -- unmutated planner output is always
  statically *accepted*, never rejected (the validator understands
  everything the planner actually emits);
* **actionable rejection** -- every rejection carries at least one
  concrete per-block counterexample.

The reverse direction is deliberately *not* asserted: the validator is
conservative, so it may reject a mutation the single dynamic input
happens not to distinguish (an off-path divergence).  That asymmetry
is the reason the static gate runs first.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.alpha.assembler import assemble
from repro.check.runner import plan_workload
from repro.check.transval import validate_workload_plans
from repro.opt.oracle import verify_identity
from repro.workloads.asmgen import caller_proc, loop_proc
from repro.workloads.base import Workload

FLAVORS = ("int", "mem", "fp", "branchy", "stream")

MUTATIONS = ("none", "swap-order", "swap-blocks", "drop-block",
             "freeze", "move-pin")


@st.composite
def programs(draw):
    """One assembly image: a few leaf loops plus a caller."""
    count = draw(st.integers(min_value=1, max_value=3))
    needs_buf = False
    procs = []
    for index in range(count):
        flavor = draw(st.sampled_from(FLAVORS))
        iters = draw(st.integers(min_value=1, max_value=96))
        kwargs = {}
        if flavor in ("mem", "stream"):
            needs_buf = True
            kwargs["buf"] = "heap"
            kwargs["wrap"] = draw(st.sampled_from((16, 64, 256)))
            kwargs["stride"] = draw(st.sampled_from((8, 16)))
            if flavor == "stream":
                iters = min(iters, 60)
        procs.append(loop_proc("leaf%d" % index, iters, flavor,
                               **kwargs))
    rounds = draw(st.integers(min_value=1, max_value=3))
    procs.append(caller_proc(
        "main", ["leaf%d" % i for i in range(count)], rounds=rounds))
    data = ".data heap, 4096\n" if needs_buf else ""
    return ".image t\n%s%s" % (data, "".join(procs))


class GeneratedWorkload(Workload):
    """Wrap one generated program as a registry-shaped workload."""

    name = "hypothesis-transval"
    num_cpus = 1

    def __init__(self, text):
        self.text = text

    def setup(self, machine):
        image = assemble(self.text)
        machine.spawn(image, entry="t:main", name=self.name)


#: Which plan, proc (by name), block and slot a mutation hits: four
#: integers taken modulo the number of candidates, so an ``@example``
#: can spell a mutation out (``st.data()`` draws cannot be pinned).
picks = st.tuples(*[st.integers(min_value=0, max_value=255)] * 4)


def mutate(plans, mutation, picks):
    """Corrupt *plans* in place; return True if anything changed."""
    if mutation == "none" or not plans:
        return False
    pick_plan, pick_proc, pick_block, pick_slot = picks
    plan = plans[pick_plan % len(plans)]
    if mutation == "move-pin":
        if plan.data_offset is None:
            return False
        plan.data_offset += 8192
        return True
    if not plan.procs:
        return False
    by_name = sorted(plan.procs, key=lambda proc: proc.name)
    proc = by_name[pick_proc % len(by_name)]
    if mutation == "freeze":
        if proc.frozen:
            return False
        proc.frozen = True
        return True
    if mutation == "swap-blocks":
        if len(proc.blocks) < 2:
            return False
        i = pick_block % (len(proc.blocks) - 1)
        proc.blocks[i], proc.blocks[i + 1] = (proc.blocks[i + 1],
                                              proc.blocks[i])
        return True
    if mutation == "drop-block":
        if len(proc.blocks) < 2:
            return False
        del proc.blocks[pick_block % len(proc.blocks)]
        return True
    # swap-order: transpose two adjacent instructions in one block.
    sizable = [b for b in proc.blocks if b.end - b.start >= 8]
    if not sizable:
        return False
    block = sizable[pick_block % len(sizable)]
    order = list(block.order
                 or range(block.start, block.end, 4))
    i = pick_slot % (len(order) - 1)
    order[i], order[i + 1] = order[i + 1], order[i]
    block.order = order
    return True


def _three_leaves(mem_iters, rounds):
    """The program both pinned oracle bugs were found on."""
    return ".image t\n.data heap, 4096\n%s%s%s%s" % (
        loop_proc("leaf0", 1, "int"), loop_proc("leaf1", 1, "int"),
        loop_proc("leaf2", mem_iters, "mem", buf="heap", wrap=64,
                  stride=16),
        caller_proc("main", ["leaf0", "leaf1", "leaf2"], rounds=rounds))


@settings(max_examples=examples(12), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.sampled_from(MUTATIONS), picks)
# leaf2's entry block scheduled as [108, 104, 112] (two independent
# ldas swapped): legal, and the oracle called ``pv`` untranslatable
# because it mapped instruction slots, not block entries.
@example(_three_leaves(44, 1), "swap-order", (0, 2, 0, 0))
# main's first two blocks swapped: the optimized run jumps to pc 0 and
# the oracle let the simulator's RuntimeError escape.
@example(_three_leaves(41, 2), "swap-blocks", (0, 3, 0, 0))
def test_static_verdict_is_sound_against_the_oracle(text, mutation,
                                                    picks):
    workload = GeneratedWorkload(text)
    workload, plans = plan_workload(workload,
                                    max_instructions=40_000)
    mutated = mutate(plans, mutation, picks)

    static = validate_workload_plans(workload, plans)
    oracle = verify_identity(workload, plans)
    decidable = [m for m in oracle.mismatches if "undecidable" not in m]
    static_ok = all(report.ok for report in static.values())

    # Soundness: a static accept (or bail) over a decidable dynamic
    # divergence would mean the validator proved a falsehood.
    if static_ok:
        assert not decidable, (mutation, decidable)

    # Planner completeness: real planner output is always accepted.
    if not mutated:
        for name, report in sorted(static.items()):
            assert report.verdict == "accepted", (
                name, [ce.message for ce in report.counterexamples])

    # Actionable rejection: every rejection names a counterexample.
    for report in static.values():
        if report.verdict == "rejected":
            assert report.counterexamples
