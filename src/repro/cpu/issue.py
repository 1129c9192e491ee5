"""Dual-issue slotting rules shared by the pipeline simulator and the
analysis tools' static scheduler.

Two adjacent instructions may issue in the same cycle only if they can be
slotted onto two distinct pipes.  The same table answers both the
simulator's "did this pair dual-issue?" and the static scheduler's
"could this pair dual-issue with no dynamic stalls?".  The two issue
loops around it are still separate code; that they agree is checked,
not assumed: ``tests/test_schedule.py`` compares every clean-entry
schedule the simulator's fast path records with
:func:`repro.core.schedule.schedule_block` of the same instructions.
"""

from repro.alpha.opcodes import ISSUE_CLASSES


def _compatible(cls_a, cls_b):
    pipes_a = ISSUE_CLASSES[cls_a].pipes
    pipes_b = ISSUE_CLASSES[cls_b].pipes
    for pa in pipes_a:
        for pb in pipes_b:
            if pa != pb:
                return True
    return False


#: (leader class, follower class) -> True if the pair may dual-issue.
PAIR_OK = {
    (a, b): _compatible(a, b)
    for a in ISSUE_CLASSES
    for b in ISSUE_CLASSES
}

#: Stall reason of a register dependence, by source-operand position.
DEP_REASON = ("ra_dep", "rb_dep", "rc_dep", "rc_dep")


def result_latency(opname):
    """Cycles before *opname*'s result is usable by a dependent.

    This is the same ``ISSUE_CLASSES`` latency the pipeline simulator
    charges, exposed so profile-guided schedulers (:mod:`repro.opt`)
    build their dependence DAGs against the machine's real rules
    instead of a private copy.
    """
    from repro.alpha.opcodes import issue_class

    return issue_class(opname).latency
