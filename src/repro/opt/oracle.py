"""Correctness oracle: a rewritten program must compute the same thing.

The optimizer's contract is that only *performance* changes.  The
oracle enforces it end-to-end: run the workload twice on plain
(unprofiled) machines with the same seed -- once as built, once through
the :class:`~repro.opt.rewrite.ImageRewriter` -- run both to completion
and compare final architectural state per process: exit status, every
integer and floating-point register, and the full memory image.

Code moved, so values that *are* code addresses legitimately differ
(a return address saved by ``bsr``, a procedure address materialized
by ``lda =sym``).  The rewrite's ``old2new`` map plus the return-slot
rule (the word after a call site maps to the word after the original
call site) yields an exact translation; a value matches when it is
equal outright or translates to the baseline value.  Anything else is
a mismatch and the optimization must be rejected.

Data addresses never need translating: the rewriter pins each image's
data region at its original offset, and the loader's base-assignment
sequence is a pure function of image extents -- which the pin keeps
identical -- so every data address is byte-for-byte the same in both
runs (asserted here, not assumed).
"""

from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.cpu.machine import Machine
from repro.opt.rewrite import ImageRewriter, RewritePlan

#: One process's captured architectural outcome.
ProcState = Dict[str, Any]

#: Calls whose fallthrough slot holds the return address.
_CALL_OPS = ("bsr", "jsr")


class OracleReport:
    """Outcome of one identity check."""

    __slots__ = ("identical", "mismatches", "skipped", "baseline_cycles",
                 "optimized_cycles", "baseline_machine",
                 "optimized_machine", "rewriter")

    def __init__(self, identical: bool, mismatches: List[str],
                 baseline_machine: Machine,
                 optimized_machine: Machine,
                 rewriter: ImageRewriter,
                 skipped: Sequence[str] = ()) -> None:
        self.identical = identical
        self.mismatches = mismatches
        self.skipped = list(skipped)
        self.baseline_machine = baseline_machine
        self.optimized_machine = optimized_machine
        self.rewriter = rewriter
        self.baseline_cycles = baseline_machine.time
        self.optimized_cycles = optimized_machine.time

    @property
    def speedup(self) -> float:
        """Fractional cycle reduction (positive = optimized is faster)."""
        if not self.baseline_cycles:
            return 0.0
        return (self.baseline_cycles - self.optimized_cycles) \
            / self.baseline_cycles


def run_plain(workload: Any,
              machine_config: Optional[MachineConfig] = None,
              seed: int = 1,
              transform: Optional[Callable[..., Any]] = None,
              max_instructions: Optional[int] = None) -> Machine:
    """Run *workload* on an unprofiled machine; return the machine."""
    machine = _loaded_machine(workload, machine_config, seed, transform)
    machine.run(max_instructions=max_instructions)
    return machine


def _loaded_machine(workload: Any,
                    machine_config: Optional[MachineConfig], seed: int,
                    transform: Optional[Callable[..., Any]]) -> Machine:
    """An unprofiled machine with *workload* set up, not yet run."""
    machine = Machine(machine_config or MachineConfig(), seed=seed)
    if transform is not None:
        machine.image_transform = transform
    setup = getattr(workload, "setup", None)
    if setup is not None:
        setup(machine)
    else:
        workload(machine)
    return machine


def capture_state(machine: Machine) -> Dict[int, ProcState]:
    """Snapshot each process's architectural outcome."""
    states: Dict[int, ProcState] = {}
    for proc in machine.processes:
        states[proc.pid] = {
            "name": proc.name,
            "exited": proc.exited,
            "iregs": list(proc.iregs),
            "fregs": list(proc.fregs),
            "memory": dict(proc.memory),
        }
    return states


def build_translation(baseline_machine: Machine,
                      optimized_machine: Machine,
                      rewriter: ImageRewriter
                      ) -> Tuple[Dict[int, int], List[str], List[str]]:
    """Map optimized-run code addresses back to baseline addresses.

    Returns ``(translation, problems, skipped)``: every surviving
    instruction's new absolute address maps to its original one; each
    emitted block's new top maps to the block's original start, and
    wins over the instruction the scheduler placed there, because a
    live code pointer (``pv``, a materialized procedure address) names
    a block entry -- the rewriter resolves targets the same way; for
    each call site the slot after the (possibly moved) call maps to the
    slot after the original call, because that is the value ``ra``
    receives regardless of which instruction the scheduler placed
    there.  *problems* are correctness-relevant (they fail the oracle);
    *skipped* lists images whose rewrite bailed out -- those ran
    unmodified, so identity holds trivially but no speedup was applied.
    """
    by_name_base = {image.name: image
                    for image in baseline_machine.loader.images}
    translation: Dict[int, int] = {}
    notes: List[str] = []
    skipped: List[str] = []
    for name, result in rewriter.results.items():
        if not result.applied:
            skipped.append("%s: rewrite bailed out (%s)"
                           % (name, result.reason))
            continue
        original = by_name_base.get(name)
        rewritten = None
        for image in optimized_machine.loader.images:
            if image.name == name:
                rewritten = image
                break
        if original is None or rewritten is None:
            notes.append("%s: image missing from a run" % name)
            continue
        if original.base != rewritten.base:
            notes.append(
                "%s: link bases diverged (%#x vs %#x); data addresses "
                "are no longer comparable"
                % (name, original.base, rewritten.base))
            continue
        base = original.base
        for old, new in result.old2new.items():
            translation[base + new] = base + old
        for old, new in result.new_start.items():
            translation[base + new] = base + old
        for inst in original.instructions:
            if inst.op in _CALL_OPS:
                old = inst.addr - base
                new = result.old2new.get(old)
                if new is not None:
                    translation[base + new + 4] = base + old + 4
    return translation, notes, skipped


def compare_states(baseline: Dict[int, ProcState],
                   optimized: Dict[int, ProcState],
                   translation: Dict[int, int]) -> List[str]:
    """Diff two :func:`capture_state` snapshots; return mismatch strings.

    A value matches when equal, or when the optimized value is a moved
    code address whose translation equals the baseline value.
    """

    def matches(a: Any, b: Any) -> bool:
        if a == b:
            return True
        if isinstance(b, int) and translation.get(b) == a:
            return True
        return False

    mismatches: List[str] = []
    for pid in sorted(set(baseline) | set(optimized)):
        a = baseline.get(pid)
        b = optimized.get(pid)
        if a is None or b is None:
            mismatches.append("pid %d exists in only one run" % pid)
            continue
        if not a["exited"] and not b["exited"]:
            # A truncated run froze both programs mid-flight at
            # different points of the same computation; their
            # intermediate state is incomparable.  Identity is only
            # decidable on completed runs.
            mismatches.append(
                "pid %d did not run to completion in either run; "
                "identity undecidable (raise the verify budget)" % pid)
            continue
        for key in ("name", "exited"):
            if a[key] != b[key]:
                mismatches.append("pid %d: %s %r != %r"
                                  % (pid, key, a[key], b[key]))
        for index, (va, vb) in enumerate(zip(a["iregs"], b["iregs"])):
            if not matches(va, vb):
                mismatches.append(
                    "pid %d: r%d %#x != %#x (untranslatable)"
                    % (pid, index, va, vb))
        for index, (va, vb) in enumerate(zip(a["fregs"], b["fregs"])):
            if va != vb:
                mismatches.append("pid %d: f%d %r != %r"
                                  % (pid, index, va, vb))
        mem_a, mem_b = a["memory"], b["memory"]
        if set(mem_a) != set(mem_b):
            only_a = sorted(set(mem_a) - set(mem_b))[:4]
            only_b = sorted(set(mem_b) - set(mem_a))[:4]
            mismatches.append(
                "pid %d: memory footprints differ (only-baseline %s, "
                "only-optimized %s)"
                % (pid, [hex(x) for x in only_a],
                   [hex(x) for x in only_b]))
            continue
        for addr in mem_a:
            if not matches(mem_a[addr], mem_b[addr]):
                mismatches.append(
                    "pid %d: mem[%#x] %r != %r (untranslatable)"
                    % (pid, addr, mem_a[addr], mem_b[addr]))
    return mismatches


def verify_identity(workload: Any, plans: Iterable[RewritePlan],
                    machine_config: Optional[MachineConfig] = None,
                    seed: int = 1,
                    max_instructions: Optional[int] = None
                    ) -> "OracleReport":
    """Run the A/B identity check; return an :class:`OracleReport`.

    Mismatch strings double as the rejection reasons ``dcpiopt``
    prints; an empty list means the rewritten program is
    architecturally indistinguishable from the original.  A simulator
    fault in the optimized run is such a mismatch (``"optimized run
    faulted: ..."``); one in the baseline run is the workload's own
    bug and still raises.
    """
    baseline = run_plain(workload, machine_config, seed=seed,
                         max_instructions=max_instructions)
    rewriter = ImageRewriter(plans)
    optimized = _loaded_machine(workload, machine_config, seed, rewriter)
    try:
        optimized.run(max_instructions=max_instructions)
    except RuntimeError as exc:
        # The baseline ran clean, so a simulator fault here is the
        # rewrite's doing: a verdict, not a crash of the oracle.
        mismatches = ["optimized run faulted: %s" % exc]
        skipped: List[str] = []
    else:
        translation, problems, skipped = build_translation(
            baseline, optimized, rewriter)
        mismatches = list(problems)
        mismatches += compare_states(capture_state(baseline),
                                     capture_state(optimized),
                                     translation)
    return OracleReport(not mismatches, mismatches, baseline, optimized,
                        rewriter, skipped=skipped)


def event_total(machine: Machine,
                event: EventType = EventType.IMISS) -> int:
    """Sum a ground-truth event count across the whole machine."""
    total = 0
    for row in machine.gt_events.values():
        total += row.get(event, 0)
    return total
