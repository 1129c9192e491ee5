"""Model calls per simulated instruction: a counted guard on the
streaming hot path.

A miss costs one frame (``Hierarchy.access`` runs L1, L2 and the board),
a discrete event that overflows no counter slot makes no call into
``CounterUnit``, and only a store commit expires write-buffer entries,
once the oldest drain has completed.  This counts, with
``sys.setprofile``, the calls into the model modules, into the rules
``Core.run`` and generated steps share and into ``Core._fetch`` over
short profiled sessions, and holds them under committed bounds.
Comprehensions are not counted: Python 3.12 inlines them, and the count
must read alike on every interpreter CI runs.  Only ``Machine.run`` is
profiled, not the session's set-up.
"""

import sys

import pytest

from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu import branch, caches, counters, step, tlb, writebuffer
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine
from repro.cpu.pipeline import Core
from repro.workloads.registry import get_workload

#: Modules whose every function counts (a cache's generated probes run
#: with this module's globals).
MODULES = {module.__name__ for module in (caches, writebuffer, counters,
                                          tlb, branch)}
#: The rules the interpreter and generated steps share, and the fetch.
RULES = {fn.__code__ for fn in (
    step.charge_stalls, step.charge_slotting, step.count_cycles,
    step.post_events, step.deliver, step.load_miss, step.store_translate,
    Core._fetch)}

BUDGET = 30_000

#: Model calls per instruction at BUDGET instructions, seed 1, the
#: bench period.  Measured: mccalpin-saxpy 0.848 (1.779 before misses
#: took one frame), bigcode 0.579 (1.006).
BOUNDS = {"mccalpin-saxpy": 0.90, "bigcode": 0.65}


def count_calls(name, monkeypatch):
    """Run *name* for BUDGET instructions; return ``(instructions,
    {function: calls})``."""
    calls = {}

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name.startswith("<"):
            return  # a comprehension, or module code
        if (code in RULES
                or frame.f_globals.get("__name__") in MODULES):
            key = "%s.%s" % (frame.f_globals["__name__"], code.co_name)
            calls[key] = calls.get(key, 0) + 1

    real_run = Machine.run

    def profiled_run(self, *args, **kwargs):
        sys.setprofile(profile)
        try:
            return real_run(self, *args, **kwargs)
        finally:
            sys.setprofile(None)
    monkeypatch.setattr(Machine, "run", profiled_run)
    program = get_workload(name)
    session = ProfileSession(
        MachineConfig(num_cpus=program.num_cpus),
        SessionConfig(seed=1, mode="default", cycles_period=(240, 256),
                      event_period=64))
    result = session.run(program, max_instructions=BUDGET)
    return result.instructions, calls


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_model_calls_per_instruction(name, monkeypatch):
    instructions, calls = count_calls(name, monkeypatch)
    assert instructions == BUDGET
    per_instruction = sum(calls.values()) / instructions
    table = "\n".join("%10d %7.4f  %s" % (n, n / instructions, key)
                      for key, n in sorted(calls.items(),
                                           key=lambda item: -item[1]))
    assert per_instruction <= BOUNDS[name], (
        "%s: %.4f model calls per instruction, bound %.2f\n%s"
        % (name, per_instruction, BOUNDS[name], table))
