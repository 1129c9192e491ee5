"""The text of generated code, pinned to recorded digests.

Replay variants and traces (``<fastpath-variant>``) and generated steps
(``<compiled-run>``) are Python source built from predecoded records.
Every other test of them compares what the code *does*; this one pins
what it *is*: the sha256 of every source handed to ``compile()`` over
a fixed set of short sessions, in order, with the code cache cleared
before each program so that every function is generated again.  A
second leg tiers every run up at its first visit
(``pipeline.COMPILE_RUN_AT = 1``), so that many steps are generated.
Besides registry programs, both legs run ``KINDS``, a loop that holds
every kind of record the generators emit.

A change that moves the generated text on purpose regenerates the
digests (run this file as a script) and names the text change; on a
failure the test prints the first source whose digest moved.

    PYTHONPATH=src python tests/test_generated_source_pin.py
"""

import builtins
import hashlib
import os

import pytest

from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu import pipeline
from repro.cpu.config import MachineConfig
from repro.cpu.codegen import clear_replay_cache
from repro.workloads.registry import get_workload
from test_fastpath_identity import Assembled

#: A hot loop over every record kind: ldl of a negative longword, stl,
#: ldt, stt, lda off a register, cmov, divt, an fbranch, bsr, jsr and
#: ret.
KINDS = """.image t
.data buf, 64
.proc main
    bis   ra, zero, s0
    lda   t1, =buf
    lda   t0, 0(zero)
    lda   v0, 600(zero)
    lda   t3, -3(zero)
    stq   t3, 0(t1)
    ldt   f2, 0(t1)
Lloop:
    addq  t0, 1, t0
    stl   t3, 8(t1)
    ldl   t4, 8(t1)
    lda   t5, 0(t4)
    and   t0, 1, t7
    cmovne t7, t5, t6
    stq   t0, 16(t1)
    ldt   f1, 16(t1)
    divt  f1, f2, f3
    stt   f3, 24(t1)
    fblt  f3, Lskip
    bsr   ra, Lleaf
Lskip:
    lda   pv, =leaf
    jsr   ra, (pv)
    cmpult t0, v0, t9
    bne   t9, Lloop
    bis   s0, zero, ra
    ret
Lleaf:
    addq  t6, 1, t6
    ret
.end
.proc leaf
    xor   t6, t0, t6
    ret
.end
"""
#: ``(programs, budget, COMPILE_RUN_AT)`` of each leg.
LEGS = (
    (("gcc", "x11perf", "altavista", "mccalpin-saxpy", "kinds"), 60_000,
     pipeline.COMPILE_RUN_AT),
    (("gcc", "altavista", "mccalpin-saxpy", "kinds"), 20_000, 1),
)
FILENAMES = ("<fastpath-variant>", "<compiled-run>")
PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "generated_sources.sha256")


def generated_sources():
    """``[(filename, source)]`` of every generated function, in order."""
    sources = []
    real = builtins.compile

    def capture(source, filename, *args, **kwargs):
        if filename in FILENAMES:
            sources.append((filename, source))
        return real(source, filename, *args, **kwargs)
    saved = pipeline.COMPILE_RUN_AT
    builtins.compile = capture
    try:
        for programs, budget, compile_at in LEGS:
            pipeline.COMPILE_RUN_AT = compile_at
            for name in programs:
                clear_replay_cache()
                program = (Assembled(KINDS) if name == "kinds"
                           else get_workload(name))
                session = ProfileSession(
                    MachineConfig(num_cpus=program.num_cpus),
                    SessionConfig(seed=1))
                session.run(program, max_instructions=budget)
    finally:
        builtins.compile = real
        pipeline.COMPILE_RUN_AT = saved
    clear_replay_cache()
    return sources


def digests(sources):
    return ["%s %s" % (hashlib.sha256(source.encode()).hexdigest(), name)
            for name, source in sources]


def test_generated_sources_are_pinned():
    sources = generated_sources()
    kinds = {name for name, _ in sources}
    assert kinds == set(FILENAMES)
    with open(PINNED) as f:
        pinned = f.read().split("\n")[:-1]
    got = digests(sources)
    for i, (old, new) in enumerate(zip(pinned, got)):
        if old != new:
            pytest.fail("source %d of %d moved (was %s):\n%s"
                        % (i, len(got), old, sources[i][1]))
    assert len(got) == len(pinned)


if __name__ == "__main__":
    with open(PINNED, "w") as f:
        f.write("".join(line + "\n" for line in digests(generated_sources())))
