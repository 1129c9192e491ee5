"""Differential property test: fast path vs slow path, byte-identical.

Hypothesis composes small programs from the synthetic-workload
assembly generators (:mod:`repro.workloads.asmgen`) -- mixed flavors,
iteration counts, call structures, buffer strides -- and runs each
program twice on otherwise-identical machines: once with the block
issue cache on, once with it off.  Every observable the profiler or
the validation experiments can see must match byte for byte: execution
counts, head-of-queue cycles, per-reason stall attributions,
per-instruction event counts, edge counts, retired-instruction totals,
machine time, and every core's cache / TLB / write-buffer / predictor
counters (``abcheck.model_counters``).
"""

import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.alpha.assembler import assemble
from repro.alpha.opcodes import OPCODES
from repro.alpha.predecode import R_ADDR
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine
from repro.tools.abcheck import (_canonical, check_workload, fingerprint,
                                 model_counters, run_session)
from repro.workloads.asmgen import caller_proc, loop_proc
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

FLAVORS = ("int", "mem", "fp", "branchy", "stream")


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
                # The copy loop advances 4 quads per iteration and must
                # stay inside the front half of the 4KB buffer.
                iters = min(iters, 60)
        procs.append(loop_proc("leaf%d" % index, iters, flavor,
                               **kwargs))
    rounds = draw(st.integers(min_value=1, max_value=3))
    procs.append(caller_proc(
        "main", ["leaf%d" % i for i in range(count)], rounds=rounds))
    data = ".data heap, 4096\n" if needs_buf else ""
    return ".image t\n%s%s" % (data, "".join(procs))


def observables(machine):
    """Canonical bytes of everything the fast path must not change."""
    return _canonical({
        "gt_count": machine.gt_count,
        "gt_head": machine.gt_head,
        "gt_stall": machine.gt_stall,
        "gt_events": machine.gt_events,
        "gt_edges": machine.gt_edges,
        "retired": machine.instructions_retired,
        "time": machine.time,
        "models": model_counters(machine),
        "regs": machine.processes[0].iregs,
        "fregs": machine.processes[0].fregs,
        "memory": machine.processes[0].memory,
    })


def run_program(text, fastpath):
    config = MachineConfig()
    config.fastpath = fastpath
    machine = Machine(config, seed=1)
    image = machine.load_image(assemble(text))
    machine.spawn(image, entry="t:main")
    machine.run(max_instructions=200_000)
    return machine


#: A loop whose branches turn on data: the first after 150 laps, the
#: second for 24 of every 64.  The predictor has learnt each new
#: direction by the time the loop trace meets it, so the trace leaves
#: on its direction guard, not on a mispredict.
TURNING_LOOP = """
.image t
.proc main
    lda   t0, 0(zero)
    lda   t3, 150(zero)
    lda   v0, 400(zero)
Lloop:
    addq  t0, 1, t0
    cmpult t0, t3, t1
    beq   t1, Lhigh
    addq  t2, 1, t2
    br    Ljoin
Lhigh:
    subq  t2, 1, t2
Ljoin:
    and   t0, 63, t4
    cmpult t4, 40, t4
    beq   t4, Lskip
    addq  t2, 3, t2
Lskip:
    cmpult t0, v0, t9
    bne   t9, Lloop
    ret
.end
"""


@settings(max_examples=examples(25), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
# One hot branchy loop: nearly every replay starts where another ended.
@example(".image t\n%s%s" % (loop_proc("leaf0", 400, "branchy"),
                             caller_proc("main", ["leaf0"])))
@example(TURNING_LOOP)
def test_fastpath_is_observationally_identical(text):
    fast = run_program(text, True)
    slow = run_program(text, False)
    assert observables(fast) == observables(slow)


class TurningLoop(Workload):
    name = "turning-loop"

    def setup(self, machine):
        image = machine.load_image(assemble(TURNING_LOOP))
        machine.spawn(image, entry="t:main")


@pytest.mark.parametrize("mode", ["default", "cycles", "mux"])
def test_trace_leaves_on_its_direction_guard(mode):
    # The example above is not vacuous: traces form, loop, and leave
    # on a branch that turned without mispredicting -- and they do so
    # under every sampling mode, on dcpiab's three legs (cold fast,
    # warm fast, slow), which the registry rows never make them do.
    identical, line, snap = check_workload(TurningLoop(), mode=mode)
    assert identical, line
    assert snap["traces"] > 0
    assert snap["trace_exits.guard"] > 0
    assert snap["dispatches"] < snap["replays"]


@pytest.mark.parametrize("edge_mode", ["double", "interpret"])
@pytest.mark.parametrize("name", ["gcc", "mccalpin-scale"])
def test_fastpath_is_identical_under_edge_sampling(name, edge_mode):
    # The slow path owns both edge-sampling branches -- the second half
    # of a double sample, and the interpreted control transfer -- and
    # the gate refuses to replay around a pending one (``pending``).
    def observed(fastpath):
        result, _ = run_session(get_workload(name), fastpath, 1, 60_000,
                                "default", edge_sampling=True,
                                edge_mode=edge_mode)
        edges = {image: profile.edge_counts
                 for image, profile in result.daemon.profiles.items()}
        return fingerprint(result), model_counters(result.machine), edges
    fast = observed(True)
    assert any(fast[2].values())
    assert fast == observed(False)


def test_fastpath_engages_on_generated_programs():
    # A sanity anchor for the property above: the differential test is
    # vacuous if the fast path never actually replays anything.
    hot = ".image t\n%s%s" % (
        loop_proc("leafhot", 500, "int"),
        caller_proc("main", ["leafhot"], rounds=2))
    machine = run_program(hot, True)
    assert machine.fastpath.replayed_instructions > 0


# -- one hot loop per opcode -------------------------------------------------

_LOOP = """
.image t
.data buf, 64
.proc main
    lda   t1, =buf
    lda   t4, 7(zero)
    lda   t3, -3(zero)
    stq   t4, 0(t1)
    ldt   f1, 0(t1)
    stq   t3, 8(t1)
    ldt   f2, 8(t1)
    lda   t0, 0(zero)
    lda   v0, 300(zero)
Lloop:
    addq  t0, 1, t0
%s
    cmpult t0, v0, t9
    bne   t9, Lloop
    ret
.end
"""


def _hot_loop(op):
    kind = OPCODES[op].kind
    if OPCODES[op].cls == "CMOV":
        body = ("    and   t0, 1, t7\n"
                "    %s t7, t0, t5\n"
                "    %s t7, 9, t6" % (op, op))
    elif kind == "op":
        # Register and literal forms; t4 keeps changing and t3 is
        # negative, so the signed ops see both signs.
        body = ("    %s t4, t3, t5\n"
                "    %s t5, 9, t6\n"
                "    xor   t6, t0, t4" % (op, op))
    elif kind == "fop":
        body = ("    %s f1, f2, f3\n"
                "    stq   t0, 16(t1)\n"
                "    ldt   f1, 16(t1)" % op)
    else:
        # The tested register alternates sign / zero / parity.
        if kind == "fbranch":
            reg, setup = "f4", ("    subq  t0, 150, t5\n"
                                "    stq   t5, 24(t1)\n"
                                "    ldt   f4, 24(t1)\n")
        else:
            reg, setup = "t5", ("    subq  t0, 150, t5\n"
                                "    sra   t5, 1, t5\n")
        body = (setup
                + "    %s %s, Lskip\n"
                  "    addq  t6, 3, t6\n"
                  "Lskip:\n"
                  "    addq  t6, t0, t6" % (op, reg))
    return _LOOP % body


@pytest.mark.parametrize("op", sorted(
    name for name, info in OPCODES.items() if info.sem or info.cond))
def test_every_semantic_opcode_replays_open_coded(op):
    """Each operate / cmov / branch opcode runs through a compiled
    replay, matches the slow path, and is open-coded from its own
    expression: no per-step ``_f<i>`` call-out global."""
    text = _hot_loop(op)
    fast = run_program(text, True)
    assert fast.fastpath.replayed_instructions > 0
    assert observables(fast) == observables(run_program(text, False))
    compiled = [variant
                for block in fast.fastpath.blocks.values() if block
                for variant in block.variants.values()
                if variant.fn is not None]
    ops = {fast.code_map[step[0][R_ADDR]].op
           for variant in compiled for step in variant.steps}
    assert op in ops
    for variant in compiled:
        assert not [name for name in variant.fn.__code__.co_names
                    if re.fullmatch(r"_f\d+", name)]
