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
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu import pipeline
from repro.cpu.config import CacheConfig, MachineConfig
from repro.cpu.fastpath import EXIT, FastPath, Trace
from repro.cpu.machine import Machine
from repro.cpu.step import compile_run
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


class Assembled(Workload):
    """One process running ``t:main`` of assembly *text*."""

    name = "assembled"

    def __init__(self, text):
        self.text = text

    def setup(self, machine):
        image = machine.load_image(assemble(self.text))
        machine.spawn(image, entry="t:main")


#: A session rotates the mux counter only at a drain (default every
#: 200 000 instructions, past ``check_workload``'s budget): drain often
#: enough that the ``mux`` rows sample more than IMISS.
DRAIN = {"drain_interval": 10_000}


@pytest.mark.parametrize("mode", ["default", "cycles", "mux"])
def test_trace_leaves_on_its_direction_guard(mode):
    # The example above is not vacuous: traces form, loop, and leave
    # on a branch that turned without mispredicting -- and they do so
    # under every sampling mode, on dcpiab's three legs (cold fast,
    # warm fast, slow), which the registry rows never make them do.
    identical, line, snap = check_workload(Assembled(TURNING_LOOP),
                                           mode=mode, **DRAIN)
    assert identical, line
    assert snap["traces"] > 0
    assert snap["trace_exits.guard"] > 0
    assert snap["dispatches"] < snap["replays"]


#: A loop of four members, each with a load from a buffer that
#: outgrows the L1D between pointer resets, and a store that now and
#: then finds the write buffer full; the second member's branch turns
#: every 16 laps.  A replay of its traces stops at every kind of place.
MISSING_LOOP = """
.image t
.data buf, 16384
.proc main
    lda   t0, 0(zero)
    lda   t3, 3000(zero)
    lda   a0, =buf
    lda   a1, =buf
    lda   a2, =buf
    lda   a3, =buf
    lda   a1, 4096(a1)
    lda   a2, 8192(a2)
    lda   a3, 12288(a3)
Lloop:
    ldl   t5, 0(a0)
    addq  t0, 1, t0
    ldq   t7, 0(a3)
    addq  a0, 4, a0
    addq  a3, 8, a3
    and   t0, 255, t8
    bne   t8, Lb
    lda   a0, =buf
    lda   a3, =buf
    lda   a3, 12288(a3)
Lb:
    ldq   t6, 0(a1)
    addq  a1, 16, a1
    addq  t2, 1, t2
    and   t0, 15, t4
    beq   t4, Lodd
Lc:
    addq  t2, t5, t2
    ldq   t11, 0(a0)
    stq   t2, 0(a2)
    addq  a2, 24, a2
    and   t0, 255, t8
    bne   t8, Ld
    lda   a2, =buf
    lda   a1, =buf
    lda   a2, 8192(a2)
    lda   a1, 4096(a1)
Ld:
    cmpult t0, t3, t9
    ldq   t10, 0(a2)
    bne   t9, Lloop
    ret
Lodd:
    subq  t2, t6, t2
    br    Lc
.end
"""


@pytest.mark.parametrize("mode", ["default", "cycles", "mux"])
def test_every_replay_outcome_is_a_clean_prefix(mode, monkeypatch):
    # Every result of a replay applies as the clean exit of a prefix of
    # its unit's steps (FastPath.outcome).  Each shape of prefix occurs
    # here, and the fast path still matches the slow path.
    shapes = set()
    outcome = FastPath.outcome

    def tally(fp, unit, res, room):
        if res[0] == EXIT:
            shapes.add("exit" if res[4] else "exit at the head")
            return outcome(fp, unit, res, room)
        i = res[1]
        if i == 0:
            shapes.add("bail at 0")
        if res[-1]:
            shapes.add("bail after laps")
        if i and isinstance(unit, Trace):
            lengths = unit.lengths
            shapes.add("bail in the head" if i < lengths[0]
                       else "bail at a member" if i in lengths
                       else "bail in a later member")
        return outcome(fp, unit, res, room)
    monkeypatch.setattr(FastPath, "outcome", tally)
    identical, line, snap = check_workload(Assembled(MISSING_LOOP),
                                           mode=mode, **DRAIN)
    assert identical, line
    assert shapes >= {"bail at 0", "bail in the head", "bail at a member",
                      "bail in a later member", "exit", "bail after laps"}
    assert snap["bails.dcache"] > 0 and snap["bails.wb"] > 0
    if mode == "mux":
        # The rotated counter's interrupts move replays: the mode is
        # not a rerun of ``cycles``.
        cycles, _ = run_session(Assembled(MISSING_LOOP), True, 1, 80_000,
                                "cycles", **DRAIN)
        assert cycles.machine.fastpath.snapshot() != snap


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


@pytest.mark.parametrize("name", ["gcc", "mccalpin-assign", "altavista"])
def test_bounds_change_time_never_a_result(name, monkeypatch):
    # No other test reaches the run cache's bound or the variant bound.
    # Squeezed, both fire -- and on mccalpin-assign the blacklist still
    # does between two emptied run caches -- while the fast path
    # matches the slow path byte for byte: the bounds change time only.
    # Every run tiers up at its first visit, so generated steps run
    # everywhere the interpreter would, and on altavista's CPUs they
    # stop at quantum deadlines.  There its scan loop, an 8-record run
    # and a 2-record tail, laps inside one region step.
    def observed(fastpath):
        result, _ = run_session(get_workload(name), fastpath, 1, 60_000,
                                "default")
        return fingerprint(result), model_counters(result.machine), result
    slow = observed(False)
    monkeypatch.setattr(pipeline, "MAX_RUNS", 6)
    monkeypatch.setattr(FastPath, "MAX_VARIANTS", 1)
    monkeypatch.setattr(pipeline, "COMPILE_RUN_AT", 1)
    cut = []

    def counting(*args):
        members, step = compile_run(*args)
        span = sum(member.n for member in members)

        def counted(*args):
            state = step(*args)
            # Short of the region's end with prev_issue at the stop
            # argument: the deadline, not a direction guard, ended it.
            if state[0] < span and state[3] >= args[-2]:
                cut.append(state[0])
            return state
        return members, counted
    monkeypatch.setattr(pipeline, "compile_run", counting)
    fast = observed(True)
    assert fast[:2] == slow[:2]
    snap = fast[2].machine.fastpath.snapshot()
    assert snap["dropped_variants"] > 0
    assert snap["invalidations"] > 0
    assert snap["compiled_runs"] > 0
    assert snap["compiled_instructions"] > 0
    if name == "mccalpin-assign":
        assert snap["slow_instructions.blacklisted"] > 0
    if name == "altavista":
        assert cut    # visits a deadline stopped inside the run
        # More instructions a call than any 8-record run that does not
        # loop on itself can run: a region formed and lapped.
        assert snap["compiled_instructions"] / snap["compiled_calls"] > 8


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


SEMANTIC_OPS = sorted(
    name for name, info in OPCODES.items() if info.sem or info.cond)


@pytest.mark.parametrize("op, leg", [
    pytest.param(op, leg, id=op if leg == "replay" else op + "-" + leg)
    for leg in ("replay", "steps") for op in SEMANTIC_OPS])
def test_every_semantic_opcode_replays_open_coded(op, leg, monkeypatch):
    """Each operate / cmov / branch opcode runs through generated code
    -- a compiled replay, or on the ``steps`` leg a generated step with
    every run tiered up at its first visit and no variant compiled --
    matches the slow path, and is open-coded from its own expression:
    no per-step ``_f<i>`` call-out global."""
    text = _hot_loop(op)
    slow = observables(run_program(text, False))
    if leg == "steps":
        monkeypatch.setattr(pipeline, "COMPILE_RUN_AT", 1)
        monkeypatch.setattr(FastPath, "COMPILE_USES", 1 << 30)
    fast = run_program(text, True)
    assert observables(fast) == slow
    if leg == "replay":
        assert fast.fastpath.replayed_instructions > 0
        compiled = [(variant.fn, [step[0] for step in variant.steps])
                    for run in fast.runs.values() if run.refusal == -1
                    for variant in run.variants.values()
                    if variant.fn is not None]
    else:
        assert fast.fastpath.compiled_variants == 0
        assert fast.fastpath.compiled_instructions > 0
        compiled = [(run.step, [rec for member in run.members
                                for rec in member.recs])
                    for run in fast.runs.values() if run.step is not None]
    ops = {fast.code_map[rec[R_ADDR]].op
           for _, recs in compiled for rec in recs}
    assert op in ops
    for fn, _ in compiled:
        assert not [name for name in fn.__code__.co_names
                    if re.fullmatch(r"_f\d+", name)]


#: What a drawn loop body reads and writes: t0 counts laps, t1 points at
#: the data, t8 turns the interior branches (f9 the floating ones), t9
#: closes the loop and a5 counts the passes.
BODY_REGS = ("t2", "t3", "t4", "t5", "t6", "t7")
FLOAT_REGS = ("f2", "f3", "f4", "f5")
#: Quadword offsets from t1: the 256-byte L1D of ``SMALL`` maps 0, 256
#: and 2048 to one set, and 4096 is another page.  Offset 0 starts out
#: holding -7, a negative longword.
OFFSETS = (0, 8, 256, 2048, 4096)
#: Where floating stores go: an integer load never reads a float.
FLOAT_OFFSETS = (16, 264, 4104)


@st.composite
def region_loops(draw):
    """A loop of one to three runs: each interior run ends in a branch
    (integer or floating) that turns every 2, 4 or 8 laps, past code
    only the other laps run; the loop runs a drawn trip count, in a
    drawn number of passes.  An integer result may be tested by a
    branch over one instruction, so that values reach ground truth."""
    reg = st.sampled_from(BODY_REGS)
    freg = st.sampled_from(FLOAT_REGS)
    skips = []

    def body():
        lines = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(
                ("alu", "imm", "imul", "load", "store", "cmov", "lda",
                 "fop", "ldl", "ldt", "stl", "stt")))
            dst = draw(reg)
            if kind in ("alu", "imul", "cmov"):
                op = {"imul": st.just("mulq"),
                      "cmov": st.sampled_from(("cmovne", "cmoveq"))}.get(
                    kind, st.sampled_from(("addq", "subq", "xor", "cmpult",
                                           "s4addq")))
                line = "%s %s, %s, %s" % (draw(op), draw(reg), draw(reg),
                                          dst)
            elif kind == "imm":
                line = "%s %s, %d, %s" % (
                    draw(st.sampled_from(("and", "srl", "addq"))),
                    draw(reg), draw(st.integers(1, 63)), dst)
            elif kind == "lda":
                line = "lda %s, %d(%s)" % (
                    dst, draw(st.sampled_from((-8, 0, 24))), draw(reg))
            elif kind == "fop":
                line = "%s %s, %s, %s" % (
                    draw(st.sampled_from(("addt", "subt", "mult", "divt"))),
                    draw(freg), draw(freg), draw(freg))
            elif kind in ("ldt", "stt"):
                line = "%s %s, %d(t1)" % (
                    kind, draw(freg), draw(st.sampled_from(
                        FLOAT_OFFSETS + (OFFSETS if kind == "ldt" else ()))))
            else:
                line = "%s %s, %d(t1)" % (
                    {"load": "ldq", "store": "stq"}.get(kind, kind), dst,
                    draw(st.sampled_from(OFFSETS)))
            lines.append("    " + line)
            if (kind not in ("fop", "ldt", "store", "stl", "stt")
                    and draw(st.integers(0, 3)) == 0):
                skips.append("Lskip%d" % len(skips))
                lines += ["    %s %s, %s" % (
                    draw(st.sampled_from(("blt", "bge", "blbs", "beq"))),
                    dst, skips[-1]), "    addq  a4, 1, a4", skips[-1] + ":"]
        return lines
    text = [".image t", ".data buf, 8192", ".proc main",
            "    lda   t1, =buf",
            "    lda   v0, %d(zero)" % draw(st.integers(1, 80)),
            "    lda   a5, %d(zero)" % draw(st.integers(1, 4)),
            "    lda   t2, -7(zero)",
            "    stq   t2, 0(t1)"]
    text += ["    lda   %s, %d(zero)" % (r, 3 + i)
             for i, r in enumerate(BODY_REGS)]
    text += ["    ldt   %s, %d(t1)" % (f, 8 * i)
             for i, f in enumerate(FLOAT_REGS)]
    text += ["Lpass:", "    lda   t0, 0(zero)", "Lloop:"]
    for k in range(draw(st.integers(1, 3)) - 1):
        text += body()
        text.append("    and   t0, %d, t8" % draw(st.sampled_from((1, 3, 7))))
        branch = draw(st.sampled_from(("beq", "bne", "fbeq", "fbne")))
        if branch[0] == "f":
            text += ["    stq   t8, 32(t1)", "    ldt   f9, 32(t1)",
                     "    %s f9, Lrun%d" % (branch, k)]
        else:
            text.append("    %s t8, Lrun%d" % (branch, k))
        text += body()
        text.append("Lrun%d:" % k)
    text += body()
    text += ["    addq  t0, 1, t0", "    cmpult t0, v0, t9",
             "    bne   t9, Lloop", "    subq  a5, 1, a5",
             "    bgt   a5, Lpass", "    ret", ".end"]
    return "\n".join(text) + "\n"


#: Small caches, TLBs and write buffer, so that the drawn loops miss.
SMALL = dict(l1i=CacheConfig(256, 32, 1, 0), l1d=CacheConfig(256, 32, 1, 2),
             l2=CacheConfig(1024, 64, 2, 8),
             board=CacheConfig(4096, 64, 1, 20), itb_entries=2,
             dtb_entries=2, write_buffer_entries=2)


@settings(max_examples=examples(40), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(region_loops(), st.sampled_from(("default", "cycles", "mux")),
       st.sampled_from((None, "double", "interpret")),
       st.sampled_from((5, 0)))
def test_region_steps_match_the_interpreter(text, mode, edge_mode,
                                            penalty):
    # Every run tiers up at its first visit, so region steps form
    # wherever a run's path loops back to it, and lap, leave on a
    # direction guard, stop at the budget and deliver samples inside;
    # a mispredict may owe no cycles.
    def observed(fastpath):
        config = MachineConfig(mispredict_penalty=penalty, **SMALL)
        config.fastpath = fastpath
        options = {"edge_sampling": True, "edge_mode": edge_mode} \
            if edge_mode else {}
        session = ProfileSession(config, SessionConfig(
            mode=mode, cycles_period=(60, 64), event_period=4,
            drain_interval=2_000, seed=1, **options))
        result = session.run(Assembled(text), max_instructions=2_000)
        return fingerprint(result), model_counters(result.machine)
    slow = observed(False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "COMPILE_RUN_AT", 1)
        assert observed(True) == slow
