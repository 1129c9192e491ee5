"""Unit tests for the simulator fast path (block-level issue cache)."""

import os
import re
from unittest import mock

import pytest

from repro.alpha.assembler import assemble
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu import codegen, pipeline
from repro.cpu.caches import cache_geometry
from repro.cpu.codegen import clear_replay_cache, replay_cache_stats
from repro.cpu.config import CacheConfig, MachineConfig
from repro.cpu.events import EventType
from repro.cpu.fastpath import (BAIL_REASONS, BIGCODE, MAX_RUN,
                                SLOW_CAUSES, TRACE_EXITS)
from repro.cpu.machine import Machine
from repro.cpu.writebuffer import WriteBuffer
from repro.obs import schema as schema_module
from repro.obs.schema import (derive, fastpath_metrics,
                              session_metrics)
from repro.tools.abcheck import fingerprint, model_counters, run_session
from repro.workloads.asmgen import loop_proc
from repro.workloads.registry import get_workload, workload_names


def run_loop(iters=400, flavor="int", fastpath=True, data="", **kw):
    config = MachineConfig()
    config.fastpath = fastpath
    machine = Machine(config, seed=1)
    text = loop_proc("work", iters, flavor, **kw)
    image = machine.load_image(
        assemble(".image t\n%s%s" % (data, text)))
    machine.spawn(image)
    machine.run(max_instructions=500_000)
    return machine


def variants(machine):
    """Every schedule the fast path holds: the blocks' in the run cache."""
    return [variant for run in machine.runs.values() if run.refusal == -1
            for variant in run.variants.values()]


class TestCacheGeometry:
    def test_direct_mapped_power_of_two(self):
        geom = cache_geometry(CacheConfig(8192, 32, 1, 2))
        assert geom == (5, 255)

    def test_set_associative_rejected(self):
        assert cache_geometry(CacheConfig(8192, 32, 2, 2)) is None

    def test_non_power_of_two_sets_rejected(self):
        # 96KB 1-way with 64B lines: 1536 sets.
        assert cache_geometry(CacheConfig(96 * 1024, 64, 1, 3)) is None


class TestConfigKnob:
    def test_default_on(self):
        machine = Machine(MachineConfig(), seed=1)
        assert machine.fastpath is not None

    def test_config_off(self):
        config = MachineConfig()
        config.fastpath = False
        machine = Machine(config, seed=1)
        assert machine.fastpath is None

    def test_env_var_disables(self):
        with mock.patch.dict(os.environ, {"REPRO_SIM_FASTPATH": "0"}):
            assert MachineConfig().fastpath is False


class TestDiscovery:
    def test_jump_to_unmapped_code_raises(self):
        # The gate and the slow path share one run lookup: there is no
        # run at an unmapped address, so the lookup raises and nothing
        # is cached for it.
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(
            ".image t\n.proc main\n    lda t0, =0x900000\n"
            "    jmp (t0)\n.end\n"))
        machine.spawn(image)
        with pytest.raises(RuntimeError, match="unmapped pc 0x900000"):
            machine.run(max_instructions=100)
        assert 0x900000 not in machine.runs
        assert machine.runs[image.entry()].refusal == -1

    def test_hot_loop_discovers_blocks(self):
        machine = run_loop()
        fp = machine.fastpath
        assert any(run.refusal == -1 for run in machine.runs.values())
        assert fp.replays > 0
        assert fp.replayed_instructions > 0

    def test_load_image_invalidates(self):
        machine = run_loop()
        fp = machine.fastpath
        assert machine.runs and fp.snapshot()["blocks"]
        machine.load_image(
            assemble(".image u\n" + loop_proc("other", 3, "int")))
        assert not machine.runs and not fp.snapshot()["blocks"]
        assert fp.invalidations >= 1


class TestTiering:
    def test_hot_variants_compile_cold_stay_interpreted(self):
        machine = run_loop(iters=400)
        fp = machine.fastpath
        compiled = [v for v in variants(machine) if v.fn is not None]
        cold = [v for v in variants(machine) if v.fn is None]
        # The loop body recurs hundreds of times: it must tier up.
        assert compiled
        assert fp.compiled_variants == len(compiled)
        # Cold variants keep accumulating uses below the threshold
        # instead of being re-recorded.
        for variant in cold:
            assert variant.uses < fp.COMPILE_USES

    def test_single_shot_code_never_compiles(self):
        # One pass over straight-line code: every variant is seen once.
        machine = run_loop(iters=1)
        fp = machine.fastpath
        assert fp.compiled_variants <= fp.recordings


class TestHeadroomGate:
    @pytest.mark.parametrize("name,mode", [
        ("wave5", "default"), ("gcc", "cycles"), ("timesharing", "mux")])
    def test_a_refusal_is_counted_once(self, name, mode):
        # Each refusal hands the block to the slow path, which
        # overflows the counter inside it: refusals cannot outnumber
        # CYCLES samples by more than the one block per CPU the budget
        # cut short.
        workload = get_workload(name)
        session = ProfileSession(
            MachineConfig(num_cpus=workload.num_cpus),
            SessionConfig(mode=mode, cycles_period=(240, 256),
                          event_period=64, seed=1))
        result = session.run(workload, max_instructions=60_000)
        skips = result.machine.fastpath.headroom_skips
        assert 0 < skips <= (result.total_samples(EventType.CYCLES)
                             + workload.num_cpus)


class TestSlowCauses:
    @pytest.mark.parametrize("mode", ["default", "cycles", "mux"])
    def test_causes_sum_to_the_instructions_not_replayed(self, mode):
        # Every slow-path instruction belongs to the segment one gate
        # refusal (or bail) began, on every registered workload.
        totals = dict.fromkeys(SLOW_CAUSES, 0)
        for name in workload_names():
            workload = get_workload(name)
            session = ProfileSession(
                MachineConfig(num_cpus=workload.num_cpus),
                SessionConfig(mode=mode, cycles_period=(240, 256),
                              event_period=64, seed=1))
            result = session.run(workload, max_instructions=50_000)
            snap = result.machine.fastpath.snapshot()
            for cause in SLOW_CAUSES:
                totals[cause] += snap["slow_instructions." + cause]
            assert (sum(snap["slow_instructions." + cause]
                        for cause in SLOW_CAUSES)
                    == result.instructions - snap["replayed_instructions"])
        assert sum(1 for count in totals.values() if count) >= 9, totals


class TestGeneratedSteps:
    def test_laps_change_time_only(self, monkeypatch):
        # A loop's generated step runs the visits after the first as
        # laps of one call.  The gate would have refused each for the
        # run's own cause, so every count -- the slow-path causes
        # included -- is the one the dispatch loop reaches visit by
        # visit.
        def observed():
            result, _ = run_session(get_workload("mccalpin-sum"), True, 1,
                                    60_000, "default")
            snap = result.machine.fastpath.snapshot()
            calls = snap.pop("compiled_calls")
            return (fingerprint(result), model_counters(result.machine),
                    snap, calls)
        lapped = observed()
        monkeypatch.setattr(pipeline, "loops", lambda recs: False)
        visit_by_visit = observed()
        assert lapped[:3] == visit_by_visit[:3]
        assert lapped[2]["compiled_instructions"] > 0
        assert lapped[3] * 10 < visit_by_visit[3]


class TestDeferredGroundTruth:
    def test_flush_leaves_no_pending_hits(self):
        # A loop whose loads and stores miss now and then: its replays
        # bail, so prefixes of its variant and its trace are cached.
        machine = run_loop(flavor="mem", data=".data heap, 4096\n",
                           buf="heap", wrap=256, stride=16)
        fp = machine.fastpath
        # Core.run flushed the deferred hit counts into the
        # ground-truth dicts before returning: no variant, compiled
        # trace or cached prefix still holds any.
        assert not fp.deferred
        units = variants(machine)
        units += {id(v.trace): v.trace for v in units
                  if v.trace and v.trace.fn}.values()
        prefixes = [p for unit in units for p in unit.prefixes.values()]
        assert prefixes
        assert not any(unit.hits for unit in units + prefixes)


class TestSnapshotAndObs:
    def test_snapshot_keys(self):
        # The schema's docstring table and snapshot() name the same
        # sim.fastpath.* rows, in both directions.
        machine = run_loop()
        snap = machine.fastpath.snapshot()
        rows = set(re.findall(r"^``sim\.fastpath\.(\S+)``",
                              schema_module.__doc__, re.M))
        for row, names in (("bails.<reason>", BAIL_REASONS),
                           ("slow_instructions.<cause>", SLOW_CAUSES),
                           ("trace_exits.<kind>", TRACE_EXITS)):
            rows.remove(row)
            rows.update(row.split(".")[0] + "." + name for name in names)
        assert set(snap) == rows
        assert snap["replays"] >= 1
        assert snap["variants"] >= 1

    def test_session_metrics_include_fastpath(self):
        session = ProfileSession(MachineConfig(), SessionConfig(seed=1))
        result = session.run(get_workload("wave5"),
                             max_instructions=20_000)
        flat = derive(session_metrics(result))
        assert flat["sim.fastpath.replays"] > 0
        assert 0.0 <= flat["sim.fastpath.replay_fraction"] <= 1.0
        assert flat["sim.fastpath.bail_rate"] >= 0.0

    def test_every_bail_carries_a_reason(self):
        # x11perf's replays are stopped by the I-side, the write
        # buffer and the D-cache alike.
        _, fp = profiled("x11perf")
        flat = derive(fastpath_metrics(fp))
        by_reason = {key.rpartition(".")[2]: value
                     for key, value in flat.items()
                     if key.startswith("sim.fastpath.bails.")}
        assert sorted(by_reason) == sorted(BAIL_REASONS)
        assert sum(by_reason.values()) == flat["sim.fastpath.bails"] > 0
        assert sum(1 for count in by_reason.values() if count) >= 3


def run_profiled(name="gcc", fastpath=True, l1d=None):
    """One profiled session at the bench period."""
    workload = get_workload(name)
    config = MachineConfig(num_cpus=workload.num_cpus)
    config.fastpath = fastpath
    if l1d is not None:
        config.l1d = l1d
    session = ProfileSession(
        config, SessionConfig(mode="default", cycles_period=(240, 256),
                              event_period=64, seed=1))
    return session.run(workload, max_instructions=30_000)


def profiled(name="gcc", fastpath=True, l1d=None):
    """(fingerprint bytes, FastPath or None) of :func:`run_profiled`."""
    result = run_profiled(name, fastpath, l1d)
    return fingerprint(result), result.machine.fastpath


def compiled_fns(machine):
    return {variant.fn for variant in variants(machine)
            if variant.fn is not None}


class TestReplayCodeCache:
    """The process-wide replay-code cache may change time only."""

    def test_cold_warm_and_cleared_runs_are_identical(self):
        clear_replay_cache()
        _, misses0, _ = replay_cache_stats()
        cold_print, cold = profiled()
        hits1, misses1, entries = replay_cache_stats()
        assert cold.compiled_variants > 0
        assert 0 < entries <= misses1 - misses0
        warm_print, warm = profiled()
        hits2, misses2, _ = replay_cache_stats()
        # The second Machine compiled nothing and still tiered up the
        # same variants, and formed the same traces, after the same
        # COMPILE_USES visits.
        assert misses2 == misses1
        assert warm.traces > 0
        assert hits2 - hits1 == warm.compiled_variants + warm.traces
        clear_replay_cache()
        assert replay_cache_stats()[2] == 0
        again_print, again = profiled()
        assert cold_print == warm_print == again_print
        assert cold.snapshot() == warm.snapshot() == again.snapshot()

    def test_machines_share_functions_not_copies(self):
        clear_replay_cache()
        fns = [compiled_fns(run_profiled().machine) for _ in range(2)]
        assert fns[0] and fns[0] == fns[1]
        assert len({id(fn.__globals__) for fn in fns[0]}) == 1

    def test_other_cache_geometry_shares_nothing_wrongly(self):
        # Replay code inlines direct-mapped tag probes, so a machine
        # whose L1D the probe cannot describe has no fast path at all
        # (chosen from the config it is given, not by an option) and
        # nothing to share or compile.
        clear_replay_cache()
        assert profiled()[1].compiled_variants > 0
        stats = replay_cache_stats()
        two_way = CacheConfig(8192, 32, 2, 2)
        fast_print, fast = profiled(l1d=two_way)
        assert fast is None
        assert replay_cache_stats() == stats
        slow_print, _ = profiled(fastpath=False, l1d=two_way)
        assert fast_print == slow_print

    def test_filling_past_the_bound_clears_and_keeps_running(
            self, monkeypatch):
        clear_replay_cache()
        unbounded_print, unbounded = profiled()
        assert replay_cache_stats()[2] > 3
        clear_replay_cache()
        monkeypatch.setattr(codegen, "REPLAY_CACHE_MAX", 3)
        _, misses0, _ = replay_cache_stats()
        bounded_print, bounded = profiled()
        _, misses1, entries = replay_cache_stats()
        assert 0 < entries <= 3
        assert misses1 - misses0 > 3
        assert bounded_print == unbounded_print
        assert bounded.snapshot() == unbounded.snapshot()


class TestCleanPrefix:
    """A replay function holds hit paths only: whatever a miss does is
    written once, in the slow path."""

    def test_generated_code_never_calls_the_model(self, monkeypatch):
        sources = []

        def capture(source, filename, *args):
            if filename == "<fastpath-variant>":
                sources.append(source)
            return compile(source, filename, *args)
        monkeypatch.setattr(codegen, "compile", capture, raising=False)
        clear_replay_cache()
        _, fp = profiled("gcc")
        # Every variant and every trace compiled its own source text.
        assert fp.traces > 10
        assert len(sources) == fp.compiled_variants + fp.traces > 50
        for source in sources:
            for call in ("_fetch(", "translate(", ".access(",
                         "miss_path(", ".lookup(", ".settle("):
                assert call not in source, source
        # ...and the probes that replace those calls are there.
        for reason in range(len(BAIL_REASONS)):
            assert any("return (%d, " % reason in s for s in sources)

    def test_store_merge_calls_no_write_buffer_method(self, monkeypatch):
        # A store to a resident block still draining at issue merges
        # in line, on both paths: no earliest_issue or commit.
        calls = {"earliest_issue": 0, "commit": 0}
        merging = []

        def spy(name):
            real = getattr(WriteBuffer, name)

            def method(self, *args):
                calls[name] += 1
                done = self._entries.get(args[0] >> self.BLOCK_SHIFT)
                if done is not None and done > args[1]:
                    merging.append((name, args))
                return real(self, *args)
            monkeypatch.setattr(WriteBuffer, name, method)
        for name in calls:
            spy(name)
        machine = run_loop(iters=600, flavor="mem", buf="buf", stride=8,
                           data=".data buf, 8192\n")
        wb = machine.cores[0].wb
        assert machine.fastpath.replayed_instructions > 1000
        assert wb.merges > 100
        assert not merging
        # Every commit allocates.
        assert calls["earliest_issue"] > 0
        assert calls["commit"] == wb.allocations

    def test_run_cut_by_max_run_is_bigcode(self):
        text = (".image t\n.proc work\n"
                + "    addq t0, 1, t0\n" * 60 + "    ret\n.end\n")
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(text))
        machine.spawn(image)
        machine.run(max_instructions=1_000)
        head = machine.runs[image.entry()]
        assert head.n == MAX_RUN and head.refusal == BIGCODE
        # The slow path went on in the next run, which the gate never
        # met; its straight line ends in the ret, so it is a block.
        tail = machine.runs[head.end]
        assert tail.refusal is None
        assert machine.fastpath.discover(tail) == -1
        assert tail.n == 61 - MAX_RUN and tail.recs[-1][13]


class TestDcpiabThreeLegs:
    def test_summary_line_reports_legs_and_cache(self, capsys):
        from repro.tools.abcheck import main

        assert main(["wave5", "--max-instructions", "20000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert re.fullmatch(
            r"wave5 +identical +slow=\S+s fast=\S+s warm=\S+s x\S+ "
            r"replay=\d+%", out[0])
        summary = re.fullmatch(
            r"dcpiab: 1/1 workloads byte-identical on 3 legs "
            r"\(cold fast, warm fast, slow\); "
            r"replay cache (\d+) hits, (\d+) misses; "
            r"(\d+) compiled runs, (\d+) compiled calls; "
            r"(\d+) trace entries, exits (.*)", out[-1])
        assert summary
        # The warm leg found what the cold leg compiled.
        assert int(summary.group(1)) > 0 and int(summary.group(2)) > 0
        exits = dict(item.split("=") for item in summary.group(6).split())
        assert list(exits) == list(TRACE_EXITS)
        assert sum(map(int, exits.values())) == int(summary.group(5)) > 0

    def test_compiled_steps_count_the_same_on_cold_and_warm_legs(
            self, monkeypatch):
        from repro.tools import abcheck

        # Generated steps run slow-path instructions, and whether a
        # step was generated or found in the code cache changes no
        # count.
        real = abcheck.run_session
        legs = []

        def run_session(*args):
            result, wall = real(*args)
            legs.append(result.machine.fastpath)
            return result, wall
        monkeypatch.setattr(abcheck, "run_session", run_session)
        identical, _, snap = abcheck.check_workload(
            get_workload("dss"), max_instructions=30_000)
        assert identical
        cold, warm = legs[0].snapshot(), legs[1].snapshot()
        for key in ("compiled_runs", "compiled_instructions",
                    "compiled_calls"):
            assert cold[key] == warm[key] == snap[key]
        assert snap["compiled_runs"] > 0
        assert 0 < snap["compiled_instructions"] <= sum(
            snap["slow_instructions." + cause] for cause in SLOW_CAUSES)
        assert 0 < snap["compiled_calls"] <= snap["compiled_instructions"]

    def test_warm_leg_divergence_is_named(self, monkeypatch):
        from repro.tools import abcheck

        # A cache that changed a count, not only time: the warm leg's
        # Machine reports one replay too many.
        real = abcheck.run_session
        legs = []

        def run_session(*args):
            result, wall = real(*args)
            legs.append(result)
            if len(legs) == 2:
                result.machine.fastpath.replays += 1
            return result, wall
        monkeypatch.setattr(abcheck, "run_session", run_session)
        identical, line, _ = abcheck.check_workload(
            get_workload("wave5"), max_instructions=20_000)
        assert not identical
        assert "DIFFERS(warm)" in line

    def test_model_counter_divergence_is_named(self, monkeypatch):
        from repro.tools import abcheck

        # Same profiles and ground truth, one D-TLB hit counted twice on
        # the slow leg's second core: only model_counters can see it.
        real = abcheck.run_session
        legs = []

        def run_session(*args):
            result, wall = real(*args)
            legs.append(result)
            if len(legs) == 3:
                result.machine.cores[1].dtb.hits += 1
            return result, wall
        monkeypatch.setattr(abcheck, "run_session", run_session)
        identical, line, _ = abcheck.check_workload(
            get_workload("altavista"), max_instructions=20_000)
        assert not identical
        assert "DIFFERS(slow)" in line
        assert (abcheck.fingerprint(legs[2])
                == abcheck.fingerprint(legs[0]))


class TestCyclesCountedInLine:
    """``Core.run`` holds CYCLES spans back below the slots' headroom
    and calls ``CounterUnit.add`` only when an overflow is due and at
    run exit: every cycle must still be counted exactly once in every
    slot, on both paths."""

    @pytest.mark.parametrize("periods", [(256,), (61, 97), (64, 97, 1)])
    def test_every_cycle_counted_once_per_slot(self, periods):
        streams = []
        for fast in (True, False):
            config = MachineConfig()
            config.fastpath = fast
            machine = Machine(config, seed=1)
            core = machine.cores[0]
            for period in periods:
                core.counters.configure(EventType.CYCLES,
                                        lambda period=period: period)
            samples = []
            core.sample_sink = (
                lambda cpu, pid, pc, event, when:
                samples.append((pc, event, when)) or 0)
            image = machine.load_image(assemble(
                ".image t\n" + loop_proc("work", 300, "branchy")))
            machine.spawn(image)
            machine.run(max_instructions=500_000)
            for slot in core.counters.slots:
                assert slot.count < slot.period
                assert (slot.overflows * slot.period + slot.count
                        == core.time - 1)
            if fast and min(periods) > 1:
                assert machine.fastpath.replays > 0
            streams.append(samples)
        assert streams[0] == streams[1]
