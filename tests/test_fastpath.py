"""Unit tests for the simulator fast path (block-level issue cache)."""

import os
import re
from unittest import mock

import pytest

from repro.alpha.assembler import assemble
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu import fastpath as fastpath_module
from repro.cpu.config import CacheConfig, MachineConfig
from repro.cpu.events import EventType
from repro.cpu.fastpath import (BAIL_REASONS, cache_geometry,
                                clear_replay_cache, replay_cache_stats)
from repro.cpu.machine import Machine
from repro.obs import schema as schema_module
from repro.obs.schema import (derive, fastpath_metrics,
                              session_metrics)
from repro.tools.abcheck import fingerprint
from repro.workloads.asmgen import loop_proc
from repro.workloads.registry import get_workload


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
    def test_unknown_address_blacklisted(self):
        fp = Machine(MachineConfig(), seed=1).fastpath
        assert fp.discover(0x1000) is False
        # The negative result is cached.
        assert fp.blocks[0x1000] is False

    def test_hot_loop_discovers_blocks(self):
        machine = run_loop()
        fp = machine.fastpath
        assert any(block for block in fp.blocks.values() if block)
        assert fp.replays > 0
        assert fp.replayed_instructions > 0

    def test_load_image_invalidates(self):
        machine = run_loop()
        fp = machine.fastpath
        assert fp.blocks
        machine.load_image(
            assemble(".image u\n" + loop_proc("other", 3, "int")))
        assert not fp.blocks
        assert fp.invalidations >= 1


class TestTiering:
    def test_hot_variants_compile_cold_stay_interpreted(self):
        machine = run_loop(iters=400)
        fp = machine.fastpath
        compiled = [v for b in fp.blocks.values() if b
                    for v in b.variants.values() if v.fn is not None]
        cold = [v for b in fp.blocks.values() if b
                for v in b.variants.values() if v.fn is None]
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


class TestDeferredGroundTruth:
    def test_flush_leaves_no_pending_hits(self):
        machine = run_loop()
        fp = machine.fastpath
        # Core.run flushed the deferred per-variant hit counts into
        # the ground-truth dicts before returning.
        assert not fp.deferred
        for block in fp.blocks.values():
            if not block:
                continue
            for variant in block.variants.values():
                assert variant.hits == 0


class TestSnapshotAndObs:
    def test_snapshot_keys(self):
        # The schema's docstring table and snapshot() name the same
        # sim.fastpath.* rows, in both directions.
        machine = run_loop()
        snap = machine.fastpath.snapshot()
        rows = set(re.findall(r"^``sim\.fastpath\.(\S+)``",
                              schema_module.__doc__, re.M))
        rows.remove("bails.<reason>")
        rows.update("bails." + reason for reason in BAIL_REASONS)
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


def profiled(name="gcc", fastpath=True, l1d=None):
    """One profiled session at the bench period; returns
    (fingerprint bytes, FastPath or None)."""
    workload = get_workload(name)
    config = MachineConfig(num_cpus=workload.num_cpus)
    config.fastpath = fastpath
    if l1d is not None:
        config.l1d = l1d
    session = ProfileSession(
        config, SessionConfig(mode="default", cycles_period=(240, 256),
                              event_period=64, seed=1))
    result = session.run(workload, max_instructions=30_000)
    return fingerprint(result), result.machine.fastpath


def compiled_fns(fp):
    return {variant.fn for block in fp.blocks.values() if block
            for variant in block.variants.values()
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
        # same variants after the same COMPILE_USES visits.
        assert misses2 == misses1
        assert hits2 - hits1 == warm.compiled_variants
        clear_replay_cache()
        assert replay_cache_stats()[2] == 0
        again_print, again = profiled()
        assert cold_print == warm_print == again_print
        assert cold.snapshot() == warm.snapshot() == again.snapshot()

    def test_machines_share_functions_not_copies(self):
        clear_replay_cache()
        fns = [compiled_fns(profiled()[1]) for _ in range(2)]
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
        monkeypatch.setattr(fastpath_module, "REPLAY_CACHE_MAX", 3)
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

    def test_generated_code_never_calls_the_model(self):
        clear_replay_cache()
        _, fp = profiled("gcc")
        # The replay-code cache is keyed by generated source text.
        sources = list(fastpath_module._replay_cache)
        assert len(sources) == fp.compiled_variants > 50
        for source in sources:
            for call in ("_fetch(", "translate(", ".access(",
                         "miss_path(", ".lookup("):
                assert call not in source, source
        # ...and the probes that replace those calls are there.
        for reason in range(len(BAIL_REASONS)):
            assert any("return (%d, " % reason in s for s in sources)

    def test_run_longer_than_max_body_is_not_cached(self):
        text = (".image t\n.proc work\n"
                + "    addq t0, 1, t0\n" * 60 + "    ret\n.end\n")
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(text))
        machine.spawn(image)
        machine.run(max_instructions=1_000)
        fp = machine.fastpath
        assert fp.blocks[image.entry()] is False
        # A tail no longer than MAX_BODY is an ordinary block.
        tail = fp.discover(image.entry() + 4 * 20)
        assert tail and len(tail.recs) == 41 and tail.recs[-1][13]


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
            r"replay cache (\d+) hits, (\d+) misses", out[-1])
        assert summary
        # The warm leg found what the cold leg compiled.
        assert int(summary.group(1)) > 0 and int(summary.group(2)) > 0

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
        identical, line = abcheck.check_workload(
            get_workload("wave5"), max_instructions=20_000)
        assert not identical
        assert "DIFFERS(warm)" in line


class TestCyclesCountedInLine:
    """``Core.run`` adds CYCLES spans to the slots in line and calls
    ``CounterUnit.add`` only when an overflow is due: every cycle must
    still be counted exactly once in every slot, on both paths."""

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
