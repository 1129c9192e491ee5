"""Tests for the synthetic workloads: they must run, terminate (or
sustain), and exhibit the profile shapes the paper attributes to them."""

import pytest

from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.cpu.machine import Machine
from repro.obs import derive
from repro.workloads import altavista, dss, gcc, mccalpin, wave5, x11perf
from repro.workloads import timesharing
from repro.workloads.generator import GeneratedProgram, generate_suite
from repro.workloads.registry import get_workload, workload_names


def run_profiled(workload, max_instructions=60_000, seed=1, period=(200, 256)):
    config = MachineConfig(num_cpus=workload.num_cpus)
    session = ProfileSession(
        config, SessionConfig(cycles_period=period, event_period=64,
                              seed=seed))
    return session.run(workload, max_instructions=max_instructions)


class TestRegistry:
    def test_all_names_construct(self):
        for name in workload_names():
            workload = get_workload(name)
            assert workload.num_cpus >= 1

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("quake")


class TestMcCalpin:
    @pytest.mark.parametrize("kernel", mccalpin.KERNELS)
    def test_kernels_terminate(self, kernel):
        machine = Machine(MachineConfig(), seed=1)
        mccalpin.build(kernel, n=512, iterations=1).setup(machine)
        machine.run()
        assert machine.processes[0].exited

    def test_assign_copies_data(self):
        machine = Machine(MachineConfig(), seed=1)
        workload = mccalpin.build("assign", n=64, iterations=1)
        workload.setup(machine)
        proc = machine.processes[0]
        image = proc.images[0]
        src = image.symbols.resolve("a")
        proc.memory[src + 8] = 77
        machine.run()
        dst = image.symbols.resolve("c")
        assert proc.memory.get(dst + 8) == 77

    def test_profile_dominated_by_kernel_procedure(self):
        result = run_profiled(mccalpin.build("assign", n=4096,
                                             iterations=3))
        totals = result.profile_for("mccalpin").procedure_totals(
            EventType.CYCLES)
        assert totals["assign"] == max(totals.values())


class TestX11Perf:
    def test_samples_across_images(self):
        result = run_profiled(x11perf.build(scale=6, rounds=10),
                              max_instructions=150_000)
        assert "/vmunix" in result.profiles
        assert "/usr/shlib/X11/lib_dec_ffb_ev5.so" in result.profiles

    def test_zero_poly_arc_is_hottest(self):
        result = run_profiled(x11perf.build(scale=6, rounds=10),
                              max_instructions=150_000)
        totals = {}
        for profile in result.profiles.values():
            totals.update(profile.procedure_totals(EventType.CYCLES))
        hottest = max(totals, key=totals.get)
        assert hottest == "ffb8ZeroPolyArc"


class TestWave5:
    def test_runs_and_profiles(self):
        result = run_profiled(wave5.build(scale=6, rounds=4),
                              max_instructions=120_000)
        totals = result.profile_for("wave5").procedure_totals(
            EventType.CYCLES)
        assert totals["parmvr_"] > 0
        assert totals["smooth_"] > 0

    def test_parmvr_dominates(self):
        result = run_profiled(wave5.build(scale=6, rounds=4),
                              max_instructions=120_000)
        totals = result.profile_for("wave5").procedure_totals(
            EventType.CYCLES)
        assert totals["parmvr_"] == max(totals.values())

    def test_smooth_varies_across_seeds(self):
        counts = []
        for seed in (1, 2, 3, 4):
            result = run_profiled(wave5.build(scale=6, rounds=4),
                                  max_instructions=100_000, seed=seed)
            totals = result.profile_for("wave5").procedure_totals(
                EventType.CYCLES)
            counts.append(totals["smooth_"])
        spread = (max(counts) - min(counts)) / (sum(counts) / len(counts))
        assert spread > 0.02  # page mapping moves smooth_'s cost


class TestGcc:
    def test_many_pids(self):
        result = run_profiled(gcc.build(files=12, scale=20),
                              max_instructions=80_000)
        pids = {p.pid for p in result.machine.processes}
        assert len(pids) == 12

    def test_high_eviction_rate_vs_mccalpin(self):
        gcc_result = run_profiled(gcc.build(files=12, scale=20),
                                  max_instructions=80_000)
        mc_result = run_profiled(mccalpin.build("assign", n=4096,
                                                iterations=3),
                                 max_instructions=80_000)
        assert (derive(gcc_result.metrics())["driver.hash.miss_rate"]
                > 3 * derive(mc_result.metrics())["driver.hash.miss_rate"])


class TestMultiprocessor:
    def test_altavista_uses_all_cpus(self):
        result = run_profiled(altavista.build(queries=8, scale=4),
                              max_instructions=80_000)
        busy = [c.instructions_retired for c in result.machine.cores]
        assert len(busy) == 4
        assert all(b > 0 for b in busy)

    def test_dss_eight_cpus(self):
        result = run_profiled(dss.build(workers=8, scale=3),
                              max_instructions=80_000)
        assert len(result.machine.cores) == 8

    def test_timesharing_many_images(self):
        result = run_profiled(timesharing.build(processes=10, scale=6),
                              max_instructions=80_000)
        assert len(result.profiles) >= 3


class TestGenerator:
    def test_programs_assemble_and_terminate(self):
        for workload in generate_suite(count=4, base_seed=7, rounds=2):
            machine = Machine(MachineConfig(), seed=1)
            workload.setup(machine)
            machine.run(max_instructions=300_000)
            assert machine.processes[0].exited, workload.name

    def test_deterministic_across_machines(self):
        workload = GeneratedProgram(seed=42, rounds=2)
        counts = []
        for _ in range(2):
            machine = Machine(MachineConfig(), seed=5)
            workload.setup(machine)
            machine.run()
            counts.append(sorted(machine.gt_count.values()))
        assert counts[0] == counts[1]

    def test_distinct_seeds_distinct_programs(self):
        a = GeneratedProgram(seed=1)._asm()
        b = GeneratedProgram(seed=2)._asm()
        assert a != b

    def test_branches_both_ways(self):
        workload = GeneratedProgram(seed=11, rounds=4)
        machine = Machine(MachineConfig(), seed=1)
        workload.setup(machine)
        machine.run(max_instructions=200_000)
        # Some conditional branch must have a taken and a fallthrough
        # edge (otherwise the suite cannot exercise edge estimation).
        by_src = {}
        for (src, dst), count in machine.gt_edges.items():
            by_src.setdefault(src, set()).add(dst)
        assert any(len(dsts) == 2 for dsts in by_src.values())
