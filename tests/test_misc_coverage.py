"""Coverage for remaining corners: driver mux, machine helpers,
bundles with pathname images, database raw format, registers."""

import pytest

from repro.alpha import regs
from repro.alpha.assembler import assemble
from repro.collect.driver import Driver
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.cpu.machine import Machine


class TestRegisters:
    def test_aliases(self):
        assert regs.parse_register("v0") == 0
        assert regs.parse_register("sp") == 30
        assert regs.parse_register("zero") == 31
        assert regs.parse_register("fp") == regs.parse_register("s6")
        assert regs.parse_register("pv") == regs.parse_register("t12")

    def test_fp_registers_offset(self):
        assert regs.parse_register("f0") == 32
        assert regs.parse_register("f31") == 63
        assert regs.is_fp(40)
        assert not regs.is_fp(5)

    def test_display_names_round_trip(self):
        for name in ("t0", "a3", "ra", "sp", "f7"):
            num = regs.parse_register(name)
            assert regs.parse_register(regs.register_name(num)) == num

    def test_is_register(self):
        assert regs.is_register("T4")  # case-insensitive
        assert not regs.is_register("t99")


class TestDriverMux:
    def test_rotate_cycles_through_events(self):
        machine = Machine(MachineConfig(), seed=1)
        driver = Driver(1, SessionConfig(mode="mux"))
        driver.install(machine)
        core = machine.cores[0]

        def current_event():
            return core.counters.slots[1].event

        seen = [current_event()]
        for _ in range(3):
            driver.rotate_mux()
            seen.append(current_event())
        assert seen[0] == seen[3]  # wrapped around
        assert len(set(seen[:3])) == 3

    def test_rotate_noop_for_default_mode(self):
        machine = Machine(MachineConfig(), seed=1)
        driver = Driver(1, SessionConfig(mode="default"))
        driver.install(machine)
        driver.rotate_mux()  # must not raise
        assert len(machine.cores[0].counters.slots) == 2

    def test_cost_scale_auto_derivation(self):
        paper = Driver(1, SessionConfig(
            cycles_period=(62 * 1024, 62 * 1024)))
        assert paper.cost_scale == pytest.approx(1.0)
        scaled = Driver(1, SessionConfig(cycles_period=(620, 620)))
        assert scaled.cost_scale == pytest.approx(620 / (62 * 1024))

    def test_kernel_memory_scales_with_cpus(self):
        one = Driver(1, SessionConfig()).kernel_memory_bytes()
        four = Driver(4, SessionConfig()).kernel_memory_bytes()
        assert four == 4 * one


class TestMachineHelpers:
    PROGRAM = """
.image m
.proc main
    lda t0, 50(zero)
top:
    subq t0, 1, t0
    bgt t0, top
    ret
.end
"""

    def test_true_counts_and_head_cycles(self):
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(self.PROGRAM))
        machine.spawn(image)
        machine.run()
        counts = machine.true_counts_for(image)
        subq = image.instructions[1]
        assert counts[subq.addr] == 50
        assert machine.gt_head[subq.addr] >= 50
        assert set(counts) == {i.addr for i in image.instructions}

    def test_time_is_max_over_cores(self):
        machine = Machine(MachineConfig(num_cpus=2), seed=1)
        image = machine.load_image(assemble(self.PROGRAM))
        machine.spawn(image)  # only one process: core 1 stays idle
        machine.run()
        assert machine.time == machine.cores[0].time

    def test_image_transform_applied_once(self):
        calls = []
        machine = Machine(MachineConfig(), seed=1)

        def transform(image):
            calls.append(image.name)
            return image

        machine.image_transform = transform
        image = machine.load_image(assemble(self.PROGRAM))
        machine.load_image(image)  # already linked: no second transform
        assert calls == ["m"]


class TestBundlePathnames:
    def test_multi_image_bundle_with_slashes(self, tmp_path):
        from repro.collect.bundle import load_bundle, save_bundle
        from repro.workloads import x11perf

        session = ProfileSession(
            MachineConfig(),
            SessionConfig(cycles_period=(200, 256), event_period=64))
        result = session.run(x11perf.build(scale=4, rounds=4),
                             max_instructions=100_000)
        save_bundle(result, str(tmp_path / "b"))
        profiles, meta = load_bundle(str(tmp_path / "b"))
        # Pathname-style image names survive the flattened file names.
        assert any("/" in name for name in profiles)
        for name, profile in profiles.items():
            original = result.profile_for(name)
            assert (profile.total(EventType.CYCLES)
                    == original.total(EventType.CYCLES))


class TestSchedulerEdgeCases:
    def test_run_with_no_processes(self):
        machine = Machine(MachineConfig(), seed=1)
        assert machine.run() == 0

    def test_exited_process_not_resubmitted(self):
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(TestMachineHelpers.PROGRAM))
        proc = machine.spawn(image)
        machine.run()
        retired = machine.instructions_retired
        machine.run()
        assert machine.instructions_retired == retired
        assert proc.exited
