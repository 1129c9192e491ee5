"""Cross-module integration tests and end-to-end invariants."""

from hypothesis import given, settings, strategies as st

from conftest import examples
from repro.alpha.assembler import assemble
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.cpu.machine import Machine


class TestSampleConservation:
    """Every sample taken by the driver must reach a profile (or be
    explicitly accounted as dropped/unknown)."""

    def test_driver_to_daemon_conservation(self):
        from conftest import make_copy_workload

        session = ProfileSession(
            MachineConfig(),
            SessionConfig(cycles_period=(60, 64), event_period=32))
        result = session.run(make_copy_workload(n=6000))
        taken = sum(result.driver.event_samples.values())
        landed = sum(profile.total(event)
                     for profile in result.profiles.values()
                     for event in EventType)
        unknown = result.daemon.unknown_samples
        dropped = sum(s.dropped for s in result.driver.cpus)
        assert taken == landed + unknown + dropped

    def test_db_round_trip_conserves_counts(self, tmp_path):
        from conftest import make_copy_workload

        session = ProfileSession(
            MachineConfig(),
            SessionConfig(cycles_period=(120, 128),
                          db_root=str(tmp_path / "db")))
        result = session.run(make_copy_workload(n=3000))
        stored, _ = result.database.load("copy.prog", EventType.CYCLES)
        live = result.profile_for("copy.prog").counts[EventType.CYCLES]
        assert stored == live


class TestContextSwitchIsolation:
    """Two interleaved processes must not corrupt each other."""

    PROGRAM = """
.image iso{tag}
.data acc, 64
.proc main
    lda t1, =acc
    lda t0, {n}(zero)
    lda t3, 0(zero)
top:
    addq t3, {step}, t3
    subq t0, 1, t0
    bgt t0, top
    stq t3, 0(t1)
    ret
.end
"""

    def test_interleaved_processes_compute_independently(self):
        config = MachineConfig(quantum=300)  # force many switches
        machine = Machine(config, seed=1)
        img_a = machine.load_image(assemble(
            self.PROGRAM.format(tag="a", n=5000, step=3)))
        img_b = machine.load_image(assemble(
            self.PROGRAM.format(tag="b", n=5000, step=7)))
        proc_a = machine.spawn(img_a)
        proc_b = machine.spawn(img_b)
        machine.run()
        assert machine.scheduler.context_switches > 5
        acc_a = img_a.symbols.resolve("acc")
        acc_b = img_b.symbols.resolve("acc")
        assert proc_a.peek(acc_a) == 15000
        assert proc_b.peek(acc_b) == 35000

    def test_same_image_two_processes(self):
        machine = Machine(MachineConfig(quantum=300), seed=1)
        image = machine.load_image(assemble(
            self.PROGRAM.format(tag="x", n=2000, step=1)))
        procs = [machine.spawn(image) for _ in range(3)]
        machine.run()
        acc = image.symbols.resolve("acc")
        for proc in procs:
            assert proc.peek(acc) == 2000


class TestDeterminism:
    def test_full_stack_deterministic(self):
        from repro.workloads import x11perf

        def run():
            session = ProfileSession(
                MachineConfig(),
                SessionConfig(cycles_period=(200, 256), seed=4))
            result = session.run(x11perf.build(scale=4, rounds=4),
                                 max_instructions=80_000)
            return (result.cycles,
                    {name: profile.counts
                     for name, profile in result.profiles.items()})
        assert run() == run()


class TestInterpreterCrossCheck:
    """Property: the pipeline's architectural results match a simple
    reference interpreter on random straight-line integer programs."""

    OPS = ("addq", "subq", "xor", "and", "bis", "s4addq", "cmpult",
           "sll", "srl")

    @staticmethod
    def reference(instructions):
        from repro.alpha.opcodes import OPCODES

        regs = [0] * 32
        for op, ra, imm, rc in instructions:
            result = OPCODES[op].sem(regs[ra], imm)
            if rc != 31:
                regs[rc] = result
        return regs

    @given(st.lists(
        st.tuples(st.sampled_from(OPS),
                  st.integers(0, 7),       # ra in t0..t7 space (1..8)
                  st.integers(0, 255),     # literal
                  st.integers(0, 7)),      # rc
        min_size=1, max_size=25))
    @settings(max_examples=examples(30), deadline=None)
    def test_matches_reference(self, program):
        lines = [".image p", ".proc main"]
        instructions = []
        for op, ra, imm, rc in program:
            # Map 0..7 onto t0..t7 = r1..r8.
            lines.append("    %s t%d, %d, t%d" % (op, ra, imm, rc))
            instructions.append((op, ra + 1, imm, rc + 1))
        lines.append("    ret")
        lines.append(".end")
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble("\n".join(lines)))
        proc = machine.spawn(image)
        machine.run()
        expected = self.reference(instructions)
        assert proc.iregs[1:9] == expected[1:9]


class TestFailureInjection:
    def test_driver_drops_when_daemon_stalls(self):
        """If the daemon never drains, the driver's bounded buffers drop
        samples rather than grow without limit."""
        from repro.collect.driver import Driver

        driver = Driver(1, SessionConfig(buckets=1, assoc=1,
                                         overflow_capacity=4))
        for i in range(100):
            driver.record(0, i, 0x1000, EventType.CYCLES, i)
        state = driver.cpus[0]
        assert state.dropped > 0
        # Buffered + resident + dropped still accounts for everything.
        buffered = sum(count for buf in state.full for _, count in buf)
        buffered += sum(count for _, count in state.active)
        resident = sum(count for _, count in state.table.flush())
        assert buffered + resident + state.dropped == 100

    def test_samples_with_dead_pid_still_attributed(self):
        """After a process exits and is reaped, late samples fall back
        to the global image map (kernel recognizer path)."""
        from conftest import make_copy_workload

        session = ProfileSession(
            MachineConfig(), SessionConfig(cycles_period=(120, 128)))
        result = session.run(make_copy_workload(n=2000))
        daemon = result.daemon
        image = daemon.images["copy.prog"]
        driver = result.driver
        # Simulate a straggler sample from the dead process.
        daemon.reap(result.machine.processes[0].pid)
        driver.record(0, result.machine.processes[0].pid,
                      image.base + 4, EventType.CYCLES, 0)
        before = daemon.unknown_samples
        daemon.drain(driver)
        assert daemon.unknown_samples == before  # resolved via fallback
