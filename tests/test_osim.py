"""Tests for processes, the loader and the scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.alpha.assembler import assemble
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine
from repro.osim.loader import Loader

COUNTER_LOOP = """
.image loopy
.proc main
    lda t0, {n}(zero)
top:
    subq t0, 1, t0
    bgt t0, top
    ret
.end
"""


class TestLoader:
    def test_images_get_disjoint_ranges(self):
        loader = Loader()
        img1 = loader.link(assemble(COUNTER_LOOP.format(n=1)))
        img2 = loader.link(assemble(
            COUNTER_LOOP.format(n=1), image_name="other"))
        assert img1.end <= img2.base

    def test_link_idempotent(self):
        loader = Loader()
        image = loader.link(assemble(COUNTER_LOOP.format(n=1)))
        base = image.base
        loader.link(image)
        assert image.base == base

    def test_loadmap_events_delivered(self):
        loader = Loader()
        events = []
        loader.add_listener(events.append)
        image = loader.link(assemble(COUNTER_LOOP.format(n=1)))
        loader.notify_exec(42, [image])
        assert len(events) == 1
        assert events[0].pid == 42
        assert events[0].image is image

    def test_notify_unlinked_image_rejected(self):
        loader = Loader()
        with pytest.raises(ValueError):
            loader.notify_exec(1, [assemble(COUNTER_LOOP.format(n=1))])

    def test_image_at(self):
        loader = Loader()
        image = loader.link(assemble(COUNTER_LOOP.format(n=1)))
        assert loader.image_at(image.base + 4) is image
        assert loader.image_at(0xDEAD0000) is None

    def test_image_at_finds_each_of_several(self):
        loader = Loader()
        images = [loader.link(assemble(COUNTER_LOOP.format(n=1),
                                       image_name="image%d" % i))
                  for i in range(5)]
        assert loader.image_at(images[0].base - 4) is None
        for image in images:
            assert loader.image_at(image.base) is image
            assert loader.image_at(image.end - 4) is image
            # The gap up to the next 64 KB boundary belongs to nobody.
            assert loader.image_at(image.end) is None

    @staticmethod
    def linked_with_data():
        """Images of several code sizes, each with a data region."""
        loader = Loader()
        for i, (n, data) in enumerate([(1, 64), (3, 20000), (2, 70000)]):
            text = (".image img%d\n.data buf, %d\n.proc main\n" % (i, data)
                    + "    addq t0, 1, t0\n" * n + "    ret\n.end\n")
            loader.link(assemble(text))
        return loader

    @staticmethod
    def scanned(loader, addr):
        """What a linear scan over the linked images finds at *addr*."""
        found = [image for image in loader.images if addr in image]
        return found[0] if found else None

    def test_image_at_agrees_with_a_scan_at_every_boundary(self):
        loader = self.linked_with_data()
        probes = []
        for image in loader.images:
            data_end = image.data_base + image.data_size
            probes += [image.base - 4, image.base, image.end - 4,
                       image.end, image.data_base, data_end - 4,
                       data_end, data_end + 0x100]
        assert any(self.scanned(loader, addr) for addr in probes)
        for addr in probes:
            assert loader.image_at(addr) is self.scanned(loader, addr)

    @given(offset=st.integers(0, 0x60000))
    def test_image_at_agrees_with_a_scan_anywhere(self, offset):
        loader = self.linked_with_data()
        addr = Loader.FIRST_BASE - 8 + offset
        assert loader.image_at(addr) is self.scanned(loader, addr)


class TestProcesses:
    def test_distinct_pids(self):
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=1)))
        p1 = machine.spawn(image)
        p2 = machine.spawn(image)
        assert p1.pid != p2.pid

    def test_memory_isolated_between_processes(self):
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=1)))
        p1 = machine.spawn(image)
        p2 = machine.spawn(image)
        p1.memory[0x5000] = 11
        assert 0x5000 not in p2.memory

    def test_page_maps_differ_between_runs(self):
        def pages(seed):
            machine = Machine(MachineConfig(), seed=seed)
            image = machine.load_image(assemble(COUNTER_LOOP.format(n=1)))
            proc = machine.spawn(image)
            return [proc.translate_data(v) for v in range(16)]
        assert pages(1) != pages(2)

    def test_page_map_stable_within_run(self):
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=1)))
        proc = machine.spawn(image)
        assert proc.translate_data(5) == proc.translate_data(5)

    def test_set_args(self):
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=1)))
        proc = machine.spawn(image).set_args(a0=7, f1=2.5)
        assert proc.iregs[16] == 7
        assert proc.fregs[1] == 2.5

    def test_entry_by_name(self):
        text = (".image multi\n.proc first\n    ret\n.end\n"
                ".proc second\n    ret\n.end\n")
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(text))
        proc = machine.spawn(image, entry="multi:second")
        assert proc.pc == image.procedure("second").start

    def test_bad_entry_raises(self):
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=1)))
        with pytest.raises(ValueError):
            machine.spawn(image, entry="loopy:nosuch")


class TestScheduler:
    def test_all_processes_complete(self):
        machine = Machine(MachineConfig(num_cpus=2), seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=500)))
        procs = [machine.spawn(image) for _ in range(5)]
        machine.run()
        assert all(p.exited for p in procs)

    def test_quantum_causes_context_switches(self):
        config = MachineConfig(num_cpus=1, quantum=500)
        machine = Machine(config, seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=5000)))
        machine.spawn(image)
        machine.spawn(image)
        machine.run()
        assert machine.scheduler.context_switches > 2

    def test_work_spread_across_cpus(self):
        machine = Machine(MachineConfig(num_cpus=4), seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=2000)))
        for _ in range(4):
            machine.spawn(image)
        machine.run()
        busy = [core.instructions_retired for core in machine.cores]
        assert all(b > 0 for b in busy)

    def test_cpu_cycles_accounted(self):
        machine = Machine(MachineConfig(), seed=1)
        image = machine.load_image(assemble(COUNTER_LOOP.format(n=500)))
        proc = machine.spawn(image)
        machine.run()
        assert proc.cpu_cycles > 500
