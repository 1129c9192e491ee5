"""Tests for epoch management and the branch-interpretation edge-sample
mode."""

import pytest

from repro.alpha.assembler import assemble
from repro.collect.daemon import Daemon
from repro.collect.database import ProfileDatabase
from repro.collect.driver import Driver
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.events import EventType
from repro.osim.loader import Loader

LOOP = """
.image e
.proc main
    lda t0, 3000(zero)
top:
    and t0, 3, t1
    beq t1, skip
    addq t2, 1, t2
skip:
    subq t0, 1, t0
    bgt t0, top
    ret
.end
"""


class TestEpochs:
    def make_env(self):
        loader = Loader()
        daemon = Daemon(loader, periods={EventType.CYCLES: 100.0})
        image = loader.link(assemble(
            ".image app\n.proc main\n    nop\n    ret\n.end"))
        loader.notify_exec(7, [image])
        driver = Driver(1, SessionConfig(buckets=16, assoc=4))
        driver.cost_scale = 1.0
        return loader, daemon, driver, image

    def test_advance_epoch_clears_memory(self, tmp_path):
        loader, daemon, driver, image = self.make_env()
        db = ProfileDatabase(str(tmp_path))
        driver.record(0, 7, image.base, EventType.CYCLES, 0)
        daemon.drain(driver)
        assert daemon.advance_epoch(db) == 1
        assert daemon.profiles == {}
        counts, _ = db.load("app", EventType.CYCLES, epoch=0)
        assert counts == {0: 1}

    def test_epochs_do_not_overlap(self, tmp_path):
        loader, daemon, driver, image = self.make_env()
        db = ProfileDatabase(str(tmp_path))
        driver.record(0, 7, image.base, EventType.CYCLES, 0)
        daemon.drain(driver)
        daemon.advance_epoch(db)
        driver.record(0, 7, image.base + 4, EventType.CYCLES, 1)
        driver.record(0, 7, image.base + 4, EventType.CYCLES, 2)
        daemon.drain(driver)
        daemon.merge_to_disk(db)
        assert db.epochs() == [0, 1]
        epoch0, _ = db.load("app", EventType.CYCLES, epoch=0)
        epoch1, _ = db.load("app", EventType.CYCLES, epoch=1)
        assert epoch0 == {0: 1}
        assert epoch1 == {4: 2}

    def test_epoch_counts_sum_to_total(self, tmp_path):
        loader, daemon, driver, image = self.make_env()
        db = ProfileDatabase(str(tmp_path))
        for i in range(10):
            driver.record(0, 7, image.base, EventType.CYCLES, i)
        daemon.drain(driver)
        daemon.advance_epoch(db)
        for i in range(5):
            driver.record(0, 7, image.base, EventType.CYCLES, i)
        daemon.drain(driver)
        daemon.merge_to_disk(db)
        total = 0
        for epoch in db.epochs():
            counts, _ = db.load("app", EventType.CYCLES, epoch=epoch)
            total += sum(counts.values())
        assert total == 15


class TestInterpretMode:
    def run(self, mode):
        session = ProfileSession(
            MachineConfig(),
            SessionConfig(mode="cycles", cycles_period=(60, 64),
                          edge_sampling=True, edge_mode=mode,
                          charge_overhead=False))

        def workload(machine):
            machine.spawn(assemble(LOOP), name="e")

        return session.run(workload)

    def test_interpret_mode_collects_only_control_edges(self):
        result = self.run("interpret")
        image = result.daemon.images["e"]
        profile = result.profile_for("e")
        assert profile.edge_counts
        for (from_off, to_off) in profile.edge_counts:
            inst = image.instruction_at(image.base + from_off)
            assert inst.is_control

    def test_interpret_cheaper_than_double(self):
        def overhead(mode):
            session = ProfileSession(
                MachineConfig(),
                SessionConfig(mode="cycles", cycles_period=(240, 256),
                              edge_sampling=True, edge_mode=mode))

            def workload(machine):
                machine.spawn(assemble(LOOP), name="e")

            return session.run(workload).cycles
        assert overhead("interpret") < overhead("double")

    def test_interpret_ratio_still_accurate(self):
        result = self.run("interpret")
        image = result.daemon.images["e"]
        profile = result.profile_for("e")
        beq = next(i for i in image.instructions if i.op == "beq")
        edges = profile.edges_by_addr()
        taken = edges.get((beq.addr, beq.target), 0)
        fall = edges.get((beq.addr, beq.addr + 4), 0)
        if taken + fall >= 30:
            assert taken / (taken + fall) == pytest.approx(0.25,
                                                           abs=0.15)

    def test_double_mode_also_collects_straightline(self):
        result = self.run("double")
        image = result.daemon.images["e"]
        profile = result.profile_for("e")
        kinds = set()
        for (from_off, _) in profile.edge_counts:
            inst = image.instruction_at(image.base + from_off)
            kinds.add(inst.is_control)
        assert kinds == {True, False}
