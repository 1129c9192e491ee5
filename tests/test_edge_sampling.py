"""Tests for the section 7 double-sampling (edge samples) prototype."""

import pytest

from repro.alpha.assembler import assemble
from repro.collect.session import ProfileSession, SessionConfig
from repro.core.cfg import build_cfg
from repro.core.frequency import estimate_frequencies
from repro.core.schedule import schedule_cfg
from repro.cpu.config import MachineConfig

LOOP = """
.image edgy
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


def run_session(edge_sampling=True):
    session = ProfileSession(
        MachineConfig(),
        SessionConfig(mode="cycles", cycles_period=(60, 64),
                      event_period=64, edge_sampling=edge_sampling,
                      charge_overhead=False))

    def workload(machine):
        machine.spawn(assemble(LOOP), name="edgy")

    return session.run(workload)


class TestCollection:
    def test_edge_samples_collected(self):
        result = run_session()
        assert result.driver.metrics()[
            "driver.edge_samples"]["value"] > 50
        profile = result.profile_for("edgy")
        assert profile.edge_counts

    def test_disabled_by_default(self):
        result = run_session(edge_sampling=False)
        assert result.driver.metrics()[
            "driver.edge_samples"]["value"] == 0
        assert not result.profile_for("edgy").edge_counts

    def test_edges_are_plausible_control_flow(self):
        result = run_session()
        image = result.daemon.images["edgy"]
        profile = result.profile_for("edgy")
        for (from_off, to_off), count in profile.edge_counts.items():
            inst = image.instruction_at(image.base + from_off)
            if not inst.is_control:
                # Straight-line pair: to must be from + 4.
                assert to_off == from_off + 4

    def test_branch_ratio_matches_truth(self):
        result = run_session()
        image = result.daemon.images["edgy"]
        profile = result.profile_for("edgy")
        beq = next(i for i in image.instructions if i.op == "beq")
        edges = profile.edges_by_addr()
        taken = edges.get((beq.addr, beq.target), 0)
        fall = edges.get((beq.addr, beq.addr + 4), 0)
        if taken + fall >= 30:
            ratio = taken / (taken + fall)
            # True ratio: t0 % 4 == 0 a quarter of the time.
            assert ratio == pytest.approx(0.25, abs=0.15)

    def test_edge_cost_charged(self):
        def cycles(on):
            session = ProfileSession(
                MachineConfig(),
                SessionConfig(mode="cycles", cycles_period=(240, 256),
                              edge_sampling=on))

            def workload(machine):
                machine.spawn(assemble(LOOP), name="edgy")

            return session.run(workload).cycles
        assert cycles(True) > cycles(False)


class TestFrequencyIntegration:
    DIAMOND = """
.image d
.proc main
    lda t0, 400(zero)
head:
    and t0, 1, t1
    beq t1, else_
    nop
    br join
else_:
    nop
join:
    subq t0, 1, t0
    bgt t0, head
    ret
.end
"""

    def _setup(self):
        image = assemble(self.DIAMOND, base=0x1000)
        proc = image.procedure("main")
        cfg = build_cfg(proc)
        schedules = schedule_cfg(cfg)
        # Samples on head and join only: the two arms stay unknown to
        # pure flow propagation (one equation, two unknowns).
        samples = {0x1004: 100, 0x1008: 100, 0x1018: 100, 0x101C: 100}
        return cfg, schedules, samples

    def test_arms_unknown_without_edge_samples(self):
        cfg, schedules, samples = self._setup()
        freq = estimate_frequencies(cfg, schedules, samples, 100.0)
        then_block = cfg.block_at(0x100C)
        assert freq.block_count(then_block.index) == 0.0

    def test_edge_samples_resolve_the_split(self):
        cfg, schedules, samples = self._setup()
        beq_addr = 0x1008
        else_addr = 0x1014
        edge_samples = {(beq_addr, else_addr): 30,
                        (beq_addr, beq_addr + 4): 30}
        freq = estimate_frequencies(cfg, schedules, samples, 100.0,
                                    edge_samples=edge_samples)
        then_block = cfg.block_at(0x100C)
        else_block = cfg.block_at(0x1014)
        head_block = cfg.block_at(0x1004)
        head = freq.block_count(head_block.index)
        assert freq.block_count(then_block.index) == pytest.approx(
            head / 2, rel=0.01)
        assert freq.block_count(else_block.index) == pytest.approx(
            head / 2, rel=0.01)

    def test_edge_samples_never_override_flow(self):
        cfg, schedules, samples = self._setup()
        # Give the then-arm direct samples so flow pins both arms;
        # wildly wrong edge samples must then be ignored.
        samples[0x100C] = 25  # then-arm nop: ~quarter of head
        beq_addr = 0x1008
        edge_samples = {(beq_addr, 0x1014): 1000,
                        (beq_addr, beq_addr + 4): 1}
        with_edges = estimate_frequencies(cfg, schedules, samples, 100.0,
                                          edge_samples=edge_samples)
        without = estimate_frequencies(cfg, schedules, samples, 100.0)
        then_block = cfg.block_at(0x100C)
        assert (with_edges.block_count(then_block.index)
                == without.block_count(then_block.index))
