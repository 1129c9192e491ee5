"""Tests for the TLB, branch predictor and write buffer."""

import copy

from hypothesis import given, strategies as st

from repro.cpu.branch import BranchPredictor
from repro.cpu.tlb import TLB
from repro.cpu.writebuffer import WriteBuffer


def occupancy(wb, now):
    """Entries of the write buffer *wb* still draining at *now*, read
    through its public calls: its capacity less the stores to fresh
    blocks that a copy of it takes at *now* without waiting."""
    probe = copy.deepcopy(wb)
    addr = 1 << 40  # blocks no test stores to
    free = 0
    while free < probe.capacity and probe.earliest_issue(addr, now) == now:
        probe.commit(addr, now)
        addr += 1 << WriteBuffer.BLOCK_SHIFT
        free += 1
    return wb.capacity - free


def identity_map(vpage):
    return vpage + 1000


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(4, miss_penalty=40)
        ppage, penalty, missed = tlb.translate(1, 7, identity_map)
        assert (ppage, penalty, missed) == (1007, 40, True)
        ppage, penalty, missed = tlb.translate(1, 7, identity_map)
        assert (ppage, penalty, missed) == (1007, 0, False)

    def test_asn_isolation(self):
        tlb = TLB(4, 40)
        tlb.translate(1, 7, identity_map)
        _, penalty, missed = tlb.translate(2, 7, identity_map)
        assert missed is True

    def test_fifo_eviction(self):
        tlb = TLB(2, 40)
        tlb.translate(0, 1, identity_map)
        tlb.translate(0, 2, identity_map)
        tlb.translate(0, 3, identity_map)  # evicts page 1
        _, _, missed = tlb.translate(0, 1, identity_map)
        assert missed is True
        _, _, missed = tlb.translate(0, 3, identity_map)
        assert missed is False

    def test_flush(self):
        tlb = TLB(4, 40)
        tlb.translate(0, 1, identity_map)
        tlb.flush()
        _, _, missed = tlb.translate(0, 1, identity_map)
        assert missed is True

    def test_stats(self):
        tlb = TLB(4, 40)
        tlb.translate(0, 1, identity_map)
        tlb.translate(0, 1, identity_map)
        assert tlb.hits == 1 and tlb.misses == 1


class TestBranchPredictor:
    def test_learns_taken_loop(self):
        bp = BranchPredictor(64)
        results = [bp.predict_conditional(0x100, True) for _ in range(10)]
        assert all(results[2:])  # warmed up after a couple

    def test_mispredicts_alternating_pattern_sometimes(self):
        bp = BranchPredictor(64)
        outcomes = [bp.predict_conditional(0x100, bool(i % 2))
                    for i in range(20)]
        assert not all(outcomes)

    def test_loop_exit_mispredicted(self):
        bp = BranchPredictor(64)
        for _ in range(10):
            bp.predict_conditional(0x100, True)
        assert bp.predict_conditional(0x100, False) is False

    def test_btb_indirect(self):
        bp = BranchPredictor(64)
        assert bp.predict_indirect(0x200, 0x300) is False  # cold
        assert bp.predict_indirect(0x200, 0x300) is True
        assert bp.predict_indirect(0x200, 0x400) is False  # target changed

    def test_return_stack(self):
        bp = BranchPredictor(64)
        bp.push_call(0x104)
        bp.push_call(0x204)
        assert bp.predict_return(0x204) is True
        assert bp.predict_return(0x104) is True
        assert bp.predict_return(0x104) is False  # empty stack

    def test_ras_depth_bounded(self):
        bp = BranchPredictor(64, ras_depth=2)
        for addr in (1, 2, 3):
            bp.push_call(addr)
        assert bp.predict_return(3) is True
        assert bp.predict_return(2) is True
        assert bp.predict_return(1) is False  # pushed out

    def test_mispredict_counter(self):
        bp = BranchPredictor(64)
        bp.predict_conditional(0, False)
        bp.predict_conditional(0, False)
        assert bp.predictions == 2
        assert bp.mispredictions >= 1


class TestWriteBuffer:
    def test_merge_same_block(self):
        wb = WriteBuffer(entries=2, drain_cycles=100)
        assert wb.earliest_issue(0x100, 0) == 0
        wb.commit(0x100, 0)
        assert wb.commit(0x108, 1) is True  # same 32B block merges
        assert wb.merges == 1

    def test_overflow_stalls_until_drain(self):
        wb = WriteBuffer(entries=2, drain_cycles=50)
        wb.commit(0x000, 0)   # drains at 50
        wb.commit(0x100, 0)   # drains at 100 (sequential port)
        stall_until = wb.earliest_issue(0x200, 1)
        assert stall_until == 50

    def test_entries_expire(self):
        wb = WriteBuffer(entries=1, drain_cycles=10)
        wb.commit(0x000, 0)
        assert wb.earliest_issue(0x100, 20) == 20  # old entry drained

    def test_occupancy(self):
        wb = WriteBuffer(entries=4, drain_cycles=100)
        wb.commit(0x000, 0)
        wb.commit(0x100, 0)
        assert occupancy(wb, 1) == 2
        assert occupancy(wb, 1000) == 0

    def test_allocation_counter(self):
        wb = WriteBuffer(entries=4, drain_cycles=10)
        wb.commit(0x000, 0)
        wb.commit(0x200, 0)
        assert wb.allocations == 2


class REFERENCE:
    """The write buffer as a plain FIFO list of ``[block, done]``:
    expiry scans every entry on every call and a full buffer waits for
    ``min()`` over all of them.  The model in
    :mod:`repro.cpu.writebuffer`, which expires only once its oldest
    drain has completed, must be indistinguishable."""

    def __init__(self, entries, drain_cycles):
        self.capacity = entries
        self.drain_cycles = drain_cycles
        self.fifo = []
        self.port_free = 0
        self.merges = 0
        self.allocations = 0

    def _expire(self, now):
        self.fifo = [entry for entry in self.fifo if entry[1] > now]

    def earliest_issue(self, block_addr, now):
        block = block_addr >> WriteBuffer.BLOCK_SHIFT
        if any(entry[0] == block for entry in self.fifo):
            return now
        self._expire(now)
        if len(self.fifo) < self.capacity:
            return now
        return min(entry[1] for entry in self.fifo)

    def commit(self, block_addr, issue_time):
        block = block_addr >> WriteBuffer.BLOCK_SHIFT
        self._expire(issue_time)
        if any(entry[0] == block for entry in self.fifo):
            self.merges += 1
            return True
        self.allocations += 1
        self.port_free = max(issue_time, self.port_free) + self.drain_cycles
        self.fifo.append([block, self.port_free])
        return False


class TestWriteBufferFifo:
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=30),
           st.lists(st.tuples(
               st.sampled_from(("probe", "store", "occupancy")),
               st.integers(min_value=0, max_value=11),    # 32-byte block
               st.integers(min_value=0, max_value=25)),   # time step
               min_size=1, max_size=120))
    def test_equals_reference_on_random_store_streams(
            self, entries, drain, ops):
        fifo = WriteBuffer(entries, drain)
        ref = REFERENCE(entries, drain)
        now = 0
        for op, block, step in ops:
            now += step
            addr = block << WriteBuffer.BLOCK_SHIFT | 8
            if op != "occupancy":
                issue = fifo.earliest_issue(addr, now)
                assert issue == ref.earliest_issue(addr, now)
                if op == "store":
                    # The pipeline commits at the issue time it was
                    # given.
                    assert (fifo.commit(addr, issue)
                            == ref.commit(addr, issue))
                    now = issue
            assert occupancy(fifo, now) == occupancy(ref, now)
            assert ((fifo.merges, fifo.allocations)
                    == (ref.merges, ref.allocations))

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=30),
           st.lists(st.tuples(
               st.integers(min_value=0, max_value=7),     # 32-byte block
               st.integers(min_value=0, max_value=3),     # byte offset / 8
               st.integers(min_value=0, max_value=40),    # delay
               st.none() | st.integers(min_value=0, max_value=5)),
               min_size=1, max_size=200))
    def test_store_sequences_as_the_pipeline_issues_them(
            self, entries, drain, stores):
        """Stores as ``Core.run`` issues them: a probe the cycle after
        the previous issue, then the store at the cycle it returned or
        later -- or, when *snap* picks a buffered block, a store to it
        at the cycle its drain completes."""
        fifo = WriteBuffer(entries, drain)
        ref = REFERENCE(entries, drain)
        prev = 0
        for block, offset, delay, snap in stores:
            done = None
            if snap is not None and ref.fifo:
                block, done = ref.fifo[snap % len(ref.fifo)]
            addr = block << WriteBuffer.BLOCK_SHIFT | offset << 3
            res = fifo.earliest_issue(addr, prev + 1)
            assert res == ref.earliest_issue(addr, prev + 1)
            issue = res + delay if done is None else max(res, done)
            assert fifo.commit(addr, issue) == ref.commit(addr, issue)
            # At each drain's completion, and the cycle before it.
            for _, done in ref.fifo:
                for now in (done - 1, done):
                    assert occupancy(fifo, now) == occupancy(ref, now)
            prev = issue
        assert ((fifo.merges, fifo.allocations)
                == (ref.merges, ref.allocations))
