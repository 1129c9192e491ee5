"""Tests for the TLB, branch predictor and write buffer."""

from hypothesis import given, strategies as st

from repro.cpu.branch import BranchPredictor
from repro.cpu.tlb import TLB
from repro.cpu.writebuffer import WriteBuffer


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
        assert wb.occupancy(1) == 2
        assert wb.occupancy(1000) == 0

    def test_allocation_counter(self):
        wb = WriteBuffer(entries=4, drain_cycles=10)
        wb.commit(0x000, 0)
        wb.commit(0x200, 0)
        assert wb.allocations == 2


class REFERENCE(WriteBuffer):
    """The write buffer as first written: expiry scans every entry and
    a full buffer waits for ``min()`` over all of them.  The FIFO form
    in :mod:`repro.cpu.writebuffer` must be indistinguishable."""

    def earliest_issue(self, block_addr, now):
        block = block_addr >> self.BLOCK_SHIFT
        if block in self._entries:
            return now
        self._expire(now)
        if len(self._entries) < self.capacity:
            return now
        return min(self._entries.values())

    def _expire(self, now):
        done = [b for b, t in self._entries.items() if t <= now]
        for block in done:
            del self._entries[block]


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
            if op == "occupancy":
                assert fifo.occupancy(now) == ref.occupancy(now)
                continue
            issue = fifo.earliest_issue(addr, now)
            assert issue == ref.earliest_issue(addr, now)
            if op == "store":
                # The pipeline commits at the issue time it was given.
                assert fifo.commit(addr, issue) == ref.commit(addr, issue)
                now = issue
            assert fifo._entries == ref._entries
            assert ((fifo.merges, fifo.allocations)
                    == (ref.merges, ref.allocations))
            done = list(fifo._entries.values())
            assert all(a < b for a, b in zip(done, done[1:]))
