"""Tests for performance counters and the Carta PRNG."""

import itertools

from hypothesis import given, strategies as st

from repro.collect.prng import CartaRandom, period_sampler
from repro.cpu.counters import CounterUnit
from repro.cpu.events import EventType


class TestCartaRandom:
    def test_minimal_standard_sequence(self):
        # Known Park-Miller values from seed 1.
        rng = CartaRandom(1)
        assert rng.next() == 16807
        assert rng.next() == 282475249

    def test_full_period_sanity(self):
        # After 10000 draws from the canonical seed the generator must
        # not have cycled (period is 2^31 - 2).
        rng = CartaRandom(1)
        seen_first = rng.next()
        for _ in range(9999):
            value = rng.next()
        assert value != seen_first

    def test_zero_seed_coerced(self):
        assert CartaRandom(0).next() == 16807

    @given(st.integers(min_value=1, max_value=1 << 30))
    def test_uniform_int_in_range(self, seed):
        rng = CartaRandom(seed)
        for _ in range(20):
            value = rng.uniform_int(60, 64)
            assert 60 <= value <= 64

    def test_period_sampler_deterministic_when_lo_equals_hi(self):
        sampler = period_sampler(100, 100)
        assert [sampler() for _ in range(5)] == [100] * 5

    def test_period_sampler_randomized(self):
        sampler = period_sampler(60, 64, seed=7)
        values = {sampler() for _ in range(200)}
        assert values == {60, 61, 62, 63, 64}


class TestCounterUnit:
    def test_overflow_at_period(self):
        unit = CounterUnit()
        unit.configure(EventType.CYCLES, lambda: 100)
        assert unit.add(EventType.CYCLES, 99, 99) == []
        overflows = unit.add(EventType.CYCLES, 1, 100)
        assert overflows == [(EventType.CYCLES, 100)]

    def test_overflow_time_inside_bulk_add(self):
        unit = CounterUnit()
        unit.configure(EventType.CYCLES, lambda: 100)
        # Adding 250 cycles ending at t=250 crosses at t=100 and t=200.
        overflows = unit.add(EventType.CYCLES, 250, 250)
        assert [t for _, t in overflows] == [100, 200]

    def test_unmonitored_event_ignored(self):
        unit = CounterUnit()
        unit.configure(EventType.CYCLES, lambda: 100)
        assert unit.add(EventType.IMISS, 1, 5) == ()

    def test_counts_event(self):
        unit = CounterUnit()
        unit.configure(EventType.IMISS, lambda: 10)
        assert unit.counts_event(EventType.IMISS)
        assert not unit.counts_event(EventType.DMISS)

    def test_multiplex_switch(self):
        unit = CounterUnit()
        slot = unit.configure(EventType.IMISS, lambda: 10)
        unit.add(EventType.IMISS, 5, 5)
        unit.set_event(slot, EventType.DMISS)
        assert not unit.counts_event(EventType.IMISS)
        # Count resets on switch.
        assert unit.add(EventType.DMISS, 9, 9) == []
        assert len(unit.add(EventType.DMISS, 1, 10)) == 1

    def test_randomized_period_reload(self):
        periods = iter([10, 20, 1000])
        unit = CounterUnit()
        unit.configure(EventType.CYCLES, lambda: next(periods))
        first = unit.add(EventType.CYCLES, 10, 10)
        assert [t for _, t in first] == [10]
        second = unit.add(EventType.CYCLES, 20, 30)
        assert [t for _, t in second] == [30]

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                    max_size=60))
    def test_total_overflows_conserved(self, deltas):
        """Property: overflows == floor(total / period) for a fixed
        period, no matter how the adds are chunked."""
        unit = CounterUnit()
        unit.configure(EventType.CYCLES, lambda: 37)
        now = 0
        total_overflows = 0
        for delta in deltas:
            now += delta
            total_overflows += len(unit.add(EventType.CYCLES, delta, now))
        assert total_overflows == sum(deltas) // 37


def count_cycles_inline(unit, slots, delta, end_time):
    """``Core.run``'s slow-path CYCLES accounting, verbatim: add in
    line unless some slot is due to overflow, then ``CounterUnit.add``."""
    for slot in slots:
        if delta >= slot.period - slot.count:
            return list(unit.add(EventType.CYCLES, delta, end_time))
    for slot in slots:
        slot.count += delta
    return []


class TestInlineCyclesGuard:
    """The call-free CYCLES path of ``Core.run`` against
    ``CounterUnit.add`` on every span, overflow or not."""

    @staticmethod
    def unit(periods):
        unit = CounterUnit()
        for seq in periods:
            # Each slot reloads from its own cycling period sequence.
            unit.configure(EventType.CYCLES, itertools.cycle(seq).__next__)
        return unit

    @given(st.lists(st.lists(st.integers(min_value=1, max_value=40),
                             min_size=1, max_size=4),
                    min_size=1, max_size=3),
           st.lists(st.integers(min_value=1, max_value=90),
                    min_size=1, max_size=80))
    def test_equals_counter_unit_add(self, periods, deltas):
        inline = self.unit(periods)
        slots = inline.live_slots(EventType.CYCLES)
        reference = self.unit(periods)
        now = 0
        for delta in deltas:
            now += delta
            got = count_cycles_inline(inline, slots, delta, now)
            want = list(reference.add(EventType.CYCLES, delta, now))
            assert got == want
            assert ([(s.count, s.period, s.overflows)
                     for s in inline.slots]
                    == [(s.count, s.period, s.overflows)
                        for s in reference.slots])

    def test_no_call_below_headroom(self):
        unit = self.unit([[100], [50]])
        slots = unit.live_slots(EventType.CYCLES)
        unit.add = None  # any call would raise
        assert count_cycles_inline(unit, slots, 49, 49) == []
        assert [s.count for s in slots] == [49, 49]
