"""Tests for performance counters and the Carta PRNG."""

import itertools

from hypothesis import given, strategies as st

from repro.collect.prng import CartaRandom, period_sampler
from repro.cpu.counters import UNBOUNDED, CounterUnit
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
        # A slot counts an event iff add can overflow on it.
        assert unit.headroom(EventType.IMISS) == 10
        assert unit.headroom(EventType.DMISS) == UNBOUNDED

    def test_multiplex_switch(self):
        unit = CounterUnit()
        slot = unit.configure(EventType.IMISS, lambda: 10)
        unit.add(EventType.IMISS, 5, 5)
        unit.set_event(slot, EventType.DMISS)
        assert unit.headroom(EventType.IMISS) == UNBOUNDED
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


class HeldBackCycles:
    """``Core.run``'s CYCLES accounting, verbatim: spans below
    ``CounterUnit.headroom`` are held back in ``acc``; the span that
    reaches it goes to ``CounterUnit.add`` together with them."""

    def __init__(self, unit):
        self.unit = unit
        self.acc = 0
        self.room = unit.headroom(EventType.CYCLES)

    def add(self, delta, end_time):
        if delta >= self.room:
            got = list(self.unit.add(EventType.CYCLES, self.acc + delta,
                                     end_time))
            self.acc = 0
            self.room = self.unit.headroom(EventType.CYCLES)
            return got
        self.acc += delta
        self.room -= delta
        return []


class TestInlineCyclesGuard:
    """The held-back CYCLES path of ``Core.run`` against
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
        held = HeldBackCycles(inline)
        reference = self.unit(periods)
        now = 0
        for delta in deltas:
            now += delta
            got = held.add(delta, now)
            want = list(reference.add(EventType.CYCLES, delta, now))
            assert got == want
            assert ([(s.count + held.acc, s.period, s.overflows)
                     for s in inline.slots]
                    == [(s.count, s.period, s.overflows)
                        for s in reference.slots])
        # Run exit: the held-back cycles overflow nothing.
        assert inline.add(EventType.CYCLES, held.acc, now) == []
        assert ([(s.count, s.period, s.overflows) for s in inline.slots]
                == [(s.count, s.period, s.overflows)
                    for s in reference.slots])

    def test_no_call_below_headroom(self):
        unit = self.unit([[100], [50]])
        held = HeldBackCycles(unit)
        assert held.room == 50
        unit.add = None  # any call would raise
        assert held.add(49, 49) == []
        assert [s.count for s in unit.slots] == [0, 0]
        assert (held.acc, held.room) == (49, 1)

    def test_headroom_of_an_uncounted_event(self):
        unit = self.unit([[100]])
        assert unit.headroom(EventType.IMISS) == UNBOUNDED


#: The discrete events ``post_events`` counts, and a rotation for the
#: multiplexed slot.
DISCRETE = (EventType.IMISS, EventType.DMISS, EventType.BRANCHMP,
            EventType.DTBMISS, EventType.ITBMISS)


class TestPostEventsReference:
    """Discrete events counted in line (``step.post_events`` lowers
    ``CounterUnit.room`` and calls ``add`` only for an overflow) against
    every occurrence handed to ``CounterUnit.add`` one by one, with
    ``set_event`` rotations between batches as the driver's mux does."""

    @staticmethod
    def unit(slots):
        unit = CounterUnit()
        for event, seq in slots:
            unit.configure(event, itertools.cycle(seq).__next__)
        return unit

    @staticmethod
    def state(unit):
        return [(s.event, s.count, s.period, s.overflows)
                for s in unit.slots]

    @given(st.lists(st.tuples(st.sampled_from(DISCRETE),
                              st.lists(st.integers(min_value=1,
                                                   max_value=6),
                                       min_size=1, max_size=3)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(
               st.lists(st.tuples(st.sampled_from(DISCRETE),
                                  st.integers(min_value=0, max_value=3)),
                        max_size=4),
               st.sampled_from((None,) + DISCRETE)),
               min_size=1, max_size=40))
    def test_equals_add_per_occurrence(self, slots, batches):
        from repro.cpu.step import post_events
        inline = self.unit(slots)
        reference = self.unit(slots)
        skew = 6
        got_pending, want_pending = [], []
        got_rows, want_rows = {}, {}
        now = 0
        for pc, (batch, rotate) in enumerate(batches):
            events = []
            for event, step in batch:
                now += step
                events.append((event, now))
            if events:
                post_events(got_rows, pc, events, inline, got_pending, skew)
            row = want_rows.setdefault(pc, {}) if events else None
            for event, etime in events:
                row[event] = row.get(event, 0) + 1
                for oev, otime in reference.add(event, 1, etime):
                    want_pending.append((otime + skew, oev))
            assert got_pending == want_pending
            assert got_rows == want_rows
            for event in EventType:
                assert inline.headroom(event) == reference.headroom(event)
            if rotate is not None:
                # The mux rotation reads and resets a slot's count.
                inline.set_event(len(slots) - 1, rotate)
                reference.set_event(len(slots) - 1, rotate)
                assert self.state(inline) == self.state(reference)
        inline.settle()
        assert self.state(inline) == self.state(reference)
        for event in EventType:
            assert inline.headroom(event) == reference.headroom(event)

    def test_no_call_below_the_room(self):
        from repro.cpu.step import post_events
        unit = self.unit([(EventType.DMISS, [3])])
        pending = []
        add = unit.add
        unit.add = None  # any call would raise
        post_events({}, 0, [(EventType.DMISS, 1), (EventType.DMISS, 2)],
                    unit, pending, 6)
        post_events({}, 1, [(EventType.IMISS, 3)], unit, pending, 6)
        assert unit.headroom(EventType.DMISS) == 1
        assert unit.slots[0].count == 0  # not handed over yet
        unit.add = add
        post_events({}, 2, [(EventType.DMISS, 9)], unit, pending, 6)
        assert pending == [(15, EventType.DMISS)]
        assert (unit.slots[0].count, unit.slots[0].overflows) == (0, 1)
