"""Performance counters with randomized sampling periods.

Each counter slot counts one :class:`EventType`.  When a counter reaches
its period it "overflows": the overflow time is reported to the pipeline,
which delivers the interrupt ``interrupt_skew`` cycles later with the PC
at the head of the issue queue -- the attribution semantics of paper
section 4.1.2.

The period for the next interval is drawn from a caller-supplied
function; the profiling driver installs the Carta minimal-standard PRNG
(paper reference [4]) to decorrelate sampling from program structure.
"""

from repro.cpu.events import EventType

#: :meth:`CounterUnit.headroom` of an event no slot counts: more
#: occurrences than any simulation adds.
UNBOUNDED = 1 << 62


class CounterSlot:
    """One hardware performance counter."""

    __slots__ = ("event", "count", "period", "next_period", "overflows")

    def __init__(self, event, next_period):
        self.event = event
        self.next_period = next_period
        self.period = next_period()
        self.count = 0
        self.overflows = 0


class CounterUnit:
    """The per-CPU set of performance counters (2-3 on real Alphas).

    ``room[event]`` is the number of further occurrences of *event* at
    which a slot counting it overflows (:meth:`headroom`; ``UNBOUNDED``
    when no slot counts it).  The pipeline counts a
    discrete event that overflows nothing in line, by lowering ``room``
    (:func:`repro.cpu.step.post_events`), and calls :meth:`add` only
    for the occurrence that brings it to 0.  The slots take the
    occurrences counted in line whenever this class reads or changes
    them (:meth:`add` those of its event, :meth:`configure` and
    :meth:`set_event` all) and at :meth:`settle`, which ``Core.run``
    calls before it returns: slot counts read between runs are
    exact."""

    def __init__(self):
        self.slots = []
        self._by_event = {}
        self.room = dict.fromkeys(EventType, UNBOUNDED)
        # event -> its room when the slots last took every occurrence.
        self._settled = dict(self.room)

    def _reset(self, event):
        """Recompute *event*'s room from the slots counting it."""
        slots = self._by_event.get(event)
        room = (min(slot.period - slot.count for slot in slots) if slots
                else UNBOUNDED)
        self.room[event] = self._settled[event] = room

    def settle(self):
        """Hand every slot the occurrences counted in line."""
        room = self.room
        settled = self._settled
        for event, slots in self._by_event.items():
            owed = settled[event] - room[event]
            if owed:
                for slot in slots:
                    slot.count += owed
                settled[event] = room[event]

    def configure(self, event, next_period):
        """Add a counter slot counting *event*; returns the slot index."""
        self.settle()
        slot = CounterSlot(event, next_period)
        self.slots.append(slot)
        self._by_event.setdefault(event, []).append(slot)
        self._reset(event)
        return len(self.slots) - 1

    def set_event(self, index, event):
        """Re-point slot *index* at a different event (multiplexing)."""
        slot = self.slots[index]
        old = slot.event
        self.settle()
        self._by_event[old].remove(slot)
        slot.event = event
        slot.count = 0
        slot.period = slot.next_period()
        self._by_event.setdefault(event, []).append(slot)
        self._reset(old)
        self._reset(event)

    def headroom(self, event):
        """The smallest *amount* for which :meth:`add` overflows a slot
        counting *event* (``UNBOUNDED`` when none counts it).

        ``Core.run`` holds CYCLES back as a watermark: the first cycle
        at or after ``cyc_base`` plus this amount overflows, so spans
        ending below that mark only move the issue clock, and the span
        that reaches it (or run exit) hands :meth:`add` every cycle
        since ``cyc_base`` at once.  Overflow times depend only on the
        final count and the span's end, so the deferral is exact."""
        if not self._by_event.get(event):
            return UNBOUNDED
        return self.room[event]

    def add(self, event, amount, end_time):
        """Count *amount* occurrences of *event*, the last at *end_time*.

        For CYCLES the occurrences are the cycles ``(end_time - amount,
        end_time]``; for discrete events *amount* is normally 1.  Returns
        a list of (event, overflow_time) pairs, possibly empty.
        """
        slots = self._by_event.get(event)
        if not slots:
            return ()
        # The occurrences counted in line come first: none overflows.
        amount += self._settled[event] - self.room[event]
        overflows = []
        room = UNBOUNDED
        for slot in slots:
            count = slot.count + amount
            while count >= slot.period:
                # The overflowing occurrence is (period - old count) into
                # the span that ends at end_time.
                overshoot = count - slot.period
                overflow_time = end_time - overshoot
                overflows.append((slot.event, overflow_time))
                slot.overflows += 1
                count = overshoot
                slot.period = slot.next_period()
            slot.count = count
            if slot.period - count < room:
                room = slot.period - count
        self.room[event] = self._settled[event] = room
        return overflows
