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
    """The per-CPU set of performance counters (2-3 on real Alphas)."""

    def __init__(self):
        self.slots = []
        self._by_event = {}

    def configure(self, event, next_period):
        """Add a counter slot counting *event*; returns the slot index."""
        slot = CounterSlot(event, next_period)
        self.slots.append(slot)
        self._by_event.setdefault(event, []).append(slot)
        return len(self.slots) - 1

    def set_event(self, index, event):
        """Re-point slot *index* at a different event (multiplexing)."""
        slot = self.slots[index]
        self._by_event[slot.event].remove(slot)
        slot.event = event
        slot.count = 0
        slot.period = slot.next_period()
        self._by_event.setdefault(event, []).append(slot)

    def counts_event(self, event):
        return bool(self._by_event.get(event))

    def headroom(self, event):
        """The smallest *amount* for which :meth:`add` overflows a slot
        counting *event* (``UNBOUNDED`` when none counts it).

        ``Core.run`` holds CYCLES back as a watermark: the first cycle
        at or after ``cyc_base`` plus this amount overflows, so spans
        ending below that mark only move the issue clock, and the span
        that reaches it (or run exit) hands :meth:`add` every cycle
        since ``cyc_base`` at once.  Overflow times depend only on the
        final count and the span's end, so the deferral is exact."""
        slots = self._by_event.get(event)
        if not slots:
            return UNBOUNDED
        return min(slot.period - slot.count for slot in slots)

    def add(self, event, amount, end_time):
        """Count *amount* occurrences of *event*, the last at *end_time*.

        For CYCLES the occurrences are the cycles ``(end_time - amount,
        end_time]``; for discrete events *amount* is normally 1.  Returns
        a list of (event, overflow_time) pairs, possibly empty.
        """
        slots = self._by_event.get(event)
        if not slots:
            return ()
        overflows = []
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
        return overflows
