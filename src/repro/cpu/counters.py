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

    def live_slots(self, event):
        """The slot list for *event*, created on demand so the returned
        list object stays valid (it is mutated in place) across later
        ``configure``/``set_event`` calls.  The pipeline binds the
        CYCLES list once per run, scans it in line for replay headroom
        and adds spans that overflow no slot straight to ``count``;
        :meth:`add` is only called when an overflow is due."""
        return self._by_event.setdefault(event, [])

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
