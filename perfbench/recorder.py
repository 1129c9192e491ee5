"""What a workload reports through while the harness measures it.

Inside a round the workload marks its operations (:meth:`Recorder.op`),
other timed work (:meth:`Recorder.busy`, :meth:`Recorder.side`), the
work it completed and the exact counts it read from the program's
public snapshots.

The sandbox this runs on is a small VM on a shared host: for minutes
at a time neighbours make the interpreter 10-50% slower and the disk's
write-fsync-rename two to three times slower (README, "noise").  So
between the timed segments, never inside one, the recorder reads two
*yardsticks* -- fixed interpreter work and one atomic file write --
and :meth:`Calibration.seconds` states timed work in the seconds a
reference machine would have taken.
"""

import contextlib
import math
import os
import resource
import statistics
import time

#: The spans a workload times its round with (see Recorder).
OP, BUSY, SIDE = "bench.op", "bench.busy", "bench.side"

#: The reference machine: what the two yardsticks read on this sandbox
#: in a quiet minute.  They only fix the unit; a comparison of two
#: commits does not depend on them.
CPU_REF_S = 0.003
IO_REF_S = 0.0005

#: Yardstick seconds per timed second, at least.
YARDSTICK_SHARE = 0.10


class _Part:
    """A small object of the kind the program under test is made of."""

    def __init__(self, index):
        self.count = index
        self.fields = {"k%d" % (index % 13): index,
                       "pair": [index, index + 1]}
        self.label = (index, str(index))

    def step(self, value):
        self.count = (self.count + value) & 0xFFFF
        return self.fields["pair"][0] + len(self.label[1])


#: 6 MiB of them: more than the caches keep while a workload runs.
_PARTS = [_Part(index) for index in range(10_000)]


def cpu_yardstick(start):
    """A few milliseconds of fixed interpreter work: seven tenths of
    them arithmetic on small integers, three tenths attribute,
    dictionary, list and method work on every seventh of ``_PARTS``
    from *start* on.

    A busy neighbour slows the program under test more than it slows
    arithmetic alone and less than it slows object work alone (README,
    "Noise"); the mix follows it.
    """
    total = 0
    for value in range(40_000):
        total += value * value % 7
    recent = []
    for step in range(start, start + 1_200):
        part = _PARTS[7 * step % len(_PARTS)]
        total += part.step(step)
        recent.append((part.count, total))
        if len(recent) > 64:
            del recent[:32]
    return total


def io_yardstick(directory):
    """One write-fsync-rename, the way the profile database commits
    (``repro.collect.database._atomic_write``)."""
    path = os.path.join(directory, "yardstick")
    with open(path + ".tmp", "wb") as handle:
        handle.write(b"\0" * 2048)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(path + ".tmp", path)


class Stopwatch:
    """``with Stopwatch() as watch``: wall seconds, and the user-mode
    CPU seconds of this process among them."""

    wall = user = 0.0

    def __enter__(self):
        self._user = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.wall = time.perf_counter() - self._start
        self.user = resource.getrusage(
            resource.RUSAGE_SELF).ru_utime - self._user


class Calibration:
    """The yardstick readings taken around one stretch of timed work."""

    def __init__(self):
        self.cpu = []       # seconds per cpu_yardstick()
        self.io = []        # seconds per io_yardstick()

    def read(self, directory):
        """Read both yardsticks once; return the seconds that took.
        *directory* is where the file is written."""
        start = time.perf_counter()
        cpu_yardstick(1_200 * len(self.cpu))
        middle = time.perf_counter()
        io_yardstick(directory)
        end = time.perf_counter()
        self.cpu.append(middle - start)
        self.io.append(end - middle)
        return end - start

    @property
    def cpu_slowdown(self):
        return statistics.mean(self.cpu) / CPU_REF_S

    @property
    def io_slowdown(self):
        # One commit of the file system's journal in fifty takes ten
        # times the others: the median reading, not the mean.
        return statistics.median(self.io) / IO_REF_S

    def seconds(self, wall, user):
        """*wall* seconds, of which *user* in user mode, as seconds of
        the reference machine.

        User-mode time slows with the interpreter work; the rest --
        system calls and waiting for the disk -- with the file write.
        """
        return user / self.cpu_slowdown + (wall - user) / self.io_slowdown


class Round:
    """What one round did."""

    def __init__(self, index, traced, path):
        self.index = index
        self.traced = traced
        self.path = path        # scratch directory, removed afterwards
        self.segments = []      # (span, seconds) in the order timed
        self.paid_wall = 0.0    # seconds in op and busy segments ...
        self.paid_user = 0.0    # ... of which in user mode
        self.yard = Calibration()
        self.work = 0           # units of work completed
        self.counts = {}        # exact: equal in every round
        self.measures = {}      # measured: may differ between rounds

    @property
    def ops(self):
        """Seconds per operation, in order."""
        return [seconds for span, seconds in self.segments if span == OP]

    @property
    def timed_s(self):
        """Wall seconds in every segment, the read side too."""
        return sum(seconds for _, seconds in self.segments)

    @property
    def calibrated_s(self):
        """Reference-machine seconds ``work_per_s`` pays for."""
        return self.yard.seconds(self.paid_wall, self.paid_user)


class Recorder:
    """The handle a workload reports through."""

    def __init__(self, scratch, tracer=None):
        self.scratch = scratch  # where the I/O yardstick writes
        self.tracer = tracer
        self.rounds = []
        self.failures = []
        self.round = None
        self._timed_s = 0.0
        self._yardstick_s = 0.0

    def begin_round(self, traced, path):
        self.round = Round(len(self.rounds), traced, path)
        self.rounds.append(self.round)
        return self.round

    def _read_yardsticks(self):
        """Keep the yardsticks' share of the timed seconds, with at
        least one reading in every round."""
        yard = self.round.yard
        while (not yard.cpu or self._yardstick_s
               < YARDSTICK_SHARE * self._timed_s):
            self._yardstick_s += yard.read(self.scratch)

    @contextlib.contextmanager
    def _timed(self, span):
        rnd = self.round
        self._read_yardsticks()
        if rnd.traced:
            self.tracer.op += span == OP
            self.tracer.begin(span)
        watch = Stopwatch()
        try:
            with watch:
                yield
        finally:
            if rnd.traced:
                self.tracer.end()
            rnd.segments.append((span, watch.wall))
            if span != SIDE:
                rnd.paid_wall += watch.wall
                rnd.paid_user += watch.user
            self._timed_s += watch.wall
            self._read_yardsticks()

    def op(self):
        """Time one operation (its latency feeds ``op_ms_*``)."""
        return self._timed(OP)

    def busy(self):
        """Time work that ``work_per_s`` pays for but is no operation."""
        return self._timed(BUSY)

    def side(self):
        """Time the round's read side: traced, but outside
        ``work_per_s`` (its rate is a per-layer metric)."""
        return self._timed(SIDE)

    def span(self, name):
        """A layer span the workload opens itself inside a timed
        segment, for a call too frequent to wrap one by one; nothing
        in a round that is not traced."""
        return self.tracer.span(name) if self.round.traced \
            else contextlib.nullcontext()

    def work(self, units):
        self.round.work += units

    def count(self, name, value):
        """Add to an exact count (compared between rounds)."""
        self.round.counts[name] = self.round.counts.get(name, 0) + value

    def note(self, name, value):
        """Record an exact non-additive value (a digest, a list)."""
        self.round.counts[name] = value

    def measure(self, name, value):
        self.round.measures[name] = value

    def fail(self, message):
        """A check failed: one failed operation."""
        self.failures.append(message)

    @property
    def attempted(self):
        return sum(len(rnd.ops) for rnd in self.rounds)


def work_rate(rounds, seconds):
    """The work of one round per second of the median round;
    *seconds* names the Round attribute to take: ``calibrated_s``
    (reference machine) or ``paid_wall`` (as measured)."""
    return rounds[0].work / statistics.median(
        getattr(rnd, seconds) for rnd in rounds)


def op_latency_ms(rounds):
    """(p50, p95) over every operation of *rounds*, in milliseconds of
    wall time as measured."""
    ops = [seconds for rnd in rounds for seconds in rnd.ops]
    return 1e3 * statistics.median(ops), 1e3 * percentile(ops, 0.95)


def percentile(values, fraction):
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]
