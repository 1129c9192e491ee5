"""In-memory span recorder for the traced benchmark run.

The recorder lives entirely in the benchmark: it wraps *public*
callables of the program from outside (a class attribute, or every
``repro.*`` module binding of a function), records one span per call
-- name, start, end, the span that caused it, and the benchmark
operation it belongs to -- and removes the wrappers again.  Nothing is
written while the benchmark runs; spans are summarised and dumped as
Chrome-trace JSON once at the end.

A layer's *self time* is its span's duration minus the part of that
interval its direct child spans cover, so nested layers (a session
that runs the machine that calls the driver) never count a second
twice and the self times of one operation sum to its wall time.
"""

import contextlib
import functools
import inspect
import sys
import time

#: Span record layout (plain lists: cheap to create on hot paths).
NAME, START, END, PARENT, OP, PHASE = range(6)


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []         # indices of the currently open spans
        self._installed = []    # (owner, attr, original) to restore
        #: identifier shared by every span of one benchmark operation
        self.op = 0
        #: "setup", "timed" or "extras" -- which part of the run
        self.phase = "setup"

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent, self.op,
                           self.phase])

    def end(self):
        self.spans[self._open.pop()][END] = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, func, name):
        # A call is recorded only while a span is open: the benchmark
        # opens one around set-up and around everything it times, so
        # its own untimed checks (which call the same public functions)
        # leave no spans.
        if inspect.isgeneratorfunction(func):
            # Only the time spent *inside* the generator is the
            # layer's: one span per resumption, closed at each yield,
            # so the consumer's work between items is not charged.
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                items = func(*args, **kwargs)
                if not self._open:
                    yield from items
                    return
                while True:
                    self.begin(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.end()
                    yield item
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not self._open:
                    return func(*args, **kwargs)
                self.begin(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    self.end()
        return wrapper

    def install(self, targets, skip=()):
        """Wrap every ``(owner, attr, span name)`` of *targets*.

        *owner* is a class (the method is replaced on the class) or a
        module (the function is replaced wherever a ``repro`` module
        binds it, because callers import it by name).  Span names in
        *skip* are left alone.
        """
        functions = {}
        for owner, attr, name in targets:
            if name in skip:
                continue
            original = vars(owner)[attr]
            if not inspect.isfunction(original):
                raise TypeError("%s.%s is not a plain function"
                                % (owner.__name__, attr))
            wrapper = self._wrapper(original, name)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))
            else:
                functions[id(original)] = (original, wrapper)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                found = functions.get(id(value))
                if found is not None:
                    setattr(module, attr, found[1])
                    self._installed.append((module, attr, found[0]))

    def uninstall(self):
        """Put every original callable back."""
        wrappers = {}
        while self._installed:
            owner, attr, original = self._installed.pop()
            wrappers[id(vars(owner)[attr])] = original
            setattr(owner, attr, original)
        # A module first imported while the wrappers were installed
        # bound the wrapper by name; restore those bindings too.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = wrappers.get(id(value))
                if original is not None:
                    setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def summary(self, phase="timed"):
        """``{name: {"calls", "self_s", "total_s"}}`` for one phase."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[END] is not None and span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        rows = {}
        for index, span in enumerate(self.spans):
            if span[END] is None or span[PHASE] != phase:
                continue
            row = rows.setdefault(span[NAME], {"calls": 0, "self_s": 0.0,
                                               "total_s": 0.0})
            duration = span[END] - span[START]
            row["calls"] += 1
            row["self_s"] += duration - child[index]
            row["total_s"] += duration
        return rows

    def durations(self, prefix, phase="timed"):
        """Inclusive durations of the spans whose name has *prefix*."""
        return [span[END] - span[START] for span in self.spans
                if span[END] is not None and span[PHASE] == phase
                and span[NAME].startswith(prefix)]

    def chrome_trace(self):
        """The spans as Chrome-trace "complete" events (ts in us)."""
        origin = self.spans[0][START] if self.spans else 0.0
        return {"traceEvents": [{
            "name": span[NAME], "ph": "X", "pid": 0, "tid": 0,
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "args": {"id": index, "parent": span[PARENT],
                     "op": span[OP], "phase": span[PHASE]},
        } for index, span in enumerate(self.spans)
            if span[END] is not None]}


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]
