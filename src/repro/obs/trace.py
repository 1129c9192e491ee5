"""Hierarchical trace spans in Chrome trace-event form.

Spans record where a run spends its wall time -- ``span("analyze")``
around ``span("analyze.solver")`` nests naturally, and the emitted
events use the Chrome ``about:tracing`` / Perfetto JSON event schema
("ph", "ts", "dur" in microseconds), one JSON object per line (JSONL).
Wrap the lines in ``[...]`` (``jq -s .``) or give
:func:`write_events` a ``.json`` path to get a file those viewers open
directly.

The recorder takes an injected ``clock`` so tests control time
exactly; the disabled path (:data:`repro.obs.NULL_OBS`) has no
recorder and reads no clock at all.
"""

import json
import time
from contextlib import contextmanager

#: Chrome trace-event phases used here: complete spans, instant
#: events, counter series, and metadata.
PH_SPAN = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"
PH_METADATA = "M"


class TraceRecorder:
    """Collects one process's trace events (pid 0, tid 0);
    hierarchical via nested ``span()``."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self.events = []

    def _now_us(self):
        return (self._clock() - self._t0) * 1e6

    @contextmanager
    def span(self, name, **args):
        """Record a complete ("X") event around the enclosed block."""
        started = self._now_us()
        try:
            yield self
        finally:
            event = {"ph": PH_SPAN, "name": name, "ts": started,
                     "dur": self._now_us() - started, "pid": 0, "tid": 0}
            if args:
                event["args"] = args
            self.events.append(event)

    def instant(self, name, **args):
        event = {"ph": PH_INSTANT, "name": name, "ts": self._now_us(),
                 "pid": 0, "tid": 0, "s": "t"}
        if args:
            event["args"] = args
        self.events.append(event)


def write_events(path, events):
    """Write *events* to *path*: JSONL, or a JSON array for ``.json``
    paths (directly loadable in ``about:tracing``/Perfetto)."""
    with open(path, "w") as handle:
        if str(path).endswith(".json"):
            json.dump(events, handle, indent=1, sort_keys=True)
            handle.write("\n")
        else:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def read_events(path):
    """Parse a trace file written by :func:`write_events` (JSONL or a
    JSON array)."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return json.loads(stripped)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def span_durations(events):
    """Aggregate "X" spans: {name: {count, total_us, self_us}}.

    ``self_us`` excludes time spent in spans nested inside (same pid
    and tid, contained ts range), giving the per-phase exclusive time
    the ``dcpimon`` report prints.
    """
    spans = [e for e in events if e.get("ph") == PH_SPAN]
    # Sort outermost-first so a stack sweep can subtract child time.
    spans.sort(key=lambda e: (e.get("pid", 0), e.get("tid", 0),
                              e["ts"], -e["dur"]))
    self_us = [e["dur"] for e in spans]
    stack = []  # indices of spans still open at the sweep point
    for i, event in enumerate(spans):
        key = (event.get("pid", 0), event.get("tid", 0))
        while stack:
            top = spans[stack[-1]]
            if ((top.get("pid", 0), top.get("tid", 0)) != key
                    or top["ts"] + top["dur"] <= event["ts"] + 1e-9):
                stack.pop()
            else:
                break
        if stack:
            self_us[stack[-1]] -= event["dur"]
        stack.append(i)
    result = {}
    for i, event in enumerate(spans):
        entry = result.setdefault(event["name"], {"count": 0,
                                                  "total_us": 0.0,
                                                  "self_us": 0.0})
        entry["count"] += 1
        entry["total_us"] += event["dur"]
        entry["self_us"] += max(0.0, self_us[i])
    return result


def trace_counters(events):
    """Last value of every counter ("C") series in *events*."""
    values = {}
    for event in sorted((e for e in events if e.get("ph") == PH_COUNTER),
                        key=lambda e: e["ts"]):
        values[event["name"]] = event.get("args", {}).get("value")
    return values
