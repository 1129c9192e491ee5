"""``repro.obs``: self-monitoring for the profiler itself.

The paper spends section 5 measuring its own collection system --
overhead, daemon memory, hash-table behavior.  This package gives the
reproduction the same introspection as a first-class subsystem:

* :mod:`repro.obs.schema` -- the normalized metric namespace: typed
  snapshots read off the objects that keep each count, merged
  order-independently across shards and flattened with derived rates;
* :mod:`repro.obs.trace` -- hierarchical spans emitted as Chrome
  ``about:tracing``/Perfetto-compatible JSONL;
* :mod:`repro.obs.report` -- the one ``dcpi*`` JSON report writer
  and the ``dcpimon`` report renderer.

There is no live metrics registry: a count has one home, the object
that does the work.  :class:`Observability` only records where the
wall time went (spans), and it is zero-cost when disabled --
:data:`NULL_OBS` answers every span with a shared no-op context and
never reads a clock.
"""

from repro.obs.observability import NULL_OBS, Observability, ObsConfig
from repro.obs.schema import (COUNTER, GAUGE, daemon_metrics, derive,
                              driver_metrics, flatten_metrics,
                              hashtable_metrics, merge_metrics,
                              session_metrics)
from repro.obs.trace import (TraceRecorder, read_events, span_durations,
                             trace_counters)

__all__ = [
    "COUNTER", "GAUGE",
    "NULL_OBS",
    "Observability", "ObsConfig", "TraceRecorder",
    "merge_metrics", "flatten_metrics",
    "read_events", "span_durations", "trace_counters",
    "driver_metrics", "daemon_metrics", "hashtable_metrics",
    "session_metrics", "derive",
]
