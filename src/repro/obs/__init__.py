"""``repro.obs``: self-monitoring for the profiler itself.

The paper spends section 5 measuring its own collection system --
overhead, daemon memory, hash-table behavior.  This package gives the
reproduction the same introspection as a first-class subsystem:

* :mod:`repro.obs.metrics` -- counters, gauges and histograms in a
  registry whose snapshots merge order-independently across shards;
* :mod:`repro.obs.trace` -- hierarchical spans emitted as Chrome
  ``about:tracing``/Perfetto-compatible JSONL;
* :mod:`repro.obs.schema` -- the normalized metric namespace that
  replaced the old ad-hoc ``stats()`` dicts;
* :mod:`repro.obs.report` -- the one ``dcpi*`` JSON report writer
  and the ``dcpimon`` report renderer.

Instrumentation is zero-cost when disabled: :data:`NULL_OBS` answers
every call with shared no-op objects and never reads a clock.
"""

from repro.obs.metrics import (COUNTER, GAUGE, HISTOGRAM, NULL_REGISTRY,
                               Counter, Gauge, Histogram, MetricsRegistry,
                               flatten_metrics, merge_metrics)
from repro.obs.observability import NULL_OBS, Observability, ObsConfig
from repro.obs.schema import (daemon_metrics, derive, driver_metrics,
                              hashtable_metrics, session_metrics)
from repro.obs.trace import (NULL_TRACE, TraceRecorder, read_events,
                             span_durations, trace_counters)

__all__ = [
    "COUNTER", "GAUGE", "HISTOGRAM",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NULL_REGISTRY", "NULL_OBS", "NULL_TRACE",
    "Observability", "ObsConfig", "TraceRecorder",
    "merge_metrics", "flatten_metrics",
    "read_events", "span_durations", "trace_counters",
    "driver_metrics", "daemon_metrics", "hashtable_metrics",
    "session_metrics", "derive",
]
