"""The observability bundle: one object a component records spans into.

:class:`ObsConfig` rides on :class:`~repro.collect.session.SessionConfig`
and decides whether a run is observed at all; :meth:`ObsConfig.build`
returns either a live :class:`Observability` (a trace recorder on an
injected clock) or the :data:`NULL_OBS` singleton whose spans are
no-ops -- components hold the same reference either way, so
instrumentation sites never branch on configuration.  Counts are not
kept here: each lives in the object that does the work and reaches a
report through :mod:`repro.obs.schema`.
"""

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.trace import TraceRecorder

#: The shared, reusable no-op context of every disabled span.
NULL_CONTEXT = nullcontext()


@dataclass
class ObsConfig:
    """Self-monitoring settings for one profiling session."""

    enabled: bool = False
    #: injected time source (tests pass a fake; None = perf_counter).
    clock: Optional[Callable[[], float]] = None

    def build(self):
        """The Observability for this config (NULL_OBS when disabled)."""
        if not self.enabled:
            return NULL_OBS
        return Observability(self)


class Observability:
    """A trace recorder plus the clock it reads."""

    enabled = True

    def __init__(self, config):
        self.clock = config.clock or time.perf_counter
        self.trace = TraceRecorder(clock=self.clock)

    def span(self, name, **args):
        return self.trace.span(name, **args)


class _NullObs:
    """The disabled bundle: no trace, no clock, spans that do nothing."""

    enabled = False

    def span(self, name, **args):
        return NULL_CONTEXT


NULL_OBS = _NullObs()
