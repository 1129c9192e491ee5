"""The six benchmark workloads, one per DCPI pipeline (two for cpu).

Each workload says why it exists (``why``, copied into
``BENCHMARK.json``), what one unit of ``work_per_s`` is (``unit``) and
what one timed operation is (``operation``).
"""

#: The traffic every paper-figure bench of this repo uses.
PERIOD = {"mode": "default", "cycles_period": (240, 256),
          "event_period": 64}
BUDGET = 200_000


class BenchWorkload:
    """What the harness needs from a workload."""

    name = ""
    why = ""
    unit = ""
    operation = ""
    #: span names the tracer must not wrap for this workload
    trace_skip = ()

    def setup(self, seed, path):
        """Prepare inputs from *seed* (scratch files under *path*);
        return the state every round works from."""
        raise NotImplementedError

    def round(self, state, rec):
        """One fixed amount of work, reported through *rec*."""
        raise NotImplementedError

    def extras(self, state, rec, trace):
        """Untimed checks and statistics after the timed region."""


def all_workloads():
    """name -> workload class, in reporting order."""
    from perfbench.workloads.analyze import AnalyzeWide
    from perfbench.workloads.collect import CollectDense
    from perfbench.workloads.fleet import FleetIngest
    from perfbench.workloads.opt import OptLoop
    from perfbench.workloads.sim import SimReplay, SimStream

    return {cls.name: cls for cls in (SimReplay, SimStream, CollectDense,
                                      AnalyzeWide, FleetIngest, OptLoop)}
