"""Fleet-scale continuous profiling: many machines, one epoch store.

The paper ran DCPI "on most machines" at WRL and aggregated weeks of
profiles per machine; this package simulates that deployment shape.
``FleetSession`` stands up N deterministic machines (driver + daemon +
server workload each), ships per-epoch profile deltas over a faultable
transport into one crash-safe ``FleetStore``, applies retention
(keep-recent-full, merge-downsample-old), and ``FleetQuery`` answers
the fleet-wide questions -- top, movers, timeseries, regress -- with
sampling-error significance bounds.  ``dcpifleet`` is the CLI.
"""

from repro.fleet.machine import (DEFAULT_WORKLOADS, FleetConfig,
                                 FleetMachine, FleetResult, FleetSession)
from repro.fleet.query import (DEFAULT_Z, FleetQuery, load_baseline,
                               parse_epochs, share_error)
from repro.fleet.retention import (RetentionPolicy, compact,
                                   compactable_windows, downsample)
from repro.fleet.store import (LEDGER_VERSION, FleetShard, FleetStore,
                               FleetStoreBusyError, IngestRetry)
from repro.fleet.transport import (Delta, DeltaTransport, ShipSpool,
                                   ShipTimeoutError, TransportStats)

__all__ = [
    "DEFAULT_WORKLOADS",
    "DEFAULT_Z",
    "Delta",
    "DeltaTransport",
    "FleetConfig",
    "FleetMachine",
    "FleetQuery",
    "FleetResult",
    "FleetSession",
    "FleetShard",
    "FleetStore",
    "FleetStoreBusyError",
    "IngestRetry",
    "LEDGER_VERSION",
    "RetentionPolicy",
    "ShipSpool",
    "ShipTimeoutError",
    "TransportStats",
    "compact",
    "compactable_windows",
    "downsample",
    "load_baseline",
    "parse_epochs",
    "share_error",
]
