"""Deltas and the (simulated) machine-to-store shipping hop.

A :class:`Delta` is the fleet's unit of shipment: everything one
machine's daemon accumulated during one epoch, tagged with the machine
id, the epoch id, a per-machine batch sequence number, and the loadmap
generation the samples were attributed under.  The triple
``(machine, epoch, batch)`` is the delta's identity; the central store
dedupes on it, which is what makes delivery idempotent and therefore
retry-safe.

:class:`DeltaTransport` is the unreliable network between daemons and
the store.  It consults the ``fleet.ship`` fault point
(:mod:`repro.faults`): ``drop`` loses the delta in transit (the samples
become accounted fleet-hop loss), ``duplicate`` delivers it twice
(the store's dedupe must absorb it), ``delay`` holds it for the next
shipment (reordering arrival without losing anything), and
``transient`` times the shipment out retryably
(:class:`ShipTimeoutError` -- the sender keeps the delta spooled and
retries with backoff).

:class:`ShipSpool` is the sender-side bounded outbox of unacked
deltas: offered deltas stay spooled until the store's ack arrives,
timeouts charge a deterministic seeded-jitter exponential backoff, and
overflow drops the oldest entry with exact loss accounting so fleet
conservation still balances to the sample.
"""

import functools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.collect.database import FORMAT_COMPACT, encode_profile
from repro.faults.injector import (DELAY, DROP, DUPLICATE, FLEET_SHIP,
                                   NULL_INJECTOR, TRANSIENT)

#: Default bounded spool capacity (deltas) per machine.
DEFAULT_SPOOL_CAPACITY = 8


class ShipTimeoutError(RuntimeError):
    """A shipment timed out retryably; the delta stays spooled."""

    def __init__(self, delta_id: str) -> None:
        super().__init__("shipment of %s timed out" % delta_id)
        self.delta_id = delta_id


@dataclass(frozen=True)
class Delta:
    """One epoch's new samples from one machine."""

    machine_id: str
    epoch: int
    batch: int
    #: loadmap generation the samples were attributed under (bumps
    #: every time the machine's traffic source respawns processes).
    generation: int
    workload: str
    seed: int
    #: {image name: {event: {offset: count}}} (plain mergeable dicts).
    profiles: Dict[str, dict]
    #: {event: mean sampling period}.
    periods: dict
    #: {image name: [(procedure, start offset, end offset), ...]};
    #: shipped with the first batch of a new loadmap generation so the
    #: store can answer procedure-level queries without the images.
    symbols: Optional[Dict[str, list]] = None
    #: accounted collection-side loss on the machine at ship time
    #: (driver drops + daemon losses), for fleet-wide loss accounting.
    machine_lost: int = 0
    #: the epoch's request-context ledger
    #: (:meth:`~repro.ctx.ledger.ContextLedger.to_meta`), shipped with
    #: the samples it attributes; None when the dimension is off.
    ctx: Optional[dict] = None

    @property
    def delta_id(self):
        """The dedupe key: stable, human-readable, order-free."""
        return "%s/e%04d/b%04d" % (self.machine_id, self.epoch, self.batch)

    def total_samples(self):
        return sum(count
                   for by_event in self.profiles.values()
                   for by_offset in by_event.values()
                   for count in by_offset.values())

    def encoded_bytes(self):
        """Wire size: canonical v3-compact encoding of every profile."""
        return self._wire_size

    @functools.cached_property
    def _wire_size(self):
        # A delta is immutable and is sized at every hop (ship, each
        # delivered copy, ingest): encode once per object.
        total = 0
        for image, by_event in self.profiles.items():
            for event, by_offset in by_event.items():
                total += len(encode_profile(
                    by_offset, image, event,
                    int(self.periods.get(event, 1)), FORMAT_COMPACT,
                    self.epoch & 0xFFFF))
        return total


@dataclass
class TransportStats:
    """Accounting for the fleet hop (everything is conserved)."""

    shipped: int = 0            # deltas handed to the transport
    delivered: int = 0          # delta copies handed to the store
    lost_deltas: int = 0        # dropped in transit
    lost_samples: int = 0       # samples aboard dropped deltas
    duplicated: int = 0         # deltas delivered twice
    delayed: int = 0            # deltas deferred to a later shipment
    timeouts: int = 0           # retryable shipment timeouts
    bytes_shipped: int = 0      # wire bytes of delivered copies

    def to_dict(self):
        return {
            "shipped": self.shipped,
            "delivered": self.delivered,
            "lost_deltas": self.lost_deltas,
            "lost_samples": self.lost_samples,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "timeouts": self.timeouts,
            "bytes_shipped": self.bytes_shipped,
        }


class DeltaTransport:
    """Ships deltas from machine daemons to the central store.

    Deterministic: given the same fault plan and the same shipment
    sequence, the same deltas are dropped/duplicated/delayed.  Every
    lost sample is accounted in :attr:`stats` -- the conservation
    invariant (``repro.check``) extends over this hop.
    """

    def __init__(self, faults=None):
        self.faults = faults or NULL_INJECTOR
        self.stats = TransportStats()
        self._delayed: List[Delta] = []

    def ship(self, delta):
        """Offer *delta* to the network; return the delivered copies.

        The returned list preserves arrival order (delayed deltas from
        earlier shipments arrive first); it may be empty (dropped), or
        contain the same delta twice (duplicate delivery).
        """
        self.stats.shipped += 1
        spec = self.faults.fires(FLEET_SHIP) if self.faults.enabled else None
        if spec is not None and spec.action == TRANSIENT:
            # A retryable timeout: nothing was delivered or lost, the
            # sender's spool keeps the delta and backs off.  Deltas
            # delayed by earlier shipments stay held for the next
            # successful ship (or the final flush).
            self.stats.timeouts += 1
            raise ShipTimeoutError(delta.delta_id)
        deliveries: List[Delta] = []
        if self._delayed:
            pending, self._delayed = self._delayed, []
            deliveries.extend(pending)
        if spec is not None and spec.action == DROP:
            self.stats.lost_deltas += 1
            self.stats.lost_samples += delta.total_samples()
        elif spec is not None and spec.action == DELAY:
            self.stats.delayed += 1
            self._delayed.append(delta)
        elif spec is not None and spec.action == DUPLICATE:
            self.stats.duplicated += 1
            deliveries.extend((delta, delta))
        else:
            deliveries.append(delta)
        self.stats.delivered += len(deliveries)
        self.stats.bytes_shipped += sum(d.encoded_bytes()
                                        for d in deliveries)
        return deliveries

    def flush(self):
        """Deliver anything still held back (end of session)."""
        pending, self._delayed = self._delayed, []
        for delivery in pending:
            self.stats.delivered += 1
            self.stats.bytes_shipped += delivery.encoded_bytes()
        return pending


@dataclass
class SpoolEntry:
    """One spooled delta and its shipment bookkeeping."""

    delta: Delta
    attempts: int = 0
    #: at least one copy reached the store (only the ack was lost);
    #: dropping a delivered entry from the spool loses no samples.
    delivered: bool = False


def seeded_backoff(retry, base_ms, cap_ms, rng):
    """The delay (ms) before retry number *retry* (0-based).

    Exponential doubling from *base_ms* capped at *cap_ms*, scaled
    into ``[0.5, 1.0)`` of itself by the caller's seeded PRNG -- no
    wall clock, no unseeded jitter (the ``lint/unseeded-backoff`` rule
    keeps it that way).  The exponent stops at 16 so a delta retried
    for a long time never overflows a float.
    """
    delay = min(cap_ms, base_ms * (2 ** min(retry, 16)))
    return delay * (0.5 + 0.5 * rng.random())


@dataclass
class ShipSpool:
    """Bounded sender-side outbox of unacked deltas.

    Deltas stay spooled from :meth:`offer` until :meth:`ack`; a
    timeout charges a deterministic exponential-backoff delay with
    seeded jitter (modelled, not slept -- the simulation has no wall
    clock) via :meth:`backoff_for_retry`.  When the spool overflows,
    the *oldest* entry is dropped and its samples are accounted
    exactly (``dropped_samples``), unless a copy already reached the
    store, so the fleet conservation identity keeps balancing:

        stored + transit_lost + spool_dropped + residue
            + quarantined == shipped
    """

    capacity: int = DEFAULT_SPOOL_CAPACITY
    #: first retry backoff, milliseconds (modelled).
    base_ms: float = 4.0
    #: backoff ceiling, milliseconds.
    cap_ms: float = 250.0
    #: jitter seed (the whole backoff sequence is deterministic).
    seed: int = 0
    offered: int = 0
    retries: int = 0
    backoff_ms: float = 0.0
    dropped_deltas: int = 0
    dropped_samples: int = 0
    peak_depth: int = 0
    _entries: List[SpoolEntry] = field(default_factory=list)
    _rng: random.Random = None

    def __post_init__(self):
        self.capacity = max(1, int(self.capacity))
        self._rng = random.Random(self.seed)

    def __len__(self):
        return len(self._entries)

    def pending(self):
        """Spooled entries, oldest first (ship in this order)."""
        return list(self._entries)

    def offer(self, delta):
        """Spool *delta*; return deltas evicted by overflow (oldest
        first), their samples already accounted in
        ``dropped_samples``."""
        self.offered += 1
        self._entries.append(SpoolEntry(delta))
        evicted = []
        while len(self._entries) > self.capacity:
            victim = self._entries.pop(0)
            self.dropped_deltas += 1
            if not victim.delivered:
                self.dropped_samples += victim.delta.total_samples()
            evicted.append(victim.delta)
        self.peak_depth = max(self.peak_depth, len(self._entries))
        return evicted

    def ack(self, delta_id):
        """The store acknowledged *delta_id*: forget it."""
        self._entries = [entry for entry in self._entries
                         if entry.delta.delta_id != delta_id]

    def mark_delivered(self, delta_id):
        """A copy reached the store (even if the ack then got lost)."""
        for entry in self._entries:
            if entry.delta.delta_id == delta_id:
                entry.delivered = True

    def backoff_for_retry(self, entry):
        """Charge one retry's backoff; return the modelled delay (ms)."""
        entry.attempts += 1
        self.retries += 1
        delay = seeded_backoff(entry.attempts - 1, self.base_ms,
                               self.cap_ms, self._rng)
        self.backoff_ms += delay
        return delay

    def abandon(self):
        """Terminally drop everything still spooled (session end).

        Returns the abandoned deltas; undelivered samples land in
        ``dropped_samples`` so nothing is lost silently.
        """
        abandoned = []
        for entry in self._entries:
            self.dropped_deltas += 1
            if not entry.delivered:
                self.dropped_samples += entry.delta.total_samples()
            abandoned.append(entry.delta)
        self._entries = []
        return abandoned

    def to_dict(self):
        return {
            "capacity": self.capacity,
            "depth": len(self._entries),
            "peak_depth": self.peak_depth,
            "offered": self.offered,
            "retries": self.retries,
            "backoff_ms": round(self.backoff_ms, 3),
            "dropped_deltas": self.dropped_deltas,
            "dropped_samples": self.dropped_samples,
        }
