"""The central, append-only, epoch-aware, *sharded* fleet store.

``FleetStore`` promotes "one session, one database" to "many sources,
one store": per-machine daemons ship epoch deltas
(:mod:`repro.fleet.transport`) and the store merges them into
crash-safe :class:`~repro.collect.database.ProfileDatabase` shards
(v3: CRC trailers, shadow paging, atomic manifest), one epoch
directory per fleet epoch per shard.

Sharding: a store is split into ``shards`` independent
:class:`FleetShard` directories, each with its own database, manifest,
ledger, and advisory ingest lock.  A delta is routed by a stable hash
of its machine id (``zlib.crc32`` -- unsalted, identical across
processes), so every machine always lands on the same shard and the
per-shard dedupe ledger stays authoritative.  N writer processes
ingesting disjoint machines therefore contend on nothing.

One layout on disk: ``<root>/STORE.json`` records the shard count K and
shard *i* lives at ``<root>/shards/s%02d`` -- K=1 (the default) is one
shard directory.  A root whose ``STORE.json`` does not parse, or that
holds data without one, is refused rather than opened empty.

Idempotent delivery: every applied delta id ``(machine, epoch, batch)``
is recorded in the owning shard's ledger committed *in the same atomic
manifest rename* as the delta's samples
(:meth:`ProfileDatabase.merge_epoch`), so a duplicate -- a transport
fault, a retry after a lost ack, or a replay after a crash between
merge and acknowledgment -- is recognized and dropped without double
counting.

Order independence: merging is a commutative integer sum over
``(epoch, image, event, offset)`` keys, so the merged counts -- and
their canonical encoded bytes -- are identical under any permutation
of delta arrivals *and any shard count* (property-tested in
``tests/test_fleet.py`` and ``tests/test_fleet_resilience.py``).

Writer contention is no longer fail-loud: a locked shard is retried on
a bounded, seeded-jitter exponential backoff schedule
(:class:`IngestRetry`); only an exhausted schedule raises
:class:`FleetStoreBusyError`.

Staleness protocol: every mutation of a shard -- an ingest, a
retention compaction -- runs inside :meth:`FleetShard.writer`, the one
place that decides whether this handle's cached manifest + ledger are
still the shard's committed state.  Under the lock it keeps them only
when the handle's previous locked section ended cleanly *and* the
database's commit sidecar still shows the mark this handle recorded
(:meth:`ProfileDatabase.is_current` -- any commit by any other handle,
locked or not, rewrites it); otherwise it reloads from disk, counted
by reason in :attr:`FleetShard.refreshes`:

* ``open`` -- the first locked section of a handle: what it loaded at
  open was read outside the lock, possibly in the middle of a commit;
* ``foreign_commit`` -- the sidecar moved (including a crash between
  sidecar and manifest rename: a needless but harmless reload);
* ``failed_commit`` -- the previous locked section raised (a failed
  commit, an injected ``fleet.store.ingest`` crash): the staged ledger
  is discarded with the rest of the view;
* ``no_fcntl`` -- no lock, no exclusion, so always reload.

An unchanged view costs one small file read instead of re-parsing the
manifest the handle itself just wrote (counted under ``"skip"``),
which is what keeps a long-lived ingest handle's per-delta cost from
growing with the store.
"""

import collections
import contextlib
import json
import os
import random
import time
import zlib

try:
    import fcntl
except ImportError:  # non-POSIX: locking degrades to a no-op
    fcntl = None

from dataclasses import dataclass

from repro.collect.database import ProfileDatabase, _atomic_write
from repro.collect.parallel import merge_profiles
from repro.faults.injector import FLEET_STORE_INGEST, NULL_INJECTOR
from repro.fleet.transport import seeded_backoff

#: Ledger schema version (stored in each shard manifest's "fleet" key,
#: committed atomically with every ingest).
LEDGER_VERSION = 1

#: Lock file guarding each shard's single-writer ingest path.
INGEST_LOCK_NAME = "INGEST.lock"

#: Store-level layout descriptor, written when a store is created.
STORE_META_NAME = "STORE.json"

#: Real sleeping between lock attempts (injectable for tests; the
#: backoff *schedule* itself is pure and seeded).
_SLEEP = time.sleep


class FleetStoreBusyError(RuntimeError):
    """A shard's ingest lock stayed held through every retry.

    Each shard is single-writer (its ledger is read-modify-write
    around each atomic manifest commit); a concurrent writer backs off
    and retries on the :class:`IngestRetry` schedule and only fails
    loudly once the bounded attempt budget is exhausted.
    """


@dataclass(frozen=True)
class IngestRetry:
    """Bounded retry-with-backoff policy for shard lock contention.

    The schedule is a pure function of the policy (seeded jitter, no
    wall-clock input), so two runs with the same policy wait the same
    deterministic amounts -- the ``lint/unseeded-backoff`` rule exists
    to keep it that way.
    """

    #: total lock acquisition attempts (>= 1) before failing loudly.
    attempts: int = 8
    #: first backoff delay, milliseconds.
    base_ms: float = 2.0
    #: exponential backoff ceiling, milliseconds.
    cap_ms: float = 50.0
    #: jitter seed (schedule is deterministic per seed).
    seed: int = 0

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("retry policy needs >= 1 attempt")

    def backoff_schedule(self):
        """Delays (ms) slept between attempts: ``attempts - 1`` values
        of :func:`~repro.fleet.transport.seeded_backoff` under a PRNG
        seeded with *seed* (decorrelates concurrent writers without
        wall-clock randomness)."""
        rng = random.Random(self.seed)
        return tuple(seeded_backoff(attempt, self.base_ms, self.cap_ms,
                                    rng)
                     for attempt in range(self.attempts - 1))

    def budget_ms(self):
        """Worst-case total backoff (the effective lock timeout)."""
        return sum(self.backoff_schedule())


def _empty_ledger():
    return {
        "version": LEDGER_VERSION,
        #: delta id -> 1: the set of applied deltas (only membership
        #: and size are ever read; per-machine totals are below).
        "applied": {},
        #: machine id -> {deltas, samples, lost (machine-side), workload}
        "machines": {},
        #: image name -> [[procedure, start offset, end offset], ...]
        "symbols": {},
        #: fleet epoch key ("%04d") -> merged request-context ledger
        #: meta for that epoch (repro.ctx), merged across machines.
        "ctx": {},
        "samples_ingested": 0,
        "bytes_ingested": 0,
        "duplicates_dropped": 0,
        "compactions": 0,
        "downsample_residue": 0,
        #: window-start epochs already compacted by retention.
        "compacted_windows": [],
        #: times a writer had to back off before winning the lock.
        "lock_retries": 0,
    }


class FleetShard:
    """One shard: a database + ledger + lock, single-writer-at-a-time."""

    def __init__(self, root, index=0, retry=None):
        self.root = os.fspath(root)
        self.index = index
        self.retry = retry or IngestRetry()
        self._backoff = self.retry.backoff_schedule()
        self._sleep = _SLEEP
        #: Open ``INGEST.lock`` and the process that opened it (a
        #: forked child must not share the parent's file description:
        #: flock would not exclude the two).
        self._lock_file = None
        self._lock_pid = None
        #: Why the next locked section must reload regardless of the
        #: commit sidecar; None once one has ended cleanly.
        self._stale = "open"
        #: Locked sections by refresh reason (``"skip"``: the cached
        #: view was current) -- this handle's, not the stored data's.
        self.refreshes = collections.Counter()
        self._refresh()

    def _refresh(self):
        """(Re)load the shard's manifest and ledger from disk.

        Called at open and, when :meth:`writer` finds the cached view
        stale, again under the ingest lock: another process may have
        committed since this handle last looked, and applying against
        a stale manifest would silently overwrite its records (the
        lost-update race the lock exists to prevent).
        """
        self.db = ProfileDatabase(os.path.join(self.root, "db"))
        self.ledger = self.db.get_meta("fleet") or _empty_ledger()

    # -- locking -----------------------------------------------------------

    def _acquire_with_backoff(self, handle):
        """Take the shard lock, retrying on the seeded backoff schedule.

        Returns the number of retries it took.  Raises
        :class:`FleetStoreBusyError` only once the whole
        :class:`IngestRetry` schedule is exhausted.
        """
        schedule = self._backoff
        for attempt in range(self.retry.attempts):
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                if attempt >= len(schedule):
                    raise FleetStoreBusyError(
                        "fleet shard %s is busy: %s still held after "
                        "%d attempts (%.1fms backoff budget); each "
                        "shard is single-writer"
                        % (self.root, INGEST_LOCK_NAME,
                           self.retry.attempts,
                           self.retry.budget_ms())) from None
                self._sleep(schedule[attempt] / 1000.0)
            else:
                return attempt
        raise AssertionError("unreachable")  # pragma: no cover

    @contextlib.contextmanager
    def _ingest_lock(self):
        """Advisory exclusive lock around one ingest (retry + timeout).

        ``flock`` on ``<shard>/INGEST.lock`` -- non-blocking attempts
        on a bounded, seeded-jitter backoff schedule, held only for
        the ingest's read-modify-write window, released on the way out
        even when the merge raises.  The lock file stays open for the
        handle's lifetime (one open file description per handle per
        process, so two handles still exclude each other).  On
        platforms without ``fcntl`` the lock degrades to a no-op,
        matching the documented single-writer-per-shard assumption.
        """
        if fcntl is None:
            yield 0
            return
        if self._lock_pid != os.getpid():
            os.makedirs(self.root, exist_ok=True)
            self._lock_file = open(
                os.path.join(self.root, INGEST_LOCK_NAME), "a+")
            self._lock_pid = os.getpid()
        retries = self._acquire_with_backoff(self._lock_file)
        try:
            yield retries
        finally:
            fcntl.flock(self._lock_file, fcntl.LOCK_UN)

    @contextlib.contextmanager
    def writer(self):
        """Hold the ingest lock with a current view of the shard.

        Every mutation of the shard goes through here (see the module
        docstring's staleness protocol).  A body that raises leaves
        the handle marked stale, so whatever it staged in
        ``self.ledger`` or the cached manifest is reloaded away by the
        next locked section.
        """
        with self._ingest_lock() as retries:
            if fcntl is None:
                reason = "no_fcntl"
            elif self._stale:
                reason = self._stale
            elif not self.db.is_current():
                reason = "foreign_commit"
            else:
                reason = None
            if reason is not None:
                self._refresh()
            self.refreshes[reason or "skip"] += 1
            if retries:
                self.ledger["lock_retries"] += retries
            self._stale = "failed_commit"
            yield
            self._stale = None

    # -- ingest ------------------------------------------------------------

    def ingest(self, delta, faults=None):
        """Merge one delivered delta; return True if it was applied.

        Dedupes on ``delta.delta_id``: a replay (duplicate delivery,
        retried shipment, re-ship after a lost ack) is counted and
        dropped.  The samples and the ledger entry become durable in
        one atomic manifest commit.  *faults* may fire
        ``fleet.store.ingest`` (a writer crash after staging the
        ledger, before the commit) -- the staged mutation dies with
        the process; a reopened store sees the pre-crash manifest.
        """
        with self.writer():
            return self._ingest_locked(delta, faults or NULL_INJECTOR)

    def _ingest_locked(self, delta, faults):
        if delta.delta_id in self.ledger["applied"]:
            self.ledger["duplicates_dropped"] += 1
            # Commit the dedupe counter without touching any profile.
            self.db.merge_epoch({}, {}, delta.epoch, meta=self.ledger)
            return False
        samples = delta.total_samples()
        size = delta.encoded_bytes()
        self.ledger["applied"][delta.delta_id] = 1
        machine = self.ledger["machines"].setdefault(
            delta.machine_id, {"deltas": 0, "samples": 0, "lost": 0,
                               "workload": delta.workload,
                               "seed": delta.seed})
        machine["deltas"] += 1
        machine["samples"] += samples
        machine["lost"] = max(machine["lost"], delta.machine_lost)
        if delta.symbols:
            for image, procs in delta.symbols.items():
                self.ledger["symbols"][image] = [list(p) for p in procs]
        if delta.ctx:
            # Merge this machine's epoch ledger into the shard's
            # per-epoch ledger; request keys are seed-prefixed so
            # machines union without collision.  Committed in the same
            # atomic manifest rename as the samples it attributes.
            from repro.ctx import merge_ledger_meta
            key = "%04d" % delta.epoch
            current = self.ledger["ctx"].get(key)
            metas = [current, delta.ctx] if current else [delta.ctx]
            self.ledger["ctx"][key] = merge_ledger_meta(metas)
        self.ledger["samples_ingested"] += samples
        self.ledger["bytes_ingested"] += size
        # The crash window: ledger staged in memory, manifest not yet
        # committed.  A crash here loses nothing durable -- the
        # reopened shard shows the pre-ingest state and the unacked
        # delta is simply re-shipped.
        if faults.enabled:
            faults.check(FLEET_STORE_INGEST)
        self.db.merge_epoch(delta.profiles, delta.periods, delta.epoch,
                            meta=self.ledger)
        return True


class FleetStore:
    """Sharded append-only fleet profile store with epoch queries."""

    def __init__(self, root, shards=None, retry=None):
        self.root = os.fspath(root)
        self.retry = retry or IngestRetry()
        persisted = self._read_store_meta()
        if persisted is None:
            for stray in ("db", "shards"):
                if os.path.isdir(os.path.join(self.root, stray)):
                    raise ValueError(
                        "%s holds %s/ but no %s: not a fleet store"
                        % (self.root, stray, STORE_META_NAME))
            shards = 1 if shards is None else int(shards)
            if shards < 1:
                raise ValueError("a store needs at least one shard")
            self._write_store_meta(shards)
        elif shards is not None and int(shards) != persisted:
            raise ValueError(
                "store %s is laid out as %d shard(s); cannot open it "
                "with shards=%d" % (self.root, persisted, int(shards)))
        else:
            shards = persisted
        self.num_shards = shards
        self.shards = [
            FleetShard(os.path.join(self.root, "shards", "s%02d" % index),
                       index, retry=self.retry)
            for index in range(shards)
        ]

    # -- layout ------------------------------------------------------------

    def _store_meta_path(self):
        return os.path.join(self.root, STORE_META_NAME)

    def _read_store_meta(self):
        """The persisted shard count, or None for a root with no
        layout file yet.  A layout file that does not parse is an
        error, never "no store here": guessing a shard count would
        open the store empty."""
        path = self._store_meta_path()
        try:
            with open(path) as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        try:
            shards = json.loads(text)["shards"]
        except (ValueError, KeyError, TypeError):
            shards = None
        if not isinstance(shards, int) or shards < 1:
            raise ValueError("store layout file %s is unreadable" % path)
        return shards

    def _write_store_meta(self, shards):
        # fsynced before the rename: an unparsable STORE.json refuses
        # the store forever, so a power cut must not leave one behind.
        os.makedirs(self.root, exist_ok=True)
        layout = json.dumps({"schema": 1, "shards": shards}) + "\n"
        _atomic_write(self._store_meta_path(), layout.encode("ascii"))

    def shard_for(self, machine_id):
        """The shard that owns *machine_id* (stable across processes)."""
        digest = zlib.crc32(str(machine_id).encode("utf-8"))
        return self.shards[digest % self.num_shards]

    @property
    def ledger(self):
        """A merged snapshot of the shard ledgers (writers mutate
        ``shard.ledger`` under that shard's lock, never this)."""
        from repro.ctx import merge_ledger_meta
        merged = _empty_ledger()
        ctx_by_epoch = {}
        windows = set()
        for shard in self.shards:
            ledger = shard.ledger
            merged["applied"].update(ledger["applied"])
            merged["machines"].update(ledger["machines"])
            merged["symbols"].update(ledger["symbols"])
            for key, meta in ledger["ctx"].items():
                ctx_by_epoch.setdefault(key, []).append(meta)
            for key in ("samples_ingested", "bytes_ingested",
                        "duplicates_dropped", "compactions",
                        "downsample_residue", "lock_retries"):
                merged[key] += ledger[key]
            windows.update(ledger["compacted_windows"])
        merged["ctx"] = {key: (metas[0] if len(metas) == 1
                               else merge_ledger_meta(metas))
                         for key, metas in ctx_by_epoch.items()}
        merged["compacted_windows"] = sorted(windows)
        return merged

    # -- ingest ------------------------------------------------------------

    def ingest(self, delta, faults=None):
        """Route one delivered delta to its shard and merge it there."""
        return self.shard_for(delta.machine_id).ingest(delta,
                                                       faults=faults)

    # -- read path ---------------------------------------------------------

    def epochs(self):
        """Sorted epoch ids with at least one committed profile."""
        epochs = set()
        for shard in self.shards:
            epochs.update(shard.db.epochs())
        return sorted(epochs)

    def load_all(self, epoch):
        """Yield ``(image, event, counts, period)`` across all shards.

        The store-level iteration every query and retention pass goes
        through; shard order is fixed (index order) but consumers only
        ever fold commutatively, so the result is shard-layout
        independent.
        """
        for shard in self.shards:
            yield from shard.db.load_all(epoch)

    def symbols(self):
        """{image: [(procedure, start offset, end offset), ...]}."""
        merged = {}
        for shard in self.shards:
            for image, procs in shard.ledger["symbols"].items():
                merged[image] = [tuple(p) for p in procs]
        return merged

    def machines(self):
        """Per-machine shipment accounting from the shard ledgers.

        Machine ids are disjoint across shards (a machine always
        hashes to one shard), so this union never merges entries.
        """
        merged = {}
        for shard in self.shards:
            for mid, entry in shard.ledger["machines"].items():
                merged[mid] = dict(entry)
        return merged

    def ctx_meta(self, epochs=None):
        """Merged request-context ledger over *epochs* (default: all).

        Returns a :func:`repro.ctx.merge_ledger_meta` blob -- the same
        shape ``dcpitrace`` reports from -- or None when no shipped
        delta carried the context dimension.
        """
        from repro.ctx import merge_ledger_meta
        if epochs is not None:
            wanted = {"%04d" % epoch for epoch in epochs}
        metas = []
        for shard in self.shards:
            stored = shard.ledger["ctx"]
            for key in sorted(stored):
                if epochs is None or key in wanted:
                    metas.append(stored[key])
        if not metas:
            return None
        return merge_ledger_meta(metas)

    def merged(self, epochs=None):
        """Reduce *epochs* (default: all) into a MergedProfiles.

        The reduction is the shard merge
        (:func:`repro.collect.parallel.merge_profiles`): commutative
        sums per (image, event, offset), so the result -- and its
        canonical ``encode_all`` bytes -- is independent of delta
        arrival order, epoch fold order, *and* the store's shard count.
        """
        if epochs is None:
            epochs = self.epochs()
        return merge_profiles(row for epoch in sorted(epochs)
                              for row in self.load_all(epoch))

    def total_samples(self, epochs=None, event=None):
        """Committed sample total over *epochs* (default: all)."""
        if epochs is None:
            epochs = self.epochs()
        total = 0
        for epoch in sorted(epochs):
            for shard in self.shards:
                total += shard.db.total_samples(epoch=epoch, event=event)
        return total

    # -- accounting --------------------------------------------------------

    def disk_bytes(self):
        """Bytes of committed profile payload (Table 5 style)."""
        return sum(shard.db.disk_bytes() for shard in self.shards)

    def quarantined_samples(self):
        """Samples quarantined by any shard's database."""
        return sum(shard.db.quarantined_samples()
                   for shard in self.shards)

    def downsample_residue(self):
        """Retention residue accounted across every shard."""
        return sum(shard.ledger["downsample_residue"]
                   for shard in self.shards)

    def verify(self):
        """Run every shard database's integrity verification.

        Returns ``{shard index: verify report}`` -- corrupt payloads
        are quarantined by the databases (PR 4 machinery) and show up
        in :meth:`quarantined_samples`.
        """
        return {shard.index: shard.db.verify()
                for shard in self.shards}

    def stats(self):
        """Ledger + database accounting in one flat dict."""
        ledger = self.ledger
        return {
            "epochs": len(self.epochs()),
            "shards": self.num_shards,
            "machines": len(ledger["machines"]),
            "deltas_applied": len(ledger["applied"]),
            "samples_ingested": ledger["samples_ingested"],
            "bytes_ingested": ledger["bytes_ingested"],
            "duplicates_dropped": ledger["duplicates_dropped"],
            "compactions": ledger["compactions"],
            "downsample_residue": ledger["downsample_residue"],
            "lock_retries": ledger["lock_retries"],
            "ctx_epochs": len(ledger["ctx"]),
            "stored_samples": self.total_samples(),
            "disk_bytes": self.disk_bytes(),
            "quarantined_samples": self.quarantined_samples(),
        }
