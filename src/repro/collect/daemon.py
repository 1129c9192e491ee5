"""The user-mode daemon of the collection system.

The daemon (paper section 4.3) extracts samples from the driver,
associates each with the executable image loaded at that PC in that
process (via loadmap events from the modified loader), aggregates them
into per-(image, event) profiles, and periodically merges the profiles
into the on-disk database.

Its processing cost is modelled per entry and charged against the
workload when computing overhead: samples that aggregated well in the
driver's hash table are cheap per sample, a high-eviction workload such
as gcc pays close to the full per-entry cost for every sample -- the
effect visible in the paper's Table 4 'daemon cost' column.

Crash recovery (the *continuous* in continuous profiling): drains are
two-phase against the driver (flush batches stay pinned until the
daemon acknowledges the merge) and are journaled to a write-ahead log
before processing; database merges are idempotent checkpoints carrying
per-CPU drain watermarks.  :meth:`Daemon.recover` rebuilds a daemon
from the last committed checkpoint, replays the journal (skipping
anything at or below the watermark, so nothing is counted twice) and
re-drains the driver's pinned batches.  Every sample the pipeline
cannot save is *accounted*: driver-side losses land in the per-CPU
``dropped`` counters, daemon-side losses in ``lost_samples``.
"""

import bisect
import os

from repro.collect.database import ImageProfile
from repro.collect.driver import ORDINAL_EVENT
from repro.cpu.events import EventType
from repro.ctx.ledger import CTX_SCHEMA, ContextLedger
from repro.faults.injector import NULL_INJECTOR, TransientDrainError

# Daemon cost model (cycles): per overflow/hash entry processed (three
# hash lookups, merge) and per aggregated sample (copy + accounting).
ENTRY_COST = 1000
PER_SAMPLE_COST = 8

#: Exponential-backoff base for retried drains (cycles charged to the
#: daemon per attempt; doubled each retry).
BACKOFF_BASE_CYCLES = 10_000

#: Failed flush attempts per CPU per drain before the daemon gives up
#: and tells the driver to drop that CPU's backlog (accounted loss).
MAX_DRAIN_RETRIES = 3

# Resident-memory model (bytes), following the paper's section 5.3
# description of what the daemon allocates.
BASE_RESIDENT = 1_400_000         # text + data + libc
PER_IMAGE = 4096                  # image map + bookkeeping
PER_PROFILE_ENTRY = 16            # hash-table entry per (offset, event)
PER_PROCESS = 512                 # loadmap list per active process


class Daemon:
    """Extracts, maps and merges samples."""

    def __init__(self, loader, periods=None, per_process_images=(),
                 faults=None, journal=None, ctx=None):
        """*periods* maps EventType -> mean sampling period (for the
        profile metadata the analysis needs).  *per_process_images*
        names images for which separate per-PID profiles are kept in
        addition to the merged ones (paper section 4.3).  *journal* is
        a :class:`~repro.collect.journal.DrainJournal` enabling replay
        after a crash; *faults* a :class:`~repro.faults.FaultInjector`.
        *ctx* is a :class:`~repro.ctx.ledger.ContextLedger` when the
        session runs with the request-context dimension (None = off:
        nothing context-related is computed or persisted).
        """
        self.loader = loader
        loader.add_listener(self.on_loadmap)
        self.periods = dict(periods or {})
        self.per_process_images = frozenset(per_process_images)
        self._maps = {}       # pid -> list of (start, end, image)
        self.images = {}      # image name -> Image
        self.profiles = {}    # image name -> ImageProfile
        self.process_profiles = {}  # (pid, image name) -> ImageProfile
        self.unknown = ImageProfile(image=None)
        self.unknown_samples = 0
        self.total_samples = 0
        self.entries_processed = 0
        self.cycles = 0
        self.drains = 0
        self.epoch = 0
        # Robustness accounting.
        self.recoveries = 0
        self.lost_samples = 0      # daemon-side accounted loss
        self.drain_retries = 0
        self.drain_failures = 0
        self.loadmaps_dropped = 0
        self.loadmaps_delayed = 0
        self.journal = journal
        self._pending_loadmaps = []
        self._drained_seq = {}     # cpu_id -> highest merged flush seq
        self._peak_resident = 0
        #: Request-context ledger (repro.ctx); None = dimension off.
        self.ctx = ctx
        #: epoch key -> closed epochs' ledger blobs (persisted with
        #: every checkpoint under the manifest's "ctx" key).
        self._ctx_closed = {}
        # image name -> (sorted proc starts, (start, end, name) rows)
        # for cheap offset -> procedure culprit attribution.
        self._proc_index = {}
        #: Fault injection (repro.faults); NULL_INJECTOR is zero-cost.
        self.faults = faults or NULL_INJECTOR

    def _touch_resident(self):
        """Sample resident memory at an allocation-relevant point.

        Called wherever the daemon's footprint can grow -- new
        loadmaps, sample processing, drains -- so the recorded peak
        cannot miss a spike that deflates (reaped process, closed
        epoch) before the next drain ends.
        """
        resident = self.resident_bytes()
        if resident > self._peak_resident:
            self._peak_resident = resident

    # -- loadmap path ------------------------------------------------------

    def on_loadmap(self, event):
        """Record that *event.pid* mapped *event.image* (loader callback)."""
        if self.faults.enabled:
            spec = self.faults.fires("daemon.loadmap")
            if spec is not None:
                if spec.action == "drop":
                    # A lost loadmap: samples from this mapping fall
                    # back to the loader's global map, or count as
                    # unknown -- degraded attribution, never a crash.
                    self.loadmaps_dropped += 1
                    return
                if spec.action == "delay":
                    self.loadmaps_delayed += 1
                    self._pending_loadmaps.append(event)
                    return
        self._apply_loadmap(event)

    def _apply_loadmap(self, event):
        self._maps.setdefault(event.pid, []).append(
            (event.image.base, event.image.end, event.image))
        self.images[event.image.name] = event.image
        self._touch_resident()

    def reap(self, pid):
        """Forget a terminated process's mappings."""
        self._maps.pop(pid, None)

    # -- sample path ---------------------------------------------------------

    def drain(self, driver):
        """Pull all pending samples out of *driver* and merge them.

        Flushes are retried with exponential backoff on transient
        failures; a CPU whose flush keeps failing has its backlog
        dropped (accounted in the driver's ``dropped`` counter) rather
        than wedging the whole drain.
        """
        self.drains += 1
        if self.ctx is not None and driver.ctx_table is not None:
            # Learn the driver's id -> class bindings before merging
            # entries keyed under those ids.  Ids are monotonic and
            # never reused, so absorbing the table is always safe.
            self.ctx.absorb_table(driver.ctx_table)
        if self._pending_loadmaps:
            pending, self._pending_loadmaps = self._pending_loadmaps, []
            for event in pending:
                self._apply_loadmap(event)
        for cpu_id in range(len(driver.cpus)):
            # A crash here models the daemon dying partway through a
            # drain cycle: earlier CPUs merged and acknowledged, later
            # ones still pinned in the driver.
            self.faults.check("daemon.drain.cpu")
            self._drain_cpu(driver, cpu_id)
            edges = driver.flush_edges(cpu_id)
            if edges:
                self._process_edges(edges)
        self._touch_resident()

    def _drain_cpu(self, driver, cpu_id):
        attempts = 0
        while True:
            try:
                self.faults.check("daemon.drain.flush")
                seq, entries = driver.begin_flush(cpu_id)
                break
            except TransientDrainError:
                self.drain_retries += 1
                attempts += 1
                if attempts >= MAX_DRAIN_RETRIES:
                    # Persistent failure: shed this CPU's backlog so the
                    # rest of the system keeps profiling.  The driver
                    # accounts the loss in its `dropped` counter.  No
                    # backoff is charged here -- there is no next
                    # attempt to wait for.
                    self.drain_failures += 1
                    driver.drop_pending(cpu_id)
                    return
                self.cycles += BACKOFF_BASE_CYCLES << min(attempts - 1, 6)
        self._ingest(driver, cpu_id, seq, entries)

    def _ingest(self, driver, cpu_id, seq, entries):
        """Journal, merge and acknowledge one flushed batch."""
        if entries:
            if self.journal is not None:
                self.journal.append(cpu_id, seq, entries)
            # A crash here (batch journaled, merge unacknowledged) is
            # the classic WAL window: replay re-merges it from the
            # journal, the watermark stops the re-drain double count.
            self.faults.check("daemon.drain.merge")
            self._process(entries)
        if seq > self._drained_seq.get(cpu_id, 0):
            self._drained_seq[cpu_id] = seq
        driver.ack(cpu_id, seq)

    def redrain_inflight(self, driver):
        """Merge batches the previous daemon flushed but never acked.

        Batches at or below the recovered watermark were already
        replayed from the journal and are simply acknowledged.
        """
        for cpu_id in range(len(driver.cpus)):
            for seq, entries in driver.recover_inflight(cpu_id):
                if seq <= self._drained_seq.get(cpu_id, 0):
                    driver.ack(cpu_id, seq)
                    continue
                self._ingest(driver, cpu_id, seq, entries)

    def _process_edges(self, edges):
        """Merge double-sampling edge samples into image profiles.

        Edges spanning two images (cross-image calls/returns) are
        dropped, as the prototype's analysis only uses intra-procedure
        edges."""
        for (pid, from_pc, to_pc), count in edges.items():
            image = self._find_image(pid, from_pc)
            if image is None or to_pc not in image:
                continue
            profile = self.profiles.get(image.name)
            if profile is None:
                profile = ImageProfile(image, periods=self.periods)
                self.profiles[image.name] = profile
            profile.add_edge(from_pc - image.base, to_pc - image.base,
                             count)

    def _process(self, entries):
        ledger = self.ctx
        find_image = self._find_image
        samples = 0
        for key, count in entries:
            pid, pc, event_ord = key[0], key[1], key[2]
            event = ORDINAL_EVENT[event_ord]
            samples += count
            image = find_image(pid, pc)
            if ledger is not None:
                # 3-tuple keys (pre-context journals, ctx-less CPUs)
                # land in the "<other>" bucket via OTHER_ID.
                ctx_id = key[3] if len(key) == 4 else 0
                cls = ledger.add_sample(ctx_id, event, count)
                if event is EventType.CYCLES and image is not None:
                    ledger.add_culprit(cls, image.name,
                                       self._procedure_at(image, pc),
                                       count)
            if image is None:
                self.unknown_samples += count
                continue
            profile = self.profiles.get(image.name)
            if profile is None:
                profile = ImageProfile(image, periods=self.periods)
                self.profiles[image.name] = profile
            profile.add(event, pc - image.base, count)
            if image.name in self.per_process_images:
                key = (pid, image.name)
                per_pid = self.process_profiles.get(key)
                if per_pid is None:
                    per_pid = ImageProfile(image, periods=self.periods)
                    self.process_profiles[key] = per_pid
                per_pid.add(event, pc - image.base, count)
        self.entries_processed += len(entries)
        self.total_samples += samples
        self.cycles += ENTRY_COST * len(entries) + PER_SAMPLE_COST * samples
        self._touch_resident()

    def _procedure_at(self, image, pc):
        """Name of the procedure of *image* containing *pc*.

        Culprit attribution runs per drained entry, so the per-image
        (start, end, name) rows are indexed once and bisected after.
        """
        index = self._proc_index.get(image.name)
        if index is None:
            rows = sorted((proc.start, proc.end, proc.name)
                          for proc in image.procedures)
            index = ([row[0] for row in rows], rows)
            self._proc_index[image.name] = index
        starts, rows = index
        slot = bisect.bisect_right(starts, pc) - 1
        if slot >= 0 and rows[slot][0] <= pc < rows[slot][1]:
            return rows[slot][2]
        return "<unknown>"

    def _find_image(self, pid, pc):
        maps = self._maps.get(pid)
        if maps:
            for start, end, image in maps:
                if start <= pc < end:
                    return image
        # Fall back to the global map (kernel-recognized static images,
        # or processes that predate the daemon).
        return self.loader.image_at(pc)

    # -- persistence -------------------------------------------------------

    def export_profiles(self):
        """Snapshot all merged profiles as plain picklable dicts.

        Returns {image name: {event: {offset: count}}} -- the mergeable
        form consumed by :mod:`repro.collect.parallel`'s reducer, which
        sums shards exactly like :meth:`_process` sums per-CPU hash
        table entries.
        """
        return {
            name: {event: dict(by_offset)
                   for event, by_offset in profile.counts.items()}
            for name, profile in self.profiles.items()
        }

    def _checkpoint_meta(self):
        """Recovery watermarks committed with every checkpoint."""
        return {
            "epoch": self.epoch,
            "total_samples": self.total_samples,
            "unknown_samples": self.unknown_samples,
            "entries_processed": self.entries_processed,
            "lost_samples": self.lost_samples,
            "recoveries": self.recoveries,
            "drains": self.drains,
            "drain_retries": self.drain_retries,
            "drain_failures": self.drain_failures,
            "loadmaps_dropped": self.loadmaps_dropped,
            "drained_seq": {str(cpu): seq
                            for cpu, seq in self._drained_seq.items()},
        }

    def _ctx_blob(self):
        """The manifest's ``ctx`` blob: every epoch's ledger, or None.

        Committed by :meth:`merge_to_disk` in the same atomic manifest
        rename as the samples (the fleet-ledger pattern), so samples
        and their attribution are always durable together.
        """
        if self.ctx is None:
            return None
        epochs = dict(self._ctx_closed)
        epochs["%04d" % self.epoch] = self.ctx.to_meta()
        return {"schema": CTX_SCHEMA, "epochs": epochs}

    def _owns_journal(self, database):
        return (self.journal is not None
                and os.path.dirname(self.journal.path)
                == getattr(database, "root", None))

    def merge_to_disk(self, database, epoch=None):
        """Checkpoint all in-memory profiles into *database*.

        The in-memory profiles are the epoch's cumulative state, so
        this *replaces* the epoch on disk (an idempotent checkpoint:
        running it twice, or re-running it after a crash, can never
        double-count).  On success the drain journal is truncated --
        everything it guarded is now durable.
        """
        # Sample the high-water mark before a following advance_epoch
        # can clear the profiles it reflects.
        self._touch_resident()
        if epoch is None:
            epoch = self.epoch
        # A crash here models dying between a drain and the merge.
        self.faults.check("daemon.checkpoint")
        # The live profiles, not a copy: the checkpoint only reads them.
        database.checkpoint({name: profile.counts
                             for name, profile in self.profiles.items()},
                            self.periods, epoch,
                            meta=self._checkpoint_meta(),
                            ctx=self._ctx_blob())
        if self._owns_journal(database):
            self.journal.truncate()

    def extract_delta(self):
        """Close the current epoch and return it as a shippable delta.

        Returns ``(epoch, profiles, periods, ctx_meta)`` where
        *profiles* is the plain-dict export of every sample merged
        since the last extraction (exactly the samples of the closed
        epoch: the in-memory profiles are cleared by the epoch advance,
        so two consecutive deltas never overlap) and *ctx_meta* is the
        closed epoch's request-context ledger
        (:meth:`~repro.ctx.ledger.ContextLedger.to_meta`; None when the
        context dimension is off).  This is the per-machine daemon's
        unit of shipment in :mod:`repro.fleet` -- the "new samples
        since last epoch" a fleet collector sends upstream, attribution
        included, instead of keeping a local database.
        """
        epoch = self.epoch
        profiles = self.export_profiles()
        periods = dict(self.periods)
        ctx_meta = self.ctx.to_meta() if self.ctx is not None else None
        self.advance_epoch()
        return epoch, profiles, periods, ctx_meta

    def advance_epoch(self, database=None):
        """Close the current epoch (paper section 4.3.3).

        Flushes the in-memory profiles (to *database* when given),
        clears them, and starts a new non-overlapping epoch.  Returns
        the new epoch number."""
        if database is not None:
            self.merge_to_disk(database)
        else:
            self._touch_resident()
        self.profiles = {}
        self.process_profiles = {}
        if self.ctx is not None:
            # Close the epoch's ledger alongside its profiles; the new
            # epoch starts attribution from scratch.
            self._ctx_closed["%04d" % self.epoch] = self.ctx.to_meta()
            self.ctx = ContextLedger()
        self.epoch += 1
        if database is not None:
            # Re-commit the watermarks under the new epoch so a crash
            # from here recovers into the new (empty) epoch instead of
            # resurrecting the closed one.
            database.update_checkpoint(self._checkpoint_meta())
        return self.epoch

    @classmethod
    def recover(cls, loader, database, journal=None, periods=None,
                per_process_images=(), faults=None, ctx=None):
        """Rebuild a daemon from *database*'s last durable checkpoint.

        Reloads the current epoch's committed profiles, seeds counters
        and per-CPU watermarks from the checkpoint metadata, then
        replays the drain journal -- skipping batches at or below the
        watermark so replay is idempotent.  Per-PID profiles are not
        persisted and restart empty for the epoch.  The caller should
        follow up with :meth:`redrain_inflight` to pick up batches the
        dead daemon left pinned in the driver.

        *ctx* is a seed :class:`~repro.ctx.ledger.ContextLedger` for
        context-enabled sessions, carrying the surviving driver
        table's id bindings.  It becomes the ledger when the crash
        predates the first checkpoint (no ``ctx`` blob on disk yet);
        with a blob, its bindings are unioned into the restored ledger
        so journal batches newer than the checkpoint -- whose ids were
        bound only in the live driver table -- still attribute.  Both
        are safe because ids are monotonic and never reused.
        """
        daemon = cls(loader, periods=periods,
                     per_process_images=per_process_images,
                     faults=faults, journal=journal)
        meta = database.checkpoint_meta() or {}
        daemon.epoch = meta.get("epoch", 0)
        daemon.total_samples = meta.get("total_samples", 0)
        daemon.unknown_samples = meta.get("unknown_samples", 0)
        daemon.entries_processed = meta.get("entries_processed", 0)
        daemon.lost_samples = meta.get("lost_samples", 0)
        daemon.drains = meta.get("drains", 0)
        daemon.drain_retries = meta.get("drain_retries", 0)
        daemon.drain_failures = meta.get("drain_failures", 0)
        daemon.loadmaps_dropped = meta.get("loadmaps_dropped", 0)
        daemon.recoveries = meta.get("recoveries", 0) + 1
        daemon._drained_seq = {
            int(cpu): seq
            for cpu, seq in meta.get("drained_seq", {}).items()}
        blob = database.get_meta("ctx")
        if blob is not None:
            # The dead daemon ran with the context dimension: rebuild
            # the current epoch's ledger (journal replay below re-adds
            # whatever the checkpoint missed) and keep closed epochs
            # as committed.
            epochs = dict(blob.get("epochs", {}))
            current = epochs.pop("%04d" % daemon.epoch, None)
            daemon.ctx = ContextLedger.from_meta(current)
            daemon._ctx_closed = epochs
            if ctx is not None:
                for ident, name in ctx.ids.items():
                    daemon.ctx.ids.setdefault(ident, name)
        elif ctx is not None:
            daemon.ctx = ctx
        images = {image.name: image
                  for image in getattr(loader, "images", [])}
        for image_name, event, counts, period in (
                database.load_all(daemon.epoch)):
            image = images.get(image_name)
            if image is None:
                # The image vanished across the restart: its committed
                # counts cannot be extended in memory and the next
                # checkpoint would silently shed them -- account them
                # as lost instead.
                daemon.lost_samples += sum(counts.values())
                continue
            profile = daemon.profiles.get(image_name)
            if profile is None:
                profile = ImageProfile(image, periods=daemon.periods)
                daemon.profiles[image_name] = profile
            for offset, count in counts.items():
                profile.add(event, offset, count)
        if journal is not None:
            for cpu_id, seq, entries in journal.replay():
                if seq <= daemon._drained_seq.get(cpu_id, 0):
                    continue
                daemon._process(entries)
                daemon._drained_seq[cpu_id] = seq
        daemon._touch_resident()
        return daemon

    # -- statistics --------------------------------------------------------

    def resident_bytes(self):
        """Estimated resident memory of the daemon right now.

        O(#profiles): each profile tracks its own entry count, so this
        is cheap enough to sample at every allocation-relevant point.
        """
        entries = sum(profile.entry_count()
                      for profile in self.profiles.values())
        return (BASE_RESIDENT
                + PER_IMAGE * len(self.images)
                + PER_PROFILE_ENTRY * entries
                + PER_PROCESS * len(self._maps))

    def peak_resident_bytes(self):
        return max(self._peak_resident, self.resident_bytes())

    def metrics(self):
        """Typed metric snapshot (normalized names, shard-mergeable)."""
        from repro.obs.schema import daemon_metrics

        return daemon_metrics(self)
