"""Retention: keep recent epochs at full resolution, compact the rest.

A :class:`RetentionPolicy` keeps the newest ``keep_full`` epochs
untouched and merge-downsamples older ones: complete, aligned windows
of ``window`` consecutive epochs are merged into a single epoch (the
window start), optionally downsampling counts by ``count_divisor``.

Nothing is lost silently.  Merging is a lossless commutative sum;
downsampling divides each merged count by the divisor and records the
integer remainder in the store ledger's ``downsample_residue``, so the
accounting identity

    pre-compaction total == post-compaction total + recorded residue

holds exactly (directed tests in ``tests/test_fleet.py``).  The window
replacement itself is a single atomic manifest commit
(:meth:`ProfileDatabase.compact_epochs`): a crash leaves either the
original epochs or the compacted window, never both.
"""

from dataclasses import dataclass

from repro.collect.parallel import merge_profiles


@dataclass(frozen=True)
class RetentionPolicy:
    """Downsampling/retention settings for a fleet store."""

    #: newest epochs kept at full resolution (never compacted).
    keep_full: int = 8
    #: aligned window size merged into one epoch once old enough.
    window: int = 4
    #: counts in compacted windows are divided by this (1 = lossless).
    count_divisor: int = 1

    def __post_init__(self):
        if self.keep_full < 0 or self.window < 1 or self.count_divisor < 1:
            raise ValueError("invalid retention policy %r" % (self,))

    @classmethod
    def parse(cls, spec):
        """``"K:W:D"`` (or ``"K:W"``, or ``"K"``) -> RetentionPolicy."""
        parts = [int(p) for p in str(spec).split(":")]
        if not 1 <= len(parts) <= 3:
            raise ValueError("retention spec must be K[:W[:D]], got %r"
                             % (spec,))
        defaults = [cls.keep_full, cls.window, cls.count_divisor]
        keep_full, window, divisor = parts + defaults[len(parts):]
        return cls(keep_full=keep_full, window=window,
                   count_divisor=divisor)

    def spec(self):
        return "%d:%d:%d" % (self.keep_full, self.window,
                             self.count_divisor)


def compactable_windows(policy, epochs):
    """Window starts whose every epoch is old enough to compact.

    A window ``[ws, ws + window)`` qualifies only when it lies entirely
    below the full-resolution horizon (``newest - keep_full``), so a
    window is compacted exactly once, after it can no longer grow.
    """
    if not epochs:
        return []
    horizon = max(epochs) - policy.keep_full + 1
    starts = []
    for epoch in epochs:
        start = epoch - epoch % policy.window
        if start + policy.window <= horizon and start not in starts:
            starts.append(start)
    return sorted(starts)


def downsample(counts, divisor):
    """Divide every count by *divisor*; return (kept, residue).

    Entries that round down to zero are dropped from the map -- their
    whole count lands in the residue, exactly like the fractional part
    of surviving entries.  ``divisor == 1`` is the identity (residue 0).
    """
    if divisor == 1:
        return dict(counts), 0
    kept = {}
    residue = 0
    for offset in sorted(counts):
        count = counts[offset]
        quotient, remainder = divmod(count, divisor)
        if quotient:
            kept[offset] = quotient * divisor
        else:
            remainder = count
        residue += remainder
    return kept, residue


def compact(store, policy):
    """Apply *policy* to every shard of *store*; return a report.

    Deterministic and idempotent: each shard compacts independently
    (its windows derive from its own committed epochs, its residue
    lands in its own ledger, its replacement is its own atomic
    manifest commit), windows are processed in ascending order, each
    exactly once (the shard ledger's ``compacted_windows`` marks
    finished windows, committed atomically with the replacement).
    Each shard is compacted under its ingest lock, so a contended
    shard can raise :class:`~repro.fleet.store.FleetStoreBusyError`.
    """
    report = {"windows": [], "epochs_removed": 0, "residue": 0,
              "pre_samples": 0, "post_samples": 0}
    for shard in store.shards:
        # One writer section per shard, like an ingest: the windows
        # are chosen from, and the replacement committed against, the
        # shard's current manifest and ledger -- never a view that
        # predates another writer's commit -- and no ingest interleaves.
        with shard.writer():
            _compact_shard(shard, policy, report)
    return report


def _compact_shard(shard, policy, report):
    """Compact one shard in place, folding into *report*; the caller
    holds :meth:`FleetShard.writer`."""
    epochs = shard.db.epochs()
    done = set(shard.ledger["compacted_windows"])
    for start in compactable_windows(policy, epochs):
        if start in done:
            continue
        window = [epoch for epoch in epochs
                  if start <= epoch < start + policy.window]
        merged = merge_profiles(row for epoch in window
                                for row in shard.db.load_all(epoch))
        pre_total = merged.total()
        residue = 0
        for by_event in merged.counts.values():
            for event, counts in by_event.items():
                kept, lost = downsample(counts, policy.count_divisor)
                by_event[event] = kept
                residue += lost
        shard.ledger["compactions"] += 1
        shard.ledger["downsample_residue"] += residue
        shard.ledger["compacted_windows"] = sorted(done | {start})
        shard.db.compact_epochs(window, merged.counts, merged.periods,
                                start, meta=shard.ledger)
        done.add(start)
        report["windows"].append({
            "shard": shard.index,
            "start": start, "epochs": window, "residue": residue,
            "pre_samples": pre_total,
            "post_samples": pre_total - residue})
        report["epochs_removed"] += len(window) - 1
        report["residue"] += residue
        report["pre_samples"] += pre_total
        report["post_samples"] += pre_total - residue
