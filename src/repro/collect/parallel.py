"""Parallel sharded profiling runs and the deterministic profile reducer.

The paper's collector is parallel by construction: every CPU owns a
private hash table, and the daemon merges whatever order the drains
happen to deliver (sections 4.2-4.3).  This module lifts that shape one
level up.  A *shard* is one complete profiling run -- a workload under
a :class:`SessionConfig` -- executed as a full :class:`ProfileSession`
inside a worker process.  Each worker ships back its per-image sample
maps in plain-dict (picklable) form, and :func:`merge_profiles` reduces
them exactly like the daemon reduces per-CPU tables: commutative
integer sums keyed by (image, event, offset).  The merged profile is
therefore independent of worker count, scheduling, and completion
order, which ``tests/test_parallel.py`` verifies byte-for-byte against
a serial run.  The fleet store's queries and its retention compaction
reduce stored epochs with the same function.

:class:`ParallelSessionRunner` owns the process pool; its
:meth:`~ParallelSessionRunner.map` helper is also the substrate the
``dcpibench`` benchmark harness (:mod:`repro.tools.benchrunner`) uses
to fan whole benchmark files out across workers.
"""

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.collect.database import (FORMAT_COMPACT, ProfileDatabase,
                                    encode_profile)
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.ctx import merge_ledger_meta
from repro.obs import merge_metrics


@dataclass(frozen=True)
class ShardSpec:
    """One unit of profiling work: a workload run under *config*.

    ``workload`` is a registry name (:mod:`repro.workloads.registry`);
    workers re-instantiate it so images link fresh per machine.  The
    config crosses the process boundary as is, fault plan included
    (plans are frozen and picklable).
    """

    workload: str
    config: SessionConfig
    max_instructions: Optional[int]

    def label(self):
        return "%s/seed%d/%s" % (self.workload, self.config.seed,
                                 self.config.mode)


@dataclass
class ShardResult:
    """What one worker ships back: mergeable maps plus run statistics."""

    spec: ShardSpec
    #: {image name: {event: {offset: count}}} (plain picklable dicts).
    profiles: dict
    #: {event: mean sampling period} (profile metadata).
    periods: dict
    instructions: int
    cycles: int
    elapsed: float = 0.0
    #: typed self-monitoring snapshot (repro.obs.schema names), always
    #: present; reduced across shards exactly like the profiles.
    obs: Optional[dict] = None
    #: Chrome-trace events of the shard's run (obs-enabled shards).
    trace_events: Optional[list] = None
    #: context-ledger blob (ContextLedger.to_meta) of ctx-enabled
    #: shards; None when the shard ran without the context dimension.
    ctx: Optional[dict] = None

    @property
    def samples(self):
        return self.obs["driver.samples"]["value"]


def run_shard(spec):
    """Execute one shard start-to-finish; the pool's worker function.

    Runs in a separate process under the pool, but is equally callable
    in-process -- the serial path of :class:`ParallelSessionRunner`
    uses the exact same code, which is what makes serial/parallel
    byte-identity a meaningful test.
    """
    from repro.workloads.registry import get_workload

    started = time.perf_counter()
    workload = get_workload(spec.workload)
    session = ProfileSession(MachineConfig(num_cpus=workload.num_cpus),
                             spec.config)
    result = session.run(workload, max_instructions=spec.max_instructions)
    export = result.export_mergeable()
    return ShardResult(
        spec=spec,
        profiles=export["profiles"],
        periods=export["periods"],
        instructions=result.instructions,
        cycles=result.cycles,
        elapsed=time.perf_counter() - started,
        obs=export["obs"],
        trace_events=(list(result.obs.trace.events)
                      if result.obs.enabled else None),
        ctx=export["ctx"])


def profile_rows(profiles, periods):
    """Yield ``(image, event, counts, period)`` rows of a profile map.

    *profiles* is ``{image: {event: {offset: count}}}`` (a shard's
    export or a :class:`MergedProfiles`' counts); an event missing
    from *periods* reads period 1, as :meth:`MergedProfiles.encode`
    does.  The rows are :func:`merge_profiles`' input shape, the one
    :meth:`ProfileDatabase.load_all` yields.
    """
    for image, by_event in profiles.items():
        for event, counts in by_event.items():
            yield image, event, counts, periods.get(event, 1)


def merge_profiles(rows):
    """Sum ``(image, event, counts, period)`` rows into a MergedProfiles.

    Counts add per (image, event, offset) and each event keeps the
    largest period seen -- the conservative choice for sample->cycle
    scaling when rows disagree (a period sweep).  Both are commutative
    and associative, the invariant the daemon relies on when it drains
    per-CPU hash tables in arbitrary order, so any permutation or
    regrouping of the rows gives the same result (property-tested with
    hypothesis in ``tests/test_parallel.py``).
    """
    counts = {}
    periods = {}
    for image, event, by_offset, period in rows:
        dest = counts.setdefault(image, {}).setdefault(event, {})
        for offset, count in by_offset.items():
            dest[offset] = dest.get(offset, 0) + count
        periods[event] = max(period, periods.get(event, 0))
    return MergedProfiles(counts, periods)


def merge_shard_obs(shards):
    """Reduce per-shard metric snapshots into one typed snapshot.

    Counters sum and gauges keep the maximum
    (:func:`repro.obs.merge_metrics`) -- commutative and associative,
    so the reduced snapshot is independent of shard order and grouping
    exactly like the profile merge.
    """
    return merge_metrics([getattr(shard, "obs", shard)
                          for shard in shards])


def merge_shard_ctx(shards):
    """Reduce per-shard context ledgers into one blob (or None).

    Delegates to :func:`repro.ctx.merge_ledger_meta` -- commutative
    sums keyed by class *name*, per-request entries unioned by their
    shard-unique ``seed:pid`` keys -- so the reduced ledger, like the
    profile merge, is independent of shard order and grouping.
    Returns None when no shard carried a ledger (contexts off).
    """
    metas = [getattr(shard, "ctx", shard) for shard in shards]
    metas = [meta for meta in metas if meta is not None]
    if not metas:
        return None
    return merge_ledger_meta(metas)


class MergedProfiles:
    """The reducer's output: merged counts plus canonical serialization."""

    def __init__(self, counts, periods=None):
        self.counts = counts
        self.periods = periods or {}

    def images(self):
        return sorted(self.counts)

    def total(self, event=None):
        """Total merged samples, optionally restricted to *event*."""
        total = 0
        for by_event in self.counts.values():
            for ev, by_offset in by_event.items():
                if event is None or ev == event:
                    total += sum(by_offset.values())
        return total

    def encode(self, image, event, fmt=FORMAT_COMPACT, epoch=0):
        """Canonical on-disk bytes for one (image, event) profile.

        ``encode_profile`` writes offsets in sorted order, so two
        merges that agree on the counts agree on the bytes -- the
        byte-identity oracle used by the serial-vs-parallel tests.
        """
        counts = self.counts.get(image, {}).get(event, {})
        period = self.periods.get(event, 1)
        return encode_profile(counts, image, event, int(period), fmt, epoch)

    def encode_all(self, fmt=FORMAT_COMPACT, epoch=0):
        """{(image, event): canonical bytes} for every stored profile."""
        blobs = {}
        for image in self.images():
            for event in sorted(self.counts[image], key=str):
                blobs[(image, str(event))] = self.encode(
                    image, event, fmt, epoch)
        return blobs

    def save(self, database, epoch=0):
        """Merge everything into a :class:`ProfileDatabase`.

        *database* may also be a directory path, in which case a
        database rooted there is created on the fly.
        """
        if isinstance(database, (str, os.PathLike)):
            database = ProfileDatabase(os.fspath(database))
        database.merge_epoch(self.counts, self.periods, epoch)


@dataclass
class ParallelRunResult:
    """Everything a sharded run produced."""

    shards: list
    merged: MergedProfiles
    #: wall-clock cost of the shard reduction (profiles + registries).
    merge_s: float = 0.0
    #: shard metric registries reduced into one typed snapshot.
    obs: Optional[dict] = None
    #: shard context ledgers reduced into one blob (None = ctx off).
    ctx: Optional[dict] = None


class ParallelSessionRunner:
    """Shard profiling runs across a ``multiprocessing`` pool.

    ``workers <= 1`` degrades to a serial in-process loop running the
    identical worker function, so the two paths are interchangeable --
    and comparable: merged profiles are byte-identical either way.
    """

    def __init__(self, workers=None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))

    def map(self, func, items):
        """Run ``func`` over *items*, in the pool when it pays off.

        *func* must be a module-level callable and *items* picklable
        when more than one worker is in play.  Items are handed out one
        at a time, so long and short items balance across workers.
        Also used by ``dcpibench`` to spread benchmark files across
        processes.
        """
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [func(item) for item in items]
        processes = min(self.workers, len(items))
        with multiprocessing.Pool(processes=processes) as pool:
            return pool.map(func, items, chunksize=1)

    def run(self, shards):
        """Execute *shards* and reduce them; return ParallelRunResult.

        The shard list order is preserved in the result, but the merge
        itself is order-independent by construction.
        """
        results = self.map(run_shard, shards)
        merge_started = time.perf_counter()
        merged = merge_profiles(
            row for shard in results
            for row in profile_rows(shard.profiles, shard.periods))
        obs = merge_shard_obs(results)
        ctx = merge_shard_ctx(results)
        return ParallelRunResult(
            shards=results, merged=merged,
            merge_s=time.perf_counter() - merge_started, obs=obs, ctx=ctx)
