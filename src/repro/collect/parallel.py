"""Parallel sharded profiling runs and the deterministic shard reducer.

The paper's collector is parallel by construction: every CPU owns a
private hash table, and the daemon merges whatever order the drains
happen to deliver (sections 4.2-4.3).  This module lifts that shape one
level up.  A *shard* is one complete profiling run -- a (workload,
seed, mode) triple -- executed as a full :class:`ProfileSession` inside
a worker process.  Each worker ships back its per-image sample maps in
plain-dict (picklable) form, and :func:`merge_shards` reduces them
exactly like the daemon reduces per-CPU tables: commutative integer
sums keyed by (image, event, offset).  The merged profile is therefore
independent of worker count, scheduling, and completion order, which
``tests/test_parallel.py`` verifies byte-for-byte against a serial run.

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
from repro.obs import ObsConfig, merge_metrics


@dataclass(frozen=True)
class ShardSpec:
    """One unit of profiling work: a (workload, seed, mode) run.

    ``workload`` is a registry name (:mod:`repro.workloads.registry`);
    workers re-instantiate it so images link fresh per machine.
    """

    workload: str
    seed: int = 1
    mode: str = "default"
    max_instructions: Optional[int] = 80_000
    cycles_period: tuple = (240, 256)
    event_period: int = 64
    #: also run the unprofiled baseline (same seed) for overhead math.
    baseline: bool = False
    #: run with self-monitoring enabled (repro.obs): the shard ships
    #: back its trace spans and its wall time (``session.wall_s``);
    #: every count in its snapshot is the same either way.
    obs: bool = False
    #: fault injection (repro.faults.FaultPlan); chaos shards carry
    #: their plan into the worker process -- plans are frozen/picklable.
    faults: Optional[object] = None
    #: run with the request-context dimension (repro.ctx): the shard
    #: ships back its context-ledger blob for order-independent merge.
    context: bool = False

    def label(self):
        return "%s/seed%d/%s" % (self.workload, self.seed, self.mode)


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
    #: daemon cycles at the period-scaled rate, amortized across the
    #: CPUs (the Table 3 overhead charge).
    scaled_daemon_cycles: float
    baseline_cycles: Optional[int] = None
    baseline_instructions: Optional[int] = None
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

    def overhead_pct(self):
        """Slowdown percent vs the baseline run, daemon cost included.

        Follows the Table 3 methodology: daemon cycles are charged at
        the period-scaled rate and amortized across the CPUs.  Returns
        None when the shard did not run a baseline.
        """
        if not self.baseline_cycles:
            return None
        adjusted = self.cycles + self.scaled_daemon_cycles
        return (adjusted - self.baseline_cycles) / self.baseline_cycles * 100.0


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
    machine_config = MachineConfig(num_cpus=workload.num_cpus)
    session = ProfileSession(
        machine_config,
        SessionConfig(mode=spec.mode, seed=spec.seed,
                      cycles_period=spec.cycles_period,
                      event_period=spec.event_period,
                      obs=ObsConfig(enabled=True) if spec.obs else None,
                      faults=spec.faults, context=spec.context))
    result = session.run(workload, max_instructions=spec.max_instructions)
    export = result.export_mergeable()
    baseline_cycles = baseline_instructions = None
    if spec.baseline:
        base = session.run_baseline(
            get_workload(spec.workload),
            max_instructions=spec.max_instructions)
        baseline_cycles = base.cycles
        baseline_instructions = base.instructions
    return ShardResult(
        spec=spec,
        profiles=export["profiles"],
        periods=export["periods"],
        instructions=result.instructions,
        cycles=result.cycles,
        scaled_daemon_cycles=(result.daemon.cycles
                              * result.driver.cost_scale
                              / len(result.machine.cores)),
        baseline_cycles=baseline_cycles,
        baseline_instructions=baseline_instructions,
        elapsed=time.perf_counter() - started,
        obs=export["obs"],
        trace_events=(list(result.obs.trace.events)
                      if result.obs.enabled else None),
        ctx=export["ctx"])


def merge_shards(shards):
    """Reduce shard sample maps into one {image: {event: {offset: n}}}.

    Accepts :class:`ShardResult` objects or bare profile maps.  The
    reduction is a commutative, associative integer sum over
    (image, event, offset) keys -- the same invariant the daemon relies
    on when it drains per-CPU hash tables in arbitrary order -- so any
    permutation or regrouping of *shards* produces an identical result
    (property-tested with hypothesis in ``tests/test_parallel.py``).
    """
    merged = {}
    for shard in shards:
        profiles = getattr(shard, "profiles", shard)
        for image, by_event in profiles.items():
            dest_image = merged.setdefault(image, {})
            for event, by_offset in by_event.items():
                dest = dest_image.setdefault(event, {})
                for offset, count in by_offset.items():
                    dest[offset] = dest.get(offset, 0) + count
    return merged


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


def merge_periods(shards):
    """Collect the per-event sampling periods used across *shards*.

    Shards configured identically agree on periods; on disagreement
    (e.g. a period-sweep experiment) the maximum is kept, which is the
    conservative choice for sample->cycle scaling.
    """
    periods = {}
    for shard in shards:
        for event, period in getattr(shard, "periods", {}).items():
            periods[event] = max(period, periods.get(event, 0))
    return periods


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
    workers: int
    elapsed: float = 0.0
    #: wall-clock cost of the shard reduction (profiles + registries).
    merge_s: float = 0.0
    #: shard metric registries reduced into one typed snapshot.
    obs: Optional[dict] = None
    #: shard context ledgers reduced into one blob (None = ctx off).
    ctx: Optional[dict] = None

    def by_label(self):
        return {shard.spec.label(): shard for shard in self.shards}

    def total_samples(self):
        return sum(shard.samples for shard in self.shards)

    def total_instructions(self):
        return sum(shard.instructions for shard in self.shards)


def _call(func_item):
    func, item = func_item
    return func(item)


class ParallelSessionRunner:
    """Shard profiling runs across a ``multiprocessing`` pool.

    ``workers <= 1`` degrades to a serial in-process loop running the
    identical worker function, so the two paths are interchangeable --
    and comparable: merged profiles are byte-identical either way.
    """

    def __init__(self, workers=None, mp_context=None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self._context = (multiprocessing.get_context(mp_context)
                         if isinstance(mp_context, (str, type(None)))
                         else mp_context)

    def map(self, func, items, chunksize=1):
        """Run ``func`` over *items*, in the pool when it pays off.

        *func* must be a module-level callable and *items* picklable
        when more than one worker is in play.  Also used by
        ``dcpibench`` to spread benchmark files across processes.
        """
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [func(item) for item in items]
        processes = min(self.workers, len(items))
        with self._context.Pool(processes=processes) as pool:
            return pool.map(_call, [(func, item) for item in items],
                            chunksize=chunksize)

    def run(self, shards):
        """Execute *shards* and reduce them; return ParallelRunResult.

        The shard list order is preserved in the result, but the merge
        itself is order-independent by construction.
        """
        shards = list(shards)
        started = time.perf_counter()
        results = self.map(run_shard, shards)
        merge_started = time.perf_counter()
        merged = MergedProfiles(merge_shards(results),
                                merge_periods(results))
        obs = merge_shard_obs(results)
        ctx = merge_shard_ctx(results)
        merge_s = time.perf_counter() - merge_started
        return ParallelRunResult(
            shards=results, merged=merged, workers=self.workers,
            elapsed=time.perf_counter() - started,
            merge_s=merge_s, obs=obs, ctx=ctx)


def shard_matrix(workloads, seeds=(1,), modes=("default",),
                 max_instructions=80_000, baseline=False, **overrides):
    """Build the (workload x seed x mode) shard list, paper-style."""
    return [ShardSpec(workload=workload, seed=seed, mode=mode,
                      max_instructions=max_instructions,
                      baseline=baseline, **overrides)
            for workload in workloads
            for seed in seeds
            for mode in modes]
