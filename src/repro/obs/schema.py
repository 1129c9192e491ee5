"""The normalized self-monitoring schema.

Before this module, each collection component exposed its own ad-hoc
dict with overlapping, inconsistently named keys (``miss_rate`` here,
``misses`` there).  The canonical schema is a flat dotted namespace:

=======================================  ========  =======================
name                                     kind      meaning
=======================================  ========  =======================
``driver.samples``                       counter   interrupts handled
                                                   (hits + misses)
``driver.hash.hits``                     counter   hash-table hit path
``driver.hash.misses``                   counter   new-entry path
``driver.hash.evictions``                counter   entries spilled out
``driver.overflow.spills``               counter   overflow buffers filled
``driver.overflow.dropped``              counter   samples lost (backlog)
``driver.handler_cycles``                counter   total handler cost
                                                   (hit + miss cycles +
                                                   second interrupts)
``driver.hit_cycles``/``.miss_cycles``   counter   cost split by path
``driver.edge_samples``                  counter   double-sampling edges
``driver.kernel_memory_bytes``           gauge     non-pageable memory
``driver.cpu<N>.samples``                counter   per-CPU interrupts
                                                   (hits + misses)
``driver.cpu<N>.overflow.spills``        counter   per-CPU buffer fills
``driver.cpu<N>.overflow.dropped``       counter   per-CPU samples lost
``driver.cpu<N>.hash.evictions``         counter   per-CPU evictions
``daemon.samples``                       counter   samples merged
``daemon.entries``                       counter   hash entries processed
``daemon.cycles``                        counter   modelled daemon cost
``daemon.unknown_samples``               counter   unmapped PCs
``daemon.drains``                        counter   drain cycles
``daemon.drain_retries``                 counter   backed-off flush retries
``daemon.drain_failures``                counter   drains abandoned (shed)
``daemon.recoveries``                    counter   daemon crash recoveries
``daemon.lost_samples``                  counter   daemon-side accounted loss
``daemon.loadmaps_dropped``              counter   loadmap events lost
``daemon.resident_bytes``                gauge     resident now / peak
``session.instructions``                 counter   instructions executed
``session.cycles``                       counter   simulated cycles
``session.wall_s``                       gauge     wall time of the run
``sim.fastpath.replays``                 counter   block replays started
``sim.fastpath.replayed_instructions``   counter   instructions replayed
``sim.fastpath.dispatches``              counter   gate entries into a
                                                   block or a trace
``sim.fastpath.bails``                   counter   replays cut short
``sim.fastpath.bails.<reason>``          counter   ...by the probe that
                                                   stopped them (fetch,
                                                   wb, dtb, dcache; they
                                                   sum to ``bails``)
``sim.fastpath.slow_instructions.<cause>`` counter instructions not
                                                   replayed, by the gate
                                                   refusal or bail that
                                                   began their segment
                                                   (``SLOW_CAUSES``; they
                                                   sum to instructions
                                                   minus replayed ones)
``sim.fastpath.recordings``              counter   variants recorded
``sim.fastpath.compiled_variants``       counter   variants tiered up
``sim.fastpath.traces``                  counter   traces compiled
``sim.fastpath.trace_entries``           counter   gate picks of a
                                                   trace's head
``sim.fastpath.trace_exits.<kind>``      counter   ...by how they ended
                                                   (``TRACE_EXITS``; they
                                                   sum to
                                                   ``trace_entries``)
``sim.fastpath.aborted_recordings``      counter   recordings abandoned
``sim.fastpath.variant_misses``          counter   gate lookups that missed
``sim.fastpath.headroom_skips``          counter   counter-overflow skips
``sim.fastpath.dropped_variants``        counter   recordings skipped:
                                                   variant bound reached
``sim.fastpath.invalidations``           counter   run cache emptied
``sim.fastpath.blocks``                  gauge     runs the gate
                                                   classified since the
                                                   last invalidation
``sim.fastpath.variants``                gauge     variants resident
=======================================  ========  =======================

A typed snapshot maps each name to ``{"type": "counter", "value"}``
or ``{"type": "gauge", "value", "peak"}``.  It is read off the objects
that keep the counts -- the driver's per-CPU hash tables and state,
the daemon, the fast path, the session result -- when it is asked
for; nothing tallies a count a second time beside them.  A count that
follows from others is summed when read: ``driver.samples`` is the
tables' hits + misses, ``driver.handler_cycles`` the hit and miss
cycles plus the second interrupts of double sampling.  This module is
the whole snapshot format: the views below build one,
:func:`merge_metrics` reduces shards' snapshots,
:func:`flatten_metrics` and :func:`derive` flatten one.

Raw counts only are stored and merged (rates do not sum); derived
rates -- ``driver.hash.miss_rate``, ``daemon.aggregation_factor``,
``collection.samples_per_sec`` and friends -- come from
:func:`derive`, computed from merged counts, so a sharded run's rates
are exact, not averages of averages.

Fleet and optimizer counts are not in this namespace: each has one
home, the object that does the work, and reaches its consumers through
that object's report -- ``FleetResult.report()`` (transport, spool,
store ledger, resilience), ``FleetShard.refreshes`` (per handle) and
``OptReport.report()`` (plan and rewrite stats, bailout reasons).
"""

COUNTER = "counter"
GAUGE = "gauge"


def _counter(value):
    return {"type": COUNTER, "value": value}


def _gauge(value, peak=None):
    return {"type": GAUGE, "value": value,
            "peak": value if peak is None else peak}


def hashtable_metrics(table, prefix="hashtable"):
    """Typed snapshot of one :class:`SampleHashTable`."""
    return {
        prefix + ".hits": _counter(table.hits),
        prefix + ".misses": _counter(table.misses),
        prefix + ".evictions": _counter(table.evictions),
    }


def driver_metrics(driver):
    """Typed snapshot of a :class:`~repro.collect.driver.Driver`."""
    metrics = {
        "driver.samples": _counter(sum(s.samples for s in driver.cpus)),
        "driver.hash.hits": _counter(
            sum(s.table.hits for s in driver.cpus)),
        "driver.hash.misses": _counter(
            sum(s.table.misses for s in driver.cpus)),
        "driver.hash.evictions": _counter(
            sum(s.table.evictions for s in driver.cpus)),
        "driver.overflow.spills": _counter(
            sum(s.spills for s in driver.cpus)),
        "driver.overflow.dropped": _counter(
            sum(s.dropped for s in driver.cpus)),
        "driver.handler_cycles": _counter(
            sum(s.handler_cycles for s in driver.cpus)),
        "driver.hit_cycles": _counter(
            sum(s.hit_cycles for s in driver.cpus)),
        "driver.miss_cycles": _counter(
            sum(s.miss_cycles for s in driver.cpus)),
        "driver.edge_samples": _counter(
            sum(s.edge_samples for s in driver.cpus)),
        "driver.kernel_memory_bytes": _gauge(driver.kernel_memory_bytes()),
    }
    for cpu_id, state in enumerate(driver.cpus):
        prefix = "driver.cpu%d" % cpu_id
        metrics[prefix + ".samples"] = _counter(state.samples)
        metrics[prefix + ".overflow.spills"] = _counter(state.spills)
        metrics[prefix + ".overflow.dropped"] = _counter(state.dropped)
        metrics[prefix + ".hash.evictions"] = _counter(
            state.table.evictions)
    return metrics


def daemon_metrics(daemon):
    """Typed snapshot of a :class:`~repro.collect.daemon.Daemon`."""
    return {
        "daemon.samples": _counter(daemon.total_samples),
        "daemon.entries": _counter(daemon.entries_processed),
        "daemon.cycles": _counter(daemon.cycles),
        "daemon.unknown_samples": _counter(daemon.unknown_samples),
        "daemon.drains": _counter(daemon.drains),
        "daemon.drain_retries": _counter(daemon.drain_retries),
        "daemon.drain_failures": _counter(daemon.drain_failures),
        "daemon.recoveries": _counter(daemon.recoveries),
        "daemon.lost_samples": _counter(daemon.lost_samples),
        "daemon.loadmaps_dropped": _counter(daemon.loadmaps_dropped),
        "daemon.resident_bytes": _gauge(daemon.resident_bytes(),
                                        daemon.peak_resident_bytes()),
    }


#: :meth:`FastPath.snapshot` keys reported as gauges (current sizes);
#: everything else in the snapshot is a monotonic counter.
_FASTPATH_GAUGES = frozenset(["blocks", "variants"])


def fastpath_metrics(fastpath):
    """Typed snapshot of the simulator's block-level issue cache."""
    metrics = {}
    for key, value in fastpath.snapshot().items():
        name = "sim.fastpath." + key
        metrics[name] = (_gauge(value) if key in _FASTPATH_GAUGES
                         else _counter(value))
    return metrics


def session_metrics(result):
    """Typed snapshot of a whole run: driver + daemon + totals.

    *result* is a :class:`~repro.collect.session.SessionResult`;
    ``session.wall_s`` is there only when the run was observed.
    """
    metrics = {
        "session.instructions": _counter(result.instructions),
        "session.cycles": _counter(result.cycles),
    }
    if result.wall_s is not None:
        metrics["session.wall_s"] = _gauge(result.wall_s)
    metrics.update(driver_metrics(result.driver))
    metrics.update(daemon_metrics(result.daemon))
    fastpath = getattr(getattr(result, "machine", None), "fastpath", None)
    if fastpath is not None:
        metrics.update(fastpath_metrics(fastpath))
    return metrics


def merge_metrics(snapshots):
    """Reduce typed snapshots into one; order never matters.

    Counters sum and gauges keep the maximum value and peak -- both
    commutative and associative, so any permutation or regrouping of
    *snapshots* gives the same result (property-tested in
    ``tests/test_obs.py`` and ``tests/test_obs_parallel.py``), the
    invariant :func:`repro.collect.parallel.merge_profiles` relies on for
    profiles too.
    """
    merged = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            dest = merged.get(name)
            if dest is None:
                merged[name] = dict(entry)
            elif dest["type"] != entry["type"]:
                raise TypeError("cannot merge %s %r into a %s"
                                % (entry["type"], name, dest["type"]))
            elif entry["type"] == COUNTER:
                dest["value"] += entry["value"]
            else:
                dest["value"] = max(dest["value"], entry["value"])
                dest["peak"] = max(dest["peak"], entry["peak"])
    return merged


def flatten_metrics(snapshot):
    """Collapse a typed snapshot into {name: scalar} for display/JSON:
    every metric flattens to its value, and a gauge also emits
    ``<name>.peak``."""
    flat = {}
    for name, entry in snapshot.items():
        flat[name] = entry["value"]
        if entry["type"] == GAUGE:
            flat[name + ".peak"] = entry["peak"]
    return flat


def _ratio(numer, denom):
    return numer / denom if denom else 0.0


def derive(snapshot):
    """Flatten a typed snapshot and add the derived rates.

    Works on single-run and shard-merged snapshots alike: everything
    is recomputed from raw counts, so merged rates are exact.
    """
    flat = flatten_metrics(snapshot)
    samples = flat.get("driver.samples", 0)
    hits = flat.get("driver.hash.hits", 0)
    misses = flat.get("driver.hash.misses", 0)
    flat["driver.hash.miss_rate"] = _ratio(misses, hits + misses)
    flat["driver.hash.aggregation_factor"] = (
        _ratio(hits + misses, misses) if misses
        else float(hits + misses or 1))
    flat["driver.eviction_rate"] = _ratio(
        flat.get("driver.hash.evictions", 0), samples)
    flat["driver.avg_cost"] = _ratio(
        flat.get("driver.handler_cycles", 0), samples)
    flat["driver.avg_hit_cost"] = _ratio(
        flat.get("driver.hit_cycles", 0), hits)
    flat["driver.avg_miss_cost"] = _ratio(
        flat.get("driver.miss_cycles", 0), misses)
    d_samples = flat.get("daemon.samples", 0)
    d_entries = flat.get("daemon.entries", 0)
    flat["daemon.aggregation_factor"] = _ratio(d_samples, d_entries)
    flat["daemon.cost_per_sample"] = _ratio(
        flat.get("daemon.cycles", 0), d_samples)
    flat["daemon.unknown_fraction"] = _ratio(
        flat.get("daemon.unknown_samples", 0), d_samples)
    # Collection-level loss accounting: driver-side drops (overflow
    # backlog, shed drains) plus daemon-side losses (crashes without a
    # recoverable checkpoint).  `loss_rate` is against every sample the
    # driver handled, so sharded/merged runs report exact rates.
    dropped = flat.get("driver.overflow.dropped", 0)
    lost = flat.get("daemon.lost_samples", 0)
    flat["collect.samples_dropped"] = dropped + lost
    flat["collect.recoveries"] = flat.get("daemon.recoveries", 0)
    flat["collect.loss_rate"] = _ratio(dropped + lost, samples)
    if "sim.fastpath.replays" in flat:
        replays = flat["sim.fastpath.replays"]
        flat["sim.fastpath.replay_fraction"] = _ratio(
            flat.get("sim.fastpath.replayed_instructions", 0),
            flat.get("session.instructions", 0))
        flat["sim.fastpath.bail_rate"] = _ratio(
            flat.get("sim.fastpath.bails", 0), replays)
    wall = flat.get("session.wall_s.peak", flat.get("session.wall_s", 0.0))
    if wall:
        flat["collection.samples_per_sec"] = samples / wall
        flat["collection.instructions_per_sec"] = (
            flat.get("session.instructions", 0) / wall)
    return flat
