"""What a sample costs the host on its way through the collector:
``Driver.record`` by outcome, the table flush per drained entry,
``Daemon._process`` per entry.

A measurement recipe, not a benchmark (``dcpibench`` does not collect
it and nothing asserts on it): it regenerates the per-call figures
quoted in EXPERIMENTS.md "Collector hot path".  It captures perfbench's
``collect-dense`` streams (four programs at the dense period, seed 1)
and replays them exactly as a round does -- ``BATCH`` samples, a drain,
an epoch every ``EPOCH_DRAINS`` drains -- but with no database, so only
the three functions this recipe times run.  Each ``Driver.record`` call
is timed on its own and filed under what the table did with the sample
(hit / insert into a free slot / evict), read off the table's ``hits``
and ``evictions`` counts around the call; ``SampleHashTable.flush`` and
``Daemon._process`` are timed per call and divided by the entries they
handled.  The clock is read around every call, which costs about as
much as a hit does: the *clock* line is that cost, measured on a no-op
with the same arguments, and is already subtracted from the ``record``
rows.  The totals line must match the ``exact:`` block of a perfbench
round (244 053 samples, 188 994 hits, 55 059 entries at seed 1).

Only public names and the two functions named above are touched, so the
same script measures any checkout::

    python benchmarks/collect_hot_path.py              # this checkout
    python benchmarks/collect_hot_path.py ../parent    # another one
"""

import os
import sys
import time


def main(argv):
    checkout = os.path.abspath(
        argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    sys.path[:0] = [os.path.join(checkout, "src"), checkout]
    from perfbench.workloads import collect
    from repro.collect.daemon import Daemon
    from repro.collect.driver import Driver

    clock = time.perf_counter_ns
    record_ns = {"hit": [0, 0], "insert": [0, 0], "evict": [0, 0]}
    timed = {"flush": [0, 0], "process": [0, 0]}     # [ns, entries]
    noop_ns = calls = 0

    def timing(name, function, handled):
        def wrapper(*args):
            started = clock()
            result = function(*args)
            cell = timed[name]
            cell[0] += clock() - started
            cell[1] += handled(result, *args)
            return result
        return wrapper

    def noop(cpu, pid, pc, event, when):
        """What reading the clock around a call costs by itself."""

    for capture in collect.CollectDense().setup(1, None):
        driver = Driver(capture.num_cpus, capture.driver_config)
        daemon = Daemon(capture.loader, periods=capture.periods)
        for state in driver.cpus:
            state.table.flush = timing("flush", state.table.flush, len)
        daemon._process = timing(
            "process", daemon._process, lambda _, entries: len(entries))
        record, tables = driver.record, [s.table for s in driver.cpus]
        samples = capture.samples
        replayed = position = 0
        try:
            while replayed < collect.SAMPLES:
                batch = samples[position:position + collect.BATCH]
                position = (position + collect.BATCH) % len(samples)
                for cpu, pid, pc, event in batch:
                    table = tables[cpu]
                    hits, evictions = table.hits, table.evictions
                    started = clock()
                    record(cpu, pid, pc, event, 0)
                    elapsed = clock() - started
                    cell = record_ns[
                        "hit" if table.hits != hits
                        else "insert" if table.evictions == evictions
                        else "evict"]
                    cell[0] += elapsed
                    cell[1] += 1
                    started = clock()
                    noop(cpu, pid, pc, event, 0)
                    noop_ns += clock() - started
                calls += len(batch)
                replayed += len(batch)
                daemon.drain(driver)
                if daemon.drains % collect.EPOCH_DRAINS == 0:
                    daemon.advance_epoch()
        finally:
            capture.loader.remove_listener(daemon.on_loadmap)

    overhead = noop_ns / calls
    print("totals: %d samples, %d hits, %d entries drained"
          % (calls, record_ns["hit"][1], timed["process"][1]))
    print("clock + call, per sample (subtracted below): %7.0f ns" % overhead)
    total_ns = sum(ns for ns, _ in record_ns.values()) - noop_ns
    print("Driver.record, all samples:                  %7.0f ns"
          % (total_ns / calls))
    for outcome, (ns, count) in record_ns.items():
        if count:
            print("  %-6s %7d samples                       %7.0f ns"
                  % (outcome, count, ns / count - overhead))
    for name, label in (("flush", "SampleHashTable.flush"),
                        ("process", "Daemon._process")):
        ns, entries = timed[name]
        print("%-22s per drained entry:    %9.3f us"
              % (label + ",", ns / entries / 1000.0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
