"""Section 5.4: hash-table design-space exploration.

The paper built a trace-driven simulator of the driver's hash table and
replayed logged sample traces under varying associativity, replacement
policy, table size and hash function.  Their conclusions: (1) going
from 4-way to 6-way associativity, and (2) replacing the mod-counter
eviction policy with swap-to-front on hits plus insert-at-front, would
cut total collection cost by 10-20%.

This benchmark reruns that study: traces are logged from real profiled
runs of gcc (the eviction-heavy workload) and the timesharing mix, then
replayed through every configuration.
"""

from conftest import profile_workload, run_once, write_result
from repro.collect.driver import HIT_PATH, INTERRUPT_SETUP, MISS_PATH
from repro.collect.hashtable import (MOD_COUNTER, SWAP_TO_FRONT,
                                     SampleHashTable)
from repro.workloads.registry import get_workload

BUDGET = 250_000


def collect_trace():
    """Log (pid, pc, event) sample traces from eviction-heavy runs."""
    trace = []
    for name in ("gcc", "timesharing", "x11perf"):
        result = profile_workload(get_workload(name), mode="default",
                                  max_instructions=BUDGET,
                                  period=(60, 64), log_trace=True)
        trace.extend((pid, pc, ev)
                     for _, pid, pc, ev in result.driver.trace)
    return trace


def replay(trace, buckets, assoc, policy, hash_name="multiplicative"):
    """Replay *trace*; return (miss rate, est. cycles per sample)."""
    table = SampleHashTable(buckets=buckets, assoc=assoc, policy=policy,
                            hash_name=hash_name)
    for pid, pc, event in trace:
        table.record(pid, pc, event)
    rate = table.miss_rate
    cost = (INTERRUPT_SETUP
            + (1 - rate) * HIT_PATH
            + rate * MISS_PATH
            # Per-sample share of daemon entry processing: every miss
            # ships one entry downstream.
            + rate * 1000)
    return rate, cost


def run_sec54():
    trace = collect_trace()
    rows = []
    # The shipped table holds 16K entries for week-long full-rate
    # traces; the ablation scales capacity with the scaled trace so the
    # table sees comparable pressure.
    base_capacity = 128
    for assoc in (1, 2, 4, 6, 8):
        buckets = base_capacity // assoc
        # Keep power-of-two bucket counts.
        buckets = 1 << (buckets.bit_length() - 1)
        for policy in (MOD_COUNTER, SWAP_TO_FRONT):
            rate, cost = replay(trace, buckets, assoc, policy)
            rows.append({"assoc": assoc, "policy": policy,
                         "buckets": buckets, "miss_rate": rate,
                         "cost": cost})
    for hash_name in ("multiplicative", "xor-fold"):
        rate, cost = replay(trace, 128, 4, MOD_COUNTER, hash_name)
        rows.append({"assoc": 4, "policy": "mod-counter/" + hash_name,
                     "buckets": 128, "miss_rate": rate, "cost": cost})
    return rows, len(trace)


def render(rows, samples):
    lines = ["Section 5.4: hash-table design exploration "
             "(%d-sample trace: gcc + timesharing + x11perf)" % samples,
             "%6s %-28s %8s %10s %10s"
             % ("assoc", "policy", "buckets", "miss rate", "cyc/sample")]
    for row in rows:
        lines.append("%6d %-28s %8d %9.2f%% %10.0f"
                     % (row["assoc"], row["policy"], row["buckets"],
                        row["miss_rate"] * 100.0, row["cost"]))
    return "\n".join(lines)


def test_sec54_hashtable_ablation(benchmark):
    rows, samples = run_once(benchmark, run_sec54)
    write_result("sec54_hashtable", render(rows, samples))
    assert samples > 2000

    def cost_of(assoc, policy):
        return next(r["cost"] for r in rows
                    if r["assoc"] == assoc and r["policy"] == policy)

    shipped = cost_of(4, MOD_COUNTER)
    improved = cost_of(6, SWAP_TO_FRONT)
    saving = (shipped - improved) / shipped
    # Paper: the 6-way + swap-to-front design saves 10-20% of the
    # overall cost on week-long traces; our scaled trace must show the
    # same direction with a clear saving.
    assert saving > 0.01, saving
    # Swap-to-front never loses to mod-counter at equal associativity.
    for assoc in (2, 4, 6, 8):
        assert (cost_of(assoc, SWAP_TO_FRONT)
                <= cost_of(assoc, MOD_COUNTER) + 1e-9)
    # Higher associativity never hurts the miss rate under the same
    # total capacity, modulo rounding of the bucket count.
    rate_1way = next(r["miss_rate"] for r in rows
                     if r["assoc"] == 1 and r["policy"] == MOD_COUNTER)
    rate_8way = next(r["miss_rate"] for r in rows
                     if r["assoc"] == 8 and r["policy"] == MOD_COUNTER)
    assert rate_8way <= rate_1way + 0.02
