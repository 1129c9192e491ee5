"""Request-context attribution on the traffic scenarios (repro.ctx).

The paper's tools answer "where have all the cycles gone?" by image and
procedure; the context dimension adds "... and for *whom*?".  This
benchmark runs the three server-traffic scenarios with the dimension
enabled and measures both halves of the claim:

* attribution quality -- each scenario's request classes separate the
  way the workload was built to behave (bursty short requests vs long
  steady ones, slow clients with a worse CPI than fast ones, three
  tenants with distinct instruction mixes);
* enable cost -- simulator throughput (instructions per CPU-second)
  with the dimension on vs off on identical instruction streams, the
  overhead number EXPERIMENTS.md reports against its <3% target.

Deterministic counts (per-class samples, table accounting) land in the
"ctx" result block, which ``dcpibench compare`` holds exact; the
host-clock-derived overhead goes in the block's "timing".
"""

import time

from conftest import (clamp_budget, mean_ci95, profile_workload,
                      record_block, run_once, write_result)
from repro.tools.dcpitrace import build_report
from repro.workloads.registry import get_workload

SCENARIOS = ("bursty", "slow-client", "mixed-tenant")
BUDGET = 60_000
OVERHEAD_REPEATS = 3


def _profile(name, context=True, seed=1):
    return profile_workload(get_workload(name), seed=seed,
                            max_instructions=BUDGET, context=context)


def run_traffic_matrix():
    out = []
    for name in SCENARIOS:
        result = _profile(name)
        ledger = result.ctx_ledger
        report = build_report(ledger.to_meta(), db=name)
        out.append((name, ledger, report))
    return out


def render(rows):
    lines = ["Per-request attribution on the traffic scenarios "
             "(budget %d)" % clamp_budget(BUDGET),
             "%-14s %-16s %6s %5s %6s %9s %9s"
             % ("scenario", "class", "share", "reqs", "cpi",
                "p50cyc", "p99cyc")]
    for name, _, report in rows:
        for cls_name, cls in report["classes"].items():
            lines.append("%-14s %-16s %5.1f%% %5d %6.2f %9d %9d"
                         % (name, cls_name, cls["share"] * 100.0,
                            cls["requests"], cls["cpi"],
                            cls["tail"]["p50"], cls["tail"]["p99"]))
    return "\n".join(lines)


def test_ctx_traffic_attribution(benchmark):
    rows = run_once(benchmark, run_traffic_matrix)
    write_result("ctx_traffic_attribution", render(rows))
    by_name = {name: report for name, _, report in rows}

    # Bursty: the burst is many short requests, the steady load few
    # long ones -- the tail separation dcpitrace exists to show.
    bursty = by_name["bursty"]["classes"]
    assert bursty["req.burst"]["requests"] > bursty["req.steady"]["requests"]
    assert (bursty["req.steady"]["tail"]["p50"]
            > bursty["req.burst"]["tail"]["p50"])

    # Slow-client: memory-bound request handling shows up as CPI.
    slow = by_name["slow-client"]["classes"]
    assert slow["client.slow"]["cpi"] > slow["client.fast"]["cpi"]

    # Mixed-tenant: all three tenants attributed, distinct culprits.
    tenants = by_name["mixed-tenant"]["classes"]
    assert {"tenant.a", "tenant.b", "tenant.c"} <= set(tenants)

    facts = {"scenarios": len(rows)}
    for name, ledger, report in rows:
        stem = name.replace("-", "_")
        facts[stem + "_classes"] = len(ledger.classes)
        facts[stem + "_requests"] = sum(
            len(reqs) for reqs in ledger.requests.values())
        facts[stem + "_cycles_samples"] = sum(
            cls["cycles_samples"] for cls in report["classes"].values())
        facts[stem + "_table_interns"] = ledger.table_interns
        facts[stem + "_table_evictions"] = ledger.table_evictions
        facts[stem + "_other_samples"] = ledger.other_samples
    record_block("ctx", facts)


def test_ctx_enable_overhead(benchmark):
    """Throughput cost of the dimension on identical streams."""

    def measure():
        rates = {False: [], True: []}
        streams = {}
        for repeat in range(OVERHEAD_REPEATS):
            for context in (False, True):
                started = time.process_time()
                result = _profile("bursty", context=context,
                                  seed=repeat + 1)
                cpu_s = time.process_time() - started
                rates[context].append(
                    result.instructions / cpu_s if cpu_s else 0.0)
                # Collection-side feature: the machine's instruction
                # stream must not move when it is switched on.
                key = (repeat, context)
                streams[key] = (result.instructions, result.cycles)
        for repeat in range(OVERHEAD_REPEATS):
            assert streams[(repeat, False)] == streams[(repeat, True)]
        return rates

    rates = run_once(benchmark, measure)
    off_mean, off_ci = mean_ci95(rates[False])
    on_mean, on_ci = mean_ci95(rates[True])
    overhead_pct = (off_mean - on_mean) / off_mean * 100.0
    write_result(
        "ctx_enable_overhead",
        "Context-dimension enable overhead (bursty, %d repeats)\n"
        "ctx off: %10.0f +- %.0f instructions/cpu-s\n"
        "ctx on:  %10.0f +- %.0f instructions/cpu-s\n"
        "overhead: %.2f%% (EXPERIMENTS.md target: < 3%%)"
        % (OVERHEAD_REPEATS, off_mean, off_ci, on_mean, on_ci,
           overhead_pct))
    # Host timing is noisy on shared CI runners; the hard target
    # lives in EXPERIMENTS.md, the gate only catches a blowout.
    assert overhead_pct < 15.0
    record_block("ctx", {"overhead_repeats": OVERHEAD_REPEATS},
                 timing={"overhead_pct": round(overhead_pct, 3)})
