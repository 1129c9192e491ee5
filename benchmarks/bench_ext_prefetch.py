"""Extension: instruction prefetch and the Figure 10 outlier.

The paper explains its Figure 10 below-the-line outlier (fpppp) by
noting that the procedure's long basic blocks make instruction
prefetching especially effective: many IMISS events, small actual
penalty.  With the stream buffer enabled, our big-code workload (long
straight-line procedures) reproduces that exact phenomenology: IMISS
counts barely move while attributed I-cache stall cycles per miss
collapse -- the points slide below the correlation line.
"""

from conftest import profile_workload, run_once, write_result
from repro.core.analyze import analyze_image
from repro.core.validate import score
from repro.cpu.config import MachineConfig
from repro.workloads import bigcode

BUDGET = 600_000
PERIOD = (60, 64)


def _run(istream_entries):
    config = MachineConfig()
    config.istream_entries = istream_entries
    workload = bigcode.BigCode(procedures=10, min_insts=300,
                               max_insts=1200, rounds=60)
    result = profile_workload(workload, mode="default",
                              max_instructions=BUDGET, period=PERIOD,
                              event_period=16, machine_config=config)
    image = result.daemon.images[workload.name]
    profile = result.profile_for(workload.name)
    points = [p for p in score(result.machine,
                               analyze_image(image, profile))[2]
              if p["procedure"].startswith("leaf")]
    total_imiss = sum(p["imiss"] for p in points)
    total_stall = sum(p["hi"] for p in points)
    return result.cycles, total_imiss, total_stall


def run_prefetch():
    off = _run(0)
    on = _run(4)
    return {"off": off, "on": on}


def render(data):
    rows = []
    for label in ("off", "on"):
        cycles, imiss, stall = data[label]
        per_miss = stall / imiss if imiss else 0.0
        rows.append("prefetch %-3s: cycles=%9d  IMISS=%7d  "
                    "attributed stall=%9.0f  (%.2f cyc/miss)"
                    % (label, cycles, imiss, stall, per_miss))
    return "\n".join(
        ["Extension: instruction stream buffer (Figure 10's fpppp "
         "outlier mechanism)"] + rows)


def test_prefetch_reproduces_fpppp_outlier(benchmark):
    data = run_once(benchmark, run_prefetch)
    write_result("ext_prefetch", render(data))
    cycles_off, imiss_off, stall_off = data["off"]
    cycles_on, imiss_on, stall_on = data["on"]
    # IMISS events barely change; the penalty per miss collapses; the
    # workload gets faster.
    assert imiss_on > imiss_off * 0.8
    per_miss_off = stall_off / imiss_off
    per_miss_on = stall_on / max(1, imiss_on)
    assert per_miss_on < per_miss_off * 0.6
    assert cycles_on < cycles_off
