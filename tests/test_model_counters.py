"""The model counters of three workloads, pinned to recorded values.

Both ``Core.run`` paths inline the same cache / TLB / write-buffer hit
probes, so a fast-versus-slow comparison (``dcpiab``,
``test_fastpath_identity``) cannot see a hit both of them count twice
or not at all.  These literals can: they are
``abcheck.model_counters`` of 50 000-instruction sessions at seed 1
with the fast path off, recorded when every hit was still a model
call.  The two sampling modes gave the same counts.
"""

import pytest

from repro.tools.abcheck import model_counters, run_session
from repro.workloads.registry import get_workload

KEYS = ("l1i", "l1d", "l2", "board", "itb", "dtb", "wb", "bp")

#: Per core, (hits, misses) -- (merges, allocations) for "wb",
#: (predictions, mispredictions) for "bp" -- in KEYS order.
PINNED = {
    "mccalpin-scale": [
        ((8819, 4), (8823, 14703), (1919, 1027), (0, 1027),
         (0, 1), (23509, 17), (8820, 2941), (2941, 1)),
    ],
    "altavista": [
        ((2624, 7), (1300, 982), (663, 324), (0, 324),
         (0, 1), (2277, 5), (121, 1021), (2464, 11)),
        ((2622, 7), (1300, 982), (663, 324), (0, 324),
         (0, 1), (2277, 5), (121, 1021), (2463, 11)),
        ((2622, 7), (1300, 982), (663, 324), (0, 324),
         (0, 1), (2277, 5), (121, 1021), (2463, 11)),
        ((2257, 7), (1104, 906), (587, 324), (0, 324),
         (0, 1), (2005, 5), (81, 925), (2141, 9)),
    ],
    "gcc": [
        ((12650, 119), (2579, 67), (79, 91), (0, 91),
         (0, 1), (2634, 12), (812, 512), (11652, 1154)),
    ],
}


@pytest.mark.parametrize("mode", ["default", "mux"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_model_counters_match_the_recording(name, mode):
    result, _ = run_session(get_workload(name), False, 1, 50_000, mode)
    assert model_counters(result.machine) == [
        dict(zip(KEYS, core)) for core in PINNED[name]]
