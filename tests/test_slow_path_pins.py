"""The slow path's observable output, pinned to recorded digests.

Replay schedules are recorded by the slow path, so a change to
``Core.run`` that moves one ground-truth cell in both modes at once
passes every fast-versus-slow comparison (``dcpiab``,
``test_fastpath_identity``), and ``test_model_counters`` pins the
model's hit / miss counters only.  These digests pin the rest: the
sha256 of ``abcheck.fingerprint`` -- ground truth, profiles, event
samples, time and instruction count -- of 50 000-instruction sessions
at seed 1 with the fast path off.  The two edge-sampling sessions also
digest each image's edge-sample counts, which the fingerprint leaves
out.  A session rotates the mux counter at each daemon drain, every
200 000 instructions by default, so the ``mux`` rows drain every
10 000 instructions for the counted event to change within the
session.  Instruction
interpretation costs no second interrupt, so its fingerprint is plain
gcc's and only its edge counts tell it apart.
"""

import hashlib

import pytest

from repro.tools.abcheck import _canonical, fingerprint, run_session
from repro.workloads.registry import get_workload

#: Extra ``SessionConfig`` fields per collection mode.
MODES = {"default": {}, "mux": {"drain_interval": 10_000}}

PINNED = {
    ("mccalpin-scale", "default"):
        "2a9e59fb873adca9ab48c6cc54d60c4e115ca0257e13cf2db7a91200fe68b188",
    ("mccalpin-scale", "mux"):
        "39062251307db92090525406f21e5d076c5e3046ca4b8fb1dcbf327af94ea094",
    ("altavista", "default"):
        "d8fbb7a4cf51ecb104c6ec4b898a11ce4cd58c77af2a8c309300ef498fc9a01b",
    ("altavista", "mux"):
        "7953b85d887ead0bb9e4d15ab0cc3f38ac6d2738f76e022dd5df93bffbcfae8c",
    ("gcc", "default"):
        "ea1a2bfb008e4f8c453d49e6f75133750baa0b32824c44209c894def0accc67a",
    ("gcc", "mux"):
        "8ab68607b9bd291096f356bb05e6e00484b879bc7f84ff9e776168a7f972afa1",
}

#: gcc with edge sampling on, per ``edge_mode``.
PINNED_EDGES = {
    "double":
        "b2fad88c28637e09a70c1e767aeaec03a5df39a5fb3b93475c92ca920228d8d8",
    "interpret":
        "e596c440dbfdf664cf085a3148124af5a42f8b2fba8309579ecb53859cc91915",
}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", ["altavista", "gcc", "mccalpin-scale"])
def test_slow_path_fingerprint_matches_the_recording(name, mode):
    result, _ = run_session(get_workload(name), False, 1, 50_000, mode,
                            **MODES[mode])
    digest = hashlib.sha256(fingerprint(result)).hexdigest()
    assert digest == PINNED[name, mode]


@pytest.mark.parametrize("edge_mode", sorted(PINNED_EDGES))
def test_slow_path_edge_samples_match_the_recording(edge_mode):
    result, _ = run_session(get_workload("gcc"), False, 1, 50_000,
                            "default", edge_sampling=True,
                            edge_mode=edge_mode)
    edges = {name: profile.edge_counts
             for name, profile in result.daemon.profiles.items()}
    digest = hashlib.sha256(fingerprint(result) + _canonical(edges))
    assert digest.hexdigest() == PINNED_EDGES[edge_mode]
