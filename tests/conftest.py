"""Shared fixtures for the test suite."""

import json
import os
import zlib

import pytest
from hypothesis import settings

from repro.alpha.assembler import assemble
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine

# Tier-1 is a function of the commit: the default profile derives every
# example from the test itself (no fresh randomness, no ``.hypothesis/``
# memory).  Exploration runs nightly under ``--hypothesis-profile
# explore``, where a failure prints the blob that reproduces it.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", max_examples=1000, print_blob=True)
settings.load_profile("tier1")


def examples(count):
    """*count* for ``@settings(max_examples=...)``, scaled by the loaded
    profile's own ratio to Hypothesis's stock 100 -- so ``explore``
    multiplies the tests that cap their examples like the ones that
    do not."""
    return count * settings.default.max_examples // 100


def files_on_disk(db):
    """Every profile or temp file under *db*'s epoch directories."""
    return {os.path.join(name, fname)
            for name in os.listdir(db.root) if name.startswith("epoch")
            for fname in os.listdir(os.path.join(db.root, name))}


def files_in_manifest(db):
    """Every file the manifest on disk names."""
    with open(os.path.join(db.root, "MANIFEST.json")) as handle:
        manifest = json.load(handle)
    return {record["file"] for record in manifest["records"].values()}


def rewrite_manifest(db, mutate):
    """Apply *mutate* to the manifest on disk and publish the result
    with a valid self-check -- what a bug or a tamperer would leave,
    as opposed to at-rest damage, which the ``CRC`` field catches."""
    path = os.path.join(db.root, "MANIFEST.json")
    with open(path) as handle:
        manifest = json.load(handle)
    manifest.pop("CRC", None)
    mutate(manifest)
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as handle:
        handle.write('{"CRC":%d,%s' % (zlib.crc32(body.encode("ascii")),
                                        body[1:]))


#: The paper's Figure 2 copy loop (4x unrolled), used by many tests.
COPY_LOOP_ASM = """
.image copy.prog
.data src, 64000
.data dst, 64000
.proc copy
    lda   t1, =src
    lda   t2, =dst
    lda   t0, 0(zero)
    lda   v0, {n}(zero)
loop:
    ldq   t4, 0(t1)
    addq  t0, 4, t0
    ldq   t5, 8(t1)
    ldq   t6, 16(t1)
    ldq   a0, 24(t1)
    lda   t1, 32(t1)
    stq   t4, 0(t2)
    cmpult t0, v0, t4
    stq   t5, 8(t2)
    stq   t6, 16(t2)
    stq   a0, 24(t2)
    lda   t2, 32(t2)
    bne   t4, loop
    ret
.end
"""


def make_copy_workload(n=4000):
    def workload(machine):
        image = assemble(COPY_LOOP_ASM.format(n=n))
        machine.spawn(image, name="copy")
    return workload


@pytest.fixture
def machine():
    return Machine(MachineConfig(), seed=1)


@pytest.fixture
def copy_session_result():
    """A profiled run of the copy loop with dense sampling."""
    session = ProfileSession(
        MachineConfig(),
        SessionConfig(cycles_period=(120, 128), event_period=64, seed=3))
    return session.run(make_copy_workload())


def run_asm(asm, max_instructions=None, seed=1, config=None, **spawn_args):
    """Assemble *asm*, run it on a fresh machine, return (machine, image)."""
    machine = Machine(config or MachineConfig(), seed=seed)
    image = machine.load_image(assemble(asm))
    machine.spawn(image, **spawn_args)
    machine.run(max_instructions=max_instructions)
    return machine, image
