"""What one flipped bit in ``MANIFEST.json`` does to a database.

A measurement recipe like ``db_commit_counts.py`` (``dcpibench`` does
not collect it): it regenerates the bit-flip table in EXPERIMENTS.md
"Database commit cost" on any checkout.  A two-profile database (14
samples) is committed once; then every bit of every byte of its
manifest is flipped in turn, the database reopened, and ``verify()`` +
``total_samples()`` classify the flip:

* ``kept``    -- all 14 samples are stored or accounted as quarantined
  (``rebuilt``: of those, how many reopenings noticed the damage and
  rebuilt the manifest from the segments);
* ``raised``  -- a raw exception escaped (``KeyError``, ``ValueError``);
* ``lost``    -- samples vanished with nothing accounting for them.

``tests/test_database_segments.py`` asserts the first row only, for
this checkout (all eight bits under ``--hypothesis-profile explore``).

Usage::

    python benchmarks/manifest_bitflips.py              # this checkout
    python benchmarks/manifest_bitflips.py ../parent    # another one
"""

import os
import shutil
import sys
import tempfile


def main(argv):
    checkout = os.path.abspath(
        argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    sys.path.insert(0, os.path.join(checkout, "src"))
    from repro.collect.database import MANIFEST_NAME, ProfileDatabase
    from repro.cpu.events import EventType

    root = tempfile.mkdtemp(prefix="dcpi-bitflips-")
    try:
        pristine = os.path.join(root, "pristine")
        db = ProfileDatabase(pristine)
        db.save("app", EventType.CYCLES, {0: 5, 8: 2}, 100)
        db.save("lib", EventType.CYCLES, {4: 7}, 100)
        with open(os.path.join(pristine, MANIFEST_NAME), "rb") as handle:
            manifest = handle.read()
        tally = dict.fromkeys(("kept", "rebuilt", "raised", "lost"), 0)
        for index in range(len(manifest)):
            for bit in range(8):
                # A fresh copy per flip: a reopening may commit.
                victim = os.path.join(root, "victim")
                shutil.copytree(pristine, victim)
                flipped = bytearray(manifest)
                flipped[index] ^= 1 << bit
                with open(os.path.join(victim, MANIFEST_NAME),
                          "wb") as handle:
                    handle.write(flipped)
                try:
                    fresh = ProfileDatabase(victim)
                    report = fresh.verify()
                    held = fresh.total_samples() + report["lost_samples"]
                except Exception:  # the measurement: what escapes
                    tally["raised"] += 1
                else:
                    if held == 14:
                        tally["kept"] += 1
                        tally["rebuilt"] += bool(fresh.warnings)
                    else:
                        tally["lost"] += 1
                shutil.rmtree(victim)
        print("%d-byte manifest, %d flips: %d kept (%d rebuilt), "
              "%d raised, %d lost"
              % (len(manifest), 8 * len(manifest), tally["kept"],
                 tally["rebuilt"], tally["raised"], tally["lost"]))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
