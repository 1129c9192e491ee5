"""What one perfbench round of ``collect-dense`` / ``fleet-ingest``
writes to disk: durable writes (one fsync each) by kind, bytes, unlinks.

A measurement recipe, not a benchmark (``dcpibench`` does not collect
it and nothing asserts on it): it regenerates the fsync table quoted in
EXPERIMENTS.md "Database commit cost".  The counts are taken from
outside the program, so the same script measures any checkout: every
``repro.collect.database._atomic_write`` call (temp + fsync + rename)
by the kind of file it publishes, and every ``os.unlink`` made inside
a ``ProfileDatabase._commit`` (its garbage collection; the harness
removing a round's scratch directory is not counted).  Manifests also
get their size per commit, mean and last -- the O(store) part of a
commit that ROADMAP item 3(c) is about.  One set-up and
one round at seed 1 (``run.py --smoke``), so the counts are exact; the
harness's own yardstick writes are not counted.

Usage::

    python benchmarks/db_commit_counts.py              # this checkout
    python benchmarks/db_commit_counts.py ../parent    # another one
"""

import contextlib
import io
import os
import sys

KINDS = ((".prof", "profile files"), ("MANIFEST.json", "manifests"),
         ("", "other"))


def main(argv):
    checkout = os.path.abspath(
        argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    sys.path[:0] = [os.path.join(checkout, "src"), checkout]
    from perfbench import run
    from repro.collect import database
    from repro.fleet import store

    writes, unlinks, manifests = {}, [], []
    atomic_write, unlink = database._atomic_write, os.unlink
    commit = database.ProfileDatabase._commit
    committing = []

    def counted_write(path, data):
        kind = next(label for suffix, label in KINDS
                    if path.endswith(suffix))
        files, size = writes.get(kind, (0, 0))
        writes[kind] = (files + 1, size + len(data))
        if kind == "manifests":
            manifests.append(len(data))
        return atomic_write(path, data)

    def counted_unlink(path, *, dir_fd=None):
        if committing:
            unlinks.append(path)
        return unlink(path, dir_fd=dir_fd)

    def counted_commit(self, *args):
        committing.append(self)
        try:
            return commit(self, *args)
        finally:
            committing.pop()

    database._atomic_write = store._atomic_write = counted_write
    database.ProfileDatabase._commit = counted_commit
    os.unlink = counted_unlink
    for workload in ("collect-dense", "fleet-ingest"):
        writes.clear()
        del unlinks[:], manifests[:]
        with contextlib.redirect_stdout(io.StringIO()):
            status = run.main(["--workload", workload, "--seed", "1",
                               "--smoke"])
        print("%s (exit %d): %d fsyncs, %d unlinks"
              % (workload, status,
                 sum(files for files, _ in writes.values()), len(unlinks)))
        for kind, (files, size) in sorted(writes.items()):
            print("  %-14s %5d written, %9d bytes" % (kind, files, size))
        print("  manifest bytes per commit: mean %.0f, last %d"
              % (sum(manifests) / len(manifests), manifests[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
