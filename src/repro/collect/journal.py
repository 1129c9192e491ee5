"""The daemon's drain journal (write-ahead log).

Before the daemon merges a flushed batch of driver entries into its
in-memory profiles, it appends the batch here.  After a crash, a
recovered daemon replays the journal on top of the last committed
database checkpoint; per-CPU flush sequence numbers recorded with each
batch make the replay idempotent (anything at or below the
checkpoint's watermark is skipped), so no sample is ever counted
twice.  Each checkpoint truncates the journal -- it only ever holds
the window since the last durable merge.

The format is deliberately dumb: one JSON record per line, prefixed by
a CRC32 of the record.  Appends are flushed and fsynced; a torn tail
(the one record being written when the machine died) fails its CRC and
is discarded, which is exactly the crash semantics a real WAL gives.
"""

import json
import os
import zlib

from repro.collect.database import _atomic_write


class DrainJournal:
    """Append/replay/truncate log of drained sample batches."""

    def __init__(self, path):
        self.path = os.fspath(path)
        #: Torn/corrupt trailing records discarded by the last replay.
        self.torn_records = 0

    def append(self, cpu_id, seq, entries):
        """Durably record one flushed batch before it is merged.

        *entries* is the driver's flush payload:
        ``[((pid, pc, event_ord[, ctx]), count), ...]`` -- keys are
        3-tuples, or 4-tuples when the request-context dimension
        (repro.ctx) is on; the key is stored positionally with the
        count last, so 3-tuple records are byte-identical to the
        pre-context format.
        """
        record = {
            "cpu": cpu_id,
            "seq": seq,
            "entries": [list(key) + [count] for key, count in entries],
        }
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":"))
        line = "%08x %s\n" % (zlib.crc32(payload.encode("utf-8")),
                              payload)
        with open(self.path, "a") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def replay(self):
        """Yield (cpu_id, seq, entries) for every intact record.

        Stops at the first corrupt record (a torn tail); anything
        after it is unreliable and discarded.
        """
        self.torn_records = 0
        if not os.path.exists(self.path):
            return
        with open(self.path) as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                crc_hex, _, payload = line.partition(" ")
                try:
                    crc = int(crc_hex, 16)
                    if zlib.crc32(payload.encode("utf-8")) != crc:
                        raise ValueError("journal checksum mismatch")
                    record = json.loads(payload)
                    entries = [(tuple(row[:-1]), row[-1])
                               for row in record["entries"]]
                    cpu_id, seq = record["cpu"], record["seq"]
                except (ValueError, KeyError, TypeError):
                    self.torn_records += 1
                    return
                yield cpu_id, seq, entries

    def truncate(self):
        """Drop all records (called after a durable checkpoint)."""
        _atomic_write(self.path, b"")
