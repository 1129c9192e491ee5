"""The schema-versioned context ledger the database commits atomically.

The daemon keeps one :class:`ContextLedger` per epoch: per-class sample
totals by event, per-class culprit procedures (CYCLES samples), and
per-request OS accounting (cycles and instructions per process) folded
in by the session at the end of the run.  ``merge_to_disk`` commits
the ledger under the manifest's ``ctx`` key in the *same atomic
manifest rename* as the samples -- exactly like the fleet store's
ledger -- so a crash can never separate a checkpoint from its
attribution, and recovery reloads both together.

Everything in the ledger is keyed by request-class *name*, never by
the driver's interned ids: ids are per-run, arrival-order-dependent
and ephemeral, while names merge commutatively.  Shard merges are
therefore order-independent (integer sums plus idempotent per-request
entries), which ``tests/test_parallel.py`` property-tests byte-for-byte
via :func:`canonical_ledger_bytes`.
"""

import json

from repro.ctx.context import OTHER_CLASS, OTHER_ID, span_id

#: Ledger schema version (bump on any shape change; stored in every
#: committed blob so readers can reject blobs they do not understand).
CTX_SCHEMA = 1


class ContextLedger:
    """Per-epoch request-class attribution, mergeable and JSON-safe."""

    def __init__(self):
        self.schema = CTX_SCHEMA
        #: str(interned id) -> class name (per-run binding; the daemon
        #: absorbs the driver's table every drain).
        self.ids = {str(OTHER_ID): OTHER_CLASS}
        #: class name -> {event value: samples}.
        self.classes = {}
        #: class name -> {"image:procedure": CYCLES samples}.
        self.culprits = {}
        #: class name -> {request key: {"cycles", "instructions",
        #: "process", "done"}} -- OS accounting per request (process).
        self.requests = {}
        #: samples drained under an id the daemon never learned.
        self.other_samples = 0
        # Context-table accounting (latest driver snapshot).
        self.table_slots = 0
        self.table_evictions = 0
        self.table_interns = 0

    # -- write path (daemon/session) ---------------------------------------

    def absorb_table(self, table):
        """Absorb the driver's :class:`ContextTable` snapshot.

        Ids are monotonic and never reused, so repeatedly unioning the
        table's name map is safe; the counters are driver-lifetime
        totals and replace the previous snapshot.
        """
        for ident, name in table.names.items():
            self.ids[str(ident)] = name
        self.table_slots = table.slots
        self.table_evictions = table.evictions
        self.table_interns = table.interns

    def add_sample(self, ident, event, count):
        """Attribute *count* samples of *event* to *ident*'s class."""
        name = self.ids.get(str(ident))
        if name is None:
            name = OTHER_CLASS
            self.other_samples += count
        by_event = self.classes.setdefault(name, {})
        value = str(getattr(event, "value", event))
        by_event[value] = by_event.get(value, 0) + count
        return name

    def add_culprit(self, name, image_name, procedure, count):
        """Charge *count* CYCLES samples to a culprit procedure."""
        by_proc = self.culprits.setdefault(name, {})
        key = "%s:%s" % (image_name, procedure)
        by_proc[key] = by_proc.get(key, 0) + count

    def add_request(self, name, key, cycles, instructions,
                    process="", done=False):
        """Record one request's OS accounting (idempotent by *key*).

        A request is a process; *key* must be unique per request
        across every shard that could be merged (the session uses
        ``"<seed>:<pid>"``).  Re-folding the same request replaces its
        entry, so checkpoints and crash-recovery re-runs never double
        count.
        """
        self.requests.setdefault(name, {})[str(key)] = {
            "cycles": int(cycles),
            "instructions": int(instructions),
            "process": process,
            "done": bool(done),
        }

    # -- serialization ------------------------------------------------------

    def to_meta(self):
        """JSON-safe snapshot for the database manifest's ``ctx`` key."""
        return {
            "schema": self.schema,
            "ids": dict(self.ids),
            "classes": {name: dict(by_event)
                        for name, by_event in self.classes.items()},
            "culprits": {name: dict(by_proc)
                         for name, by_proc in self.culprits.items()},
            "requests": {name: {key: dict(entry)
                                for key, entry in by_key.items()}
                         for name, by_key in self.requests.items()},
            "spans": {name: span_id(name) for name in self.classes},
            "other_samples": self.other_samples,
            "table_slots": self.table_slots,
            "table_evictions": self.table_evictions,
            "table_interns": self.table_interns,
        }

    @classmethod
    def from_meta(cls, meta):
        """Rebuild a ledger from :meth:`to_meta` output (or None)."""
        ledger = cls()
        if not meta:
            return ledger
        schema = meta.get("schema", 0)
        if schema > CTX_SCHEMA:
            raise ValueError(
                "context ledger schema %s is newer than supported %s"
                % (schema, CTX_SCHEMA))
        ledger.ids.update(meta.get("ids", {}))
        ledger.classes = {name: dict(by_event)
                          for name, by_event in
                          meta.get("classes", {}).items()}
        ledger.culprits = {name: dict(by_proc)
                           for name, by_proc in
                           meta.get("culprits", {}).items()}
        ledger.requests = {name: {key: dict(entry)
                                  for key, entry in by_key.items()}
                           for name, by_key in
                           meta.get("requests", {}).items()}
        ledger.other_samples = meta.get("other_samples", 0)
        ledger.table_slots = meta.get("table_slots", 0)
        ledger.table_evictions = meta.get("table_evictions", 0)
        ledger.table_interns = meta.get("table_interns", 0)
        return ledger


def merge_ledger_meta(metas):
    """Reduce ledger blobs into one (commutative and associative).

    Sample and culprit counts sum per (class, event/procedure) key;
    request entries union (equal keys carry equal accounting when the
    same shard is merged twice, and elementwise ``max`` breaks any
    tie, keeping the reduction order-independent); table accounting
    sums (per-shard tables are disjoint).  Per-run id bindings are
    dropped: ids are arrival-order-dependent and meaningless across
    runs, and keeping them would break merge order-independence.
    """
    merged = ContextLedger()
    merged.ids = {str(OTHER_ID): OTHER_CLASS}
    for meta in metas:
        if meta is None:
            continue
        if hasattr(meta, "to_meta"):
            meta = meta.to_meta()
        for name, by_event in meta.get("classes", {}).items():
            dest = merged.classes.setdefault(name, {})
            for event, count in by_event.items():
                dest[event] = dest.get(event, 0) + count
        for name, by_proc in meta.get("culprits", {}).items():
            dest = merged.culprits.setdefault(name, {})
            for proc, count in by_proc.items():
                dest[proc] = dest.get(proc, 0) + count
        for name, by_key in meta.get("requests", {}).items():
            dest = merged.requests.setdefault(name, {})
            for key, entry in by_key.items():
                seen = dest.get(key)
                if seen is None:
                    dest[key] = dict(entry)
                else:
                    for field in ("cycles", "instructions"):
                        seen[field] = max(seen.get(field, 0),
                                          entry.get(field, 0))
                    seen["done"] = seen.get("done") or entry.get("done")
        merged.other_samples += meta.get("other_samples", 0)
        merged.table_slots += meta.get("table_slots", 0)
        merged.table_evictions += meta.get("table_evictions", 0)
        merged.table_interns += meta.get("table_interns", 0)
    return merged.to_meta()


def canonical_ledger_bytes(meta):
    """Canonical bytes of a ledger blob (the byte-identity oracle)."""
    if hasattr(meta, "to_meta"):
        meta = meta.to_meta()
    return json.dumps(meta, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
