"""Epoch queries over a fleet store: top, movers, timeseries, regress.

The query schema is designed for the consumers ROADMAP item 3 and the
PGO papers need: everything is expressed as *CPU share* (a procedure's
fraction of the fleet's samples in an epoch range), and every share
comparison carries a significance bound derived from the paper's
frequency-estimate error machinery -- a sampled count of ``n`` has
standard error ~``sqrt(n)`` (section 6.1's square-root error bars), so
a share ``p = n / T`` carries error ``sqrt(n) / T`` and the difference
of two shares is significant only beyond
``z * sqrt(n_a / T_a^2 + n_b / T_b^2)``.  ``movers`` reports the bound
next to every delta; ``regress`` exits nonzero only on increases that
clear it -- the primitive the CI fleet gate consumes.
"""

import bisect
import json

from repro.cpu.events import EventType

#: Default two-sided 95% z-score for significance bounds.
DEFAULT_Z = 1.96


def parse_epochs(spec, available):
    """Parse an epoch-range argument against the store's epochs.

    ``"2..5"`` -> epochs 2-5 inclusive; ``"3"`` -> epoch 3; ``"all"``
    or None -> every committed epoch.  Only epochs that actually exist
    are returned (retention may have compacted interior ids away).
    """
    available = sorted(available)
    if spec is None or spec == "all":
        return available
    spec = str(spec)
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(spec)
    if lo > hi:
        raise ValueError("empty epoch range %r" % (spec,))
    return [epoch for epoch in available if lo <= epoch <= hi]


class SymbolIndex:
    """Maps (image, offset) -> procedure name via shipped symbols."""

    def __init__(self, symbols):
        self._starts = {}
        self._procs = {}
        for image, procs in symbols.items():
            table = sorted(procs, key=lambda p: p[1])
            self._starts[image] = [p[1] for p in table]
            self._procs[image] = table

    def procedure(self, image, offset):
        """Procedure containing *offset*, or None if unmapped."""
        starts = self._starts.get(image)
        if not starts:
            return None
        index = bisect.bisect_right(starts, offset) - 1
        if index < 0:
            return None
        name, start, end = self._procs[image][index]
        return name if start <= offset < end else None


def share_error(samples, total):
    """Standard error of share ``samples / total`` (sqrt-count bars)."""
    if not total:
        return 0.0
    return (max(samples, 0) ** 0.5) / total


class FleetQuery:
    """Query engine over one :class:`~repro.fleet.store.FleetStore`."""

    def __init__(self, store, event=EventType.CYCLES):
        self.store = store
        self.event = EventType(event)
        self.symbols = SymbolIndex(store.symbols())

    def epochs(self, spec=None):
        """*spec* parsed against the store; a list is already epochs."""
        if isinstance(spec, list):
            return spec
        return parse_epochs(spec, self.store.epochs())

    # -- aggregation -------------------------------------------------------

    def _totals(self, epochs, by="procedure"):
        """Aggregate *epochs* into ({key: samples}, total).

        Keys are ``image`` names or ``image:procedure`` labels; samples
        with no covering procedure fall into ``image:?``.
        """
        totals = {}
        grand = 0
        for epoch in sorted(epochs):
            for image, event, counts, _ in self.store.load_all(epoch):
                if event != self.event:
                    continue
                for offset, count in counts.items():
                    if by == "image":
                        key = image
                    else:
                        proc = self.symbols.procedure(image, offset)
                        key = "%s:%s" % (image, proc or "?")
                    totals[key] = totals.get(key, 0) + count
                    grand += count
        return totals, grand

    def _compare(self, base, base_total, epochs, by, z, min_share_delta):
        """Per-name share rows of *epochs* against *base* samples.

        Every row carries the share on both sides, the delta and its
        significance bound; ``significant`` is True when the absolute
        delta clears both the sampling-error bound and the
        *min_share_delta* floor.  Rows are ordered by |delta|.
        """
        new, new_total = self._totals(epochs, by=by)
        rows = []
        for name in sorted(set(base) | set(new)):
            samples_a = base.get(name, 0)
            samples_b = new.get(name, 0)
            share_a = samples_a / base_total if base_total else 0.0
            share_b = samples_b / new_total if new_total else 0.0
            delta = share_b - share_a
            bound = z * (share_error(samples_a, base_total) ** 2
                         + share_error(samples_b, new_total) ** 2) ** 0.5
            rows.append({
                "name": name,
                "samples_base": samples_a,
                "samples_new": samples_b,
                "share_base": share_a,
                "share_new": share_b,
                "delta": delta,
                "bound": bound,
                "significant": (abs(delta) > bound
                                and abs(delta) >= min_share_delta),
            })
        rows.sort(key=lambda row: (-abs(row["delta"]), row["name"]))
        return {"by": by, "event": str(self.event), "z": z,
                "min_share_delta": min_share_delta, "epochs": epochs,
                "base_total": base_total, "new_total": new_total,
                "rows": rows}

    # -- queries -----------------------------------------------------------

    def top(self, epochs=None, by="procedure", limit=None):
        """Fleet-wide hottest images/procedures for an epoch range."""
        epochs = self.epochs(epochs)
        totals, grand = self._totals(epochs, by=by)
        rows = [{
            "name": name,
            "samples": samples,
            "share": samples / grand if grand else 0.0,
        } for name, samples in sorted(totals.items(),
                                      key=lambda kv: (-kv[1], kv[0]))]
        if limit:
            rows = rows[:limit]
        return {"query": "top", "by": by, "event": str(self.event),
                "epochs": epochs, "total_samples": grand, "rows": rows}

    def movers(self, base_epochs, epochs, by="procedure", z=DEFAULT_Z,
               min_share_delta=0.0, limit=None):
        """Procedures whose CPU share moved most between two ranges
        (rows as in :meth:`_compare`)."""
        base_epochs = self.epochs(base_epochs)
        base, base_total = self._totals(base_epochs, by=by)
        report = self._compare(base, base_total, self.epochs(epochs), by,
                               z, min_share_delta)
        if limit:
            report["rows"] = report["rows"][:limit]
        report.update(query="movers", base_epochs=base_epochs)
        return report

    def timeseries(self, name=None, by="procedure", epochs=None):
        """Per-epoch share series, fleet-wide or for one name."""
        epochs = self.epochs(epochs)
        series = {}
        for epoch in epochs:
            totals, grand = self._totals([epoch], by=by)
            if name is None:
                rows = {key: {"samples": samples,
                              "share": samples / grand if grand else 0.0}
                        for key, samples in totals.items()}
            else:
                samples = totals.get(name, 0)
                rows = {name: {"samples": samples,
                               "share": samples / grand if grand
                               else 0.0}}
            series[epoch] = {"total_samples": grand, "rows": rows}
        return {"query": "timeseries", "by": by, "event": str(self.event),
                "name": name, "epochs": epochs, "series": series}

    # -- regression detection ----------------------------------------------

    def baseline(self, epochs=None, by="procedure"):
        """The committed-baseline form ``regress`` compares against."""
        epochs = self.epochs(epochs)
        totals, grand = self._totals(epochs, by=by)
        return {"kind": "fleet-baseline", "by": by,
                "event": str(self.event), "epochs": epochs,
                "total_samples": grand,
                "samples": dict(sorted(totals.items()))}

    def regress(self, epochs=None, base_epochs=None, baseline=None,
                by="procedure", z=DEFAULT_Z, min_share_delta=0.005):
        """Detect share regressions; the CI primitive.

        Compares *epochs* against either *base_epochs* (two ranges of
        the same store) or a committed *baseline* dict (see
        :meth:`baseline`).  A regression is a name whose share
        *increased* beyond both the sampling-error bound and
        *min_share_delta*.  Returns the movers-style report plus the
        regression subset; callers exit nonzero when ``regressions``
        is non-empty.
        """
        if baseline is not None:
            report = self._compare(
                baseline["samples"], baseline["total_samples"],
                self.epochs(epochs), baseline.get("by", by), z,
                min_share_delta)
            report["base"] = "baseline-file"
        else:
            report = self.movers(base_epochs, epochs, by=by, z=z,
                                 min_share_delta=min_share_delta)
        report["query"] = "regress"
        report["regressions"] = [
            row for row in report["rows"]
            if row["significant"] and row["delta"] > 0]
        return report


def load_baseline(path):
    """Read a committed fleet baseline (see FleetQuery.baseline)."""
    with open(path) as handle:
        baseline = json.load(handle)
    if baseline.get("kind") != "fleet-baseline":
        raise ValueError("%s is not a fleet baseline file" % path)
    return baseline
