"""The sample-conservation invariant.

Continuous profiling's robustness contract is not "no loss" -- it is
*no unaccounted loss*.  Every sample the driver ever handled must end
up in exactly one of four places:

* attributed -- merged into an image profile (and, once checkpointed,
  in the database);
* unknown -- processed but unmapped (no image at that PC);
* dropped -- shed on the driver side (overflow backlog, abandoned
  drains, a machine restart), counted per CPU;
* lost -- shed on the daemon side (a crash with no recoverable
  checkpoint, vanished images), counted by the daemon.

Database-side, every *mapped* sample the daemon processed must be
either committed (and checksum-clean) or in the quarantine ledger with
its declared total.  :func:`sample_conservation` checks both books for
one run; :func:`compare_runs` checks a faulted run against its
fault-free twin -- possible because fault injection never perturbs the
simulated machine, so both runs see the identical sample stream.
"""

from __future__ import annotations

from typing import Any, Dict


def sample_conservation(result: Any) -> Dict[str, Any]:
    """Audit one :class:`SessionResult`'s loss accounting.

    Returns a report dict; ``report["ok"]`` is the verdict.
    """
    driver_samples = sum(state.samples for state in result.driver.cpus)
    dropped = sum(state.dropped for state in result.driver.cpus)
    daemon = result.daemon
    report: Dict[str, Any] = {
        "driver_samples": driver_samples,
        "dropped": dropped,
        "lost": daemon.lost_samples,
        "daemon_samples": daemon.total_samples,
        "unknown": daemon.unknown_samples,
        "recoveries": daemon.recoveries,
        # Book 1: the pipeline.  Everything the driver handled is
        # attributed, dropped or lost -- nothing silently vanishes.
        "pipeline_balanced": (
            driver_samples
            == daemon.total_samples + dropped + daemon.lost_samples),
    }
    if result.database is not None:
        database = result.database
        db_samples = database.total_samples()
        quarantined = database.quarantined_samples()
        mapped = daemon.total_samples - daemon.unknown_samples
        report.update({
            "db_samples": db_samples,
            "quarantined_samples": quarantined,
            # Book 2: the database.  Every mapped sample is committed
            # or quarantined -- never torn, never double-counted.
            "db_balanced": db_samples + quarantined == mapped,
        })
    report["ok"] = (report["pipeline_balanced"]
                    and report.get("db_balanced", True))
    return report


def accounted_loss(report: Dict[str, Any]) -> int:
    """Total accounted losses in a conservation report."""
    return (report["dropped"] + report["lost"]
            + report.get("quarantined_samples", 0))


def loss_rate(report: Dict[str, Any]) -> float:
    """The loss side of the books over the samples the driver took:
    (dropped + lost + quarantined) / driver samples.  ``dcpichaos``
    and the bundle readers use this one definition."""
    samples = report["driver_samples"]
    return accounted_loss(report) / samples if samples else 0.0


def _kept(report: Dict[str, Any]) -> int:
    """Samples that survived into committed/attributed profiles."""
    if "db_samples" in report:
        return report["db_samples"]
    return report["daemon_samples"] - report["unknown"]


def compare_runs(faulted: Dict[str, Any],
                 reference: Dict[str, Any]) -> Dict[str, Any]:
    """Check a faulted run against its fault-free twin.

    Both arguments are :func:`sample_conservation` reports.  Asserts
    the ``dcpichaos`` acceptance invariant: identical sample streams
    (faults never touch the machine), and recovered profile counts
    equal to the fault-free counts minus exactly the accounted losses.
    The unknown-sample delta is an attribution *shift* (a dropped
    loadmap reroutes samples to 'unknown'), not a loss, and is
    credited separately.
    """
    identical_streams = (faulted["driver_samples"]
                         == reference["driver_samples"])
    delta_accounted = accounted_loss(faulted) - accounted_loss(reference)
    delta_unknown = faulted["unknown"] - reference["unknown"]
    counts_conserved = (
        _kept(reference) - _kept(faulted)
        == delta_accounted + delta_unknown)
    return {
        "identical_streams": identical_streams,
        "kept_faulted": _kept(faulted),
        "kept_reference": _kept(reference),
        "accounted_delta": delta_accounted,
        "unknown_delta": delta_unknown,
        "counts_conserved": counts_conserved,
        "ok": (identical_streams and counts_conserved
               and faulted["ok"] and reference["ok"]),
    }
