"""``collect-dense``: samples through driver -> daemon -> database.

Set-up captures real sample traces (``log_trace``) from four programs
at a dense period and keeps their loaders; the timed region replays
those samples through ``Driver.record``, drains and commits every
``BATCH`` samples and closes an epoch every ``EPOCH_DRAINS`` drains,
into fresh databases -- no simulation at all, so ``repro.collect`` does
all the work.  Each round then reads the same databases back
(``load_all`` and ``verify`` of every epoch): writes beside reads, so
a commit-path gain that costs the load path shows.
"""

import dataclasses
import os

from repro.collect.daemon import Daemon
from repro.collect.database import ProfileDatabase
from repro.collect.driver import ORDINAL_EVENT, Driver
from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.obs.schema import derive
from repro.workloads.registry import get_workload

from perfbench.workloads import BUDGET, BenchWorkload
from perfbench.workloads.sim import count_collection

PROGRAMS = ("gcc", "timesharing", "x11perf", "altavista")
#: Dense capture period: ~4x the samples of the default bench period.
DENSE = {"mode": "default", "cycles_period": (60, 64), "event_period": 16}
#: Samples replayed per program per round, and between two drains.
SAMPLES = 60_000
BATCH = 2_000
EPOCH_DRAINS = 10


@dataclasses.dataclass
class Capture:
    """One program's recorded sample stream and what maps it."""

    program: str
    num_cpus: int
    driver_config: object
    periods: dict
    loader: object
    samples: list       # (cpu, pid, pc, EventType)


class CollectDense(BenchWorkload):
    name = "collect-dense"
    why = ("recorded sample streams replayed through Driver.record, "
           "Daemon.drain and database commits with no simulation: "
           "repro.collect does all the work, writes beside reads")
    unit = "samples through record, drain and commit"
    operation = "one Daemon.drain + merge_to_disk of %d samples" % BATCH
    # 30 000 record calls per second of round: one span per batch of
    # calls (opened in round() below) instead of one per call.
    trace_skip = ("collect.driver.record",)

    def setup(self, seed, path):
        captures = []
        for name in PROGRAMS:
            program = get_workload(name)
            config = SessionConfig(seed=seed, log_trace=True, **DENSE)
            session = ProfileSession(
                MachineConfig(num_cpus=program.num_cpus), config)
            result = session.run(program, max_instructions=BUDGET)
            captures.append(Capture(
                name, program.num_cpus,
                dataclasses.replace(config.make_driver_config(),
                                    log_trace=False),
                dict(result.daemon.periods), result.machine.loader,
                [(cpu, pid, pc, ORDINAL_EVENT[event])
                 for cpu, pid, pc, event in result.driver.trace]))
        return captures

    def round(self, captures, rec):
        roots = {}
        for capture in captures:
            roots[capture.program] = root = os.path.join(
                rec.round.path, capture.program)
            self.write(capture, root, rec)
        self.read(roots, rec)

    def write(self, capture, root, rec):
        driver = Driver(capture.num_cpus, capture.driver_config)
        daemon = Daemon(capture.loader, periods=capture.periods)
        database = ProfileDatabase(root)
        samples = capture.samples
        replayed = position = 0
        try:
            while replayed < SAMPLES:
                batch = samples[position:position + BATCH]
                position = (position + BATCH) % len(samples)
                with rec.busy(), rec.span("collect.driver.record"):
                    record = driver.record
                    for cpu, pid, pc, event in batch:
                        record(cpu, pid, pc, event, 0)
                replayed += len(batch)
                with rec.op():
                    daemon.drain(driver)
                    daemon.merge_to_disk(database)
                rec.count("collect.database.commits", 1)
                if daemon.drains % EPOCH_DRAINS == 0:
                    with rec.busy():
                        daemon.advance_epoch(database)
        finally:
            capture.loader.remove_listener(daemon.on_loadmap)
        rec.work(replayed)
        flat = derive({**driver.metrics(), **daemon.metrics()})
        count_collection(rec, flat)
        rec.count("collect.database.disk_bytes", database.disk_bytes())
        stored = database.total_samples()
        expected = replayed - flat["collect.samples_dropped"]
        if stored != expected:
            rec.fail("%s: database holds %d samples, %d replayed and not "
                     "dropped" % (capture.program, stored, expected))

    def read(self, roots, rec):
        """Reopen every database; decode and re-validate every epoch."""
        for program, root in roots.items():
            with rec.side():
                database = ProfileDatabase(root)
                loaded = sum(1 for epoch in database.epochs()
                             for _ in database.load_all(epoch))
                report = database.verify()
            rec.count("collect.database.profiles_loaded",
                      loaded + report["checked"])
            if report["quarantined"] or report["lost_samples"]:
                rec.fail("%s: verify() found damage: %s"
                         % (program, report))

