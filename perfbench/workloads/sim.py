"""``sim-replay`` and ``sim-stream``: profiled sessions, cpu layer.

Both call ``ProfileSession.run`` in memory (no database) at the period
every paper-figure bench uses; they differ only in how the simulator
executes the programs.  The fast path replays about four fifths of the
``sim-replay`` mix's instructions and almost none of ``sim-stream``'s,
so a fast-path change must read "no change" on the second and a
slow-path change shows there first.
"""

import hashlib

from repro.collect.session import ProfileSession, SessionConfig
from repro.cpu.config import MachineConfig
from repro.obs.schema import derive
from repro.tools.abcheck import fingerprint
from repro.workloads.registry import get_workload

from perfbench.workloads import BUDGET, PERIOD, BenchWorkload

#: Instructions of the warm-up session run per program during set-up.
WARMUP = 20_000


def count_collection(rec, flat):
    """Record the driver/daemon counts of one flattened snapshot and
    check that every sample is either merged or an accounted loss."""
    for metric, key in (
            ("collect.driver.samples", "driver.samples"),
            ("collect.driver.hash_hits", "driver.hash.hits"),
            ("collect.driver.evictions", "driver.hash.evictions"),
            ("collect.driver.dropped", "driver.overflow.dropped"),
            ("collect.driver.handler_cycles", "driver.handler_cycles"),
            ("collect.daemon.samples", "daemon.samples"),
            ("collect.daemon.entries", "daemon.entries"),
            ("collect.daemon.cycles", "daemon.cycles"),
            ("collect.daemon.drains", "daemon.drains"),
            ("collect.daemon.unknown_samples", "daemon.unknown_samples")):
        rec.count(metric, flat[key])
    rec.count("collect.driver.hash_lookups",
              flat["driver.hash.hits"] + flat["driver.hash.misses"])
    accounted = (flat["daemon.samples"] + flat["driver.overflow.dropped"]
                 + flat["daemon.lost_samples"])
    if flat["driver.samples"] != accounted:
        rec.fail("conservation: driver took %d samples, daemon merged or "
                 "accounted %d" % (flat["driver.samples"], accounted))


class _Sim(BenchWorkload):
    unit = "simulated instructions retired"
    operation = "one ProfileSession.run of %d instructions" % BUDGET
    programs = ()

    @staticmethod
    def _session(name, seed):
        program = get_workload(name)
        session = ProfileSession(
            MachineConfig(num_cpus=program.num_cpus),
            SessionConfig(seed=seed, **PERIOD))
        return program, session

    def setup(self, seed, path):
        # Assemble every image and let lazy imports and caches settle
        # on a short session, so the first round is like the others.
        for name in self.programs:
            program, session = self._session(name, seed)
            session.run(program, max_instructions=WARMUP)
        return seed

    def round(self, seed, rec):
        digests = {}
        for name in self.programs:
            program, session = self._session(name, seed)
            with rec.op():
                result = session.run(program, max_instructions=BUDGET)
            rec.work(result.instructions)
            flat = derive(result.metrics())
            rec.count("cpu.instructions", flat["session.instructions"])
            rec.count("cpu.cycles", flat["session.cycles"])
            # Absent under the REPRO_SIM_FASTPATH=0 kill switch.
            for key in ("replayed_instructions", "compiled_variants",
                        "variant_misses", "bails", "headroom_skips"):
                rec.count("cpu.fastpath." + key,
                          flat.get("sim.fastpath." + key, 0))
            count_collection(rec, flat)
            digests[name] = hashlib.sha256(
                fingerprint(result)).hexdigest()[:16]
        rec.note("fingerprints", digests)

    def extras(self, seed, rec, trace):
        if not trace:
            return
        # collect.overhead_pct: profiled against unprofiled cycles of
        # the same instruction streams (simulated, exact).
        baseline = 0
        for name in self.programs:
            program, session = self._session(name, seed)
            baseline += session.run_baseline(
                program, max_instructions=BUDGET).cycles
        rec.count("collect.baseline_cycles", baseline)
        rec.count("collect.overhead_cycles",
                  rec.rounds[0].counts["cpu.cycles"] - baseline)


class SimReplay(_Sim):
    name = "sim-replay"
    why = ("branchy, loop-heavy programs: the simulator fast path "
           "replays ~80% of the instructions, so block-variant "
           "caching and counter batching show here")
    programs = ("gcc", "x11perf", "wave5", "specint95", "specfp95",
                "parallel-specfp", "timesharing")


class SimStream(_Sim):
    name = "sim-stream"
    why = ("streaming kernels, huge code, 4-8 CPU servers: replay "
           "fraction ~0.1, so the slow-path issue loop, caches and "
           "write buffer dominate; a fast-path-only change reads no "
           "change")
    programs = ("mccalpin-assign", "mccalpin-scale", "mccalpin-sum",
                "mccalpin-saxpy", "bigcode", "altavista", "dss")
