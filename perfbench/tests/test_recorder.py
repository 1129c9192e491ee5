"""The recorder: calibration arithmetic, yardstick bookkeeping, and
that an injected regression moves ``work_per_s`` in proportion."""

import os
import time

import pytest

from perfbench import harness, recorder
from perfbench.recorder import Calibration, Recorder
from perfbench.workloads import BenchWorkload


def test_user_time_scales_with_the_loop_and_the_rest_with_the_write():
    yard = Calibration()
    yard.cpu = [2 * recorder.CPU_REF_S, 4 * recorder.CPU_REF_S]     # mean 3x
    yard.io = [2 * recorder.IO_REF_S] * 4 + [40 * recorder.IO_REF_S]
    assert yard.cpu_slowdown == pytest.approx(3.0)
    assert yard.io_slowdown == pytest.approx(2.0)   # median: no outlier
    # 9 s of wall, 6 s of them in user mode: 6/3 + 3/2.
    assert yard.seconds(9.0, 6.0) == pytest.approx(3.5)


def test_every_round_is_read_and_side_segments_are_not_paid(tmp_path):
    rec = Recorder(str(tmp_path))
    for _ in range(2):
        rec.begin_round(False, str(tmp_path))
        with rec.op():
            time.sleep(0.02)
        with rec.side():
            time.sleep(0.02)
        rec.work(5)
    assert rec.attempted == 2
    for rnd in rec.rounds:
        assert len(rnd.yard.cpu) == len(rnd.yard.io) >= 1
        assert [span for span, _ in rnd.segments] == [recorder.OP,
                                                      recorder.SIDE]
        assert 0.02 <= rnd.paid_wall < 0.04     # the op, not the side
        assert rnd.calibrated_s > 0
    # The yardsticks kept their share of the timed seconds.
    timed = sum(s for rnd in rec.rounds for _, s in rnd.segments)
    read = sum(sum(rnd.yard.cpu) + sum(rnd.yard.io) for rnd in rec.rounds)
    assert read >= recorder.YARDSTICK_SHARE * timed
    assert recorder.work_rate(rec.rounds, "paid_wall") == pytest.approx(
        5 / 0.02, rel=0.5)
    p50, p95 = recorder.op_latency_ms(rec.rounds)
    assert 20 <= p50 <= p95 < 40


class Synthetic(BenchWorkload):
    """Twenty operations of *loops* interpreter iterations and
    *commits* write-fsync-renames each."""

    name = "synthetic"

    def __init__(self, loops, commits):
        self.loops, self.commits = loops, commits

    def setup(self, seed, path):
        return None

    def round(self, state, rec):
        for _ in range(20):
            with rec.op():
                total = 0
                for value in range(self.loops):
                    total += value * value % 7
                for index in range(self.commits):
                    path = os.path.join(rec.round.path, "f%d" % (index % 4))
                    with open(path + ".tmp", "wb") as handle:
                        handle.write(b"\1" * 4096)
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(path + ".tmp", path)
        rec.work(20)


def work_per_s(loops, commits):
    result = harness.run_workload(Synthetic(loops, commits), 1, 3.0)
    assert result["line"]["correct"]
    return result["line"]["metrics"]["work_per_s"]["value"]


def test_half_as_much_user_work_again_costs_a_third_of_work_per_s():
    ratio = work_per_s(300_000, 0) / work_per_s(200_000, 0)
    assert 0.58 < ratio < 0.76          # 2/3, and the sandbox's noise


def test_twice_the_commits_halve_work_per_s():
    # The file-write yardstick shares a file system with the commits it
    # calibrates: more commits must not read as a slower disk and be
    # forgiven.
    ratio = work_per_s(0, 40) / work_per_s(0, 20)
    assert ratio < 0.64
