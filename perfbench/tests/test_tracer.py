"""The span recorder: self-time arithmetic, wrapping, unwrapping."""

import sys
import types

import pytest

from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.phase = "timed"
    tracer.begin("outer")               # 0 .. 10
    clock.now = 1.0
    tracer.begin("middle")              # 1 .. 7
    clock.now = 2.0
    tracer.begin("inner")               # 2 .. 5
    clock.now = 5.0
    tracer.end()
    clock.now = 7.0
    tracer.end()
    clock.now = 8.0
    tracer.begin("inner")               # 8 .. 9, child of outer
    clock.now = 9.0
    tracer.end()
    clock.now = 10.0
    tracer.end()

    rows = tracer.summary("timed")
    assert rows["outer"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert rows["middle"] == {"calls": 1, "self_s": 3.0, "total_s": 6.0}
    assert rows["inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    # Self times of one operation sum to its wall time.
    assert sum(row["self_s"] for row in rows.values()) == 10.0
    assert tracer.summary("setup") == {}


def test_spans_carry_parent_operation_and_phase():
    tracer = Tracer(clock=FakeClock())
    tracer.op = 7
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["name"] for event in events] == ["a", "b"]
    assert events[0]["args"] == {"id": 0, "parent": -1, "op": 7,
                                 "phase": "setup"}
    assert events[1]["args"]["parent"] == 0


@pytest.fixture
def fake_modules():
    """A ``repro.*`` module defining a function and one importing it."""
    source = types.ModuleType("repro.zz_perfbench_source")
    user = types.ModuleType("repro.zz_perfbench_user")
    exec("def work(x):\n    return x + 1\n"
         "def items(n):\n    yield from range(n)\n", vars(source))
    user.work = source.work
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    yield source, user
    del sys.modules[source.__name__], sys.modules[user.__name__]


def test_install_wraps_every_binding_and_uninstall_restores(fake_modules):
    source, user = fake_modules
    original = source.work

    class Layer:
        def call(self):
            return user.work(1)

    method = vars(Layer)["call"]
    tracer = Tracer()
    tracer.install([(source, "work", "layer.work"),
                    (Layer, "call", "layer.call")])
    assert source.work is not original and user.work is source.work
    assert Layer().call() == 2          # no span open: not recorded
    assert tracer.spans == []
    with tracer.span("bench.op"):
        assert Layer().call() == 2
    assert [span[0] for span in tracer.spans] == [
        "bench.op", "layer.call", "layer.work"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1]

    # A module imported while wrapped binds the wrapper by name.
    late = types.ModuleType("repro.zz_perfbench_late")
    late.work = source.work
    sys.modules[late.__name__] = late
    try:
        tracer.uninstall()
        assert source.work is original and user.work is original
        assert late.work is original
        assert vars(Layer)["call"] is method
    finally:
        del sys.modules[late.__name__]


def test_skip_leaves_a_target_alone(fake_modules):
    source, _ = fake_modules
    original = source.work
    tracer = Tracer()
    tracer.install([(source, "work", "layer.work")], skip=("layer.work",))
    assert source.work is original
    tracer.uninstall()


def test_generator_is_charged_only_for_its_own_time(fake_modules):
    source, _ = fake_modules
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.install([(source, "items", "layer.items")])
    try:
        with tracer.span("bench.op"):
            for _ in source.items(3):
                clock.now += 5.0        # the consumer's own work
    finally:
        tracer.uninstall()
    rows = tracer.summary("setup")
    assert rows["layer.items"]["calls"] == 4    # 3 items + exhaustion
    assert rows["layer.items"]["total_s"] == 0.0
    assert rows["bench.op"]["self_s"] == 15.0
