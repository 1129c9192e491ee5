"""Property test: no repro.opt pass can change what a program computes.

Hypothesis composes random programs from the synthetic-workload
assembly generators (the same strategy family as the fast-path
differential test), profiles each one, runs every subset of the
optimizer's passes over the profile, and requires, for every rewrite:

* the oracle proves architectural identity (registers, memory, exit
  state -- modulo the code-address translation), or the rewrite bailed
  and the program ran untouched;
* the rewritten image introduces zero new non-INFO Layer-1 findings
  over the baseline image's budget.

Speedup is *not* asserted here -- random programs owe us nothing --
only that the optimizer's contract ("only performance changes") holds
on programs it was never tuned for.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.alpha.assembler import assemble
from repro.opt import OptConfig, optimize_workload
from repro.workloads.asmgen import caller_proc, loop_proc
from repro.workloads.base import Workload

FLAVORS = ("int", "mem", "fp", "branchy", "stream")

PASS_SUBSETS = (
    OptConfig(layout=True, schedule=False, split=False),
    OptConfig(layout=False, schedule=True, split=False),
    OptConfig(layout=False, schedule=False, split=True),
    OptConfig(layout=True, schedule=True, split=True),
)


@st.composite
def programs(draw):
    """One assembly image: a few leaf loops plus a caller."""
    count = draw(st.integers(min_value=1, max_value=3))
    needs_buf = False
    procs = []
    for index in range(count):
        flavor = draw(st.sampled_from(FLAVORS))
        iters = draw(st.integers(min_value=1, max_value=96))
        kwargs = {}
        if flavor in ("mem", "stream"):
            needs_buf = True
            kwargs["buf"] = "heap"
            kwargs["wrap"] = draw(st.sampled_from((16, 64, 256)))
            kwargs["stride"] = draw(st.sampled_from((8, 16)))
            if flavor == "stream":
                iters = min(iters, 60)
        procs.append(loop_proc("leaf%d" % index, iters, flavor,
                               **kwargs))
    rounds = draw(st.integers(min_value=1, max_value=3))
    procs.append(caller_proc(
        "main", ["leaf%d" % i for i in range(count)], rounds=rounds))
    data = ".data heap, 4096\n" if needs_buf else ""
    return ".image t\n%s%s" % (data, "".join(procs))


class GeneratedWorkload(Workload):
    """Wrap one generated program as a registry-shaped workload."""

    name = "hypothesis-opt"
    num_cpus = 1

    def __init__(self, text):
        self.text = text

    def setup(self, machine):
        image = assemble(self.text)
        machine.spawn(image, entry="t:main", name=self.name)


@settings(max_examples=examples(10), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.sampled_from(PASS_SUBSETS))
def test_any_pass_preserves_the_program(text, config):
    report = optimize_workload(GeneratedWorkload(text),
                               max_instructions=40_000,
                               opt_config=config)
    # Identity holds whether the rewrite applied or bailed; bailing is
    # a legal outcome, corruption never is.
    assert report.oracle.identical, report.oracle.mismatches
    # Zero new non-INFO Layer-1 findings on every rewritten image.
    assert not any(report.findings.values()), report.findings
    # And the accounting is consistent: a reported speedup implies the
    # verified path was taken.
    if report.speedup:
        assert report.accepted
