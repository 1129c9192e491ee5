"""A large-code workload for instruction-cache studies (Figure 10).

Many straight-line procedures of widely varying sizes, totalling far
more code than the 8 KB L1 I-cache, called in rotation so that every
pass misses: procedures accumulate IMISS events roughly in proportion
to their size, giving the spread of per-procedure I-cache activity the
Figure 10 correlation experiment needs.
"""

import functools
import random

from repro.alpha.assembler import assemble
from repro.workloads.asmgen import caller_proc
from repro.workloads.base import Workload

_OPS = (
    "    addq  t{a}, 1, t{b}",
    "    xor   t{a}, t{b}, t{c}",
    "    s4addq t{a}, t{b}, t{c}",
    "    subq  t{a}, 3, t{b}",
    "    and   t{a}, 2047, t{b}",
    "    bis   t{a}, t{b}, t{c}",
)


def straightline_proc(name, n_insts, rng):
    """Emit a procedure of *n_insts* straight-line integer ops."""
    lines = [".proc %s" % name]
    for _ in range(n_insts):
        template = rng.choice(_OPS)
        regs = rng.sample(range(8), 3)
        lines.append(template.format(a=regs[0], b=regs[1], c=regs[2]))
    lines.append("    ret")
    lines.append(".end")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def _text(name, procedures, min_insts, max_insts, rounds, seed):
    """A :class:`BigCode`'s assembly text, generated once per process
    for its parameters: 0.17 MiB for the registry's, which every session
    of it would otherwise generate again (32 ms).  The text, not the
    assembled image: one image's instructions take 2.5 MiB."""
    rng = random.Random(seed)
    text = ".image %s\n" % name
    names = []
    for index in range(procedures):
        proc = "leaf_%02d" % index
        names.append(proc)
        size = rng.randint(min_insts, max_insts)
        text += straightline_proc(proc, size, rng)
    text += caller_proc("main", names, rounds=rounds)
    return text


class BigCode(Workload):
    """Rotating calls over ~50 KB of straight-line code."""

    name = "bigcode"
    num_cpus = 1
    description = ("instruction-cache stress: rotating straight-line "
                   "procedures totalling several I-cache capacities")

    def __init__(self, procedures=18, min_insts=100, max_insts=700,
                 rounds=40, seed=5):
        self.procedures = procedures
        self.min_insts = min_insts
        self.max_insts = max_insts
        self.rounds = rounds
        self.seed = seed

    def _asm(self):
        return _text(self.name, self.procedures, self.min_insts,
                     self.max_insts, self.rounds, self.seed)

    def setup(self, machine):
        image = assemble(self._asm(), image_name=self.name)
        machine.spawn(image, entry="%s:main" % self.name,
                      name=self.name)


def build(procedures=18, rounds=40, seed=5):
    return BigCode(procedures=procedures, rounds=rounds, seed=seed)
