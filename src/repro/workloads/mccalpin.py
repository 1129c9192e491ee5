"""The McCalpin STREAM-style workload (paper Table 2, Figures 2 and 7).

Four memory-bandwidth kernels over arrays much larger than the primary
caches, each unrolled four times exactly like the copy loop the paper
analyzes in Figure 2:

* ``assign`` -- c[i] = a[i]           (the paper's copy benchmark)
* ``scale``  -- b[i] = s * c[i]
* ``sum``    -- a[i] = b[i] + c[i]
* ``saxpy``  -- a[i] = b[i] + s * c[i]
"""

from repro.alpha.assembler import assemble
from repro.workloads.base import Workload

KERNELS = ("assign", "scale", "sum", "saxpy")

_PROLOGUE = """
.image mccalpin
.data a, {nbytes}
.data b, {nbytes}
.data c, {nbytes}
.data scalar, 64
"""

# The paper's Figure 2 copy loop, verbatim apart from register naming.
_ASSIGN = """
.proc assign
    lda   a4, {iters}(zero)
outer:
    lda   t1, =a
    lda   t2, =c
    lda   t0, 0(zero)
    lda   v0, {n}(zero)
loop:
    ldq   t4, 0(t1)
    addq  t0, 4, t0
    ldq   t5, 8(t1)
    ldq   t6, 16(t1)
    ldq   a0, 24(t1)
    lda   t1, 32(t1)
    stq   t4, 0(t2)
    cmpult t0, v0, t4
    stq   t5, 8(t2)
    stq   t6, 16(t2)
    stq   a0, 24(t2)
    lda   t2, 32(t2)
    bne   t4, loop
    subq  a4, 1, a4
    bgt   a4, outer
    ret
.end
"""

_SCALE = """
.proc scale
    lda   t7, 3(zero)
    lda   t8, =scalar
    stq   t7, 0(t8)
    ldt   f0, 0(t8)
    lda   a4, {iters}(zero)
outer:
    lda   t1, =c
    lda   t2, =b
    lda   t0, 0(zero)
    lda   v0, {n}(zero)
loop:
    ldt   f1, 0(t1)
    addq  t0, 4, t0
    ldt   f2, 8(t1)
    ldt   f3, 16(t1)
    ldt   f4, 24(t1)
    lda   t1, 32(t1)
    mult  f0, f1, f1
    mult  f0, f2, f2
    mult  f0, f3, f3
    mult  f0, f4, f4
    stt   f1, 0(t2)
    cmpult t0, v0, t4
    stt   f2, 8(t2)
    stt   f3, 16(t2)
    stt   f4, 24(t2)
    lda   t2, 32(t2)
    bne   t4, loop
    subq  a4, 1, a4
    bgt   a4, outer
    ret
.end
"""

_SUM = """
.proc sum
    lda   a4, {iters}(zero)
outer:
    lda   t1, =b
    lda   t2, =c
    lda   t3, =a
    lda   t0, 0(zero)
    lda   v0, {n}(zero)
loop:
    ldt   f1, 0(t1)
    addq  t0, 4, t0
    ldt   f2, 0(t2)
    ldt   f3, 8(t1)
    ldt   f4, 8(t2)
    lda   t1, 16(t1)
    addt  f1, f2, f5
    addt  f3, f4, f6
    lda   t2, 16(t2)
    stt   f5, 0(t3)
    cmpult t0, v0, t4
    stt   f6, 8(t3)
    lda   t3, 16(t3)
    bne   t4, loop
    subq  a4, 1, a4
    bgt   a4, outer
    ret
.end
"""

_SAXPY = """
.proc saxpy
    lda   t7, 3(zero)
    lda   t8, =scalar
    stq   t7, 0(t8)
    ldt   f0, 0(t8)
    lda   a4, {iters}(zero)
outer:
    lda   t1, =b
    lda   t2, =c
    lda   t3, =a
    lda   t0, 0(zero)
    lda   v0, {n}(zero)
loop:
    ldt   f1, 0(t1)
    addq  t0, 2, t0
    ldt   f2, 0(t2)
    ldt   f3, 8(t1)
    ldt   f4, 8(t2)
    lda   t1, 16(t1)
    mult  f0, f2, f2
    mult  f0, f4, f4
    lda   t2, 16(t2)
    addt  f1, f2, f5
    addt  f3, f4, f6
    stt   f5, 0(t3)
    cmpult t0, v0, t4
    stt   f6, 8(t3)
    lda   t3, 16(t3)
    bne   t4, loop
    subq  a4, 1, a4
    bgt   a4, outer
    ret
.end
"""

_BODIES = {
    "assign": (_ASSIGN, 4),   # elements consumed per unrolled iteration
    "scale": (_SCALE, 4),
    "sum": (_SUM, 4),         # counter advances by 4 (two pairs)
    "saxpy": (_SAXPY, 2),
}


class McCalpin(Workload):
    """One STREAM kernel looping over large arrays."""

    num_cpus = 1
    description = ("McCalpin STREAMS-style loop measuring memory-system "
                   "bandwidth (paper ref [15])")

    def __init__(self, kernel="assign", n=8192, iterations=4):
        if kernel not in KERNELS:
            raise ValueError("kernel must be one of %s" % (KERNELS,))
        self.kernel = kernel
        self.n = n
        self.iterations = iterations
        self.name = "mccalpin-%s" % kernel

    def _asm(self):
        body, _ = _BODIES[self.kernel]
        return (_PROLOGUE.format(nbytes=self.n * 8)
                + body.format(n=self.n, iters=self.iterations))

    def setup(self, machine):
        image = assemble(self._asm())
        machine.spawn(image, name=self.name)


def build(kernel="assign", n=8192, iterations=4):
    """Convenience constructor used throughout examples and tests."""
    return McCalpin(kernel, n, iterations)
