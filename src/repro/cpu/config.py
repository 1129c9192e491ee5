"""Machine configuration: cache geometry, latencies, issue rules.

The defaults describe a 21164-flavoured AlphaStation: 8 KB direct-mapped
L1 caches, a 96 KB 3-way unified L2, a 2 MB direct-mapped board cache,
~90-cycle loads from memory, a 6-entry write buffer, and dual issue.
Everything is a plain attribute so experiments can sweep any knob.
"""

import os
from dataclasses import dataclass, field


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    size: int
    line_size: int
    assoc: int
    latency: int  # additional cycles contributed by a hit at this level


@dataclass
class MachineConfig:
    """Full microarchitectural configuration of a simulated machine."""

    name: str = "simstation-500/333"
    num_cpus: int = 1

    # Memory hierarchy.
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(8192, 32, 1, 0))
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(8192, 32, 1, 2))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(96 * 1024, 64, 3, 8))
    board: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 64, 1, 20))
    memory_latency: int = 60  # cycles beyond a board-cache hit

    # Instruction stream buffer (sequential prefetch).  0 disables it.
    # A fetch that misses the I-cache but hits the stream buffer still
    # counts an IMISS event (the hardware counter sees the cache miss)
    # yet pays only istream_hit_latency -- the effect behind the
    # paper's Figure 10 fpppp outlier, where long basic blocks made
    # "instruction prefetching especially effective".
    istream_entries: int = 0
    istream_hit_latency: int = 2

    # TLBs: 8 KB pages, flat miss penalty (PALcode refill).
    page_bits: int = 13
    itb_entries: int = 48
    dtb_entries: int = 64
    tlb_miss_penalty: int = 40

    # Write buffer: entries merge stores to the same 32-byte block and
    # drain to memory one entry per drain_cycles.
    write_buffer_entries: int = 6
    write_buffer_drain: int = 24

    # Branch handling.
    mispredict_penalty: int = 5
    branch_table_size: int = 2048

    # Interrupt delivery skew (paper section 4.1.2).
    interrupt_skew: int = 6

    # Simulator fast path: generated code for hot code, replayed issue
    # schedules of blocks and traces (repro.cpu.fastpath) and generated
    # steps of hot runs and regions (repro.cpu.step), both emitted by
    # repro.cpu.codegen.  Produces byte-identical profiles, samples
    # and ground truth; the REPRO_SIM_FASTPATH env var ("0" disables)
    # sets the default so A/B identity runs can toggle it without code
    # changes.
    fastpath: bool = field(
        default_factory=lambda: os.environ.get(
            "REPRO_SIM_FASTPATH", "1") != "0")

    # Scheduler quantum for timeshared processes (cycles).
    quantum: int = 50_000
