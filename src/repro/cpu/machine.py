"""The simulated machine: cores, images, processes, ground truth.

A :class:`Machine` bundles the CPU cores with the loader, a global
instruction map (for fast fetch), per-run physical page assignment, and
the ground-truth accounting the validation experiments compare the
analysis tools against.
"""

import random

from repro.alpha.predecode import decode
from repro.cpu.fastpath import FastPath, cache_geometry
from repro.ctx.context import NULL_CTX
from repro.cpu.pipeline import Core
from repro.osim.loader import Loader
from repro.osim.process import Process
from repro.osim.sched import Scheduler


class Machine:
    """A multiprocessor with private per-core caches and shared images.

    Args:
        config: :class:`repro.cpu.config.MachineConfig`.
        seed: per-run seed controlling physical page assignment (the
            source of run-to-run cache-conflict variance) and any other
            machine-level randomness.
    """

    def __init__(self, config, seed=0):
        self.config = config
        self.seed = seed
        self.cores = [Core(i, config, self) for i in range(config.num_cpus)]
        self.loader = Loader()
        self.scheduler = Scheduler(self)
        self.code_map = {}
        #: addr -> flat predecode record (repro.alpha.predecode); the
        #: pipeline's hot loop reads only these, never Instruction.
        self.decode_map = {}
        #: pc -> the straight-line run from there (repro.cpu.pipeline._Run),
        #: built on first visit: the unit Core.run's slow path walks and
        #: its fast path caches schedules for.
        self.runs = {}
        l1d_geom = cache_geometry(config.l1d)
        l1i_geom = cache_geometry(config.l1i)
        #: Block-level issue cache.  None when config.fastpath is off,
        #: and for an L1 that is not direct-mapped power-of-two: replay
        #: code inlines the tag probes, and the slow path is the model.
        self.fastpath = (
            FastPath(config.page_bits, config.l1d.latency, l1d_geom,
                     l1i_geom)
            if (config.fastpath
                and l1d_geom is not None and l1i_geom is not None)
            else None)
        self._decoded_images = set()
        self.processes = []
        #: Optional callable(image) -> image applied to unlinked images
        #: at load time (binary instrumentation, e.g. the pixie baseline).
        self.image_transform = None
        #: callable(cpu, pid, ctx) the scheduler calls on dispatch when
        #: the profiling driver enables the context dimension
        #: (repro.ctx); None means zero-cost no publication.
        self.ctx_sink = None
        self._next_pid = 100
        self._rng = random.Random(seed)
        self._code_pages = {}
        # Ground truth (per absolute instruction address).
        self.gt_count = {}
        self.gt_head = {}
        self.gt_stall = {}
        self.gt_events = {}
        self.gt_edges = {}

    # -- images and processes ------------------------------------------

    def load_image(self, image):
        """Link *image* (if needed) and make its code fetchable."""
        if self.image_transform is not None and image.base is None:
            image = self.image_transform(image)
        self.loader.link(image)
        if id(image) not in self._decoded_images:
            self._decoded_images.add(id(image))
            code_map = self.code_map
            decode_map = self.decode_map
            for inst in image.instructions:
                code_map[inst.addr] = inst
                decode_map[inst.addr] = decode(inst)
            # The static code map changed: conservatively drop every
            # cached run (they are cheap to rediscover).
            self.invalidate_runs()
        return image

    def invalidate_runs(self):
        """Empty the run cache, and the fast path's schedules with it:
        the static code map changed, or the cache is full
        (``pipeline.MAX_RUNS``)."""
        self.runs.clear()
        if self.fastpath is not None:
            self.fastpath.invalidate()

    def spawn(self, images, entry=None, name=None, pid=None,
              ctx=NULL_CTX):
        """Create a process running *images*, starting at *entry*.

        *entry* may be an absolute address, a ``"image.name:proc"``
        string, or None (entry of the first image's first procedure).
        *ctx* labels the process's request class (repro.ctx); the
        default NULL_CTX means unattributed and costs nothing.
        """
        images = [images] if not isinstance(images, (list, tuple)) else images
        images = [self.load_image(image) for image in images]
        if entry is None:
            entry = images[0].entry()
        elif isinstance(entry, str):
            image_name, _, proc_name = entry.partition(":")
            for image in images:
                if image.name == image_name and proc_name in image.symbols:
                    entry = image.symbols.resolve(proc_name)
                    break
            else:
                raise ValueError("entry %r not found" % entry)
        if pid is None:
            pid = self._next_pid
            self._next_pid += 1
        page_rng = random.Random((self.seed << 20) ^ pid)
        proc = Process(pid, name or images[0].name, images, entry,
                       page_rng, self.config.page_bits, ctx=ctx)
        self.processes.append(proc)
        self.loader.notify_exec(pid, images)
        return proc

    def translate_code(self, vpage):
        """Map a shared-text virtual page to its per-run physical page."""
        ppage = self._code_pages.get(vpage)
        if ppage is None:
            ppage = self._rng.getrandbits(19)
            self._code_pages[vpage] = ppage
        return ppage

    # -- execution --------------------------------------------------------

    @property
    def instructions_retired(self):
        return sum(core.instructions_retired for core in self.cores)

    @property
    def time(self):
        """Max core-local time (the machine's wall clock)."""
        return max(core.time for core in self.cores)

    def run(self, max_instructions=None):
        """Run all spawned, unfinished processes via the scheduler."""
        for proc in self.processes:
            if not proc.exited and not getattr(proc, "_submitted", False):
                self.scheduler.submit(proc)
                proc._submitted = True
        return self.scheduler.run(max_instructions=max_instructions)

    def set_sample_sink(self, sink):
        """Install *sink* on every core (the profiling driver's hook)."""
        for core in self.cores:
            core.sample_sink = sink

    # -- ground-truth helpers ----------------------------------------------

    def true_counts_for(self, image):
        """Exact execution count per instruction address of *image*."""
        return {inst.addr: self.gt_count.get(inst.addr, 0)
                for inst in image.instructions}
