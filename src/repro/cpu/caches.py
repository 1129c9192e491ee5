"""Cache models: single levels and the three-level hierarchy.

Caches are physically indexed and physically tagged, so the per-run
virtual-to-physical page assignment (see :mod:`repro.osim.process`)
changes conflict behaviour between runs -- the effect the paper uses to
explain wave5's run-to-run variance.

Each geometry's probe -- direct-mapped or set-associative, indexed by a
mask or by modulo -- is written once, as source (``_DIRECT`` and
``_WAYS``), and the probe of a cache's geometry is folded into every
function that probes it when the cache or the hierarchy is built:
:attr:`Cache.lookup`, and :attr:`Hierarchy.access`, which runs all three
levels in one frame.
"""

import functools

#: The probe of line ``_ln`` in a direct-mapped cache ``{c}`` whose
#: ``sets`` is ``{s}``: ``{i}`` is the set index and ``{hit}`` the
#: statement that ends a hit.  A miss falls through, installing the line
#: when ``allocate`` is true.
_DIRECT = (
    "if {s}[{i}] == _ln:",
    "    {c}.hits += 1",
    "    {hit}",
    "{c}.misses += 1",
    "if allocate: {s}[{i}] = _ln",
)
#: The same for a set-associative cache: each set is a list of tags in
#: MRU..LRU order.
_WAYS = (
    "_w = {s}[{i}]",
    "if _ln in _w:",
    "    {c}.hits += 1",
    "    if _w[0] != _ln:",
    "        _w.remove(_ln)",
    "        _w.insert(0, _ln)",
    "    {hit}",
    "{c}.misses += 1",
    "if allocate:",
    "    _w.insert(0, _ln)",
    "    if len(_w) > {assoc}: _w.pop()",
)


def cache_geometry(cache_config):
    """(line_shift, set_mask) when a caller can compare the tag in line
    (direct-mapped, power-of-two sets), else None."""
    num_sets = cache_config.size // (cache_config.line_size
                                     * cache_config.assoc)
    if cache_config.assoc == 1 and num_sets & (num_sets - 1) == 0:
        return (cache_config.line_size.bit_length() - 1, num_sets - 1)
    return None


class Cache:
    """A set-associative cache with LRU replacement.

    Associativity 1 degenerates to a direct-mapped cache whose set holds
    one tag.  ``tag_mask`` is the set mask of :func:`cache_geometry`
    (direct-mapped, power-of-two sets), else None: for such an L1 both
    ``Core.run`` paths compare the tag in line, count a hit themselves
    and call the model only on a miss.
    """

    def __init__(self, config):
        self.config = config
        self.line_size = config.line_size
        self._line_shift = config.line_size.bit_length() - 1
        if (1 << self._line_shift) != config.line_size:
            raise ValueError("line size must be a power of two")
        self.num_sets = config.size // (config.line_size * config.assoc)
        if self.num_sets & (self.num_sets - 1):
            # Non-power-of-two set counts (e.g. 3-way 96KB) index by modulo.
            self._set_mask = None
        else:
            self._set_mask = self.num_sets - 1
        self.assoc = config.assoc
        self.latency = config.latency
        geom = cache_geometry(config)
        self.tag_mask = None if geom is None else geom[1]
        # For assoc == 1: sets[i] is the resident tag (or None).
        # Otherwise: sets[i] is a list of tags in MRU..LRU order.
        if self.assoc == 1:
            self.sets = [None] * self.num_sets
        else:
            self.sets = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        #: ``lookup(addr, allocate=True)``: access the line containing
        #: *addr*; True on a hit.  When *allocate* is false
        #: (write-through, no-write-allocate stores), a miss does not
        #: install the line.
        self.lookup = _build("lookup", (self,), _probe(0, self, "return True")
                             + ["return False"])

    def flush(self):
        """Invalidate the entire cache.  ``sets`` is cleared in place:
        ``Core.run``, replay code and the probe functions hold it."""
        if self.assoc == 1:
            self.sets[:] = [None] * self.num_sets
        else:
            for ways in self.sets:
                ways.clear()


class Hierarchy:
    """L1 (I or D) + unified L2 + board cache + memory.

    ``access(paddr, allocate=True)`` probes L1, then on a miss L2, the
    board and memory, in one frame, and returns ``(latency, l1_missed)``:
    the full load-to-use latency, ``l1.latency`` on a primary hit.
    """

    def __init__(self, l1, l2, board, memory_latency):
        self.l1 = l1
        self.l2 = l2
        self.board = board
        self.memory_latency = memory_latency
        lat = l1.latency
        body = _probe(0, l1, "return (%d, False)" % lat)
        lat += l2.latency
        body += _probe(1, l2, "return (%d, True)" % lat)
        lat += board.latency
        body += _probe(2, board, "return (%d, True)" % lat)
        body.append("return (%d, True)" % (lat + memory_latency))
        self.access = _build("access", (l1, l2, board), body)


def _probe(n, cache, hit):
    """The source lines that probe *cache*, the *n*-th cache a probe
    function closes over, for the line holding ``paddr``: its
    geometry's probe, ending a hit with the statement *hit*."""
    index = ("_ln & %d" % cache._set_mask if cache._set_mask is not None
             else "_ln %% %d" % cache.num_sets)
    fields = dict(c="c%d" % n, s="s%d" % n, i=index, hit=hit,
                  assoc=cache.assoc)
    return ["_ln = paddr >> %d" % cache._line_shift] + [
        line.format(**fields)
        for line in (_DIRECT if cache.assoc == 1 else _WAYS)]


def _build(name, caches, body):
    """The function *name*``(paddr, allocate=True)`` running the source
    lines *body*, with ``c<n>`` / ``s<n>`` bound to the *n*-th of
    *caches* and its ``sets``."""
    make = _factory(name, len(caches), tuple(body))
    return make(*[obj for cache in caches for obj in (cache, cache.sets)])


@functools.lru_cache(maxsize=64)
def _factory(name, count, body):
    """The compiled factory of :func:`_build`'s function.  Every
    session builds every core's probes: a ``sim-stream`` round makes 102
    builds of 5 distinct sources, 14-16 ms compiled each time and 0.2 ms
    from this cache (EXPERIMENTS.md "The miss path")."""
    source = "\n".join(
        ["def _make(%s):" % ", ".join("c%d, s%d" % (n, n)
                                      for n in range(count)),
         "    def %s(paddr, allocate=True):" % name]
        + ["        " + line for line in body]
        + ["    return %s" % name])
    scope = {"__name__": __name__}
    exec(compile(source, "<cache-probe>", "exec"), scope)
    return scope["_make"]
