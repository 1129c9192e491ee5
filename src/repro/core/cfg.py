"""Control-flow-graph construction (paper section 6.1.1).

A CFG is built per procedure by extracting its code from the image.
Basic-block boundaries come from control-transfer instructions and
branch targets.  Subroutine calls (``bsr``/``jsr``) do not end a block:
the analysis, like the paper's, is intra-procedural and treats a call as
a straight-line instruction.  Indirect jumps whose targets cannot be
determined set ``missing_edges``, which downgrades frequency equivalence
to per-block classes exactly as in the paper.
"""

from repro.alpha.opcodes import DIRECT_BRANCH_KINDS

#: Virtual exit node index.
EXIT = -1


class Edge:
    """A control-flow edge between blocks (or to the virtual exit)."""

    __slots__ = ("index", "src", "dst", "kind")

    def __init__(self, index, src, dst, kind):
        self.index = index
        self.src = src    # source block index
        self.dst = dst    # destination block index or EXIT
        self.kind = kind  # "taken" | "fall" | "exit"

    def __repr__(self):
        return "<Edge %d: b%d -> %s (%s)>" % (
            self.index, self.src,
            "EXIT" if self.dst == EXIT else "b%d" % self.dst, self.kind)


class BasicBlock:
    """A maximal straight-line instruction sequence."""

    __slots__ = ("index", "start", "end", "instructions", "succs", "preds")

    def __init__(self, index, start, end, instructions):
        self.index = index
        self.start = start
        self.end = end
        self.instructions = instructions
        self.succs = []
        self.preds = []

    @property
    def last(self):
        return self.instructions[-1]

    def __repr__(self):
        return "<Block %d [%#x, %#x)>" % (self.index, self.start, self.end)


class CFG:
    """The control-flow graph of one procedure."""

    def __init__(self, proc, blocks, edges, missing_edges):
        self.proc = proc
        self.blocks = blocks
        self.edges = edges
        self.missing_edges = missing_edges
        self._block_by_start = {b.start: b.index for b in blocks}

    @property
    def entry(self):
        return 0

    def block_at(self, addr):
        """Return the block containing *addr*."""
        for block in self.blocks:
            if block.start <= addr < block.end:
                return block
        raise KeyError("address %#x not in procedure %s"
                       % (addr, self.proc.name))


def build_cfg(proc):
    """Build the CFG for procedure *proc* (a :class:`Procedure`)."""
    instructions = proc.instructions()
    if not instructions:
        raise ValueError("empty procedure %s" % proc.name)
    missing_edges = False

    # Pass 1: find leaders.
    leaders = {proc.start}
    for inst in instructions:
        kind = inst.info.kind
        if kind in DIRECT_BRANCH_KINDS:
            if (inst.target is not None
                    and proc.start <= inst.target < proc.end):
                leaders.add(inst.target)
            if kind in ("cbranch", "fbranch"):
                fall = inst.addr + 4
                if fall < proc.end:
                    leaders.add(fall)
            elif kind == "br" and inst.op == "br":
                after = inst.addr + 4
                if after < proc.end:
                    leaders.add(after)
        elif kind == "jump" and inst.op != "jsr":
            after = inst.addr + 4
            if after < proc.end:
                leaders.add(after)

    # Pass 2: carve blocks in one sweep.  Pass 1 made the successor of
    # every block-ending instruction a leader, so leaders are the only
    # boundaries.
    blocks = []
    chunk = []
    for inst in instructions:
        if chunk and inst.addr in leaders:
            blocks.append(BasicBlock(len(blocks), chunk[0].addr,
                                     inst.addr, chunk))
            chunk = []
        chunk.append(inst)
    blocks.append(BasicBlock(len(blocks), chunk[0].addr, proc.end, chunk))

    block_of = {}
    for block in blocks:
        for inst in block.instructions:
            block_of[inst.addr] = block.index

    # Pass 3: edges.
    edges = []

    def add_edge(src, dst, kind):
        edge = Edge(len(edges), src, dst, kind)
        edges.append(edge)
        blocks[src].succs.append(edge)
        if dst != EXIT:
            blocks[dst].preds.append(edge)
        return edge

    for block in blocks:
        last = block.last
        kind = last.info.kind
        if kind in ("cbranch", "fbranch"):
            if last.target is not None and last.target in block_of:
                add_edge(block.index, block_of[last.target], "taken")
            else:
                add_edge(block.index, EXIT, "exit")
            fall = last.addr + 4
            if fall in block_of:
                add_edge(block.index, block_of[fall], "fall")
            else:
                add_edge(block.index, EXIT, "exit")
        elif kind == "br" and last.op == "br":
            if last.target is not None and last.target in block_of:
                add_edge(block.index, block_of[last.target], "taken")
            else:
                add_edge(block.index, EXIT, "exit")
        elif kind == "br" and last.op == "bsr":
            # A call: control returns to the next instruction.
            fall = last.addr + 4
            if fall in block_of:
                add_edge(block.index, block_of[fall], "fall")
            else:
                add_edge(block.index, EXIT, "exit")
        elif kind == "jump":
            if last.op == "jsr":
                fall = last.addr + 4
                if fall in block_of:
                    add_edge(block.index, block_of[fall], "fall")
                else:
                    add_edge(block.index, EXIT, "exit")
            elif last.op == "ret":
                add_edge(block.index, EXIT, "exit")
            else:
                # Indirect jmp: we cannot statically determine targets.
                missing_edges = True
                add_edge(block.index, EXIT, "exit")
        else:
            # Fallthrough into the next block.
            fall = block.end
            if fall in block_of:
                add_edge(block.index, block_of[fall], "fall")
            else:
                add_edge(block.index, EXIT, "exit")

    return CFG(proc, blocks, edges, missing_edges)
