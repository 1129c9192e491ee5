"""Frequency-equivalence classes via cycle equivalence
(paper section 6.1.2, reference [14]).

Execution counts of blocks and edges form a *circulation* once a
virtual return edge from exit to entry is added: flow is conserved at
every node.  Two flow edges provably carry equal flow in every valid
execution iff they form a **2-edge cut** of the underlying undirected
graph (removing both disconnects it):

* conservation across the cut forces ``f(e1) = f(e2)`` when the edges
  cross it in opposite directions, and ``f(e1) = f(e2) = 0`` when they
  cross the same way (counts are non-negative);
* a single-edge cut (a bridge) carries no cycle, hence zero flow -- a
  dead block.

This is exactly the cycle-equivalence relation of
Johnson-Pearson-Pingali [14], and like theirs it is computed in one
pass over the flow multigraph.  Take any spanning forest; every other
edge closes one cycle with the tree path between its ends.  Give each
flow edge the set of non-tree edges whose cycle runs through it (a
non-tree edge's set is itself).  An empty set means no cycle: a bridge.
Otherwise two edges form a 2-edge cut iff their sets are equal:

* removing tree edges e and f cuts their tree into three parts A-e-B-f-C,
  held together only by non-tree edges; the set of e is those leaving A,
  the set of f those leaving C.  The graph falls apart iff at most one
  of the kinds A-B, B-C, A-C exists, and since neither e nor f is a
  bridge that kind is A-C: both sets are the A-C edges, hence equal.
  Conversely equal sets contain no A-B and no B-C edge, isolating B;
* a tree edge and a non-tree edge g form a cut iff g alone rejoins the
  two halves, i.e. the tree edge's set is {g}, the set of g;
* two non-tree edges never do (the forest survives) and their sets,
  two different singletons, never match.

The sets are exact -- Python-int bitsets, one bit per non-tree edge,
XOR-accumulated from the leaves of the forest upward -- so the result
is deterministic and collision-free (see DESIGN.md).  Infinite loops
are handled as in the paper's extension: regions that cannot reach the
exit are connected to it virtually.

Blocks participate by splitting each block into an internal flow edge
(b_in -> b_out) whose flow is the block's execution count, so blocks
and CFG edges land in one unified partition.
"""

from repro.core.cfg import EXIT


class EquivalenceClasses:
    """Partition of blocks and edges into same-frequency classes.

    ``class_of`` maps a block index or an ``("e", edge_index)`` pair to
    a class id; ``members`` is the inverse mapping.  ``zero`` lists
    nodes proved to execute zero times (bridge edges of the flow graph).
    """

    def __init__(self, class_of, members, zero=()):
        self.class_of = class_of
        self.members = members
        self.zero = frozenset(zero)

    def __len__(self):
        return len(self.members)


def _cycle_sets(ends, num_nodes):
    """Return, per edge of the undirected multigraph *ends* (a list of
    ``(u, v)`` node pairs), the bitset of non-tree edges whose cycle
    covers it, for one spanning forest of the graph."""
    incident = [[] for _ in range(num_nodes)]
    for k, (u, v) in enumerate(ends):
        incident[u].append(k)
        incident[v].append(k)

    # Spanning forest with an explicit stack: parents enter ``order``
    # before their children, whatever the nesting depth.
    up_edge = [None] * num_nodes
    up_node = [None] * num_nodes
    seen = [False] * num_nodes
    order = []
    for root in range(num_nodes):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for k in incident[u]:
                a, b = ends[k]
                w = b if a == u else a
                if not seen[w]:
                    seen[w] = True
                    up_edge[w] = k
                    up_node[w] = u
                    stack.append(w)

    # through[u]: non-tree edges with exactly one end below u's tree
    # edge, i.e. those whose cycle uses it.  An edge with both ends in
    # the subtree cancels itself out on the way up.
    sets = [0] * len(ends)
    through = [0] * num_nodes
    bit = 1
    for k, (u, v) in enumerate(ends):
        if up_edge[u] != k and up_edge[v] != k:
            sets[k] = bit
            through[u] ^= bit
            through[v] ^= bit
            bit <<= 1
    for u in reversed(order):
        k = up_edge[u]
        if k is not None:
            sets[k] = through[u]
            through[up_node[u]] ^= through[u]
    return sets


def compute_equivalence(cfg):
    """Compute cycle-equivalence classes of blocks and edges of *cfg*.

    With missing CFG edges (unresolved indirect jumps) flow conservation
    cannot be trusted, so every block and edge is its own class, exactly
    as in the paper.
    """
    nodes = ([block.index for block in cfg.blocks]
             + [("e", edge.index) for edge in cfg.edges])
    if cfg.missing_edges:
        class_of = {node: i for i, node in enumerate(nodes)}
        members = {i: [node] for i, node in enumerate(nodes)}
        return EquivalenceClasses(class_of, members)

    # Graph nodes: block b is 2b (in) and 2b+1 (out), then the virtual
    # entry and exit.  Flow edges follow *nodes*, bracketed by the
    # virtual entry and return edges, which take part in the cuts but
    # not in the partition.
    entry_node = 2 * len(cfg.blocks)
    exit_node = entry_node + 1
    ends = [(entry_node, 2 * cfg.entry)]
    ends += [(2 * block.index, 2 * block.index + 1)
             for block in cfg.blocks]
    ends += [(2 * edge.src + 1,
              exit_node if edge.dst == EXIT else 2 * edge.dst)
             for edge in cfg.edges]
    ends.append((exit_node, entry_node))
    sets = _cycle_sets(ends, exit_node + 1)

    # Class ids by first appearance in *nodes* order; a bridge carries
    # zero flow (dead code) and is a class of its own.
    class_of = {}
    members = {}
    zero = []
    id_of_set = {}
    for node, cycles in zip(nodes, sets[1:-1]):
        cid = id_of_set.get(cycles) if cycles else None
        if cid is None:
            cid = len(members)
            members[cid] = []
            if cycles:
                id_of_set[cycles] = cid
            else:
                zero.append(node)
        class_of[node] = cid
        members[cid].append(node)
    return EquivalenceClasses(class_of, members, zero)
