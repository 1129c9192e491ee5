"""Cycle equivalence against a brute-force cut oracle.

``compute_equivalence`` reads 2-edge cuts off one spanning forest; the
oracle below applies the definition directly -- remove one flow edge,
or each pair, and test connectivity -- and must agree on ``class_of``,
``members`` and ``zero`` for synthetic CFGs of every awkward shape and
for every procedure the workload registry links.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples
from repro.core.cfg import CFG, EXIT, BasicBlock, Edge, build_cfg
from repro.core.equivalence import compute_equivalence
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine
from repro.workloads.registry import get_workload, workload_names


def oracle(cfg):
    """(class_of, members, zero) by removing edges and searching."""
    nodes = ([b.index for b in cfg.blocks]
             + [("e", e.index) for e in cfg.edges])
    if cfg.missing_edges:
        return ({n: i for i, n in enumerate(nodes)},
                {i: [n] for i, n in enumerate(nodes)}, frozenset())
    ends = {"entry": ("ENTRY", ("in", cfg.entry))}
    ends.update((b.index, (("in", b.index), ("out", b.index)))
                for b in cfg.blocks)
    ends.update((("e", e.index), (("out", e.src), "EXIT" if e.dst == EXIT
                                  else ("in", e.dst))) for e in cfg.edges)
    ends["return"] = ("EXIT", "ENTRY")
    incident = {}
    for label, (a, b) in ends.items():
        incident.setdefault(a, []).append((label, b))
        incident.setdefault(b, []).append((label, a))

    def joined(label, *removed):
        """Do *label*'s ends stay connected without it and *removed*?"""
        start, goal = ends[label]
        seen, stack = {start}, [start]
        while stack:
            for other, node in incident[stack.pop()]:
                if (other != label and other not in removed
                        and node not in seen):
                    seen.add(node)
                    stack.append(node)
        return goal in seen

    zero = {label for label in ends if not joined(label)}
    live = [label for label in ends if label not in zero]
    group = {label: label for label in ends}
    for i, label in enumerate(live):
        group[label] = next((group[other] for other in live[:i]
                             if not joined(label, other)), label)
    class_of, members, ids = {}, {}, {}
    for node in nodes:
        cid = class_of[node] = ids.setdefault(group[node], len(ids))
        members.setdefault(cid, []).append(node)
    return class_of, members, frozenset(zero) & frozenset(nodes)


def synthetic_cfg(successors, missing_edges=False):
    """A CFG whose block *i* branches to ``successors[i]`` (block
    indices or EXIT), built without an image."""
    blocks = [BasicBlock(i, 4 * i, 4 * i + 4, [])
              for i in range(len(successors))]
    edges = []
    for src, dsts in enumerate(successors):
        for dst, kind in zip(dsts, ("taken", "fall")):
            edges.append(Edge(len(edges), src, dst,
                              "exit" if dst == EXIT else kind))
    return CFG(SimpleNamespace(name="synthetic"), blocks, edges,
               missing_edges)


def assert_matches_oracle(cfg):
    classes = compute_equivalence(cfg)
    class_of, members, zero = oracle(cfg)
    assert classes.class_of == class_of
    assert list(classes.members.items()) == list(members.items())
    assert classes.zero == zero


@st.composite
def successor_lists(draw):
    count = draw(st.integers(1, 9))
    target = st.integers(EXIT, count - 1)
    return draw(st.lists(st.lists(target, max_size=2),
                         min_size=count, max_size=count))


@settings(max_examples=examples(300), deadline=None)
@given(successor_lists(), st.booleans())
# Parallel taken/fall edges to one target.
@example([[1, 1], [EXIT]], False)
# A block branching to itself.
@example([[0, 1], [EXIT]], False)
# An unreachable block (2) feeding the live graph.
@example([[1], [EXIT], [1]], False)
# An exit-less loop (2 <-> 3) that is a component of its own.
@example([[1], [EXIT], [3], [2]], False)
# A dead end: no successor at all, so no cycle through it.
@example([[1, 2], [], [EXIT]], False)
# Diamond, and the same with unresolved indirect jumps.
@example([[1, 2], [3], [3], [EXIT]], False)
@example([[1, 2], [3], [3], [EXIT]], True)
def test_synthetic_cfgs_match_oracle(successors, missing_edges):
    assert_matches_oracle(synthetic_cfg(successors, missing_edges))


def test_synthetic_shapes_are_not_vacuous():
    parallel = compute_equivalence(synthetic_cfg([[1, 1], [EXIT]]))
    assert parallel.class_of[("e", 0)] != parallel.class_of[("e", 1)]
    assert parallel.class_of[0] == parallel.class_of[1]
    island = compute_equivalence(synthetic_cfg([[1], [EXIT], [3], [2]]))
    assert island.class_of[2] == island.class_of[3]
    assert island.class_of[2] != island.class_of[0]
    assert not island.zero
    dead = compute_equivalence(synthetic_cfg([[1], [EXIT], [1]]))
    assert dead.zero == {2, ("e", 2)}


@pytest.mark.parametrize("name", workload_names())
def test_registry_procedures_match_oracle(name):
    workload = get_workload(name)
    machine = Machine(MachineConfig(num_cpus=workload.num_cpus), seed=1)
    workload.setup(machine)
    checked = 0
    for image in machine.loader.images:
        for proc in image.procedures:
            assert_matches_oracle(build_cfg(proc))
            checked += 1
    assert checked


def test_long_chain_of_diamonds_completes():
    """5 000 blocks nest the search 10 000 nodes deep: the forest is
    built with an explicit stack, so no RecursionError, and in one
    pass, so it finishes."""
    diamonds = 1666
    successors = []
    for d in range(diamonds):
        head = 3 * d
        successors += [[head + 1, head + 2], [head + 3], [head + 3]]
    successors += [[head + 4], [EXIT]]
    cfg = synthetic_cfg(successors)
    assert len(cfg.blocks) == 5000
    classes = compute_equivalence(cfg)
    heads = {classes.class_of[3 * d] for d in range(diamonds + 1)}
    assert heads == {classes.class_of[cfg.entry]}
    assert len(classes) == 1 + 2 * diamonds
    assert not classes.zero
