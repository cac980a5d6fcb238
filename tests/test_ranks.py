"""Integer-height ranks against the ordinal folds they replaced.

``ExplicitTree.node_rank`` used to recurse once per node over
``immediate_extensions``, and ``state_rank`` folded ``Ordinal`` successors
and suprema over a three-colour topological order. Both are kept here as
oracles and checked at every node and state of seeded trees and systems,
cyclic ones included. A 3000-deep chain checks that nothing recurses.
"""

import random

from bisimkit.foundations import ORD_ZERO, Ordinal, ordinal_sup
from bisimkit.gen import random_explicit_tree, random_lts, random_wf_lts
from bisimkit.lts import PointedLTS, state_rank
from bisimkit.trees import SUC_LABEL, ExplicitTree, node_name
from bisimkit.uniform import tree_process


# --- oracles: the recursive and ordinal-folding ranks --------------------


def immediate_extensions(tree: ExplicitTree, node: tuple) -> list:
    return sorted(
        (u for u in tree.nodes if len(u) == len(node) + 1 and u[: len(node)] == node),
        key=repr,
    )


def oracle_node_rank(tree: ExplicitTree, node: tuple) -> Ordinal:
    """Recursive rank over the sorted immediate extensions."""
    if node not in tree.nodes:
        return ORD_ZERO
    return ordinal_sup(
        oracle_node_rank(tree, u) + 1 for u in immediate_extensions(tree, node)
    )


def _topo_from(lts: PointedLTS, state: str) -> list | None:
    """Topological order of the part reachable from state; None on a cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {s: WHITE for s in lts.states}
    order = []
    stack = [(state, 0)]
    color[state] = GRAY
    while stack:
        node, idx = stack.pop()
        succs = lts.all_successors(node)
        advanced = False
        while idx < len(succs):
            nxt = succs[idx]
            idx += 1
            if color[nxt] == GRAY:
                return None
            if color[nxt] == WHITE:
                stack.append((node, idx))
                stack.append((nxt, 0))
                color[nxt] = GRAY
                advanced = True
                break
        if not advanced and idx >= len(succs):
            color[node] = BLACK
            order.append(node)
    order.reverse()
    return order


def oracle_state_rank(lts: PointedLTS, state: str) -> Ordinal | None:
    """Ordinal fold over the reversed topological order."""
    order = _topo_from(lts, state)
    if order is None:
        return None
    ranks = {}
    for u in reversed(order):
        ranks[u] = ordinal_sup(ranks[v] + 1 for v in lts.all_successors(u))
    return ranks[state]


def oracle_tree_edges(tree: ExplicitTree) -> frozenset:
    """Edges from every node to each of its immediate extensions."""
    return frozenset(
        (node_name(node), SUC_LABEL, node_name(ext))
        for node in tree.nodes
        for ext in immediate_extensions(tree, node)
    )


def _probes(tree: ExplicitTree) -> set:
    """Every node, every one-letter extension of one, and a foreign node."""
    probes = {("x",), ("x", 0)}
    for node in tree.nodes:
        probes.add(node)
        probes.update(node + (letter,) for letter in range(6))
    return probes


# --- tests ----------------------------------------------------------------


def test_node_rank_matches_recursion_on_and_off_the_tree():
    rng = random.Random(4101)
    checked = off_tree = 0
    for _ in range(150):
        tree = random_explicit_tree(rng, max_nodes=rng.randint(1, 20))
        for node in _probes(tree):
            assert tree.node_rank(node) == oracle_node_rank(tree, node), node
            checked += 1
            off_tree += node not in tree.nodes
    assert off_tree > 0 and checked > off_tree


def test_tree_process_matches_extension_edges():
    rng = random.Random(4102)
    for _ in range(100):
        tree = random_explicit_tree(rng, max_nodes=rng.randint(1, 20))
        assert tree_process(tree).edges == oracle_tree_edges(tree)


def test_state_rank_matches_ordinal_fold_on_cyclic_systems():
    rng = random.Random(4103)
    ranks = set()
    for _ in range(200):
        lts = random_lts(rng, max_states=7, edge_chance=rng.choice((0.1, 0.2, 0.35)))
        for s in lts.states:
            got = state_rank(lts, s)
            assert got == oracle_state_rank(lts, s), (lts, s)
            ranks.add(got)
    assert None in ranks and ORD_ZERO in ranks and Ordinal.from_int(2) in ranks


def test_state_rank_matches_ordinal_fold_on_well_founded_systems():
    rng = random.Random(4104)
    ranks = set()
    for _ in range(200):
        lts = random_wf_lts(rng, max_states=8)
        for s in lts.states:
            got = state_rank(lts, s)
            assert got is not None
            assert got == oracle_state_rank(lts, s), (lts, s)
            ranks.add(got)
    assert Ordinal.from_int(4) in ranks


def test_deep_chain_ranks_without_recursion():
    depth = 3000
    chain = ExplicitTree(frozenset((0,) * i for i in range(depth + 1)))
    assert chain.node_rank(()) == Ordinal.from_int(depth)
    assert chain.node_rank((0,) * 1000) == Ordinal.from_int(depth - 1000)
    process = tree_process(chain)
    assert len(process.edges) == depth
    assert state_rank(process, "e") == Ordinal.from_int(depth)
