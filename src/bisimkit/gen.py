"""Seeded generators for randomized checking.

Every generator draws from a caller-supplied random.Random, so any run
can be replayed from its seed.
"""

from __future__ import annotations

from bisect import insort
from math import gcd
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from .foundations import Count, EPSet, OMEGA_COUNT, dfs_postorder
from .lts import PointedLTS, StateId
from .nlmp import PointmassNLMP, SubProbMeasure, ZERO_MEASURE
from .trees import ExplicitTree, MultiTree

if TYPE_CHECKING:
    from random import Random

__all__ = [
    "enumerate_trees",
    "random_epset",
    "random_equivalence",
    "random_explicit_tree",
    "random_lts",
    "random_measure",
    "random_multitree",
    "random_nlmp",
    "random_wf_lts",
    "random_z_closed",
]


def random_epset(rng: Random, prefix_max: int = 4, period_max: int = 4) -> EPSet:
    prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, prefix_max)))
    period = "".join(rng.choice("01") for _ in range(rng.randint(1, period_max)))
    return EPSet(prefix, period)


def _label_pool(rng: Random, max_labels: int) -> tuple[str, ...]:
    return tuple("abcd"[: rng.randint(1, max_labels)])


def random_lts(
    rng: Random,
    max_states: int = 5,
    max_labels: int = 2,
    edge_chance: float = 0.3,
) -> PointedLTS:
    states = tuple(f"s{i}" for i in range(rng.randint(1, max_states)))
    labels = _label_pool(rng, max_labels)
    edges = frozenset(
        (s, a, t)
        for s in states
        for a in labels
        for t in states
        if rng.random() < edge_chance
    )
    return PointedLTS(labels, states, states[0], edges)


def random_wf_lts(
    rng: Random,
    max_states: int = 6,
    max_labels: int = 2,
    edge_chance: float = 0.4,
) -> PointedLTS:
    """Acyclic process: edges only run forward in the state order."""
    count = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(count))
    labels = _label_pool(rng, max_labels)
    edges = frozenset(
        (states[i], a, states[j])
        for i in range(count)
        for a in labels
        for j in range(i + 1, count)
        if rng.random() < edge_chance
    )
    return PointedLTS(labels, states, states[0], edges)


def random_measure(
    rng: Random, states: Iterable[StateId], max_support: int = 3
) -> SubProbMeasure:
    pool = list(states)
    size = rng.randint(0, min(max_support, len(pool)))
    if size == 0:
        return ZERO_MEASURE
    support = rng.sample(pool, k=size)
    denom = rng.randint(size, 8)
    budget = denom if rng.random() < 0.5 else rng.randint(size, denom)
    cuts = sorted(rng.sample(range(1, budget), k=size - 1)) if size > 1 else []
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, budget])]
    weights = []
    for s, p in sorted(zip(support, parts)):
        g = gcd(p, denom)
        weights.append((s, (p // g, denom // g)))
    return SubProbMeasure(tuple(weights))


def random_nlmp(
    rng: Random,
    max_states: int = 4,
    max_labels: int = 2,
    max_measures: int = 3,
    max_support: int = 3,
    skip_chance: float = 0.35,
) -> PointmassNLMP:
    states = tuple(f"s{i}" for i in range(rng.randint(1, max_states)))
    labels = _label_pool(rng, max_labels)
    trans = {}
    for s in states:
        for a in labels:
            if rng.random() < skip_chance:
                continue
            bundle = frozenset(
                random_measure(rng, states, max_support)
                for _ in range(rng.randint(1, max_measures))
            )
            trans[s, a] = bundle
    return PointmassNLMP(labels, states, trans)


def random_explicit_tree(
    rng: Random, max_nodes: int = 12, max_letter: int = 3
) -> ExplicitTree:
    target = rng.randint(1, max_nodes)
    nodes = {()}
    ordered = [()]  # nodes, kept sorted so each draw matches sorted(nodes)
    for _ in range(3 * target):
        if len(nodes) >= target:
            break
        child = rng.choice(ordered) + (rng.randint(0, max_letter),)
        if child not in nodes:
            nodes.add(child)
            insort(ordered, child)
    return ExplicitTree(frozenset(nodes))


def random_multitree(
    rng: Random,
    max_depth: int = 3,
    labels: tuple[str, ...] = ("a", "b"),
    max_branch: int = 2,
) -> MultiTree:
    if max_depth == 0 or rng.random() < 0.3:
        return MultiTree()
    entries = tuple(
        (
            rng.choice(labels),
            random_multitree(rng, max_depth - 1, labels, max_branch),
            rng.choice((Count(1), Count(2), OMEGA_COUNT)),
        )
        for _ in range(rng.randint(0, max_branch))
    )
    return MultiTree(entries)


def random_z_closed(
    rng: Random,
    left: Iterable[StateId],
    right: Iterable[StateId],
    blocks: int = 3,
) -> frozenset:
    """Union of disjoint rectangles, so difunctional by construction."""
    left_block = {s: rng.randrange(-1, blocks) for s in left}
    right_block = {t: rng.randrange(-1, blocks) for t in right}
    return frozenset(
        (s, t)
        for s, i in left_block.items()
        if i >= 0
        for t, j in right_block.items()
        if i == j
    )


def random_equivalence(
    rng: Random, states: Iterable[StateId], blocks: int = 3
) -> frozenset:
    block = {s: rng.randrange(blocks) for s in states}
    return frozenset(
        (s, t) for s in block for t in block if block[s] == block[t]
    )


def _forests(most: int) -> list[tuple]:
    """Sorted child-shape multisets, one entry per total node count 0..most.

    A shape is the sorted tuple of its children's shapes, so the forests
    of size n - 1 are exactly the tree shapes of size n.
    """
    table = [((),)]
    for total in range(1, most + 1):
        found = set()
        for size in range(1, total + 1):
            for child in table[size - 1]:
                for rest in table[total - size]:
                    found.add(tuple(sorted((child, *rest))))
        table.append(tuple(sorted(found)))
    return table


def _shape_nodes(shape: tuple) -> set:
    """The paths of a shape's nodes, child i of path p at p + (i,)."""
    walk = dfs_postorder(
        [((), shape)],
        lambda node: [(node[0] + (i,), child) for i, child in enumerate(node[1])],
        itemgetter(0),
    )
    return {path for path, _ in walk}


def enumerate_trees(max_nodes: int) -> list[ExplicitTree]:
    """One explicit tree per isomorphism class of rooted trees, smallest first."""
    forests = _forests(max_nodes - 1)
    return [
        ExplicitTree(frozenset(_shape_nodes(shape)))
        for n in range(1, max_nodes + 1)
        for shape in forests[n - 1]
    ]
