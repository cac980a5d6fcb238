"""Trees over countable letter alphabets and their ordinal ranks.

Explicit trees are finite prefix-closed node sets, so their ranks are
natural numbers: node heights, read off the node set without recursion.
Symbolic trees name four infinite families in closed form: chains, the
branch-code tree of an eventually periodic set, the glued tree of all its
finite modifications, and ad hoc gluings. Multiplicity trees attach
counted child slots to each node and feed the isomorphism machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Union

from .foundations import (
    Count,
    EPSet,
    ORD_OMEGA,
    ORD_ZERO,
    Ordinal,
    nth_modification,
    ordinal_sup,
)

SUC_LABEL = "suc"

Node = tuple  # of hashable letters


@dataclass(frozen=True)
class ExplicitTree:
    """Finite prefix-closed set of nodes; nonempty trees contain the root."""

    nodes: frozenset  # of Node

    def __post_init__(self) -> None:
        for node in self.nodes:
            if not isinstance(node, tuple):
                raise ValueError(f"nodes must be tuples, got {node!r}")
            if node and node[:-1] not in self.nodes:
                raise ValueError(f"node {node!r} lacks its parent")

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    def __contains__(self, node: Node) -> bool:
        return node in self.nodes

    def immediate_extensions(self, node: Node) -> list[Node]:
        return sorted(
            (u for u in self.nodes if len(u) == len(node) + 1 and u[: len(node)] == node),
            key=repr,
        )

    def node_rank(self, node: Node) -> Ordinal:
        """Rank of a position: zero off the tree and at terminal nodes.

        The tree is finite, so the rank is the node's height: the longest
        extension's length minus its own, in one pass without recursion.
        """
        if node not in self.nodes:
            return ORD_ZERO
        k = len(node)
        return Ordinal.from_int(max(len(u) for u in self.nodes if u[:k] == node) - k)

    def tree_rank(self) -> Ordinal:
        if self.is_empty:
            return ORD_ZERO
        return self.node_rank(()) + 1

    def section(self, letter: Hashable) -> ExplicitTree:
        """The subtree hanging under a first letter, with that letter stripped."""
        return ExplicitTree(
            frozenset(u[1:] for u in self.nodes if u and u[0] == letter)
        )

    @classmethod
    def from_nodes(cls, nodes: Iterable) -> ExplicitTree:
        return cls(frozenset(tuple(node) for node in nodes))


EMPTY_TREE = ExplicitTree(frozenset())


def tail(node: Node) -> Node:
    if not node:
        raise ValueError("the root has no tail")
    return node[1:]


@dataclass(frozen=True)
class MultiTree:
    """Tree of counted child slots: entries (label, subtree, multiplicity)."""

    children: tuple = ()  # of (str, MultiTree, Count)

    def __post_init__(self) -> None:
        for label, sub, count in self.children:
            if not isinstance(label, str):
                raise ValueError(f"child label must be a string, got {label!r}")
            if not isinstance(sub, MultiTree):
                raise ValueError("child subtree must be a MultiTree")
            if not count.is_omega and count.finite == 0:
                raise ValueError("child multiplicities must be positive")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def total_children(self) -> Count:
        total = Count(0)
        for _, _, count in self.children:
            total = total + count
        return total

    def tree_rank(self) -> Ordinal:
        """Rank of the whole tree; multiplicities are irrelevant to it.

        The tree is finite, so its rank is its height plus one.
        """
        heights: dict[int, int] = {}
        for node in postorder(self):
            heights[id(node)] = max(
                (heights[id(sub)] + 1 for _, sub, _ in node.children), default=0
            )
        return Ordinal.from_int(heights[id(self)] + 1)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable]) -> MultiTree:
        entries = []
        for label in mapping:
            for sub, count in mapping[label]:
                entries.append((label, sub, count))
        return cls(tuple(entries))


LEAF = MultiTree()


def postorder(*roots: MultiTree) -> list[MultiTree]:
    """Each node reachable from the roots once, after its children.

    Nodes are told apart by identity, so shared subtrees are visited
    once; the walk keeps its own stack instead of recursing.
    """
    seen: set[int] = set()
    order: list[MultiTree] = []
    for root in roots:
        if id(root) in seen:
            continue
        seen.add(id(root))
        stack = [(root, iter(root.children))]
        while stack:
            node, children = stack[-1]
            for _, sub, _ in children:
                if id(sub) not in seen:
                    seen.add(id(sub))
                    stack.append((sub, iter(sub.children)))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


@dataclass(frozen=True)
class Chain:
    """A path of length non_root nodes below the root."""

    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("chain length must be a natural")


@dataclass(frozen=True)
class ATree:
    """Branch-code tree: one chain of length n per member n of the set."""

    param: EPSet


@dataclass(frozen=True)
class BTree:
    """Glued tree of all finite modifications of the set.

    Child n of the root is the branch-code tree of the set with the binary
    digits of n flipped.
    """

    param: EPSet


@dataclass(frozen=True)
class Glue:
    """Fresh root whose immediate subtrees are the given symbolic trees."""

    parts: tuple  # of SymbolicTree


SymbolicTree = Union[Chain, ATree, BTree, Glue]
AnyTree = Union[ExplicitTree, SymbolicTree]


def symbolic_rank(tree: SymbolicTree) -> tuple[Ordinal, Ordinal]:
    """(root node rank, tree rank) of a symbolic tree.

    Glued-modification trees resolve the supremum over all modifications
    in closed form: finite sets have finite modifications of unbounded
    rank, infinite sets have modifications of rank exactly omega.
    """
    if isinstance(tree, Chain):
        root = Ordinal.from_int(tree.length)
    elif isinstance(tree, ATree):
        root = tree.param.sup_succ()
    elif isinstance(tree, BTree):
        root = ORD_OMEGA + 1 if not tree.param.is_finite else ORD_OMEGA
    elif isinstance(tree, Glue):
        root = ordinal_sup(symbolic_rank(part)[0] + 1 for part in tree.parts)
    else:
        raise TypeError(f"not a symbolic tree: {tree!r}")
    return root, root + 1


def truncate_symbolic(tree: SymbolicTree, depth: int, width: int) -> ExplicitTree:
    """Nodes of depth <= depth whose branching letters are all < width."""
    if depth < 0 or width < 0:
        raise ValueError("depth and width must be naturals")
    nodes: set[Node] = {()}
    if isinstance(tree, Chain):
        if width >= 1:
            for j in range(1, min(tree.length, depth) + 1):
                nodes.add((0,) * j)
    elif isinstance(tree, ATree):
        if depth >= 1:
            for n in tree.param.elements_below(width):
                for j in range(min(n, depth - 1) + 1):
                    nodes.add((n,) + (0,) * j)
    elif isinstance(tree, BTree):
        if depth >= 1:
            for n in range(width):
                nodes.add((n,))
                if depth >= 2:
                    modified = nth_modification(tree.param, n)
                    for m in modified.elements_below(width):
                        for j in range(min(m, depth - 2) + 1):
                            nodes.add((n, m) + (0,) * j)
    elif isinstance(tree, Glue):
        if depth >= 1:
            for i, part in enumerate(tree.parts[:width]):
                nodes.add((i,))
                for u in truncate_symbolic(part, depth - 1, width).nodes:
                    nodes.add((i,) + u)
    else:
        raise TypeError(f"not a symbolic tree: {tree!r}")
    return ExplicitTree(frozenset(nodes))


def root_rank_at_least(tree: AnyTree, alpha: Ordinal) -> bool:
    """Does the root position have rank at least alpha?"""
    if isinstance(tree, ExplicitTree):
        return tree.node_rank(()) >= alpha
    return symbolic_rank(tree)[0] >= alpha


_COMPARATORS = {
    "lt": Ordinal.__lt__,
    "le": Ordinal.__le__,
    "eq": Ordinal.__eq__,
    "ge": Ordinal.__ge__,
    "gt": Ordinal.__gt__,
}


def wf_class(tree: AnyTree, alpha: Ordinal, cmp: str = "eq") -> bool:
    """Compare the tree rank against alpha; cmp in lt/le/eq/ge/gt."""
    if cmp not in _COMPARATORS:
        raise ValueError(f"unknown comparison {cmp!r}")
    if isinstance(tree, ExplicitTree):
        rank = tree.tree_rank()
    else:
        rank = symbolic_rank(tree)[1]
    return _COMPARATORS[cmp](rank, alpha)
