"""Trees over countable letter alphabets and their ordinal ranks.

Explicit trees are finite prefix-closed node sets, so their ranks are
natural numbers: node heights, read from a table built once per tree
without recursion. Symbolic trees name four infinite families in closed
form: chains, the branch-code tree of an eventually periodic set, the
glued tree of all its finite modifications, and ad hoc gluings. Their
finite truncations are read off those closed forms one level at a time,
in output order, so a truncation can be streamed without holding its
node set. Multiplicity trees attach counted child slots to each node and
feed the isomorphism machinery.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Union

from .foundations import (
    Count,
    EPSet,
    ORD_OMEGA,
    ORD_ZERO,
    Ordinal,
    nth_modification,
    frozen,
    ordinal_sup,
)

SUC_LABEL = "suc"

Node = tuple  # of hashable letters


@frozen
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

    @cached_property
    def _heights(self) -> dict[Node, int]:
        """Each node's height, built once: the longest nodes pass theirs up."""
        heights = dict.fromkeys(self.nodes, 0)
        for node in sorted(self.nodes, key=len, reverse=True):
            if node:
                parent = node[:-1]
                if heights[parent] <= heights[node]:
                    heights[parent] = heights[node] + 1
        return heights

    @cached_property
    def _sections(self) -> dict[Hashable, ExplicitTree]:
        return {}

    def node_rank(self, node: Node) -> Ordinal:
        """Rank of a position: zero off the tree and at terminal nodes.

        The tree is finite, so the rank is the node's height, read from a
        table the first call builds in one pass without recursion.
        """
        height = self._heights.get(node)
        return ORD_ZERO if height is None else Ordinal.from_int(height)

    def tree_rank(self) -> Ordinal:
        if self.is_empty:
            return ORD_ZERO
        return self.node_rank(()) + 1

    def section(self, letter: Hashable) -> ExplicitTree:
        """The subtree hanging under a first letter, with that letter stripped.

        Each letter's section is built once and kept.
        """
        sections = self._sections
        if letter not in sections:
            sections[letter] = ExplicitTree(
                frozenset(u[1:] for u in self.nodes if u and u[0] == letter)
            )
        return sections[letter]

    @classmethod
    def from_nodes(cls, nodes: Iterable) -> ExplicitTree:
        return cls(frozenset(tuple(node) for node in nodes))


EMPTY_TREE = ExplicitTree(frozenset())


def tail(node: Node) -> Node:
    if not node:
        raise ValueError("the root has no tail")
    return node[1:]


@frozen
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

    def __repr__(self) -> str:
        # The field-by-field repr would print the whole unfolding, which
        # is exponential in the depth of a shared DAG, and recurse.
        return (
            f"<MultiTree: {len(self.children)} entries,"
            f" {len(postorder(self))} distinct nodes>"
        )

    def __eq__(self, other: object) -> bool:
        """Field-by-field equality, over each distinct pair of nodes once.

        The pairs wait on an explicit stack, so a shared DAG compares in
        time linear in its pairs and a deep tree never recurses.
        """
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            left, right = stack.pop()
            if left is right or (id(left), id(right)) in seen:
                continue
            seen.add((id(left), id(right)))
            if left.__class__ is not right.__class__:
                return False
            if len(left.children) != len(right.children):
                return False
            for (label, sub, count), (label2, sub2, count2) in zip(
                left.children, right.children
            ):
                if label != label2 or count != count2:
                    return False
                stack.append((sub, sub2))
        return True

    def __hash__(self) -> int:
        """``hash((children,))``, as the field-wise hash, cached per node.

        Children are hashed before their parents from an explicit stack,
        so each distinct node is hashed once and a deep tree never
        recurses; the tuple hash then reads each child's cached value.
        """
        stack = [self]
        while stack:
            node = stack[-1]
            if "_hash" in node.__dict__:
                stack.pop()
                continue
            pending = [
                sub for _, sub, _ in node.children if "_hash" not in sub.__dict__
            ]
            if pending:
                stack += pending
            else:
                stack.pop()
                object.__setattr__(node, "_hash", hash((node.children,)))
        return self._hash

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


class PieceText:
    """A tree's text kept per distinct node; iterating yields it in chunks.

    The root, and each piece below it, is a string or the int key of a
    table entry: the pieces of a node whose text is longer than INLINE
    characters, constant strings alternating with its children. A node
    within the limit is one string, so memory follows the number of
    distinct nodes, not the length of the text. Iteration walks the
    table with an explicit stack and yields chunks of at most CHUNK
    characters, the size of every streamed text; it may be repeated.
    """

    INLINE = 16384
    CHUNK = 65536

    __slots__ = ("table", "root")

    def __init__(self, table: dict[int, list], root: str | int) -> None:
        self.table = table
        self.root = root

    def __str__(self) -> str:
        """The whole text, joined from the chunks."""
        if type(self.root) is str:
            return self.root
        return "".join(self)

    def __iter__(self) -> Iterator[str]:
        return chunked(self._pieces(), self.CHUNK)

    def _pieces(self) -> Iterator[str]:
        table = self.table
        stack = [iter((self.root,))]
        while stack:
            for piece in stack[-1]:
                if type(piece) is int:
                    stack.append(iter(table[piece]))
                    break
                yield piece
            else:
                stack.pop()


def chunked(pieces: Iterable[str], size: int) -> Iterator[str]:
    """The pieces joined, in chunks of at most size characters.

    Short pieces are gathered into one chunk and a longer one is split,
    so neither a long text nor a long piece is ever held whole.
    """
    buffer: list[str] = []
    held = 0
    for piece in pieces:
        if held + len(piece) > size:
            if buffer:
                yield "".join(buffer)
                buffer.clear()
                held = 0
            start = 0
            while len(piece) - start > size:
                yield piece[start : start + size]
                start += size
            piece = piece[start:]
        buffer.append(piece)
        held += len(piece)
    if buffer:
        yield "".join(buffer)


@frozen
class Chain:
    """A path of length non_root nodes below the root."""

    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("chain length must be a natural")


@frozen
class ATree:
    """Branch-code tree: one chain of length n per member n of the set."""

    param: EPSet


@frozen
class BTree:
    """Glued tree of all finite modifications of the set.

    Child n of the root is the branch-code tree of the set with the binary
    digits of n flipped.
    """

    param: EPSet


@frozen
class Glue:
    """Fresh root whose immediate subtrees are the given symbolic trees."""

    parts: tuple  # of SymbolicTree


SymbolicTree = Union[Chain, ATree, BTree, Glue]
_SYMBOLIC = (Chain, ATree, BTree, Glue)
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


def truncation_levels(tree: SymbolicTree, depth: int, width: int) -> Iterator[Node]:
    """Nodes of depth <= depth whose branching letters are all < width.

    They come in (len(u), u) order, one level at a time, each level read
    off the closed forms and recomputed rather than kept, so memory never
    holds the node set. Arguments are checked on the call, before the
    first node.
    """
    if depth < 0 or width < 0:
        raise ValueError("depth and width must be naturals")
    if not isinstance(tree, _SYMBOLIC):
        raise TypeError(f"not a symbolic tree: {tree!r}")
    return _levels(tree, depth, width)


def _levels(tree: SymbolicTree, depth: int, width: int) -> Iterator[Node]:
    for level in range(depth + 1):
        empty = True
        for node in _level(tree, level, width):
            empty = False
            yield node
        if empty:  # the tree is prefix-closed: no deeper level either
            return


def _level(tree: SymbolicTree, level: int, width: int) -> Iterator[Node]:
    """The nodes of one length, sorted; glued parts wait on a stack."""
    stack = [((), tree, level)]
    while stack:
        prefix, tree, level = stack.pop()
        if not isinstance(tree, _SYMBOLIC):
            raise TypeError(f"not a symbolic tree: {tree!r}")
        if level == 0:
            yield prefix
        elif isinstance(tree, Glue):
            parts = enumerate(tree.parts[:width])
            stack += reversed([(prefix + (i,), part, level - 1) for i, part in parts])
        elif isinstance(tree, Chain):
            if width >= 1 and level <= tree.length:
                yield prefix + (0,) * level
        elif isinstance(tree, ATree):
            zeros = (0,) * (level - 1)
            for n in tree.param.elements_below(width):
                if n >= level - 1:
                    yield prefix + (n,) + zeros
        elif level == 1:  # a BTree from here on
            for n in range(width):
                yield prefix + (n,)
        else:
            zeros = (0,) * (level - 2)
            for n in range(width):
                modified = nth_modification(tree.param, n)
                for m in range(level - 2, width):
                    if modified.member(m):
                        yield prefix + (n, m) + zeros


def truncate_symbolic(tree: SymbolicTree, depth: int, width: int) -> ExplicitTree:
    """Nodes of depth <= depth whose branching letters are all < width."""
    return ExplicitTree(frozenset(truncation_levels(tree, depth, width)))


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
