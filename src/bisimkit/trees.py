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

Their texts, the canonical form and the JSON document, are built by one
builder, `PieceText.build`, from each node's pieces as laid out by
`object_pieces`: a short node is kept as one string, a longer one as a
table entry of pieces around its children's forms, one entry per
distinct piece list, and the text is streamed from that table in chunks.
"""

from __future__ import annotations

import json
from functools import cached_property
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Union

from .foundations import (
    EPSet,
    ORD_OMEGA,
    ORD_ZERO,
    Ordinal,
    dfs_postorder,
    nth_modification,
    frozen,
    ordinal_sup,
)

SUC_LABEL = "suc"

Node = tuple  # of hashable letters

_second = itemgetter(1)


def node_name(node: Node) -> str:
    """The node's path written from the root: "e", "e.1", "e.1.2", ..."""
    return ".".join(["e", *map(str, node)])


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

        The nodes not hashed yet are hashed in postorder, so each distinct
        node is hashed once and a deep tree never recurses; the tuple hash
        then reads each child's cached value.
        """
        if "_hash" not in self.__dict__:
            for node in dfs_postorder((self,), _unhashed_subtrees, id):
                object.__setattr__(node, "_hash", hash((node.children,)))
        return self._hash

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


LEAF = MultiTree()


def postorder(*roots: MultiTree) -> list[MultiTree]:
    """Each node reachable from the roots once, after its children.

    Nodes are told apart by identity, so shared subtrees are visited
    once (see `dfs_postorder`).
    """
    return dfs_postorder(roots, _subtrees, id)


def _subtrees(node: MultiTree) -> Iterator[MultiTree]:
    return map(_second, node.children)


def _unhashed_subtrees(node: MultiTree) -> list[MultiTree]:
    return [sub for _, sub, _ in node.children if "_hash" not in sub.__dict__]


class PieceText:
    """A tree's text kept as per-node pieces; iterating yields it in chunks.

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

    def __init__(self, table: dict[int, tuple], root: str | int) -> None:
        self.table = table
        self.root = root

    @classmethod
    def build(cls, root: MultiTree, pieces_of) -> PieceText:
        """The text of root, from each node's pieces, children first.

        ``pieces_of(node, forms, table)`` gives a node's piece list:
        constant strings at even positions and its children's forms,
        read from forms by id(child), at odd ones. A node whose children
        are all strings and whose joined text fits in INLINE characters
        is kept as that string; any other becomes the key of a table
        entry, one per distinct piece list, so equal texts share one.
        """
        limit = cls.INLINE
        forms: dict[int, str | int] = {}
        table: dict[int, tuple] = {}
        keys: dict[tuple, int] = {}
        for node in postorder(root):
            pieces = pieces_of(node, forms, table)
            # With the table still empty, every child's form is a string.
            if not table or all(type(form) is str for form in pieces[1::2]):
                text = "".join(pieces)
                if len(text) <= limit:
                    forms[id(node)] = text
                    continue
            pieces = tuple(pieces)
            key = keys.get(pieces)
            if key is None:
                key = keys[pieces] = len(table)
                table[key] = pieces
            forms[id(node)] = key
        return cls(table, forms[id(root)])

    def __str__(self) -> str:
        """The whole text, joined from the chunks."""
        if type(self.root) is str:
            return self.root
        return "".join(self)

    def __iter__(self) -> Iterator[str]:
        return chunked(self.pieces(), self.CHUNK)

    def pieces(self) -> Iterator[str]:
        """The text's strings in order, entries read through the table."""
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


def object_pieces(entries: Iterable[tuple], comma: str, colon: str) -> list:
    """Pieces of a JSON object of lists of [form, count] pairs, one per label.

    The (label, form, count) entries come grouped by label, in the order
    printed; comma and colon are the separators. Forms stand alone at odd
    positions, between the constant strings around them.
    """
    pieces: list = []
    text = "{"
    last = None
    for label, form, count in entries:
        if label != last:
            if last is not None:
                text += "]" + comma
            text += json.dumps(label) + colon + "[["
            last = label
        else:
            text += comma + "["
        pieces += (text, form)
        text = comma + count.json_text() + "]"
    pieces.append(text + ("]}" if last is not None else "}"))
    return pieces


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


def fold_symbolic(tree: SymbolicTree, leaf: Callable, glue: Callable):
    """A symbolic tree's value, computed bottom-up over its glue parts.

    ``leaf`` gives the value of a chain, A or B tree, and ``glue`` that of
    a glue node from the list of its parts' values, in order. Each
    distinct node is folded once, in postorder, first parts first, so
    deep glue never recurses.
    """
    values: dict[int, object] = {}
    for node in dfs_postorder((tree,), _glue_parts, id):
        if isinstance(node, Glue):
            values[id(node)] = glue([values[id(part)] for part in node.parts])
        else:
            values[id(node)] = leaf(node)
    return values[id(tree)]


def _glue_parts(tree: SymbolicTree) -> tuple:
    return tree.parts if isinstance(tree, Glue) else ()


def symbolic_rank(tree: SymbolicTree) -> tuple[Ordinal, Ordinal]:
    """(root node rank, tree rank) of a symbolic tree.

    Glued-modification trees resolve the supremum over all modifications
    in closed form: finite sets have finite modifications of unbounded
    rank, infinite sets have modifications of rank exactly omega.
    """
    root = fold_symbolic(
        tree, _root_rank, lambda ranks: ordinal_sup(rank + 1 for rank in ranks)
    )
    return root, root + 1


def _root_rank(tree: SymbolicTree) -> Ordinal:
    if isinstance(tree, Chain):
        return Ordinal.from_int(tree.length)
    if isinstance(tree, ATree):
        return tree.param.sup_succ()
    if isinstance(tree, BTree):
        return ORD_OMEGA + 1 if not tree.param.is_finite else ORD_OMEGA
    raise TypeError(f"not a symbolic tree: {tree!r}")


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
