"""Deterministic DOT renderings of processes and trees.

Every emitter walks its value in a fixed order (declared order where one
exists, sorted otherwise), so equal values yield byte-identical text.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .foundations import format_rational
from .lts import PointedLTS
from .nlmp import PointmassNLMP
from .substructures import ordered_measures
from .trees import ExplicitTree, MultiTree, SymbolicTree, node_name, truncation_levels

__all__ = [
    "explicit_tree_dot",
    "lts_dot",
    "multitree_dot_lines",
    "nlmp_dot",
    "symbolic_tree_lines",
]


def _quote(text: object) -> str:
    escaped = str(text).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def lts_dot(lts: PointedLTS) -> str:
    lines = ["digraph lts {"]
    for state in lts.states:
        mark = " [peripheries=2]" if state == lts.root else ""
        lines.append(f"  {_quote(state)}{mark};")
    for source, label, target in sorted(lts.edges):
        lines.append(f"  {_quote(source)} -> {_quote(target)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_lines(nodes: Iterable[tuple], again: Iterable[tuple]) -> Iterator[str]:
    """A tree's DOT text line by line: node lines, then edge lines.

    Both iterables give the nodes in (len(u), u) order, so a walk that is
    recomputed rather than kept can be passed twice.
    """
    yield "digraph tree {\n"
    for node in nodes:
        yield f"  {_quote(node_name(node))};\n"
    for node in again:
        if node:
            parent = _quote(node_name(node[:-1]))
            yield f"  {parent} -> {_quote(node_name(node))};\n"
    yield "}\n"


def explicit_tree_dot(tree: ExplicitTree) -> str:
    nodes = tree.in_order()
    return "".join(_tree_lines(nodes, nodes))


def symbolic_tree_lines(tree: SymbolicTree, depth: int, width: int) -> Iterator[str]:
    """DOT lines of a symbolic tree's truncation, from two walks of its levels.

    The node set is never held, and arguments are checked on the call.
    """
    return _tree_lines(
        truncation_levels(tree, depth, width), truncation_levels(tree, depth, width)
    )


def multitree_dot_lines(tree: MultiTree) -> Iterator[str]:
    """One DOT node per node of the unfolding, named n0, n1, ... in preorder.

    Yields the text line by line. Each edge line follows the lines of its
    child's whole subtree. The walk keeps its own stack of (name,
    remaining children, edge line to add when done) instead of recursing.
    """
    yield "digraph multitree {\n"
    yield f"  {_quote('n0')};\n"
    counter = 1
    stack = [("n0", iter(tree.children), None)]
    while stack:
        name, children, edge = stack[-1]
        for label, child, count in children:
            child_name = f"n{counter}"
            counter += 1
            yield f"  {_quote(child_name)};\n"
            stack.append(
                (
                    child_name,
                    iter(child.children),
                    f"  {_quote(name)} -> {_quote(child_name)}"
                    f" [label={_quote(f'{label}*{count}')}];\n",
                )
            )
            break
        else:
            stack.pop()
            if edge is not None:
                yield edge
    yield "}\n"


def nlmp_dot(nlmp: PointmassNLMP) -> str:
    lines = ["digraph nlmp {"]
    for state in nlmp.states:
        lines.append(f"  {_quote(state)};")
    for state in nlmp.states:
        for label in nlmp.labels:
            for i, mu in enumerate(ordered_measures(nlmp, state, label)):
                hub = f"{state}:{label}:{i}"
                lines.append(f"  {_quote(hub)} [shape=point];")
                lines.append(f"  {_quote(state)} -> {_quote(hub)} [label={_quote(label)}];")
                for target, mass in mu.weights:
                    lines.append(
                        f"  {_quote(hub)} -> {_quote(target)} [label={_quote(format_rational(mass))}];"
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
