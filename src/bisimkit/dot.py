"""Deterministic DOT renderings of processes and trees.

Every emitter walks its value in a fixed order (declared order where one
exists, sorted otherwise), so equal values yield byte-identical text.
"""

from __future__ import annotations

from .foundations import format_rational
from .lts import PointedLTS
from .nlmp import PointmassNLMP
from .trees import ExplicitTree, MultiTree, SymbolicTree, truncate_symbolic

__all__ = [
    "explicit_tree_dot",
    "lts_dot",
    "multitree_dot",
    "nlmp_dot",
    "symbolic_tree_dot",
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


def _path_name(node: tuple) -> str:
    return ".".join(["e", *map(str, node)])


def explicit_tree_dot(tree: ExplicitTree) -> str:
    nodes = sorted(tree.nodes, key=lambda u: (len(u), u))
    lines = ["digraph tree {"]
    for node in nodes:
        lines.append(f"  {_quote(_path_name(node))};")
    for node in nodes:
        if node:
            parent = _quote(_path_name(node[:-1]))
            lines.append(f"  {parent} -> {_quote(_path_name(node))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def symbolic_tree_dot(tree: SymbolicTree, depth: int, width: int) -> str:
    return explicit_tree_dot(truncate_symbolic(tree, depth, width))


def multitree_dot(tree: MultiTree) -> str:
    """One DOT node per node of the unfolding, named n0, n1, ... in preorder.

    Each edge line follows the lines of its child's whole subtree. The walk
    keeps its own stack of (name, remaining children, edge line to add
    when done) instead of recursing.
    """
    lines = ["digraph multitree {", f"  {_quote('n0')};"]
    counter = 1
    stack = [("n0", iter(tree.children), None)]
    while stack:
        name, children, edge = stack[-1]
        for label, child, count in children:
            child_name = f"n{counter}"
            counter += 1
            lines.append(f"  {_quote(child_name)};")
            stack.append(
                (
                    child_name,
                    iter(child.children),
                    f"  {_quote(name)} -> {_quote(child_name)}"
                    f" [label={_quote(f'{label}*{count}')}];",
                )
            )
            break
        else:
            stack.pop()
            if edge is not None:
                lines.append(edge)
    lines.append("}")
    return "\n".join(lines) + "\n"


def nlmp_dot(nlmp: PointmassNLMP) -> str:
    lines = ["digraph nlmp {"]
    for state in nlmp.states:
        lines.append(f"  {_quote(state)};")
    for state in nlmp.states:
        for label in nlmp.labels:
            measures = sorted(nlmp.measures(state, label), key=lambda mu: mu.weights)
            for i, mu in enumerate(measures):
                hub = f"{state}:{label}:{i}"
                lines.append(f"  {_quote(hub)} [shape=point];")
                lines.append(f"  {_quote(state)} -> {_quote(hub)} [label={_quote(label)}];")
                for target, mass in mu.weights:
                    lines.append(
                        f"  {_quote(hub)} -> {_quote(target)} [label={_quote(format_rational(mass))}];"
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
