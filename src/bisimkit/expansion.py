"""Expansion of transition systems into trees of counted runs.

Every successor is duplicated countably often, so each distinct child
expansion appears with multiplicity omega. Well-founded states expand to
a multiplicity tree outright; arbitrary states expand to any finite
depth, and coded systems expand at their root.
"""

from __future__ import annotations

from operator import itemgetter

from .foundations import OMEGA_COUNT, dfs_postorder, natural
from .lts import OmegaLTSCode, PointedLTS, StateId, code_to_lts, known_state
from .trees import MultiTree

_target = itemgetter(1)


class CycleError(ValueError):
    """A full expansion asked of a state that can reach a cycle."""


def omega_expand(lts: PointedLTS, state: StateId) -> MultiTree:
    """Full expansion of a state; CycleError if it can reach a cycle."""
    return _expand(lts, state, None)


def omega_expand_truncated(lts: PointedLTS, state: StateId, depth: int) -> MultiTree:
    """Expansion cut at a depth; defined for every state."""
    return _expand(lts, state, depth)


def _expand(lts: PointedLTS, state: StateId, depth: int | None) -> MultiTree:
    """Expansion cut at a depth, or in full when depth is None.

    Built bottom-up over the (state, depth) pairs in postorder, raising
    CycleError at a successor not built yet, which closes a cycle. Nodes are
    hash-consed on their (label, id(child)) entries, so equal subtrees are
    one object and distinct successor expansions are told apart by identity.
    """
    known_state(lts, state)
    if depth is not None:
        natural(depth, "depth")
    moves: dict[tuple[StateId, int | None], list] = {}

    def children(key: tuple[StateId, int | None]):
        s, d = key
        below = None if d is None else d - 1
        found = moves[key] = [
            (label, (t, below))
            for label in (lts.labels if d != 0 else ())
            for t in lts.successors(s, label)
        ]
        return map(_target, found)

    consed: dict[tuple, MultiTree] = {}
    built: dict[tuple[StateId, int | None], MultiTree] = {}
    for key in dfs_postorder(((state, depth),), children):
        entries: dict[tuple[str, int], tuple] = {}
        for label, sub in moves[key]:
            tree = built.get(sub)
            if tree is None:
                raise CycleError(
                    f"state {state!r} can reach a cycle; its full expansion is infinite"
                )
            entries.setdefault((label, id(tree)), (label, tree, OMEGA_COUNT))
        shape = tuple(entries)
        if shape not in consed:
            consed[shape] = MultiTree(tuple(entries.values()))
        built[key] = consed[shape]
    return built[(state, depth)]


def omega_code_expand(code: OmegaLTSCode) -> MultiTree:
    """Expand a coded system at its root."""
    lts = code_to_lts(code)
    return omega_expand(lts, lts.root)
