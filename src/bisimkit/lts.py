"""Finite pointed labelled transition systems.

Zig/zag bisimulation and its depth-bounded approximants by partition
refinement (the kernel ``nlmp`` shares), modal formula evaluation,
ordinal state ranks, and numeric codes of finitely supported systems.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, Union

from .foundations import EPSet, Ordinal, frozen

StateId = str
Rel = frozenset  # of (StateId, StateId) pairs


class UnsupportedFormula(ValueError):
    """Raised when a formula atom has no semantics on the given structure."""


@frozen
class Top:
    pass


@frozen
class Neg:
    sub: "Formula"


@frozen
class And:
    subs: tuple["Formula", ...]


@frozen
class Or:
    subs: tuple["Formula", ...]


@frozen
class Dia:
    label: str
    sub: "Formula"


@frozen
class RankAtLeast:
    bound: Ordinal


@frozen
class CharSet:
    param: EPSet


Formula = Union[Top, Neg, And, Or, Dia, RankAtLeast, CharSet]

TOP = Top()


def modal_depths(phi: Formula) -> dict[int, int | str]:
    """Modal depth of every subformula of phi, keyed by id, in one walk.

    A subformula over an atom without finite depth maps to the type name
    of its first such atom instead. Formulas are told apart by identity,
    never hashed (a formula hashes its whole tree), so the table is
    meaningful only while phi is alive; the walk keeps its own stack.
    """
    depths: dict[int, int | str] = {}
    stack = [phi]
    while stack:
        node = stack[-1]
        if isinstance(node, (And, Or)):
            subs = node.subs
        elif isinstance(node, (Neg, Dia)):
            subs = (node.sub,)
        else:
            subs = ()
        pending = [sub for sub in subs if id(sub) not in depths]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        found = [depths[id(sub)] for sub in subs]
        blocked = [d for d in found if isinstance(d, str)]
        if not isinstance(node, (Top, Neg, And, Or, Dia)):
            depths[id(node)] = type(node).__name__
        elif blocked:
            depths[id(node)] = blocked[0]
        else:
            depths[id(node)] = max(found, default=0) + (1 if isinstance(node, Dia) else 0)
    return depths


def modal_depth(phi: Formula, depths: dict[int, int | str] | None = None) -> int:
    """Nesting depth of diamonds; the symbolic atoms have none to count.

    ``depths``, the `modal_depths` table of a formula containing phi,
    saves the walk.
    """
    depth = (modal_depths(phi) if depths is None else depths)[id(phi)]
    if isinstance(depth, str):
        raise UnsupportedFormula(f"{depth} has no finite modal depth")
    return depth


@frozen
class PointedLTS:
    """States, labelled edges, and a distinguished root.

    Declared orders of ``labels`` and ``states`` are part of the value and
    fix every iteration order downstream.
    """

    labels: tuple[str, ...]
    states: tuple[StateId, ...]
    root: StateId
    edges: frozenset  # of (source, label, target)

    def __post_init__(self) -> None:
        states = set(self.states)
        labels = set(self.labels)
        if len(states) != len(self.states):
            raise ValueError("duplicate state ids")
        if len(labels) != len(self.labels):
            raise ValueError("duplicate labels")
        if self.root not in states:
            raise ValueError(f"root {self.root!r} is not a declared state")
        for src, label, dst in self.edges:
            if src not in states or dst not in states:
                raise ValueError(f"edge ({src},{label},{dst}) leaves the state set")
            if label not in labels:
                raise ValueError(f"edge label {label!r} is not declared")

    @cached_property
    def _succ(self) -> dict[tuple[StateId, str], tuple[StateId, ...]]:
        pos = {s: i for i, s in enumerate(self.states)}
        table: dict[tuple[StateId, str], list[StateId]] = {}
        for src, label, dst in self.edges:
            table.setdefault((src, label), []).append(dst)
        return {
            key: tuple(sorted(set(targets), key=pos.__getitem__))
            for key, targets in table.items()
        }

    def successors(self, state: StateId, label: str) -> tuple[StateId, ...]:
        return self._succ.get((state, label), ())

    def all_successors(self, state: StateId) -> tuple[StateId, ...]:
        seen: list[StateId] = []
        for label in self.labels:
            for t in self.successors(state, label):
                if t not in seen:
                    seen.append(t)
        return tuple(seen)


@frozen
class OmegaLTSCode:
    """Numeric transition-system code: a root and finite edge sets per label."""

    root: int
    edges: Mapping[str, frozenset]  # label -> frozenset of (int, int)

    def __post_init__(self) -> None:
        if self.root < 0:
            raise ValueError("root must be a natural")
        for label, pairs in self.edges.items():
            for m, n in pairs:
                if m < 0 or n < 0:
                    raise ValueError(f"negative node in {label!r} edge ({m},{n})")

    def mentioned_nodes(self) -> set[int]:
        nodes = {self.root}
        for pairs in self.edges.values():
            for m, n in pairs:
                nodes.update((m, n))
        return nodes


def code_to_lts(code: OmegaLTSCode, reachable_bound: int) -> PointedLTS:
    """Materialize the part of the coded system reachable from its root.

    States are named by the decimal form of their node numbers. Raises if
    more than ``reachable_bound`` nodes are reachable.
    """
    labels = tuple(sorted(code.edges.keys()))
    succ: dict[int, set[int]] = {}
    for pairs in code.edges.values():
        for m, n in pairs:
            succ.setdefault(m, set()).add(n)
    seen = {code.root}
    frontier = [code.root]
    while frontier:
        node = frontier.pop()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > reachable_bound:
                    raise ValueError(
                        f"more than {reachable_bound} nodes reachable from the root"
                    )
                frontier.append(nxt)
    states = tuple(str(n) for n in sorted(seen))
    edges = frozenset(
        (str(m), label, str(n))
        for label in labels
        for m, n in code.edges[label]
        if m in seen and n in seen
    )
    return PointedLTS(labels, states, str(code.root), edges)


def lts_to_code(lts: PointedLTS, numbering: Mapping[StateId, int]) -> OmegaLTSCode:
    """Encode an LTS through an injective numbering of its states."""
    values = list(numbering.values())
    if len(set(values)) != len(values):
        raise ValueError("numbering must be injective")
    for s in lts.states:
        if s not in numbering:
            raise ValueError(f"numbering misses state {s!r}")
    edges = {
        label: frozenset(
            (numbering[src], numbering[dst])
            for src, lab, dst in lts.edges
            if lab == label
        )
        for label in lts.labels
    }
    return OmegaLTSCode(numbering[lts.root], edges)


def _label_universe(left: PointedLTS, right: PointedLTS) -> tuple[str, ...]:
    extra = tuple(l for l in right.labels if l not in left.labels)
    return left.labels + extra


def _pair_matches(
    left: PointedLTS,
    right: PointedLTS,
    s: StateId,
    t: StateId,
    rel: set,
    labels: tuple[str, ...],
) -> bool:
    for a in labels:
        for s1 in left.successors(s, a):
            if not any((s1, t1) in rel for t1 in right.successors(t, a)):
                return False
        for t1 in right.successors(t, a):
            if not any((s1, t1) in rel for s1 in left.successors(s, a)):
                return False
    return True


def is_bisimulation(left: PointedLTS, right: PointedLTS, rel: Iterable) -> bool:
    """Definitional zig/zag check of a candidate relation."""
    rel = set(rel)
    labels = _label_universe(left, right)
    return all(_pair_matches(left, right, s, t, rel, labels) for s, t in rel)


def refine_blocks(
    systems: Sequence, labels: Sequence[str], moves: Callable, rounds: int | None = None
) -> list[list[tuple[int, StateId]]]:
    """Signature refinement of the disjoint union of ``systems``.

    ``moves(system, state, label)`` lists a state's moves as sequences of
    (target, mass) pairs. From one block, each round splits blocks by
    signature: the block and, per label, the set of the moves' block-mass
    vectors. Stops at the coarsest stable partition, within one round per
    state, or after ``rounds`` rounds; returns its blocks as lists of
    (system index, state).
    """
    nodes = [(i, s) for i, system in enumerate(systems) for s in system.states]
    table = [[moves(systems[i], s, a) for a in labels] for i, s in nodes]
    block, n_blocks = dict.fromkeys(nodes, 0), 1
    for _ in range(len(nodes) if rounds is None else rounds):
        ids: dict = {}
        new = {
            node: ids.setdefault((block[node], _vectors(node[0], row, block)), len(ids))
            for node, row in zip(nodes, table)
        }
        if len(ids) == n_blocks:
            break
        block, n_blocks = new, len(ids)
    groups: dict[int, list] = {}
    for node, b in block.items():
        groups.setdefault(b, []).append(node)
    return list(groups.values())


def _vectors(i: int, row: list, block: dict) -> tuple:
    """Per label, the block-mass vectors of a system-``i`` state's moves."""
    signature = []
    for label_moves in row:
        vectors = set()
        for move in label_moves:
            vector: dict = {}
            for t, mass in move:
                vector[block[i, t]] = vector.get(block[i, t], 0) + mass
            vectors.add(frozenset(vector.items()))
        signature.append(frozenset(vectors))
    return tuple(signature)


def crossing_pairs(blocks: list) -> Rel:
    """Pairs (s, t) of a first- and a second-system state sharing a block."""
    pairs: set = set()
    for block in blocks:
        right = [t for i, t in block if i == 1]
        pairs.update((s, t) for i, s in block if i == 0 for t in right)
    return frozenset(pairs)


def _edge_moves(lts: PointedLTS, state: StateId, label: str) -> list:
    return [((t, 1),) for t in lts.successors(state, label)]


def greatest_bisim(left: PointedLTS, right: PointedLTS) -> Rel:
    """Largest zig/zag relation: the crossing pairs of the refined union."""
    labels = _label_universe(left, right)
    return crossing_pairs(refine_blocks((left, right), labels, _edge_moves))


def bisimilar(left: PointedLTS, right: PointedLTS) -> bool:
    return (left.root, right.root) in greatest_bisim(left, right)


def bisim_partition(lts: PointedLTS) -> tuple[tuple[StateId, ...], ...]:
    """Blocks of the refined system, each sorted by state order."""
    blocks = refine_blocks((lts,), lts.labels, _edge_moves)
    return tuple(tuple(s for _, s in block) for block in blocks)


def bounded_bisim(left: PointedLTS, right: PointedLTS, depth: int) -> Rel:
    """Depth-d approximant: the crossing pairs after d refinement rounds."""
    labels = _label_universe(left, right)
    return crossing_pairs(refine_blocks((left, right), labels, _edge_moves, depth))


def eval_formula(lts: PointedLTS, state: StateId, phi: Formula) -> bool:
    """Kripke semantics; rank atoms defer to state_rank."""
    if state not in lts.states:
        raise ValueError(f"unknown state {state!r}")
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Neg):
        return not eval_formula(lts, state, phi.sub)
    if isinstance(phi, And):
        return all(eval_formula(lts, state, sub) for sub in phi.subs)
    if isinstance(phi, Or):
        return any(eval_formula(lts, state, sub) for sub in phi.subs)
    if isinstance(phi, Dia):
        return any(
            eval_formula(lts, nxt, phi.sub)
            for nxt in lts.successors(state, phi.label)
        )
    if isinstance(phi, RankAtLeast):
        rank = state_rank(lts, state)
        return rank is None or rank >= phi.bound
    raise UnsupportedFormula(
        "characteristic-set formulas only evaluate on symbolic trees"
    )


def sat_states(lts: PointedLTS, phi: Formula) -> frozenset:
    return frozenset(s for s in lts.states if eval_formula(lts, s, phi))


def state_rank(lts: PointedLTS, state: StateId) -> Ordinal | None:
    """Rank of the outgoing behavior; None when a cycle is reachable.

    On a finite system the rank is a natural number: the height of the
    acyclic part below the state. One explicit-stack depth-first walk
    computes it without recursion, giving up at the first successor that
    is on the current path.
    """
    if state not in lts.states:
        raise ValueError(f"unknown state {state!r}")
    heights: dict[StateId, int] = {}
    on_path = {state}
    succs = lts.all_successors(state)
    stack = [(state, succs, iter(succs))]
    while stack:
        node, succs, pending = stack[-1]
        for t in pending:
            if t in on_path:
                return None
            if t not in heights:
                on_path.add(t)
                t_succs = lts.all_successors(t)
                stack.append((t, t_succs, iter(t_succs)))
                break
        else:
            stack.pop()
            on_path.remove(node)
            heights[node] = max((heights[t] + 1 for t in succs), default=0)
    return Ordinal.from_int(heights[state])


def well_founded_states(lts: PointedLTS) -> frozenset:
    return frozenset(s for s in lts.states if state_rank(lts, s) is not None)


def rank_formula(alpha: Ordinal, labels: tuple[str, ...]) -> Formula:
    """The alpha-th formula of the rank hierarchy.

    Finite stages unroll to an explicit disjunction of diamonds; the limit
    and beyond stay symbolic.
    """
    if alpha.is_zero:
        return TOP
    if not alpha.is_finite:
        return RankAtLeast(alpha)
    phi: Formula = TOP
    for _ in range(alpha.as_int()):
        phi = Or(tuple(Dia(a, phi) for a in labels))
    return phi


def diamond_formula(alpha: Ordinal, label: str = "suc") -> Formula:
    """Single-diamond variant of the rank hierarchy, for single-label trees."""
    if alpha.is_zero:
        return TOP
    if not alpha.is_finite:
        return RankAtLeast(alpha)
    phi: Formula = TOP
    for _ in range(alpha.as_int()):
        phi = Dia(label, phi)
    return phi


def total_rel(left_states: Iterable[StateId], right_states: Iterable[StateId]) -> Rel:
    return frozenset((s, t) for s in left_states for t in right_states)


def identity_rel(states: Iterable[StateId]) -> Rel:
    return frozenset((s, s) for s in states)


def symmetric_closure(rel: Iterable) -> Rel:
    rel = set(rel)
    return frozenset(rel | {(t, s) for s, t in rel})
