"""Finite pointed labelled transition systems.

Zig/zag bisimulation and its depth-bounded approximants by partition
refinement into {state: block} maps over the systems' ``moves`` tables
(the kernel ``nlmp`` shares), modal formula evaluation, ordinal state
ranks, and numeric codes of finitely supported systems.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import repeat

from .foundations import EPSet, Ordinal, add_rationals, dfs_postorder, frozen, natural

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


Formula = Top | Neg | And | Or | Dia | RankAtLeast | CharSet

TOP = Top()


def formula_postorder(phi: Formula) -> list:
    """The distinct subformulas of phi, each after its parts.

    Formulas are told apart by identity, never hashed (a formula hashes
    its whole tree), so shared parts are listed once (see
    `dfs_postorder`).
    """
    return dfs_postorder((phi,), _formula_parts, id)


def _formula_parts(phi: Formula) -> tuple:
    return (phi.sub,) if isinstance(phi, Dia) else _boolean_parts(phi)


def _boolean_parts(phi: Formula) -> tuple:
    if isinstance(phi, (And, Or)):
        return phi.subs
    if isinstance(phi, Neg):
        return (phi.sub,)
    return ()


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
        states, labels = declared(self)
        if self.root not in states:
            raise ValueError(f"root {self.root!r} is not a declared state")
        for src, label, dst in self.edges:
            if src not in states or dst not in states:
                raise ValueError(f"edge ({src},{label},{dst}) leaves the state set")
            if label not in labels:
                raise ValueError(f"edge label {label!r} is not declared")

    @cached_property
    def moves(self) -> dict[tuple[StateId, str], tuple[StateId, ...]]:
        """Each edge's bare target, in declared state order, by (state, label)."""
        pos = {s: i for i, s in enumerate(self.states)}
        table: dict[tuple[StateId, str], list[StateId]] = {}
        for src, label, dst in self.edges:
            table.setdefault((src, label), []).append(dst)
        return {
            key: tuple(sorted(set(targets), key=pos.__getitem__))
            for key, targets in table.items()
        }

    def successors(self, state: StateId, label: str) -> tuple[StateId, ...]:
        return self.moves.get((state, label), ())

    @cached_property
    def _all_succ(self) -> dict[StateId, tuple[StateId, ...]]:
        succ = self.moves
        return {
            s: tuple(dict.fromkeys(t for a in self.labels for t in succ.get((s, a), ())))
            for s in self.states
        }

    def all_successors(self, state: StateId) -> tuple[StateId, ...]:
        return self._all_succ.get(state, ())


@frozen
class OmegaLTSCode:
    """Numeric transition-system code: a root and finite edge sets per label."""

    root: int
    edges: Mapping[str, frozenset]  # label -> frozenset of (int, int)

    def __post_init__(self) -> None:
        natural(self.root, "root")
        for label, pairs in self.edges.items():
            for m, n in pairs:
                if m < 0 or n < 0:
                    raise ValueError(f"negative node in {label!r} edge ({m},{n})")


def code_to_lts(code: OmegaLTSCode) -> PointedLTS:
    """Materialize the part of the coded system reachable from its root.

    States are named by the decimal form of their node numbers.
    """
    labels = tuple(sorted(code.edges.keys()))
    succ: dict[int, set[int]] = {}
    for pairs in code.edges.values():
        for m, n in pairs:
            succ.setdefault(m, set()).add(n)
    seen = set(dfs_postorder((code.root,), lambda node: succ.get(node, ())))
    states = tuple(str(n) for n in sorted(seen))
    edges = frozenset(
        (str(m), label, str(n))
        for label in labels
        for m, n in code.edges[label]
        if m in seen and n in seen
    )
    return PointedLTS(labels, states, str(code.root), edges)


def declared(system) -> tuple[set, set]:
    """A system's or process's states and labels as sets; neither may repeat."""
    states, labels = set(system.states), set(system.labels)
    if len(states) != len(system.states):
        raise ValueError("duplicate state ids")
    if len(labels) != len(system.labels):
        raise ValueError("duplicate labels")
    return states, labels


def known_state(system, state: StateId) -> None:
    """Raise ValueError unless the system or process declares the state."""
    if state not in system.states:
        raise ValueError(f"unknown state {state!r}")


def _label_universe(*systems) -> tuple[str, ...]:
    """The labels of systems or processes, the first's first, in declared order."""
    return tuple(dict.fromkeys(label for system in systems for label in system.labels))


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


def refine_blocks(systems: Sequence, rounds: int | None = None) -> list[dict[StateId, int]]:
    """Signature refinement of the disjoint union of ``systems``.

    Each system's ``moves`` table lists a state's moves by label: bare
    targets, or lists of (target, numerator, denominator) triples. A
    state's signature is the `mass_codes` of its moves over the current
    blocks per label that some state moves under (any other codes every
    state alike), in `_label_universe` order. From one block, each round
    splits every block by its members' signatures, and keeps block ids
    stable: the members not signed in the round keep their block's id
    (the largest group does when every member was signed), and each
    other group gets a fresh id. The first round signs every state; each
    later one signs only the predecessors of the states whose id changed
    in the round before, as no other signature can have changed. A
    signed state has a successor whose id is fresh, so its signature
    differs from that of its block's unsigned members, and only the
    signed ones need grouping. Stops when a round moves no state, or
    after ``rounds`` rounds; returns one {state: block} map per system,
    blocks renumbered across the union in order of first appearance.
    """
    tables = [system.moves for system in systems]
    used = {label for table in tables for _, label in table}
    labels = [label for label in _label_universe(*systems) if label in used]
    parts = [dict.fromkeys(system.states, 0) for system in systems]
    nodes: list[tuple] = []  # (part, state, moves per label), numbered across the union
    preds: list[list[int]] = []
    for system, table, part in zip(systems, tables, parts):
        first = len(nodes)
        index = {s: first + k for k, s in enumerate(system.states)}
        for s in system.states:
            nodes.append((part, s, [table.get((s, a), ()) for a in labels]))
            preds.append([])
        for node in range(first, len(nodes)):
            for label_moves in nodes[node][2]:
                for move in label_moves:
                    for t in [t for t, _, _ in move] if isinstance(move, list) else (move,):
                        preds[index[t]].append(node)
    sizes = [len(nodes)]  # by block id
    todo: Iterable[int] = range(len(nodes))
    for _ in range(len(nodes) if rounds is None else rounds):
        signed: dict[int, dict] = {}  # block -> {signature: nodes}
        for node in todo:
            part, s, row = nodes[node]
            signature = tuple([mass_codes(ms, part) for ms in row])
            signed.setdefault(part[s], {}).setdefault(signature, []).append(node)
        moved = []
        for block, groups in signed.items():
            leaving = list(groups.values())
            if sum(map(len, leaving)) == sizes[block]:
                leaving.remove(max(leaving, key=len))
            for members in leaving:
                sizes[block] -= len(members)
                moved.append((len(sizes), members))
                sizes.append(len(members))
        if not moved:
            break
        todo = set()
        for block, members in moved:
            for node in members:
                part, s, _ = nodes[node]
                part[s] = block
                todo.update(preds[node])
    renumber: dict[int, int] = {}
    return [{s: renumber.setdefault(b, len(renumber)) for s, b in part.items()} for part in parts]


def mass_codes(measures: Iterable, part: Mapping[StateId, int]) -> frozenset:
    """The codes of measures, each a bare target or a list of triples.

    A bare target, an LTS edge, codes as its part. A list's (state,
    numerator, denominator) masses are summed over the parts and kept
    reduced: sums of exactly 1 on one part p code as the int p, as an
    edge to p does, and any others as the set of their (part number,
    (num, den)) pairs. Masses are positive and arrive reduced, so two
    measures agree on every part exactly when their codes are equal.
    """
    codes = []
    for measure in measures:
        if not isinstance(measure, list):
            codes.append(part[measure])
            continue
        sums: dict = {}
        for s, n, d in measure:
            p = part[s]
            sums[p] = add_rationals(sums[p], (n, d)) if p in sums else (n, d)
        if len(sums) == 1 and (1, 1) in sums.values():
            (p,) = sums
            codes.append(p)
        else:
            codes.append(frozenset(sums.items()))
    return frozenset(codes)


def same_part_pairs(left_part: Mapping, right_part: Mapping) -> Rel:
    """Pairs (s, t) of a left and a right state with the same part number."""
    by_part: dict[int, list] = {}
    for t, p in right_part.items():
        by_part.setdefault(p, []).append(t)
    return frozenset((s, t) for s, p in left_part.items() for t in by_part.get(p, ()))


def greatest_bisim(left: PointedLTS, right: PointedLTS) -> Rel:
    """Largest zig/zag relation: the crossing pairs of the refined union."""
    return same_part_pairs(*refine_blocks((left, right)))


def bisimilar(left: PointedLTS, right: PointedLTS) -> bool:
    """Do the roots share a block of the refined union?"""
    left_part, right_part = refine_blocks((left, right))
    return left_part[left.root] == right_part[right.root]


def bounded_bisim(left: PointedLTS, right: PointedLTS, depth: int) -> Rel:
    """Depth-d approximant: the crossing pairs after d refinement rounds."""
    return same_part_pairs(*refine_blocks((left, right), depth))


def walk_formula(place: object, phi: Formula, leaf: Callable) -> bool:
    """Decide phi at a place on an explicit stack, left to right.

    Booleans are expanded here, with the short circuits of `all` and
    `any`. ``leaf(place, node)`` decides every other node, or returns the
    (place, subformula) pairs of which some must hold.
    """
    frames: list[tuple[Iterator, bool, bool]] = []  # (pairs, early verdict, negate)
    todo: tuple | None = (place, phi)
    while todo is not None:
        place, node = todo
        if isinstance(node, Top):
            step: bool | tuple = True
        elif isinstance(node, Neg):
            step = iter(((place, node.sub),)), True, True
        elif isinstance(node, And):
            step = zip(repeat(place), node.subs), False, False
        elif isinstance(node, Or):
            step = zip(repeat(place), node.subs), True, False
        else:
            step = leaf(place, node)
            if not isinstance(step, bool):
                step = iter(step), True, False
        if isinstance(step, bool):
            value = step
        else:
            frames.append(step)
            value = not step[1]
        todo = None
        while frames and todo is None:
            pairs, early, negate = frames[-1]
            if value != early:
                todo = next(pairs, None)
            if todo is None:
                frames.pop()
                value = value != negate
    return value


def eval_formula(lts: PointedLTS, state: StateId, phi: Formula) -> bool:
    """Kripke semantics by `walk_formula`; rank atoms defer to state_rank."""
    known_state(lts, state)

    def leaf(state: StateId, node: Formula) -> bool | Iterable:
        if isinstance(node, Dia):
            return zip(lts.successors(state, node.label), repeat(node.sub))
        if isinstance(node, RankAtLeast):
            rank = state_rank(lts, state)
            return rank is None or rank >= node.bound
        no_char_sets(node)  # the one atom left, which it rejects

    return walk_formula(state, phi, leaf)


def no_char_sets(phi: Formula) -> None:
    """Reject a formula with a characteristic-set atom, which a process cannot decide."""
    if any(isinstance(node, CharSet) for node in formula_postorder(phi)):
        raise UnsupportedFormula("characteristic-set formulas only evaluate on symbolic trees")


def sat_states(lts: PointedLTS, phi: Formula) -> frozenset:
    return frozenset(s for s in lts.states if eval_formula(lts, s, phi))


def state_rank(lts: PointedLTS, state: StateId) -> Ordinal | None:
    """Rank of the outgoing behavior; None when a cycle is reachable.

    On a finite system the rank is a natural number: the height of the
    acyclic part below the state, read off the reachable states in
    postorder. A successor not yet listed when its state is listed is
    still on the path to it, so it closes a cycle.
    """
    known_state(lts, state)
    heights: dict[StateId, int] = {}
    for node in dfs_postorder((state,), lts.all_successors):
        height = 0
        for t in lts.all_successors(node):
            below = heights.get(t)
            if below is None:
                return None
            if below >= height:
                height = below + 1
        heights[node] = height
    return Ordinal.from_int(heights[state])


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


def identity_rel(states: Iterable[StateId]) -> Rel:
    return frozenset((s, s) for s in states)


def symmetric_closure(rel: Iterable) -> Rel:
    rel = set(rel)
    return frozenset(rel | {(t, s) for s, t in rel})
