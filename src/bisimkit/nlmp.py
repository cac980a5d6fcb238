"""Nondeterministic probabilistic processes over finite state spaces.

Transitions assign each state and label a finite set of finitely
supported subprobability measures with exact rational weights. The
module provides the external and support-based measure liftings of a
relation, the state and external bisimulations, and the greatest of
each by the partition refinement of ``lts``.

State bisimulations lift internally and external ones externally: both
ask whether two measures agree on every component of the relation's
graph. A union-find (``_part_numbers``) numbers the components into
{state: part} maps, the shape the refinement returns, and measures agree
exactly when their ``lts.mass_codes`` over those maps are equal. The
checkers, the liftings and the refinement compare these codes, made from
the integer masses in each process's ``moves``, and ``lts.same_part_pairs``
turns part maps back into relations.

A mass is a reduced (numerator, denominator) pair of ints, from the
parser to the kernel, and ``foundations.sum_rationals`` sums them
exactly, so no verb loads `fractions`.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Iterable, Mapping

from .foundations import frozen, sum_rationals
from .lts import Rel, StateId, _label_universe, declared, mass_codes, refine_blocks, same_part_pairs


@frozen
class SubProbMeasure:
    """Finitely supported measure of total mass at most one.

    Weights are (state, mass) pairs sorted by state, each mass a reduced
    (numerator, denominator) pair of ints, positive; the empty tuple is
    the zero measure.
    """

    weights: tuple = ()

    def __post_init__(self) -> None:
        prev: StateId | None = None
        for state, mass in self.weights:
            if not (
                type(mass) is tuple
                and len(mass) == 2
                and type(mass[0]) is type(mass[1]) is int
                and mass[1] > 0
                and gcd(*mass) == 1
            ):
                raise ValueError(
                    f"mass of {state!r} must be a reduced (num, den) pair of ints with den > 0"
                )
            if mass[0] <= 0:
                raise ValueError(f"mass of {state!r} must be positive")
            if prev is not None and state <= prev:
                raise ValueError("weights must be strictly sorted by state")
            prev = state
        n, d = sum_rationals(mass for _, mass in self.weights)
        if n > d:
            shown = n if d == 1 else f"{n}/{d}"
            raise ValueError(f"total mass {shown} exceeds one")

    @classmethod
    def from_mapping(cls, mapping: Mapping[StateId, tuple[int, int]]) -> SubProbMeasure:
        return cls(tuple(sorted((s, m) for s, m in mapping.items() if m != (0, 1))))

    @property
    def support(self) -> frozenset:
        return frozenset(s for s, _ in self.weights)

    def mass(self, states: Iterable[StateId]) -> tuple[int, int]:
        """The reduced (num, den) mass of the given states."""
        pool = set(states)
        return sum_rationals(m for s, m in self.weights if s in pool)


ZERO_MEASURE = SubProbMeasure()


@frozen
class PointmassNLMP:
    """Finite process: per state and label, a finite set of measures.

    Pairs absent from ``trans`` carry the empty set of measures, which is
    distinct from the singleton of the zero measure.
    """

    labels: tuple[str, ...]
    states: tuple[StateId, ...]
    trans: Mapping  # (state, label) -> frozenset

    def __post_init__(self) -> None:
        states, labels = declared(self)
        for (s, a), measures in self.trans.items():
            if s not in states:
                raise ValueError(f"transition source {s!r} is not a state")
            if a not in labels:
                raise ValueError(f"transition label {a!r} is not declared")
            for mu in measures:
                stray = mu.support - states
                if stray:
                    raise ValueError(
                        f"measure at ({s!r},{a!r}) puts mass on {sorted(stray)}"
                    )

    def measures(self, state: StateId, label: str) -> frozenset:
        return self.trans.get((state, label), frozenset())

    @cached_property
    def moves(self) -> dict:
        """Each measure's list of (state, numerator, denominator)s, by (state, label)."""
        return {key: [_triples(mu) for mu in ms] for key, ms in self.trans.items()}


def _triples(mu: SubProbMeasure) -> list:
    return [(s, n, d) for s, (n, d) in mu.weights]


def _part_numbers(rel: Rel, left, right=None, where="the universe") -> tuple:
    """Component numbers of the relation's graph, in first-appearance order.

    A union-find over state indices, linking the larger root under the
    smaller. Without ``right`` the relation is on ``left`` and one dict
    serves both sides; with it, ``where`` is pluralised. Returns both
    sides' numbers and the part count.
    """
    left_at = {s: i for i, s in enumerate(dict.fromkeys(left))}
    right_at = left_at
    if right is not None:
        right_at = {t: i for i, t in enumerate(dict.fromkeys(right), len(left_at))}
        where += "s"
    parent = list(range(len(left_at) + (right is not None and len(right_at))))
    for x, y in rel:
        i, j = left_at.get(x), right_at.get(y)
        if i is None or j is None:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves {where}")
        while i != parent[i]:
            parent[i] = i = parent[parent[i]]
        while j != parent[j]:
            parent[j] = j = parent[parent[j]]
        if i < j:
            i, j = j, i
        parent[i] = j
    # Number the parts in place: a parent precedes its child, so is numbered first.
    count = 0
    for i, up in enumerate(parent):
        if up == i:
            parent[i], count = count, count + 1
        else:
            parent[i] = parent[up]
    left_part = dict(zip(left_at, parent))
    if right is None:
        return left_part, left_part, count
    return left_part, dict(zip(right_at, parent[len(left_at):])), count


def _grouped(part: dict, count: int) -> list:
    groups: list[set] = [set() for _ in range(count)]
    for s, p in part.items():
        groups[p].add(s)
    return [frozenset(group) for group in groups]


def closed_atoms(rel: Rel, states: Iterable[StateId]) -> tuple:
    """Atoms of the family of sets closed under the relation both ways.

    These are the weakly connected components of the relation's graph
    over the given universe, isolated states included, in the order of
    their first states.
    """
    part, _, count = _part_numbers(rel, states)
    return tuple(_grouped(part, count))


def external_atoms(
    rel: Rel, left_states: Iterable[StateId], right_states: Iterable[StateId]
) -> tuple:
    """Bipartite components of a relation between two universes.

    Each component is a (left part, right part) pair; isolated states
    form components with an empty other side.
    """
    left, right, count = _part_numbers(rel, left_states, right_states)
    return tuple(zip(_grouped(left, count), _grouped(right, count)))


def lift_external(
    mu: SubProbMeasure,
    nu: SubProbMeasure,
    rel: Rel,
    left_states: Iterable[StateId],
    right_states: Iterable[StateId],
) -> bool:
    """Do the measures agree on every closed pair of sets?

    Equivalent to agreeing componentwise on the bipartite components, that
    is to having equal codes over the relation's parts; isolated states
    must carry no mass, which the empty-sided components enforce.
    """
    left, right = list(left_states), list(right_states)
    if mu.support - set(left) or nu.support - set(right):
        raise ValueError("measure support leaves the universe")
    left_part, right_part, _ = _part_numbers(rel, left, right)
    left_code = mass_codes([_triples(mu)], left_part)
    return left_code == mass_codes([_triples(nu)], right_part)


def is_z_closed(rel: Rel) -> bool:
    """x R y, x' R y, x' R y' together force x R y'."""
    by_right: dict[StateId, set] = {}
    by_left: dict[StateId, set] = {}
    for x, y in rel:
        by_right.setdefault(y, set()).add(x)
        by_left.setdefault(x, set()).add(y)
    for x, y in rel:
        for x2 in by_right[y]:
            for y2 in by_left[x2]:
                if (x, y2) not in rel:
                    return False
    return True


def lift_support(mu: SubProbMeasure, nu: SubProbMeasure, rel: Rel) -> bool:
    """Support-based lifting along a z-closed relation.

    Every support point must be related somewhere, and around each
    support point the two measures must give equal mass to the related
    neighbourhoods.
    """
    if not is_z_closed(rel):
        raise ValueError("support lifting requires a z-closed relation")
    by_left: dict[StateId, set] = {}
    by_right: dict[StateId, set] = {}
    for x, y in rel:
        by_left.setdefault(x, set()).add(y)
        by_right.setdefault(y, set()).add(x)
    for x in mu.support:
        image = by_left.get(x, set())
        if not image:
            return False
        preimage = set().union(*(by_right[y] for y in image))
        if mu.mass(preimage) != nu.mass(image):
            return False
    for y in nu.support:
        preimage = by_right.get(y, set())
        if not preimage:
            return False
        image = set().union(*(by_left[x] for x in preimage))
        if mu.mass(preimage) != nu.mass(image):
            return False
    return True


class _Codes(dict):
    """(state, label) to the set of its measures' codes, made on first use."""

    def __init__(self, nlmp: PointmassNLMP, part: dict) -> None:
        self.table, self.part = nlmp.moves, part

    def __missing__(self, key: tuple) -> frozenset:
        found = self[key] = mass_codes(self.table.get(key, ()), self.part)
        return found


def is_state_bisim(nlmp: PointmassNLMP, rel: Rel) -> bool:
    """Symmetric relation whose pairs match transitions up to internal lifting."""
    if rel != frozenset((y, x) for x, y in rel):
        raise ValueError("a state bisimulation must be symmetric")
    part, _, _ = _part_numbers(rel, nlmp.states, where="the state set")
    codes = _Codes(nlmp, part)
    return all(codes[s, a] <= codes[t, a] for s, t in rel for a in nlmp.labels)


def greatest_state_bisim(nlmp: PointmassNLMP) -> Rel:
    """Largest internally matching relation: the pairs inside refined blocks."""
    (part,) = refine_blocks((nlmp,))
    return same_part_pairs(part, part)


def is_ext_state_bisim(left: PointmassNLMP, right: PointmassNLMP, rel: Rel) -> bool:
    """Relation between two processes matching transitions externally."""
    left_part, right_part, _ = _part_numbers(
        rel, left.states, right.states, "the state set"
    )
    left_codes, right_codes = _Codes(left, left_part), _Codes(right, right_part)
    labels = _label_universe(left, right)
    return all(left_codes[s, a] == right_codes[t, a] for s, t in rel for a in labels)


def greatest_ext_bisim(left: PointmassNLMP, right: PointmassNLMP) -> Rel:
    """Largest relation between two processes matching transitions externally.

    Being difunctional, it is the crossing pairs of the refined union.
    """
    return same_part_pairs(*refine_blocks((left, right)))
