"""Nondeterministic probabilistic processes over finite state spaces.

Transitions assign each state and label a finite set of finitely
supported subprobability measures with exact rational weights. The
module provides the three measure liftings of a relation (internal,
external, support-based), the bisimulation notions built on them, and
the greatest relational ones by the partition refinement of ``lts``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from types import MappingProxyType
from typing import Iterable, Mapping

from .foundations import frozen
from .lts import Rel, StateId, crossing_pairs, refine_blocks


@frozen
class SubProbMeasure:
    """Finitely supported measure of total mass at most one.

    Weights are (state, mass) pairs sorted by state with every mass
    positive; the empty tuple is the zero measure.
    """

    weights: tuple = ()

    def __post_init__(self) -> None:
        total = Fraction(0)
        prev: StateId | None = None
        for state, mass in self.weights:
            if not isinstance(mass, Fraction):
                raise ValueError(f"mass of {state!r} must be a Fraction")
            if mass <= 0:
                raise ValueError(f"mass of {state!r} must be positive")
            if prev is not None and state <= prev:
                raise ValueError("weights must be strictly sorted by state")
            prev = state
            total += mass
        if total > 1:
            raise ValueError(f"total mass {total} exceeds one")

    @classmethod
    def from_mapping(cls, mapping: Mapping[StateId, Fraction]) -> SubProbMeasure:
        return cls(
            tuple(sorted((s, m) for s, m in mapping.items() if m != 0))
        )

    @classmethod
    def dirac(cls, state: StateId) -> SubProbMeasure:
        return cls(((state, Fraction(1)),))

    @property
    def support(self) -> frozenset:
        return frozenset(s for s, _ in self.weights)

    @property
    def is_zero(self) -> bool:
        return not self.weights

    def total(self) -> Fraction:
        return sum((m for _, m in self.weights), Fraction(0))

    def mass_of(self, state: StateId) -> Fraction:
        for s, m in self.weights:
            if s == state:
                return m
        return Fraction(0)

    def mass(self, states: Iterable[StateId]) -> Fraction:
        pool = set(states)
        return sum((m for s, m in self.weights if s in pool), Fraction(0))


ZERO_MEASURE = SubProbMeasure()


@frozen
class PointmassNLMP:
    """Finite process: per state and label, a finite set of measures.

    Pairs absent from ``trans`` carry the empty set of measures, which is
    distinct from the singleton of the zero measure.
    """

    labels: tuple[str, ...]
    states: tuple[StateId, ...]
    trans: Mapping = MappingProxyType({})  # (state, label) -> frozenset; read-only default

    def __post_init__(self) -> None:
        states = set(self.states)
        if len(states) != len(self.states):
            raise ValueError("duplicate state ids")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        for (s, a), measures in self.trans.items():
            if s not in states:
                raise ValueError(f"transition source {s!r} is not a state")
            if a not in self.labels:
                raise ValueError(f"transition label {a!r} is not declared")
            for mu in measures:
                stray = mu.support - states
                if stray:
                    raise ValueError(
                        f"measure at ({s!r},{a!r}) puts mass on {sorted(stray)}"
                    )

    def measures(self, state: StateId, label: str) -> frozenset:
        return self.trans.get((state, label), frozenset())


def _neighbour_map(rel: Rel) -> dict:
    nbrs: dict[StateId, set] = {}
    for x, y in rel:
        nbrs.setdefault(x, set()).add(y)
        nbrs.setdefault(y, set()).add(x)
    return nbrs


def closed_atoms(rel: Rel, states: Iterable[StateId]) -> tuple:
    """Atoms of the family of sets closed under the relation both ways.

    These are the weakly connected components of the relation's graph
    over the given universe, isolated states included.
    """
    universe = list(states)
    nbrs = _neighbour_map(rel)
    for x, y in rel:
        if x not in universe or y not in universe:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the universe")
    seen: set = set()
    atoms = []
    for s in universe:
        if s in seen:
            continue
        component = {s}
        frontier = [s]
        while frontier:
            u = frontier.pop()
            for v in nbrs.get(u, ()):
                if v not in component:
                    component.add(v)
                    frontier.append(v)
        seen |= component
        atoms.append(frozenset(component))
    return tuple(atoms)


def lift_internal(
    mu: SubProbMeasure,
    nu: SubProbMeasure,
    rel: Rel,
    states: Iterable[StateId],
) -> bool:
    """Do the two measures agree on every set closed under the relation?"""
    universe = list(states)
    pool = set(universe)
    if mu.support - pool or nu.support - pool:
        raise ValueError("measure support leaves the universe")
    return all(
        mu.mass(atom) == nu.mass(atom) for atom in closed_atoms(rel, universe)
    )


def external_atoms(
    rel: Rel,
    left_states: Iterable[StateId],
    right_states: Iterable[StateId],
) -> tuple:
    """Bipartite components of a relation between two universes.

    Each component is a (left part, right part) pair; isolated states
    form components with an empty other side.
    """
    left = list(left_states)
    right = list(right_states)
    left_pool, right_pool = set(left), set(right)
    for x, y in rel:
        if x not in left_pool or y not in right_pool:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the universes")
    tagged = frozenset((("l", x), ("r", y)) for x, y in rel)
    universe = [("l", s) for s in left] + [("r", t) for t in right]
    components = []
    for atom in closed_atoms(tagged, universe):
        components.append(
            (
                frozenset(s for side, s in atom if side == "l"),
                frozenset(t for side, t in atom if side == "r"),
            )
        )
    return tuple(components)


def lift_external(
    mu: SubProbMeasure,
    nu: SubProbMeasure,
    rel: Rel,
    left_states: Iterable[StateId],
    right_states: Iterable[StateId],
) -> bool:
    """Do the measures agree on every closed pair of sets?

    Equivalent to agreeing componentwise on the bipartite components;
    isolated states must carry no mass, which the empty-sided components
    enforce.
    """
    left = list(left_states)
    right = list(right_states)
    if mu.support - set(left) or nu.support - set(right):
        raise ValueError("measure support leaves the universe")
    return all(
        mu.mass(q) == nu.mass(q_prime)
        for q, q_prime in external_atoms(rel, left, right)
    )


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


def _zig(
    left: PointmassNLMP,
    right: PointmassNLMP,
    s: StateId,
    t: StateId,
    lift,
) -> bool:
    for a in left.labels:
        for mu in left.measures(s, a):
            if not any(lift(mu, nu) for nu in right.measures(t, a)):
                return False
    return True


def is_state_bisim(nlmp: PointmassNLMP, rel: Rel) -> bool:
    """Symmetric relation whose pairs match transitions up to internal lifting."""
    if rel != frozenset((y, x) for x, y in rel):
        raise ValueError("a state bisimulation must be symmetric")
    for x, y in rel:
        if x not in nlmp.states or y not in nlmp.states:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the state set")
    atoms = closed_atoms(rel, nlmp.states)

    def lift(mu: SubProbMeasure, nu: SubProbMeasure) -> bool:
        return all(mu.mass(atom) == nu.mass(atom) for atom in atoms)

    return all(_zig(nlmp, nlmp, s, t, lift) for s, t in rel)


def _measure_moves(nlmp: PointmassNLMP, state: StateId, label: str) -> list:
    return [mu.weights for mu in nlmp.measures(state, label)]


def greatest_state_bisim(nlmp: PointmassNLMP) -> Rel:
    """Largest internally matching relation: the pairs inside refined blocks."""
    blocks = refine_blocks((nlmp,), nlmp.labels, _measure_moves)
    return frozenset((s, t) for block in blocks for _, s in block for _, t in block)


def is_ext_state_bisim(
    left: PointmassNLMP, right: PointmassNLMP, rel: Rel
) -> bool:
    """Relation between two processes matching transitions externally."""
    for x, y in rel:
        if x not in left.states or y not in right.states:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the state sets")
    components = external_atoms(rel, left.states, right.states)

    def lift(mu: SubProbMeasure, nu: SubProbMeasure) -> bool:
        return all(mu.mass(q) == nu.mass(qp) for q, qp in components)

    labels = tuple(dict.fromkeys(left.labels + right.labels))
    for s, t in rel:
        for a in labels:
            for mu in left.measures(s, a):
                if not any(lift(mu, nu) for nu in right.measures(t, a)):
                    return False
            for nu in right.measures(t, a):
                if not any(lift(mu, nu) for mu in left.measures(s, a)):
                    return False
    return True


def greatest_ext_bisim(left: PointmassNLMP, right: PointmassNLMP) -> Rel:
    """Largest relation between two processes matching transitions externally.

    Being difunctional, it is the crossing pairs of the refined union.
    """
    labels = tuple(dict.fromkeys(left.labels + right.labels))
    return crossing_pairs(refine_blocks((left, right), labels, _measure_moves))


def atom_mass_vector(mu: SubProbMeasure, atoms: tuple) -> tuple:
    return tuple(mu.mass(atom) for atom in atoms)


def is_hit_bisim(nlmp: PointmassNLMP, rel: Rel) -> bool:
    """Related states offer the same set of per-atom mass vectors."""
    if rel != frozenset((y, x) for x, y in rel):
        raise ValueError("a hit bisimulation must be symmetric")
    for x, y in rel:
        if x not in nlmp.states or y not in nlmp.states:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the state set")
    atoms = closed_atoms(rel, nlmp.states)
    for s, t in rel:
        for a in nlmp.labels:
            left = {atom_mass_vector(mu, atoms) for mu in nlmp.measures(s, a)}
            right = {atom_mass_vector(nu, atoms) for nu in nlmp.measures(t, a)}
            if left != right:
                return False
    return True


def event_atoms(
    events: Iterable[frozenset], states: Iterable[StateId]
) -> tuple:
    """Atoms of the algebra generated by a family of state sets."""
    events = list(events)
    by_pattern: dict[tuple, list] = {}
    for s in states:
        pattern = tuple(s in event for event in events)
        by_pattern.setdefault(pattern, []).append(s)
    return tuple(frozenset(block) for block in by_pattern.values())


def is_event_bisim(nlmp: PointmassNLMP, events: Iterable[frozenset]) -> bool:
    """Is the algebra generated by the events stable under hit preimages?

    For every label, every set in the generated algebra, and every mass
    threshold, the states owning a measure beyond the threshold must form
    a set of the algebra. Thresholds only change at attained masses, so
    those suffice.
    """
    events = [frozenset(e) for e in events]
    for event in events:
        stray = event - set(nlmp.states)
        if stray:
            raise ValueError(f"event mentions unknown states {sorted(stray)}")
    atoms = event_atoms(events, nlmp.states)
    algebra = [
        frozenset(chain.from_iterable(chosen))
        for r in range(len(atoms) + 1)
        for chosen in combinations(atoms, r)
    ]
    atom_of = {s: atom for atom in atoms for s in atom}
    for a in nlmp.labels:
        for measurable in algebra:
            attained = {
                mu.mass(measurable)
                for s in nlmp.states
                for mu in nlmp.measures(s, a)
            }
            for threshold in attained:
                for strict in (True, False):
                    hit = {
                        s
                        for s in nlmp.states
                        if any(
                            (mu.mass(measurable) > threshold)
                            if strict
                            else (mu.mass(measurable) >= threshold)
                            for mu in nlmp.measures(s, a)
                        )
                    }
                    if any(not atom_of[s] <= hit for s in hit):
                        return False
    return True
