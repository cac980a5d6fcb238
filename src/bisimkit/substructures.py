"""Substructures of probabilistic processes, restriction, and sums.

A carrier is a set of states that every transition measure from inside
stays within (up to thickness, which for finitely supported measures
means support containment). Substructures inherit transitions verbatim;
relations move between a process and its substructures by restriction,
closure, and embedding into the disjoint sum.
"""

from __future__ import annotations

from typing import Iterable

from .lts import Rel, StateId, identity_rel, same_part_pairs
from .nlmp import PointmassNLMP, SubProbMeasure, _part_numbers


def is_thick(mu: SubProbMeasure, carrier: Iterable[StateId]) -> bool:
    """Finitely supported reading of thickness: all mass inside the carrier."""
    return mu.support <= set(carrier)


def support_successors(nlmp: PointmassNLMP, state: StateId, label: str) -> frozenset:
    """Union of transition supports: the label's successor candidates."""
    points: set[StateId] = set()
    for mu in nlmp.measures(state, label):
        points |= mu.support
    return frozenset(points)


def substructure(nlmp: PointmassNLMP, carrier: Iterable[StateId]) -> PointmassNLMP:
    """The process induced on a carrier; every inside measure must be thick."""
    pool = set(carrier)
    stray_states = pool - set(nlmp.states)
    if stray_states:
        raise ValueError(f"carrier mentions unknown states {sorted(stray_states)}")
    states = tuple(s for s in nlmp.states if s in pool)
    trans = {}
    for s in states:
        for a in nlmp.labels:
            measures = nlmp.measures(s, a)
            for mu in measures:
                if not is_thick(mu, pool):
                    raise ValueError(
                        f"measure at ({s!r},{a!r}) leaves the carrier: "
                        f"{sorted(mu.support - pool)}"
                    )
            if measures:
                trans[(s, a)] = measures
    return PointmassNLMP(nlmp.labels, states, trans)


def carrier_levels(nlmp: PointmassNLMP, state: StateId) -> list[frozenset]:
    """Stages of the least carrier around a state: supports added level by level."""
    if state not in nlmp.states:
        raise ValueError(f"unknown state {state!r}")
    levels = [frozenset({state})]
    while True:
        cur = levels[-1]
        nxt = set(cur)
        for s in cur:
            for a in nlmp.labels:
                nxt |= support_successors(nlmp, s, a)
        if nxt == cur:
            return levels
        levels.append(frozenset(nxt))


def reachable_carrier(nlmp: PointmassNLMP, state: StateId) -> tuple[StateId, ...]:
    """Least carrier containing the state, in declared state order."""
    closure = carrier_levels(nlmp, state)[-1]
    return tuple(s for s in nlmp.states if s in closure)


def up_coherence_witness(nlmp: PointmassNLMP, carrier: Iterable[StateId]) -> Rel:
    """Identity on the carrier, relating the substructure into the whole."""
    pool = [s for s in nlmp.states if s in set(carrier)]
    return identity_rel(pool)


def restrict_rel(
    rel: Rel, left: Iterable[StateId], right: Iterable[StateId]
) -> Rel:
    left_pool, right_pool = set(left), set(right)
    return frozenset(
        (x, y) for x, y in rel if x in left_pool and y in right_pool
    )


def internal_closure(rel: Rel, states: Iterable[StateId]) -> Rel:
    """Pairs not separated by any set closed under the relation.

    These are exactly the pairs inside a single atom, so the closure is
    the union of the atom squares and is always an equivalence.
    """
    part, _, _ = _part_numbers(rel, states)
    return same_part_pairs(part, part)


def pair_closure(
    rel: Rel, left: Iterable[StateId], right: Iterable[StateId]
) -> Rel:
    """Pairs not separated by any closed pair of sets.

    Isolated states can be added to either side of a closed pair freely,
    so they drop out; what remains is the union of the component
    rectangles with both sides inhabited.
    """
    left_part, right_part, _ = _part_numbers(rel, left, right)
    return same_part_pairs(left_part, right_part)


def inl_state(state: StateId) -> StateId:
    return f"l:{state}"


def inr_state(state: StateId) -> StateId:
    return f"r:{state}"


def _relabel(mu: SubProbMeasure, prefix) -> SubProbMeasure:
    return SubProbMeasure(tuple((prefix(s), m) for s, m in mu.weights))


def sum_nlmp(left: PointmassNLMP, right: PointmassNLMP) -> PointmassNLMP:
    """Disjoint sum; left states get an "l:" prefix and right states "r:"."""
    labels = tuple(dict.fromkeys(left.labels + right.labels))
    states = tuple(inl_state(s) for s in left.states) + tuple(
        inr_state(t) for t in right.states
    )
    trans = {}
    for (s, a), measures in left.trans.items():
        trans[(inl_state(s), a)] = frozenset(
            _relabel(mu, inl_state) for mu in measures
        )
    for (t, a), measures in right.trans.items():
        trans[(inr_state(t), a)] = frozenset(
            _relabel(mu, inr_state) for mu in measures
        )
    return PointmassNLMP(labels, states, trans)


def embed_rel(rel: Rel) -> Rel:
    """A relation between two processes, viewed inside their sum."""
    return frozenset((inl_state(s), inr_state(t)) for s, t in rel)


def project_rel(rel: Rel) -> Rel:
    """The crossing part of a relation on a sum, pulled back to the factors."""
    pairs = set()
    for x, y in rel:
        if x.startswith("l:") and y.startswith("r:"):
            pairs.add((x[2:], y[2:]))
    return frozenset(pairs)
