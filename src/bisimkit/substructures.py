"""Substructures of probabilistic processes, restriction, and sums.

A carrier is a set of states that every transition measure from inside
stays within (up to thickness, which for finitely supported measures
means support containment). Substructures inherit transitions verbatim;
relations move between a process and its substructures by restriction,
closure, and embedding into the disjoint sum.

The least carrier around a state comes from one walk, `composition_enum`,
which lists the support points the state's measures reach, breadth first,
in a fixed order of labels, measures and points.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable

from .foundations import natural
from .lts import Rel, StateId, _label_universe, identity_rel, known_state, same_part_pairs
from .nlmp import PointmassNLMP, SubProbMeasure, _part_numbers


def is_thick(mu: SubProbMeasure, carrier: Iterable[StateId]) -> bool:
    """Finitely supported reading of thickness: all mass inside the carrier."""
    return mu.support.issubset(carrier)


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


def _listing_order(mu: SubProbMeasure, nu: SubProbMeasure) -> int:
    """Compare weight listings entry by entry, state first, then mass by value.

    Pair order is not value order, so masses compare cross-multiplied:
    keys over one common denominator would each grow with the number of
    distinct denominators among the measures.
    """
    for (s, (n, d)), (t, (m, e)) in zip(mu.weights, nu.weights):
        if s != t:
            return -1 if s < t else 1
        if n * e != m * d:
            return -1 if n * e < m * d else 1
    return len(mu.weights) - len(nu.weights)


def ordered_measures(nlmp: PointmassNLMP, state: StateId, label: str) -> list:
    """A state's measures under a label, ordered by their weight listings."""
    return sorted(nlmp.measures(state, label), key=cmp_to_key(_listing_order))


def composition_enum(
    nlmp: PointmassNLMP, state: StateId, bound: int | None = None
) -> list[StateId]:
    """The states a state's measures reach, iterated, breadth first.

    The state itself comes first. The walk is one first-in, first-out
    queue: each listed value in turn reads its measures label by label in
    declared order, measures in `ordered_measures` order and support
    points in weight order, appending first occurrences, so the rounds of
    a breadth-first search follow one another. Runs to the least carrier;
    with a ``bound``, takes no further value once that many are listed,
    so no measure of a later value is read, and truncates to it.
    """
    known_state(nlmp, state)
    if bound is not None:
        natural(bound, "bound")
    listed = [state]
    seen = {state}
    for value in listed:
        if bound is not None and len(listed) >= bound:
            break
        for a in nlmp.labels:
            for mu in ordered_measures(nlmp, value, a):
                for target, _ in mu.weights:
                    if target not in seen:
                        seen.add(target)
                        listed.append(target)
    return listed if bound is None else listed[:bound]


def reachable_carrier(nlmp: PointmassNLMP, state: StateId) -> tuple[StateId, ...]:
    """Least carrier containing the state, in declared state order."""
    closure = set(composition_enum(nlmp, state))
    return tuple(s for s in nlmp.states if s in closure)


def up_coherence_witness(nlmp: PointmassNLMP, carrier: Iterable[StateId]) -> Rel:
    """Identity on the carrier, relating the substructure into the whole."""
    pool = set(carrier)
    return identity_rel(s for s in nlmp.states if s in pool)


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
    labels = _label_universe(left, right)
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
