"""Tabulated transition enumerations and the encodings built on them.

A uniform table lists, per state and label, every transition measure as
a row of weighted targets. Iterating the target maps enumerates the
part of the process a state generates, which drives three constructions:
an index-level reformulation of measure lifting, a bisimilarity search
between generated substructures, and a numeric coding of processes whose
measures are all point masses.
"""

from __future__ import annotations

from fractions import Fraction

from .foundations import Ordinal, frozen
from .lts import OmegaLTSCode, PointedLTS, Rel, StateId, state_rank
from .nlmp import PointmassNLMP, SubProbMeasure, greatest_ext_bisim
from .substructures import carrier_levels, substructure
from .trees import SUC_LABEL, ExplicitTree
from .expansion import omega_code_expand
from .treeiso import iso


@frozen
class UniformStructure:
    """Per state and label, rows of weighted targets.

    Each row lists entries ``(index, mass, target)`` with strictly
    increasing indices and positive masses summing to at most one; it
    reconstructs one transition measure as the weighted sum of point
    masses at its targets. The empty row is the zero measure. Pairs
    absent from ``rows`` have no transitions at all.
    """

    labels: tuple[str, ...]
    states: tuple[StateId, ...]
    rows: dict  # (state, label) -> tuple of rows

    def __post_init__(self) -> None:
        states = set(self.states)
        if len(states) != len(self.states):
            raise ValueError("duplicate state ids")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        for (s, a), rows in self.rows.items():
            if s not in states:
                raise ValueError(f"table source {s!r} is not a state")
            if a not in self.labels:
                raise ValueError(f"table label {a!r} is not declared")
            if not rows:
                raise ValueError(f"table at ({s!r},{a!r}) lists no rows")
            for n, row in enumerate(rows):
                previous = -1
                total = Fraction(0)
                for k, mass, target in row:
                    if k <= previous:
                        raise ValueError(
                            f"row {n} at ({s!r},{a!r}) repeats or unsorts indices"
                        )
                    previous = k
                    if not isinstance(mass, Fraction) or mass <= 0:
                        raise ValueError(
                            f"row {n} at ({s!r},{a!r}) needs positive rational masses"
                        )
                    if target not in states:
                        raise ValueError(
                            f"row {n} at ({s!r},{a!r}) targets unknown {target!r}"
                        )
                    total += mass
                if total > 1:
                    raise ValueError(f"row {n} at ({s!r},{a!r}) exceeds mass one")

    def row_measure(self, state: StateId, label: str, n: int) -> SubProbMeasure:
        rows = self.rows.get((state, label))
        if rows is None or not 0 <= n < len(rows):
            raise ValueError(f"no row {n} at ({state!r},{label!r})")
        weights: dict[StateId, Fraction] = {}
        for _, mass, target in rows[n]:
            weights[target] = weights.get(target, Fraction(0)) + mass
        return SubProbMeasure.from_mapping(weights)

    def to_nlmp(self) -> PointmassNLMP:
        trans = {
            (s, a): frozenset(
                self.row_measure(s, a, n) for n in range(len(rows))
            )
            for (s, a), rows in self.rows.items()
        }
        return PointmassNLMP(self.labels, self.states, trans)


def derive_uniform(nlmp: PointmassNLMP) -> UniformStructure:
    """Tabulate a process, ordering measures by their weight listings."""
    rows = {}
    for (s, a), measures in nlmp.trans.items():
        if not measures:
            continue
        ordered = sorted(measures, key=lambda mu: mu.weights)
        rows[(s, a)] = tuple(
            tuple((k, mass, target) for k, (target, mass) in enumerate(mu.weights))
            for mu in ordered
        )
    return UniformStructure(nlmp.labels, nlmp.states, rows)


def uniform_mismatches(nlmp: PointmassNLMP, table: UniformStructure) -> list[str]:
    """Ways the table fails to reconstruct the process, worst first."""
    problems = []
    if table.labels != nlmp.labels or table.states != nlmp.states:
        problems.append("label or state listings differ")
        return problems
    keyed = {(s, a) for (s, a), measures in nlmp.trans.items() if measures}
    for s, a in sorted(keyed - set(table.rows)):
        problems.append(f"no table at ({s!r},{a!r})")
    for s, a in sorted(set(table.rows) - keyed):
        problems.append(f"table at ({s!r},{a!r}) has no transitions to match")
    for s, a in sorted(keyed & set(table.rows)):
        wanted = nlmp.measures(s, a)
        count = len(table.rows[(s, a)])
        rebuilt = set()
        for n in range(count):
            measure = table.row_measure(s, a, n)
            rebuilt.add(measure)
            if measure not in wanted:
                problems.append(
                    f"row {n} at ({s!r},{a!r}) reconstructs a foreign measure"
                )
        if not wanted <= rebuilt:
            problems.append(f"table at ({s!r},{a!r}) misses a transition measure")
    return problems


def validate_uniform(nlmp: PointmassNLMP, table: UniformStructure) -> bool:
    return not uniform_mismatches(nlmp, table)


def composition_enum(
    table: UniformStructure, state: StateId, bound: int | None = None
) -> list[StateId]:
    """Values of iterated target maps applied to a state, breadth first.

    The state itself comes first; each round applies every table position
    in label, row, entry order to the previous round's fresh values,
    keeping first occurrences. Runs to the fixed point, then truncates
    to ``bound`` entries when one is given.
    """
    if state not in table.states:
        raise ValueError(f"unknown state {state!r}")
    if bound is not None and bound < 0:
        raise ValueError("bound must be a natural")
    listed = [state]
    seen = {state}
    frontier = [state]
    while frontier:
        fresh = []
        for value in frontier:
            for a in table.labels:
                for row in table.rows.get((value, a), ()):
                    for _, _, target in row:
                        if target not in seen:
                            seen.add(target)
                            listed.append(target)
                            fresh.append(target)
        frontier = fresh
    return listed if bound is None else listed[:bound]


@frozen
class UMLTSStructure:
    """Per state and label, an enumeration of the successor states."""

    labels: tuple[str, ...]
    states: tuple[StateId, ...]
    enum: dict  # (state, label) -> tuple of targets

    def __post_init__(self) -> None:
        states = set(self.states)
        if len(states) != len(self.states):
            raise ValueError("duplicate state ids")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        for (s, a), targets in self.enum.items():
            if s not in states:
                raise ValueError(f"enumeration source {s!r} is not a state")
            if a not in self.labels:
                raise ValueError(f"enumeration label {a!r} is not declared")
            if not targets:
                raise ValueError(f"enumeration at ({s!r},{a!r}) is empty")
            if len(set(targets)) != len(targets):
                raise ValueError(f"enumeration at ({s!r},{a!r}) repeats a target")
            for t in targets:
                if t not in states:
                    raise ValueError(
                        f"enumeration at ({s!r},{a!r}) targets unknown {t!r}"
                    )


def derive_umlts(lts: PointedLTS) -> UMLTSStructure:
    """Enumerate every successor set in declared state order."""
    enum = {}
    for s in lts.states:
        for a in lts.labels:
            targets = lts.successors(s, a)
            if targets:
                enum[(s, a)] = targets
    return UMLTSStructure(lts.labels, lts.states, enum)


def validate_umlts(lts: PointedLTS, structure: UMLTSStructure) -> bool:
    if structure.labels != lts.labels or structure.states != lts.states:
        return False
    for s in lts.states:
        for a in lts.labels:
            targets = set(lts.successors(s, a))
            listed = structure.enum.get((s, a))
            if (listed is None) != (not targets):
                return False
            if listed is not None and set(listed) != targets:
                return False
    return True


def umlts_to_uniform(structure: UMLTSStructure) -> UniformStructure:
    """View an enumeration as a table of single-entry unit rows."""
    one = Fraction(1)
    rows = {
        key: tuple(((0, one, target),) for target in targets)
        for key, targets in structure.enum.items()
    }
    return UniformStructure(structure.labels, structure.states, rows)


def mlts_to_nlmp(lts: PointedLTS) -> PointmassNLMP:
    """Process with one Dirac measure per edge target, never the zero one."""
    trans = {}
    for s in lts.states:
        for a in lts.labels:
            targets = lts.successors(s, a)
            if targets:
                trans[(s, a)] = frozenset(SubProbMeasure.dirac(t) for t in targets)
    return PointmassNLMP(lts.labels, lts.states, trans)


def nlmp_to_mlts(nlmp: PointmassNLMP, root: StateId) -> PointedLTS:
    """Inverse view for processes whose measures are all point masses."""
    edges = set()
    for (s, a), measures in nlmp.trans.items():
        for mu in measures:
            if len(mu.weights) != 1 or mu.total() != 1:
                raise ValueError(f"measure at ({s!r},{a!r}) is not a point mass")
            ((target, _),) = mu.weights
            edges.add((s, a, target))
    return PointedLTS(nlmp.labels, nlmp.states, root, frozenset(edges))


def _row(table: UniformStructure, state: StateId, label: str, n: int) -> tuple:
    rows = table.rows.get((state, label))
    if rows is None or not 0 <= n < len(rows):
        raise ValueError(f"no row {n} at ({state!r},{label!r})")
    return rows[n]


def _entry_target(row: tuple, k: int, where: str) -> StateId:
    for j, _, target in row:
        if j == k:
            return target
    raise ValueError(f"{where} has no entry {k}")


def witness_indices(
    table: UniformStructure,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n: int,
    k: int,
    a: str,
    bound: int | None = None,
) -> frozenset:
    """Row entries whose targets share a related enumeration value with entry ``k``."""
    row = _row(table, x, a, n)
    anchor = _entry_target(row, k, f"row {n} at ({x!r},{a!r})")
    witnesses = [
        value
        for value in composition_enum(table, x_prime, bound)
        if (anchor, value) in rel
    ]
    return frozenset(
        j
        for j, _, target in row
        if any((target, value) in rel for value in witnesses)
    )


def witness_mass_g(
    table: UniformStructure,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n: int,
    k: int,
    a: str,
    bound: int | None = None,
) -> Fraction:
    """Mass of the entries sharing a related enumeration value with entry ``k``."""
    chosen = witness_indices(table, x, x_prime, rel, n, k, a, bound)
    row = _row(table, x, a, n)
    return sum((mass for j, mass, _ in row if j in chosen), Fraction(0))


def witness_mass_g_prime(
    table: UniformStructure,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n: int,
    n_prime: int,
    k: int,
    a: str,
) -> Fraction:
    """Mass row ``n_prime`` puts on states related from entry ``k`` of row ``n``."""
    anchor = _entry_target(_row(table, x, a, n), k, f"row {n} at ({x!r},{a!r})")
    prime_row = _row(table, x_prime, a, n_prime)
    return sum(
        (mass for _, mass, target in prime_row if (anchor, target) in rel),
        Fraction(0),
    )


def witness_mass_k(
    table: UniformStructure,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n: int,
    n_prime: int,
    k_prime: int,
    a: str,
) -> Fraction:
    """Mass row ``n`` puts on states related into entry ``k_prime`` of row ``n_prime``."""
    anchor = _entry_target(
        _row(table, x_prime, a, n_prime), k_prime, f"row {n_prime} at ({x_prime!r},{a!r})"
    )
    row = _row(table, x, a, n)
    return sum(
        (mass for _, mass, target in row if (target, anchor) in rel), Fraction(0)
    )


def witness_mass_k_prime(
    table: UniformStructure,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n_prime: int,
    k_prime: int,
    a: str,
    bound: int | None = None,
) -> Fraction:
    """Mirror of the shared-witness mass, seen from the second state."""
    prime_row = _row(table, x_prime, a, n_prime)
    anchor = _entry_target(prime_row, k_prime, f"row {n_prime} at ({x_prime!r},{a!r})")
    witnesses = [
        value
        for value in composition_enum(table, x, bound)
        if (value, anchor) in rel
    ]
    chosen = frozenset(
        j
        for j, _, target in prime_row
        if any((value, target) in rel for value in witnesses)
    )
    return sum((mass for j, mass, _ in prime_row if j in chosen), Fraction(0))


def gk_block(
    table: UniformStructure,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n: int,
    n_prime: int,
    a: str,
    bound: int | None = None,
) -> bool:
    """Index-level test that rows ``n`` and ``n_prime`` lift along the relation.

    Every entry must find a related enumeration value on the other side,
    and around each entry the paired neighbourhood masses must agree.
    For z-closed relations between the two enumeration closures this
    coincides with the support lifting of the reconstructed measures.
    """
    row = _row(table, x, a, n)
    prime_row = _row(table, x_prime, a, n_prime)
    right_values = composition_enum(table, x_prime, bound)
    left_values = composition_enum(table, x, bound)
    for k, _, target in row:
        if not any((target, value) in rel for value in right_values):
            return False
        g = witness_mass_g(table, x, x_prime, rel, n, k, a, bound)
        if g != witness_mass_g_prime(table, x, x_prime, rel, n, n_prime, k, a):
            return False
    for k_prime, _, target in prime_row:
        if not any((value, target) in rel for value in left_values):
            return False
        kk = witness_mass_k(table, x, x_prime, rel, n, n_prime, k_prime, a)
        if kk != witness_mass_k_prime(
            table, x, x_prime, rel, n_prime, k_prime, a, bound
        ):
            return False
    return True


def uniform_bisim_search(
    table: UniformStructure, s: StateId, s_prime: StateId
) -> tuple[bool, Rel]:
    """Decide relatedness by searching between the generated substructures.

    Returns the largest external witness between the two enumeration
    closures together with its verdict on the given pair.
    """
    nlmp = table.to_nlmp()
    left = substructure(nlmp, tuple(composition_enum(table, s)))
    right = substructure(nlmp, tuple(composition_enum(table, s_prime)))
    witness = greatest_ext_bisim(left, right)
    return (s, s_prime) in witness, witness


def is_saturated_pair(
    nlmp: PointmassNLMP, rel: Rel, s: StateId, s_prime: StateId
) -> bool:
    """Do the reachability levels of the two states cover each other?

    Level by level, every state on either side must be related to some
    state on the matching level of the other side.
    """
    left_levels = carrier_levels(nlmp, s)
    right_levels = carrier_levels(nlmp, s_prime)
    for n in range(max(len(left_levels), len(right_levels))):
        level = left_levels[min(n, len(left_levels) - 1)]
        level_prime = right_levels[min(n, len(right_levels) - 1)]
        if not all(any((x, y) in rel for x in level) for y in level_prime):
            return False
        if not all(any((x, y) in rel for y in level_prime) for x in level):
            return False
    return True


def _node_name(node: tuple) -> StateId:
    return "e" if not node else "e." + ".".join(str(part) for part in node)


def tree_process(tree: ExplicitTree) -> PointedLTS:
    """Single-label process whose states are the tree's nodes.

    Each node steps to its immediate extensions, with the empty node as
    root; the tree must not be empty. Each non-root node gets one edge,
    from its parent, without recursion; state ranks are node heights.
    """
    if tree.is_empty:
        raise ValueError("cannot root a process on the empty tree")
    nodes = sorted(tree.nodes, key=lambda node: (len(node), node))
    names = {node: _node_name(node) for node in nodes}
    edges = frozenset(
        (names[node[:-1]], SUC_LABEL, names[node]) for node in nodes if node
    )
    return PointedLTS((SUC_LABEL,), tuple(names.values()), "e", edges)


def encode_state(
    lts: PointedLTS, state: StateId, structure: UMLTSStructure | None = None
) -> OmegaLTSCode:
    """Code the part of the process the enumeration reaches from a state.

    Nodes are numbered by first appearance in the enumeration order, the
    given state becoming the root 0.
    """
    if structure is None:
        structure = derive_umlts(lts)
    elif not validate_umlts(lts, structure):
        raise ValueError("enumeration does not match the process")
    values = composition_enum(umlts_to_uniform(structure), state)
    numbering = {value: i for i, value in enumerate(values)}
    edges = {
        a: frozenset(
            (numbering[u], numbering[v])
            for u in values
            for v in lts.successors(u, a)
        )
        for a in lts.labels
    }
    return OmegaLTSCode(0, edges)


def pipeline_bisim(
    lts: PointedLTS, s: StateId, t: StateId, bound: Ordinal
) -> bool:
    """Compare bounded-rank states by isomorphism of their coded expansions."""
    if isinstance(bound, int):
        bound = Ordinal.from_int(bound)
    for state in (s, t):
        rank = state_rank(lts, state)
        if rank is None or rank > bound:
            raise ValueError(f"rank of {state!r} exceeds the bound")
    return iso(
        omega_code_expand(encode_state(lts, s)),
        omega_code_expand(encode_state(lts, t)),
    )
