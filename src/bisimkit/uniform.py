"""Tabulated transition enumerations, and the coding pipeline.

A uniform table lists, per state and label, every transition measure as
a row of weighted targets. Iterating the target maps enumerates the
part of the process a state generates. Of the constructions here, only
two iterate tables: an index-level reformulation of measure lifting and
a bisimilarity search between generated substructures. The coding
pipeline for bounded-rank states walks the LTS itself: it numbers the
states a state reaches and compares the expansions of the codes.
"""

from __future__ import annotations

from fractions import Fraction

from .foundations import Ordinal, frozen
from .lts import OmegaLTSCode, PointedLTS, Rel, StateId, state_rank
from .nlmp import PointmassNLMP, SubProbMeasure, _total, greatest_ext_bisim
from .substructures import substructure
from .trees import SUC_LABEL, ExplicitTree, node_name
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
                for k, mass, target in row:
                    if k <= previous:
                        raise ValueError(
                            f"row {n} at ({s!r},{a!r}) repeats or unsorts indices"
                        )
                    previous = k
                    if not isinstance(mass, Fraction) or mass.numerator <= 0:
                        raise ValueError(
                            f"row {n} at ({s!r},{a!r}) needs positive rational masses"
                        )
                    if target not in states:
                        raise ValueError(
                            f"row {n} at ({s!r},{a!r}) targets unknown {target!r}"
                        )
                num, den = _total(mass for _, mass, _ in row)
                if num > den:
                    raise ValueError(f"row {n} at ({s!r},{a!r}) exceeds mass one")

    def row_measure(self, state: StateId, label: str, n: int) -> SubProbMeasure:
        weights: dict[StateId, Fraction] = {}
        for _, mass, target in _row(self, state, label, n):
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


def composition_enum(
    table: UniformStructure, state: StateId, bound: int | None = None
) -> list[StateId]:
    """Values of iterated target maps applied to a state, breadth first.

    The state itself comes first. The walk is one first-in, first-out
    queue: each listed value in turn applies every table position in
    label, row, entry order, appending first occurrences, so the rounds
    of a breadth-first search follow one another. Runs to the fixed
    point; with a ``bound``, takes no further value once that many are
    listed, so no row of a later value is read, and truncates to it.
    """
    if state not in table.states:
        raise ValueError(f"unknown state {state!r}")
    if bound is not None and bound < 0:
        raise ValueError("bound must be a natural")
    listed = [state]
    seen = {state}
    for value in listed:
        if bound is not None and len(listed) >= bound:
            break
        for a in table.labels:
            for row in table.rows.get((value, a), ()):
                for _, _, target in row:
                    if target not in seen:
                        seen.add(target)
                        listed.append(target)
    return listed if bound is None else listed[:bound]


def _row(table: UniformStructure, state: StateId, label: str, n: int) -> tuple:
    rows = table.rows.get((state, label))
    if rows is None or not 0 <= n < len(rows):
        raise ValueError(f"no row {n} at ({state!r},{label!r})")
    return rows[n]


def _gk_side(
    table: UniformStructure,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n: int,
    n_prime: int,
    a: str,
    bound: int | None,
) -> bool:
    row = _row(table, x, a, n)
    prime_row = _row(table, x_prime, a, n_prime)
    values = composition_enum(table, x_prime, bound)
    # Per target of row n, the enumeration values related to it.
    witnesses_of = {
        target: {value for value in values if (target, value) in rel}
        for _, _, target in row
    }
    for _, _, target in row:
        witnesses = witnesses_of[target]
        if not witnesses:
            return False
        g = sum(
            (mass for _, mass, other in row if witnesses & witnesses_of[other]),
            Fraction(0),
        )
        g_prime = sum(
            (mass for _, mass, other in prime_row if (target, other) in rel),
            Fraction(0),
        )
        if g != g_prime:
            return False
    return True


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

    Each side is the same one-sided check. Along R, entry k of row n
    compares g(x,x',R,n,k) with g'(x,x',R,n,n',k). g is the mass of the
    row-n entries whose targets are related to some value of the
    enumeration of x' that entry k's target is also related to; g' is
    the mass row n' puts on states related from entry k's target. The
    back half reads the forth half from the other row along the converse:
    k(x,x',R,n,n',k') = g'(x',x,R^-1,n',n,k') and
    k'(x,x',R,n',k') = g(x',x,R^-1,n',k').
    """
    if not _gk_side(table, x, x_prime, rel, n, n_prime, a, bound):
        return False
    converse = frozenset((v, u) for u, v in rel)
    return _gk_side(table, x_prime, x, converse, n_prime, n, a, bound)


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


def tree_process(tree: ExplicitTree) -> PointedLTS:
    """Single-label process whose states are the tree's nodes.

    Each node steps to its immediate extensions, with the empty node as
    root; the tree must not be empty. Each non-root node gets one edge,
    from its parent, without recursion; state ranks are node heights.
    """
    if tree.is_empty:
        raise ValueError("cannot root a process on the empty tree")
    nodes = sorted(tree.nodes, key=lambda node: (len(node), node))
    names = {node: node_name(node) for node in nodes}
    edges = frozenset(
        (names[node[:-1]], SUC_LABEL, names[node]) for node in nodes if node
    )
    return PointedLTS((SUC_LABEL,), tuple(names.values()), "e", edges)


def encode_state(lts: PointedLTS, state: StateId) -> OmegaLTSCode:
    """Code the part of the process a state reaches.

    One breadth-first walk numbers the states by first appearance, the
    given state becoming the root 0; each state lists its successors
    label by label in declared order, targets in declared state order.
    """
    if state not in lts.states:
        raise ValueError(f"unknown state {state!r}")
    numbering = {state: 0}
    listed = [state]
    edges: dict[str, set] = {a: set() for a in lts.labels}
    for u in listed:
        for a in lts.labels:
            for v in lts.successors(u, a):
                if v not in numbering:
                    numbering[v] = len(listed)
                    listed.append(v)
                edges[a].add((numbering[u], numbering[v]))
    return OmegaLTSCode(0, {a: frozenset(pairs) for a, pairs in edges.items()})


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
