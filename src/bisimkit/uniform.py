"""Index-level measure lifting, substructure search, and the coding pipeline.

Two constructions read a process's transitions as rows: row n at a
state and label is the weight listing of the nth measure in
`substructures.ordered_measures` order. An index-level reformulation of
measure lifting compares two rows over the enumeration that
`substructures.composition_enum` walks, and a bisimilarity search
compares the substructures two enumerations generate. The coding
pipeline for bounded-rank states walks the LTS itself: it numbers the
states a state reaches and compares the expansions of the codes.
"""

from __future__ import annotations

from .foundations import Ordinal, sum_rationals
from .lts import OmegaLTSCode, PointedLTS, Rel, StateId, known_state, state_rank
from .nlmp import PointmassNLMP, greatest_ext_bisim
from .substructures import composition_enum, ordered_measures, substructure
from .trees import SUC_LABEL, ExplicitTree, node_name
from .expansion import omega_code_expand
from .treeiso import iso


def _row(nlmp: PointmassNLMP, state: StateId, label: str, n: int) -> tuple:
    """The weights of the nth measure in `ordered_measures` order."""
    rows = ordered_measures(nlmp, state, label)
    if not 0 <= n < len(rows):
        raise ValueError(f"no row {n} at ({state!r},{label!r})")
    return rows[n].weights


def _gk_side(
    nlmp: PointmassNLMP,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n: int,
    n_prime: int,
    a: str,
) -> bool:
    row = _row(nlmp, x, a, n)
    prime_row = _row(nlmp, x_prime, a, n_prime)
    values = composition_enum(nlmp, x_prime)
    # Per target of row n, the enumeration values related to it.
    witnesses_of = {
        target: {value for value in values if (target, value) in rel}
        for target, _ in row
    }
    for target, _ in row:
        witnesses = witnesses_of[target]
        if not witnesses:
            return False
        g = sum_rationals(mass for other, mass in row if witnesses & witnesses_of[other])
        g_prime = sum_rationals(mass for other, mass in prime_row if (target, other) in rel)
        if g != g_prime:
            return False
    return True


def gk_block(
    nlmp: PointmassNLMP,
    x: StateId,
    x_prime: StateId,
    rel: Rel,
    n: int,
    n_prime: int,
    a: str,
) -> bool:
    """Index-level test that rows ``n`` and ``n_prime`` lift along the relation.

    Every entry must find a related enumeration value on the other side,
    and around each entry the paired neighbourhood masses must agree.
    For z-closed relations between the two enumeration closures this
    coincides with the support lifting of the two measures.

    Each side is the same one-sided check. Along R, entry k of row n
    compares g(x,x',R,n,k) with g'(x,x',R,n,n',k). g is the mass of the
    row-n entries whose targets are related to some value of the
    enumeration of x' that entry k's target is also related to; g' is
    the mass row n' puts on states related from entry k's target. The
    back half reads the forth half from the other row along the converse:
    k(x,x',R,n,n',k') = g'(x',x,R^-1,n',n,k') and
    k'(x,x',R,n',k') = g(x',x,R^-1,n',k').
    """
    if not _gk_side(nlmp, x, x_prime, rel, n, n_prime, a):
        return False
    converse = frozenset((v, u) for u, v in rel)
    return _gk_side(nlmp, x_prime, x, converse, n_prime, n, a)


def uniform_bisim_search(
    nlmp: PointmassNLMP, s: StateId, s_prime: StateId
) -> tuple[bool, Rel]:
    """Decide relatedness by searching between the generated substructures.

    Returns the largest external witness between the two enumeration
    closures together with its verdict on the given pair.
    """
    left = substructure(nlmp, tuple(composition_enum(nlmp, s)))
    right = substructure(nlmp, tuple(composition_enum(nlmp, s_prime)))
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
    nodes = tree.in_order()
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
    known_state(lts, state)
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
    """Compare bounded-rank states by isomorphism of their coded expansions.

    Both ranks must be at most the ordinal ``bound``.
    """
    for state in (s, t):
        rank = state_rank(lts, state)
        if rank is None or rank > bound:
            raise ValueError(f"rank of {state!r} exceeds the bound")
    return iso(
        omega_code_expand(encode_state(lts, s)),
        omega_code_expand(encode_state(lts, t)),
    )
