"""Seeded re-checks of the library's central equivalences.

Each suite rebuilds one headline correspondence with an oracle that is
independent of the implementation under test and reports the verdicts
as data; run_suites stitches the suite reports into one deterministic
document.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from .e0 import diamond_depth_sat, mod_glue_bisim
from .expansion import omega_expand
from .foundations import (
    Count,
    EPSet,
    OMEGA_COUNT,
    ORD_OMEGA,
    Ordinal,
    nth_modification,
)
from .gen import (
    enumerate_trees,
    random_epset,
    random_equivalence,
    random_explicit_tree,
    random_lts,
    random_measure,
    random_multitree,
    random_nlmp,
    random_wf_lts,
    random_z_closed,
)
from .jsonio import render_report
from .lts import (
    PointedLTS,
    _label_universe,
    bisimilar,
    eval_formula,
    greatest_bisim,
    identity_rel,
    is_bisimulation,
    rank_formula,
    state_rank,
    symmetric_closure,
)
from .nlmp import (
    closed_atoms,
    external_atoms,
    greatest_state_bisim,
    is_ext_state_bisim,
    is_state_bisim,
    is_z_closed,
    lift_external,
    lift_support,
)
from .substructures import (
    composition_enum,
    inl_state,
    inr_state,
    internal_closure,
    pair_closure,
    project_rel,
    embed_rel,
    ordered_measures,
    reachable_carrier,
    restrict_rel,
    substructure,
    sum_nlmp,
    up_coherence_witness,
)
from .treeiso import _iso_rec, canon, iso, iso_at_rank
from .trees import BTree, MultiTree, symbolic_rank
from .uniform import (
    gk_block,
    pipeline_bisim,
    tree_process,
    uniform_bisim_search,
)

if TYPE_CHECKING:
    from random import Random

__all__ = ["SUITES", "run_suites"]

FAILURE_CAP = 12


def _suite(name: str, check: Callable) -> Callable[[int], dict]:
    """A suite: its check gets the seed, a generator seeded from the seed and
    the name, and a failure list, and returns its case count or (count, note)."""

    def run(seed: int) -> dict:
        from random import Random

        failures: list[str] = []
        outcome = check(seed, Random(f"{seed}:{name}"), failures)
        cases, notes = outcome if isinstance(outcome, tuple) else (outcome, "")
        return {
            "name": name,
            "passed": not failures,
            "cases": cases,
            "failures": failures[:FAILURE_CAP],
            "notes": notes,
        }

    return run


def _subsets(pool: tuple) -> list[frozenset]:
    """Every subset of the pool; bit i of a subset's index means pool[i]."""
    subsets = [frozenset()]
    for item in pool:
        subsets += [subset | {item} for subset in subsets]
    return subsets


def _closed_pairs(rel: frozenset, left: tuple, right: tuple) -> list:
    """All subset pairs stable under the relation, by brute enumeration.

    A pair is closed when its two sides meet the relation's pairs in the
    same pattern, so the right side's subsets are bucketed by pattern and
    each left subset reads its bucket.
    """
    ordered = sorted(rel)
    buckets: dict[tuple, list] = {}
    for q_prime in _subsets(right):
        pattern = tuple(y in q_prime for _, y in ordered)
        buckets.setdefault(pattern, []).append(q_prime)
    return [
        (q, q_prime)
        for q in _subsets(left)
        for q_prime in buckets.get(tuple(x in q for x, _ in ordered), ())
    ]


def _random_rel(rng: Random, left: Iterable, right: Iterable):
    return frozenset((x, y) for x in left for y in right if rng.random() < 0.3)


def _suite_measure_lifting(seed: int, rng: Random, failures: list[str]) -> int:
    cases = 0
    for i in range(300):
        left = tuple(f"s{k}" for k in range(rng.randint(1, 4)))
        right = tuple(f"s{k}" for k in range(rng.randint(1, 4)))
        rel = _random_rel(rng, left, right)
        z_rel = random_z_closed(rng, left, right)
        closed = _closed_pairs(rel, left, right)
        for _ in range(2):
            mu = random_measure(rng, left)
            nu = random_measure(rng, right)
            cases += 2
            oracle = all(
                mu.mass(q) == nu.mass(q_prime) for q, q_prime in closed
            )
            if lift_external(mu, nu, rel, left, right) != oracle:
                failures.append(f"case {i}: external lift disagrees with closed pairs")
            supported = lift_support(mu, nu, z_rel)
            external = lift_external(mu, nu, z_rel, left, right)
            if supported != external:
                failures.append(f"case {i}: support lift strays on a z-closed relation")
    return cases


def _suite_greatest_bisim(seed: int, rng: Random, failures: list[str]) -> int:
    cases = 0
    for i in range(25):
        left = random_lts(rng, 3)
        right = random_lts(rng, 3)
        pairs = tuple((x, y) for x in left.states for y in right.states)
        union: set = set()
        for rel in _subsets(pairs):
            if is_bisimulation(left, right, rel):
                union |= rel
        cases += 1
        if frozenset(union) != greatest_bisim(left, right):
            failures.append(f"case {i}: greatest LTS bisimulation is not the union")

        nlmp = random_nlmp(rng, 3)
        square = tuple((x, y) for x in nlmp.states for y in nlmp.states)
        state_union: set = set()
        for rel in _subsets(square):
            symmetric = rel == frozenset((y, x) for x, y in rel)
            if symmetric and is_state_bisim(nlmp, rel):
                state_union |= rel
        cases += 1
        if frozenset(state_union) != greatest_state_bisim(nlmp):
            failures.append(f"case {i}: greatest state bisimulation is not the union")
    return cases


def _renamed(lts: PointedLTS) -> PointedLTS:
    name = {s: f"t{i}" for i, s in enumerate(lts.states)}
    return PointedLTS(
        lts.labels,
        tuple(name[s] for s in lts.states),
        name[lts.root],
        frozenset((name[s], a, name[t]) for s, a, t in lts.edges),
    )


def _suite_expansion_canon(seed: int, rng: Random, failures: list[str]) -> int:
    cases = 0
    for i in range(300):
        left = random_wf_lts(rng, 6)
        right = _renamed(left) if i % 3 == 0 else random_wf_lts(rng, 6)
        cases += 1
        expected = bisimilar(left, right)
        got = iso(omega_expand(left, left.root), omega_expand(right, right.root))
        if expected != got:
            failures.append(
                f"case {i}: bisimilarity {expected} but canonical agreement {got}"
            )
    return cases


def _formula_rank(lts: PointedLTS, state) -> int:
    rank = 0
    while rank <= len(lts.states) + 1 and eval_formula(
        lts, state, rank_formula(Ordinal.from_int(rank + 1), lts.labels)
    ):
        rank += 1
    return rank


def _suite_rank_coherence(seed: int, rng: Random, failures: list[str]) -> int:
    cases = 0
    for i in range(300):
        lts = random_wf_lts(rng, 6)
        for s in lts.states:
            cases += 1
            rank = state_rank(lts, s)
            if rank is None:
                failures.append(f"case {i}: state {s} in an acyclic process lacks a rank")
                continue
            if omega_expand(lts, s).tree_rank() != rank + 1:
                failures.append(f"case {i}: expansion rank differs at {s}")
            if Ordinal.from_int(_formula_rank(lts, s)) != rank:
                failures.append(f"case {i}: formula rank differs at {s}")
    return cases


def _small_multitrees() -> list[MultiTree]:
    leaf = MultiTree()
    entries = [
        (label, leaf, count)
        for label in ("a", "b")
        for count in (Count(1), OMEGA_COUNT)
    ]
    two = [MultiTree((entry,)) for entry in entries]
    three = [
        MultiTree(((label, sub, count),))
        for label in ("a", "b")
        for count in (Count(1), OMEGA_COUNT)
        for sub in two
    ]
    three += [MultiTree((e1, e2)) for e1 in entries for e2 in entries]
    return [leaf, *two, *three]


def _oracle_agrees(left: MultiTree, right: MultiTree, same_form: bool) -> bool:
    """Recursive isomorphism agrees with rank-wise iso and with canon equality."""
    agreed = iso_at_rank(left, right, left.tree_rank())
    return agreed == _iso_rec(left, right) == same_form


def _suite_tree_iso(seed: int, rng: Random, failures: list[str]) -> tuple[int, str]:
    cases = 0
    catalog = _small_multitrees()
    forms = [canon(tree) for tree in catalog]
    for i, left in enumerate(catalog):
        for j, right in enumerate(catalog):
            cases += 1
            if not _oracle_agrees(left, right, forms[i] == forms[j]):
                failures.append(f"catalog pair ({i},{j}): rank-wise iso strays")
    for i in range(300):
        left = random_multitree(rng, 3)
        if i % 3 == 0:
            entries = list(left.children)
            rng.shuffle(entries)
            right = MultiTree(tuple(entries))
        else:
            right = random_multitree(rng, 3)
        cases += 1
        left_form, right_form = canon(left), canon(right)
        if not _oracle_agrees(left, right, left_form == right_form):
            failures.append(f"case {i}: rank-wise iso strays")
    return cases, f"catalog={len(catalog)}"


def _suite_tail_rank(seed: int, rng: Random, failures: list[str]) -> int:
    cases = 0
    for i in range(200):
        tree = random_explicit_tree(rng, 40)
        for node in sorted(tree.nodes):
            if not node:
                continue
            cases += 1
            direct = tree.node_rank(node)
            sectioned = tree.section(node[0]).node_rank(node[1:])
            if direct != sectioned:
                failures.append(f"case {i}: rank splits at node {node}")
    return cases


def _suite_set_gadgets(seed: int, rng: Random, failures: list[str]) -> int:
    cases = 0
    for i in range(500):
        x = random_epset(rng)
        if i % 4 == 0:
            y = nth_modification(x, rng.randrange(64))
        elif i % 4 == 1:
            y = x.sym_diff(EPSet.full())
        else:
            y = random_epset(rng)
        cases += 1
        if mod_glue_bisim(x, y) != x.eventually_equal(y):
            failures.append(f"case {i}: glued gadgets disagree with eventual equality")

    probes = [
        EPSet.empty(),
        EPSet.full(),
        EPSet("", "10"),
        EPSet.from_finite({0, 2}),
        *(random_epset(rng) for _ in range(8)),
    ]
    for x in probes:
        for k in range(33):
            cases += 1
            if diamond_depth_sat(x, k) != x.member(k):
                failures.append(f"tower {k} misreads membership in {x}")
        cases += 1
        expected = ORD_OMEGA + 1 if x.is_finite else ORD_OMEGA + 2
        if symbolic_rank(BTree(x))[1] != expected:
            failures.append(f"glued gadget of {x} has the wrong rank")
    return cases


def _descent_relation(rng: Random, nlmp) -> tuple[frozenset, bool]:
    rel = internal_closure(random_equivalence(rng, nlmp.states), nlmp.states)
    if is_state_bisim(nlmp, rel):
        return rel, False
    rel = internal_closure(greatest_state_bisim(nlmp), nlmp.states)
    if is_state_bisim(nlmp, rel):
        return rel, False
    return identity_rel(nlmp.states), True


def _suite_substructure_descent(seed: int, rng: Random, failures: list[str]) -> tuple[int, str]:
    cases = 0
    fallbacks = 0

    for i in range(100):
        nlmp = random_nlmp(rng, 4)
        carrier = reachable_carrier(nlmp, rng.choice(nlmp.states))
        witness = up_coherence_witness(nlmp, carrier)
        cases += 1
        if not is_ext_state_bisim(nlmp, substructure(nlmp, carrier), witness):
            failures.append(f"case {i}: identity fails between a process and its part")

    for i in range(20):
        left = random_nlmp(rng, 4)
        right = random_nlmp(rng, 4)
        left_carrier = reachable_carrier(left, rng.choice(left.states))
        right_carrier = reachable_carrier(right, rng.choice(right.states))
        left_sub = substructure(left, left_carrier)
        right_sub = substructure(right, right_carrier)
        pairs = tuple((x, y) for x in left_carrier for y in right_carrier)
        if len(pairs) <= 9:
            rels = _subsets(pairs)
        else:
            rels = [
                frozenset(p for p in pairs if rng.random() < 0.3)
                for _ in range(150)
            ]
        for rel in rels:
            cases += 1
            inner = is_ext_state_bisim(left_sub, right_sub, rel)
            outer = is_ext_state_bisim(left, right, rel)
            if inner != outer:
                failures.append(
                    f"case {i}: transfer breaks for relation {sorted(rel)}"
                )

    for i in range(300):
        nlmp = random_nlmp(rng, 4)
        rel, fell_back = _descent_relation(rng, nlmp)
        fallbacks += fell_back
        left_carrier = reachable_carrier(nlmp, rng.choice(nlmp.states))
        right_carrier = reachable_carrier(nlmp, rng.choice(nlmp.states))
        down = restrict_rel(rel, left_carrier, right_carrier)
        cases += 1
        if not is_z_closed(down):
            failures.append(f"case {i}: descended relation is not z-closed")
        elif not is_ext_state_bisim(
            substructure(nlmp, left_carrier),
            substructure(nlmp, right_carrier),
            down,
        ):
            failures.append(f"case {i}: descended relation fails between the parts")

    rel = frozenset({("1", "2"), ("2", "3")})
    states = ("1", "2", "3")
    ambient = internal_closure(rel, states)
    down = restrict_rel(rel, ("1", "2"), ("3",))
    down_ambient = restrict_rel(ambient, ("1", "2"), ("3",))
    point_checks = [
        (
            closed_atoms(rel, states) == (frozenset(states),),
            "three-point relation should weld one atom",
        ),
        (
            ambient == frozenset((x, y) for x in states for y in states),
            "three-point closure should be total",
        ),
        (
            (frozenset({"1"}), frozenset()) in set(external_atoms(down, ("1", "2"), ("3",))),
            "state 1 should isolate after restriction",
        ),
        (
            pair_closure(down, ("1", "2"), ("3",)) == frozenset({("2", "3")}),
            "restricted closure should keep only (2,3)",
        ),
        (
            ("1", "3") in down_ambient - pair_closure(down, ("1", "2"), ("3",)),
            "(1,3) should witness the closure gap",
        ),
    ]
    for ok, message in point_checks:
        cases += 1
        if not ok:
            failures.append(message)

    notes = f"closure fallbacks={fallbacks}" if fallbacks else ""
    return cases, notes


def _suite_sum_process(seed: int, rng: Random, failures: list[str]) -> int:
    cases = 0
    for i in range(20):
        left = random_nlmp(rng, 3)
        right = random_nlmp(rng, 3)
        total = sum_nlmp(left, right)
        pairs = tuple((x, y) for x in left.states for y in right.states)

        rel = _random_rel(rng, left.states, right.states)
        cases += 1
        if project_rel(embed_rel(rel)) != rel:
            failures.append(f"case {i}: descent does not undo the lift")

        for candidate in _subsets(pairs):
            cases += 1
            ext = is_ext_state_bisim(left, right, candidate)
            lifted = symmetric_closure(embed_rel(candidate))
            if ext != is_state_bisim(total, lifted):
                failures.append(
                    f"case {i}: symmetrized lift strays for {sorted(candidate)}"
                )

        lifted = symmetric_closure(embed_rel(rel))
        for e, e_prime in _closed_pairs(rel, left.states, right.states):
            box = frozenset(inl_state(x) for x in e) | frozenset(
                inr_state(y) for y in e_prime
            )
            cases += 1
            if not all((u in box) == (v in box) for u, v in sorted(lifted)):
                failures.append(f"case {i}: closed pair does not box up")

        crossing = project_rel(greatest_state_bisim(total))
        cases += 1
        if not is_ext_state_bisim(left, right, crossing):
            failures.append(f"case {i}: greatest sum bisimulation does not descend")
    return cases


def _suite_uniform_search(seed: int, rng: Random, failures: list[str]) -> int:
    cases = 0
    for i in range(100):
        nlmp = random_nlmp(rng, 4)
        s = rng.choice(nlmp.states)
        s_prime = rng.choice(nlmp.states)
        cases += 1
        verdict, _ = uniform_bisim_search(nlmp, s, s_prime)
        if verdict != ((s, s_prime) in greatest_state_bisim(nlmp)):
            failures.append(f"case {i}: search verdict strays at ({s},{s_prime})")

        left_values = composition_enum(nlmp, s)
        right_values = composition_enum(nlmp, s_prime)
        rel = random_z_closed(rng, left_values, right_values)
        for a in nlmp.labels:
            prime_rows = ordered_measures(nlmp, s_prime, a)
            for n, mu in enumerate(ordered_measures(nlmp, s, a)):
                for n_prime, nu in enumerate(prime_rows):
                    cases += 1
                    block = gk_block(nlmp, s, s_prime, rel, n, n_prime, a)
                    if block != lift_support(mu, nu, rel):
                        failures.append(
                            f"case {i}: index block strays at row ({n},{n_prime},{a})"
                        )
    return cases


def _tagged_union(left: PointedLTS, right: PointedLTS) -> PointedLTS:
    labels = _label_universe(left, right)
    states = (*map(inl_state, left.states), *map(inr_state, right.states))
    edges = frozenset(
        {(inl_state(s), a, inl_state(t)) for s, a, t in left.edges}
        | {(inr_state(s), a, inr_state(t)) for s, a, t in right.edges}
    )
    return PointedLTS(labels, states, inl_state(left.root), edges)


def _suite_umlts_pipeline(seed: int, rng: Random, failures: list[str]) -> tuple[int, str]:
    cases = 0
    trees = enumerate_trees(6)
    if len(trees) != 37:
        failures.append(f"expected 37 tree classes, found {len(trees)}")
    processes = [tree_process(tree) for tree in trees]
    bound = Ordinal.from_int(7)
    for i, left in enumerate(processes):
        for j in range(i, len(processes)):
            right = processes[j]
            cases += 1
            expected = bisimilar(left, right)
            combined = _tagged_union(left, right)
            got = pipeline_bisim(combined, inl_state(left.root), inr_state(right.root), bound)
            if expected != got:
                failures.append(f"pair ({i},{j}): coded pipeline strays")
    return cases, f"trees={len(trees)}"


def _suite_determinism(seed: int, rng: Random, failures: list[str]) -> int:
    first = render_report(run_suites(seed, ("tail-rank",)))
    second = render_report(run_suites(seed, ("tail-rank",)))
    if first != second:
        failures.append("re-rendered report differs")
    return 2


SUITES: dict[str, Callable[[int], dict]] = {
    name: _suite(name, check)
    for name, check in (
        ("measure-lifting", _suite_measure_lifting),
        ("greatest-bisim", _suite_greatest_bisim),
        ("expansion-canon", _suite_expansion_canon),
        ("rank-coherence", _suite_rank_coherence),
        ("tree-iso", _suite_tree_iso),
        ("tail-rank", _suite_tail_rank),
        ("set-gadgets", _suite_set_gadgets),
        ("substructure-descent", _suite_substructure_descent),
        ("sum-process", _suite_sum_process),
        ("uniform-search", _suite_uniform_search),
        ("umlts-pipeline", _suite_umlts_pipeline),
        ("determinism", _suite_determinism),
    )
}


def run_suites(seed: int, names: Iterable[str]) -> dict:
    results = []
    for name in names:
        try:
            suite = SUITES[name]
        except KeyError:
            raise ValueError(f"unknown suite {name!r}") from None
        results.append(suite(seed))
    return {
        "seed": seed,
        "suites": results,
        "passed": all(result["passed"] for result in results),
    }
