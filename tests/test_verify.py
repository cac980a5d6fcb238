import random
from fractions import Fraction
from functools import lru_cache
from itertools import compress

import pytest

from bisimkit.foundations import Ordinal
from bisimkit.gen import (
    enumerate_trees,
    random_equivalence,
    random_explicit_tree,
    random_measure,
    random_multitree,
    random_nlmp,
    random_wf_lts,
    random_z_closed,
)
from bisimkit.jsonio import render_report
from bisimkit.lts import state_rank
from bisimkit.nlmp import is_z_closed
from bisimkit.trees import ExplicitTree
from bisimkit.verify import SUITES, _closed_pairs, _subsets, run_suites


@lru_cache(maxsize=None)
def oracle_forests(total: int) -> tuple:
    """The former recursive shape enumeration, kept as the oracle."""
    if total == 0:
        return ((),)
    found = set()
    for size in range(1, total + 1):
        for child in oracle_forests(size - 1):
            for rest in oracle_forests(total - size):
                found.add(tuple(sorted((child, *rest))))
    return tuple(sorted(found))


def oracle_shape_nodes(shape: tuple, base: tuple = ()) -> set:
    nodes = {base}
    for i, child in enumerate(shape):
        nodes |= oracle_shape_nodes(child, base + (i,))
    return nodes


class TestGenerators:
    def test_tree_classes_match_the_recursive_oracle(self):
        for max_nodes in range(10):
            want = [
                ExplicitTree(frozenset(oracle_shape_nodes(shape)))
                for n in range(1, max_nodes + 1)
                for shape in oracle_forests(n - 1)
            ]
            assert enumerate_trees(max_nodes) == want
        assert len(want) == 486

    def test_forward_edges_keep_every_state_ranked(self):
        rng = random.Random(301)
        for _ in range(50):
            lts = random_wf_lts(rng)
            for s in lts.states:
                assert state_rank(lts, s) is not None

    def test_measures_stay_subprobability(self):
        rng = random.Random(302)
        states = ("s0", "s1", "s2", "s3")
        saw_zero = saw_full = False
        for _ in range(200):
            mu = random_measure(rng, states)
            num, den = mu.mass(states)
            assert 0 <= num <= den
            assert len(mu.support) <= 3
            assert all(mass[0] > 0 for _, mass in mu.weights)
            saw_zero |= not mu.weights
            saw_full |= (num, den) == (1, 1)
        assert saw_zero and saw_full

    def test_measures_match_the_fraction_generator(self):
        # The generator that built Fraction masses, kept as the oracle: the
        # same draws must give the same reduced masses, and leave the
        # generator in the same state.
        def oracle_random_measure(rng, states, max_support=3):
            pool = list(states)
            size = rng.randint(0, min(max_support, len(pool)))
            if size == 0:
                return ()
            support = rng.sample(pool, k=size)
            denom = rng.randint(size, 8)
            budget = denom if rng.random() < 0.5 else rng.randint(size, denom)
            cuts = sorted(rng.sample(range(1, budget), k=size - 1)) if size > 1 else []
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, budget])]
            return tuple(sorted((s, Fraction(p, denom)) for s, p in zip(support, parts)))

        states = tuple(f"s{i}" for i in range(5))
        rng, oracle_rng = random.Random(305), random.Random(305)
        for _ in range(500):
            weights = random_measure(rng, states).weights
            expected = oracle_random_measure(oracle_rng, states)
            assert weights == tuple((s, (m.numerator, m.denominator)) for s, m in expected)
            assert rng.getstate() == oracle_rng.getstate()

    def test_nlmp_bundles_are_bounded(self):
        rng = random.Random(303)
        for _ in range(40):
            nlmp = random_nlmp(rng)
            for bundle in nlmp.trans.values():
                assert 1 <= len(bundle) <= 3

    def test_block_relations_have_their_shapes(self):
        rng = random.Random(304)
        left = ("a", "b", "c")
        right = ("x", "y")
        for _ in range(60):
            assert is_z_closed(random_z_closed(rng, left, right))
            eq = random_equivalence(rng, left)
            assert {(s, s) for s in left} <= eq
            assert {(y, x) for x, y in eq} == eq

    def test_explicit_trees_are_bounded(self):
        rng = random.Random(305)
        for _ in range(40):
            tree = random_explicit_tree(rng, 15)
            assert 1 <= len(tree.nodes) <= 15

    def test_multitree_rank_is_depth_bounded(self):
        rng = random.Random(306)
        for _ in range(60):
            tree = random_multitree(rng, 3)
            assert tree.tree_rank() <= Ordinal.from_int(4)

    def test_tree_class_counts(self):
        sizes = [
            len([t for t in enumerate_trees(n) if len(t.nodes) == n])
            for n in range(1, 7)
        ]
        assert sizes == [1, 1, 2, 4, 9, 20]
        classes = enumerate_trees(6)
        assert len(classes) == 37
        assert len({tree.nodes for tree in classes}) == 37


class TestHarness:
    def test_unknown_suite_is_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(1, ("no-such-suite",))

    def test_suite_order_is_fixed(self):
        assert tuple(SUITES) == (
            "measure-lifting",
            "greatest-bisim",
            "expansion-canon",
            "rank-coherence",
            "tree-iso",
            "tail-rank",
            "set-gadgets",
            "substructure-descent",
            "sum-process",
            "uniform-search",
            "umlts-pipeline",
            "determinism",
        )

    def test_reports_render_identically(self):
        first = run_suites(3, ("tail-rank",))
        second = run_suites(3, ("tail-rank",))
        assert render_report(first) == render_report(second)

    def test_cheap_suites_pass_and_report_shape(self):
        report = run_suites(11, ("tail-rank", "tree-iso"))
        assert report["passed"]
        assert report["seed"] == 11
        for result in report["suites"]:
            assert set(result) == {"name", "passed", "cases", "failures", "notes"}
            assert result["passed"]
            assert result["failures"] == []
        assert report["suites"][0]["cases"] >= 200
        assert report["suites"][1]["cases"] >= 1600


def oracle_subsets(pool: tuple) -> list[frozenset]:
    return [
        frozenset(compress(pool, (bits >> i & 1 for i in range(len(pool)))))
        for bits in range(1 << len(pool))
    ]


def oracle_closed_pairs(rel: frozenset, left: tuple, right: tuple) -> list:
    """All subset pairs stable under the relation, pair by pair."""
    ordered = sorted(rel)
    return [
        (q, q_prime)
        for q in oracle_subsets(left)
        for q_prime in oracle_subsets(right)
        if all((x in q) == (y in q_prime) for x, y in ordered)
    ]


class TestEnumerationOracles:
    def test_subsets_in_bit_order(self):
        for n in range(6):
            pool = tuple(f"s{i}" for i in range(n))
            assert _subsets(pool) == oracle_subsets(pool)
        assert _subsets(()) == [frozenset()]

    def test_closed_pairs_on_seeded_relations(self):
        rng = random.Random(307)
        sizes = set()
        for case in range(300):
            left = tuple(f"l{i}" for i in range(rng.randint(0, 4)))
            right = tuple(f"r{i}" for i in range(rng.randint(0, 4)))
            chance = 0.0 if case % 5 == 0 else rng.random()
            rel = frozenset(
                (x, y) for x in left for y in right if rng.random() < chance
            )
            got = _closed_pairs(rel, left, right)
            assert got == oracle_closed_pairs(rel, left, right)
            sizes.add(len(got))
            if not rel:
                assert len(got) == 1 << (len(left) + len(right))
        assert len(sizes) > 5
