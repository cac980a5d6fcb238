import random
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
from bisimkit.lts import state_rank
from bisimkit.nlmp import is_z_closed
from bisimkit.verify import SUITES, _closed_pairs, _subsets, render_report, run_suites


class TestGenerators:
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
            assert 0 <= sum(m for _, m in mu.weights) <= 1
            assert len(mu.support) <= 3
            assert all(mass > 0 for _, mass in mu.weights)
            saw_zero |= not mu.weights
            saw_full |= sum(m for _, m in mu.weights) == 1
        assert saw_zero and saw_full

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
