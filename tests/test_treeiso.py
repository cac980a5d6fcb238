"""Canonical forms, recursive isomorphism, and forth/back matching.

The oracle below is the canonical form as it was built before class ids
decided isomorphism: a recursive serialization that re-encodes every
child with json.dumps. The printed form must stay byte-identical to it.
"""

import itertools
import json
import random

import pytest

from bisimkit.foundations import Count, OMEGA_COUNT, Ordinal
from bisimkit.trees import LEAF, MultiTree
from bisimkit.treeiso import _iso_rec, _type_counts, canon, class_ids, iso, iso_at_rank


def mt(*entries) -> MultiTree:
    return MultiTree(tuple(entries))


# --- oracle: the recursive canonical serialization ----------------------------


def _oracle_canon_data(tree: MultiTree) -> dict:
    groups: dict[tuple[str, str], list] = {}
    for label, sub, count in tree.children:
        child = _oracle_canon_data(sub)
        key = (label, json.dumps(child, sort_keys=True, separators=(",", ":")))
        if key in groups:
            groups[key][1] = groups[key][1] + count
        else:
            groups[key] = [child, count]
    data: dict[str, list] = {}
    for label, child_str in sorted(groups):
        child, total = groups[(label, child_str)]
        data.setdefault(label, []).append([child, total.to_json()])
    return data


def oracle_canon(tree: MultiTree) -> str:
    return json.dumps(_oracle_canon_data(tree), sort_keys=True, separators=(",", ":"))


# --- oracle: the forth/back matching clauses ----------------------------------


def count_at_least(count: Count, other: Count) -> bool:
    if count.is_omega:
        return True
    if other.is_omega:
        return False
    return count.finite >= other.finite


def count_capped(count: Count, k: int) -> Count:
    """min with a natural; omega caps to k."""
    if count.is_omega or count.finite > k:
        return Count(k)
    return count


def total_children(tree: MultiTree) -> Count:
    total = Count(0)
    for _, _, count in tree.children:
        total = total + count
    return total


def matching_clause(
    source: MultiTree, target: MultiTree, alpha: Ordinal, k: int
) -> bool:
    """Can every injective k-tuple of source children be matched in target?

    A match pairs each chosen child with a distinct target child of the
    same label, isomorphic at some rank below alpha. A type of
    multiplicity m never needs more than min(m, k) partners, so the
    quantifier over tuples collapses to a per-type count comparison.
    """
    if k < 0:
        raise ValueError("tuple length must be a natural")
    total = total_children(source)
    if not total.is_omega and total.finite < k:
        return True
    if k == 0:
        return True
    # Some child has rank >= alpha exactly when the source has rank > alpha.
    if source.tree_rank() > alpha:
        return False
    ids = class_ids(source, target)
    available = _type_counts(target, ids)
    return all(
        count_at_least(available.get(kind, Count(0)), count_capped(count, k))
        for kind, count in _type_counts(source, ids).items()
    )


def forth_condition(
    source: MultiTree, target: MultiTree, alpha: Ordinal, k: int
) -> bool:
    return source.tree_rank() == alpha and matching_clause(source, target, alpha, k)


def oracle_forth_back(left: MultiTree, right: MultiTree, alpha: Ordinal, k: int) -> bool:
    """Both one-sided conditions at rank alpha and tuple length k."""
    return forth_condition(left, right, alpha, k) and forth_condition(
        right, left, alpha, k
    )


# --- inputs -------------------------------------------------------------------


def random_multitree(rng: random.Random, depth: int) -> MultiTree:
    if depth == 0 or rng.random() < 0.3:
        return LEAF
    entries = []
    for _ in range(rng.randint(0, 3)):
        label = rng.choice(("a", "b"))
        sub = random_multitree(rng, depth - 1)
        count = rng.choice((Count(1), Count(2), OMEGA_COUNT))
        entries.append((label, sub, count))
    return MultiTree(tuple(entries))


def small_universe() -> list[MultiTree]:
    """Every multiplicity tree with at most three syntactic nodes."""
    counts = (Count(1), Count(2), OMEGA_COUNT)
    labels = ("a", "b")
    depth_one = [
        mt((lab, LEAF, cnt)) for lab in labels for cnt in counts
    ]
    trees = [LEAF] + depth_one
    for lab, cnt in itertools.product(labels, counts):
        for sub in depth_one:
            trees.append(mt((lab, sub, cnt)))
    for (l1, c1), (l2, c2) in itertools.combinations_with_replacement(
        itertools.product(labels, counts), 2
    ):
        trees.append(mt((l1, LEAF, c1), (l2, LEAF, c2)))
    return trees


def shared_multitrees(rng: random.Random, layers: int, width: int) -> list[MultiTree]:
    """DAG-shaped trees whose nodes reuse the nodes of lower layers.

    Each tree also comes with a copy whose entries are reversed, so that
    isomorphic pairs of distinct objects are common.
    """
    counts = (Count(1), Count(2), OMEGA_COUNT)
    pool = [LEAF]
    for _ in range(layers):
        pool += [
            mt(*(
                (rng.choice("ab"), rng.choice(pool), rng.choice(counts))
                for _ in range(rng.randint(0, 3))
            ))
            for _ in range(width)
        ]
    return pool + [MultiTree(tuple(reversed(tree.children))) for tree in pool]


def deep_chain(depth: int) -> MultiTree:
    tree = LEAF
    for _ in range(depth):
        tree = mt(("a", tree, Count(1)))
    return tree


def doubling_dag(levels: int, bottom: Count = Count(1)) -> MultiTree:
    """Each node holds the one node below twice, so 2**levels root paths."""
    tree = mt(("a", LEAF, bottom))
    for _ in range(levels - 1):
        tree = mt(("a", tree, Count(1)), ("b", tree, Count(2)))
    return tree


def oracle_inputs() -> list[MultiTree]:
    rng = random.Random(74)
    return (
        small_universe()
        + [random_multitree(rng, 4) for _ in range(60)]
        + shared_multitrees(rng, 4, 6)
        + [doubling_dag(6), doubling_dag(6, OMEGA_COUNT)]
        + [mt(("\u00e9\"", LEAF, Count(1)), ("\\", deep_chain(2), OMEGA_COUNT))]
    )


class TestCanon:
    def test_leaf_serialization(self):
        assert canon(LEAF) == "{}"

    def test_golden_serialization(self):
        tree = mt(("b", LEAF, OMEGA_COUNT), ("a", LEAF, Count(2)))
        assert canon(tree) == '{"a":[[{},2]],"b":[[{},"omega"]]}'

    def test_equal_children_merge_with_saturation(self):
        split = mt(("a", LEAF, Count(2)), ("a", LEAF, Count(3)))
        merged = mt(("a", LEAF, Count(5)))
        assert canon(split) == canon(merged) == '{"a":[[{},5]]}'
        saturated = mt(("a", LEAF, Count(2)), ("a", LEAF, OMEGA_COUNT))
        assert canon(saturated) == '{"a":[[{},"omega"]]}'

    def test_entry_order_is_irrelevant(self):
        one = mt(("a", LEAF, Count(1)), ("b", mt(("a", LEAF, Count(1))), Count(2)))
        two = mt(("b", mt(("a", LEAF, Count(1))), Count(2)), ("a", LEAF, Count(1)))
        assert canon(one) == canon(two)
        assert iso(one, two)

    def test_counts_distinguish(self):
        assert not iso(mt(("a", LEAF, Count(2))), mt(("a", LEAF, Count(3))))
        assert not iso(mt(("a", LEAF, OMEGA_COUNT)), mt(("a", LEAF, Count(5))))

    def test_nested_children_sorted_deterministically(self):
        inner_a = mt(("a", LEAF, Count(1)))
        inner_b = mt(("b", LEAF, Count(1)))
        one = mt(("a", inner_a, Count(1)), ("a", inner_b, Count(1)))
        two = mt(("a", inner_b, Count(1)), ("a", inner_a, Count(1)))
        assert canon(one) == canon(two)

    def test_byte_identical_to_recursive_serialization(self):
        for tree in oracle_inputs():
            assert canon(tree) == oracle_canon(tree)

    def test_deep_chain(self):
        form = canon(deep_chain(3000))
        assert form == '{"a":[[' * 3000 + "{}" + ",1]]}" * 3000


class TestRecursiveIso:
    def test_agrees_with_canon_on_small_universe(self):
        universe = small_universe()
        for left in universe:
            for right in universe:
                assert _iso_rec(left, right) == (canon(left) == canon(right))

    def test_agrees_with_canon_on_random_trees(self):
        rng = random.Random(71)
        trees = [random_multitree(rng, 3) for _ in range(60)]
        for left in trees:
            for right in trees:
                assert _iso_rec(left, right) == (canon(left) == canon(right))

    def test_class_ids_recursion_and_oracle_strings_agree(self):
        trees = oracle_inputs()
        forms = [oracle_canon(tree) for tree in trees]
        agreed = 0
        for (left, left_form), (right, right_form) in itertools.product(
            zip(trees, forms), repeat=2
        ):
            same = left_form == right_form
            assert iso(left, right) == _iso_rec(left, right) == same
            agreed += same and left is not right
        assert agreed > len(trees)


class TestIsoAtRank:
    def test_leaves_at_rank_one(self):
        assert iso_at_rank(LEAF, LEAF, Ordinal.from_int(1))
        assert not iso_at_rank(LEAF, LEAF, Ordinal.from_int(2))

    def test_rank_mismatch_fails(self):
        deep = mt(("a", mt(("a", LEAF, Count(1))), Count(1)))
        shallow = mt(("a", LEAF, Count(1)))
        assert not iso_at_rank(deep, shallow, deep.tree_rank())
        assert iso_at_rank(shallow, shallow, Ordinal.from_int(2))

    # Verdicts on deep and shared trees are collected before asserting, so
    # that a failure never prints the trees: their repr unfolds the DAG.
    def test_deep_chain(self):
        left, right, short = deep_chain(3000), deep_chain(3000), deep_chain(2999)
        verdicts = (
            iso(left, right),
            iso(left, short),
            iso_at_rank(left, right, Ordinal.from_int(3001)),
        )
        assert verdicts == (True, False, True)

    def test_shared_doubling_dag(self):
        left, right = doubling_dag(40), doubling_dag(40)
        other = doubling_dag(40, Count(2))
        alpha = Ordinal.from_int(41)
        verdicts = (
            iso(left, right),
            iso_at_rank(left, right, alpha),
            iso(left, other),
            iso_at_rank(left, other, alpha),
        )
        assert verdicts == (True, True, False, False)


class TestForthBack:
    def test_count_comparisons_and_capping(self):
        assert count_at_least(OMEGA_COUNT, Count(10 ** 9))
        assert not count_at_least(Count(3), OMEGA_COUNT)
        assert count_at_least(Count(3), Count(3))
        assert count_capped(OMEGA_COUNT, 4) == Count(4)
        assert count_capped(Count(2), 4) == Count(2)

    def test_count_two_versus_three(self):
        two = mt(("a", LEAF, Count(2)))
        three = mt(("a", LEAF, Count(3)))
        alpha = Ordinal.from_int(2)
        assert oracle_forth_back(two, three, alpha, 1)
        assert oracle_forth_back(two, three, alpha, 2)
        assert not oracle_forth_back(two, three, alpha, 3)

    def test_omega_versus_finite(self):
        many = mt(("a", LEAF, OMEGA_COUNT))
        five = mt(("a", LEAF, Count(5)))
        alpha = Ordinal.from_int(2)
        for k in range(6):
            assert oracle_forth_back(many, five, alpha, k)
        assert not oracle_forth_back(many, five, alpha, 6)

    def test_vacuous_when_too_few_children(self):
        one = mt(("a", LEAF, Count(1)))
        other = mt(("b", LEAF, Count(1)))
        alpha = Ordinal.from_int(2)
        assert not oracle_forth_back(one, other, alpha, 1)
        assert oracle_forth_back(one, other, alpha, 2)

    def test_wrong_rank_fails_immediately(self):
        assert not forth_condition(LEAF, LEAF, Ordinal.from_int(2), 1)

    def test_label_mismatch(self):
        left = mt(("a", LEAF, Count(1)))
        right = mt(("b", LEAF, Count(1)))
        assert not forth_condition(left, right, Ordinal.from_int(2), 1)

    def test_iso_matches_all_k_matching(self):
        rng = random.Random(72)
        pairs = [
            (random_multitree(rng, 2), random_multitree(rng, 2)) for _ in range(80)
        ]
        for left, right in pairs:
            alpha = left.tree_rank()
            if right.tree_rank() != alpha:
                continue
            all_k = all(oracle_forth_back(left, right, alpha, k) for k in range(1, 7))
            assert all_k == iso_at_rank(left, right, alpha)

    def test_matching_clauses_bound_tree_rank(self):
        rng = random.Random(73)
        for _ in range(200):
            left = random_multitree(rng, 3)
            right = random_multitree(rng, 3)
            for a in range(1, 5):
                alpha = Ordinal.from_int(a)
                if matching_clause(left, right, alpha, 1) and matching_clause(
                    right, left, alpha, 1
                ):
                    assert left.tree_rank() <= alpha + 1
                    assert right.tree_rank() <= alpha + 1

    def test_shared_doubling_dag(self):
        left, right = doubling_dag(40), doubling_dag(40)
        other = doubling_dag(40, OMEGA_COUNT)
        alpha = Ordinal.from_int(41)
        verdicts = [
            (oracle_forth_back(left, right, alpha, k), oracle_forth_back(left, other, alpha, k))
            for k in range(1, 4)
        ]
        assert verdicts == [(True, False)] * 3
        # The children have rank 40, so no match exists below rank 40.
        clauses = [
            matching_clause(left, right, Ordinal.from_int(a), 1) for a in (40, 41)
        ]
        assert clauses == [False, True]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            matching_clause(LEAF, LEAF, Ordinal.from_int(1), -1)
