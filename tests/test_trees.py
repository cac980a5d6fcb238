"""Explicit, symbolic, and multiplicity trees."""

import random

import pytest

from bisimkit.foundations import (
    Count,
    EPSet,
    OMEGA_COUNT,
    ORD_OMEGA,
    ORD_ZERO,
    Ordinal,
    nth_modification,
)
from bisimkit.trees import (
    ATree,
    BTree,
    Chain,
    EMPTY_TREE,
    ExplicitTree,
    Glue,
    LEAF,
    MultiTree,
    root_rank_at_least,
    symbolic_rank,
    tail,
    truncate_symbolic,
    wf_class,
)

EVENS = EPSet("", "10")


def random_explicit_tree(rng: random.Random, max_nodes: int) -> ExplicitTree:
    nodes = [()]
    while len(nodes) < max_nodes and rng.random() < 0.9:
        parent = rng.choice(nodes)
        child = parent + (rng.randint(0, 3),)
        if child not in nodes:
            nodes.append(child)
    return ExplicitTree(frozenset(nodes))


def oracle_node_rank(nodes: frozenset, node: tuple) -> int:
    """Plain recursive rank over an explicitly listed node set."""
    if node not in nodes:
        return 0
    exts = [u for u in nodes if len(u) == len(node) + 1 and u[: len(node)] == node]
    return max((oracle_node_rank(nodes, u) + 1 for u in exts), default=0)


class TestExplicitTrees:
    def test_small_tree_ranks(self):
        tree = ExplicitTree.from_nodes([(), (0,), (0, 0)])
        assert tree.node_rank((0, 0)) == ORD_ZERO
        assert tree.node_rank((0,)) == Ordinal.from_int(1)
        assert tree.node_rank(()) == Ordinal.from_int(2)
        assert tree.tree_rank() == Ordinal.from_int(3)

    def test_missing_node_has_rank_zero(self):
        tree = ExplicitTree.from_nodes([()])
        assert tree.node_rank((5,)) == ORD_ZERO

    def test_empty_tree(self):
        assert EMPTY_TREE.is_empty
        assert EMPTY_TREE.tree_rank() == ORD_ZERO
        assert wf_class(EMPTY_TREE, ORD_ZERO, "eq")

    def test_singleton_tree(self):
        tree = ExplicitTree.from_nodes([()])
        assert tree.tree_rank() == Ordinal.from_int(1)
        assert not root_rank_at_least(tree, Ordinal.from_int(1))

    def test_prefix_closure_enforced(self):
        with pytest.raises(ValueError):
            ExplicitTree(frozenset({(0, 0)}))

    def test_nodes_must_be_tuples(self):
        with pytest.raises(ValueError):
            ExplicitTree(frozenset({"ab"}))

    def test_section(self):
        tree = ExplicitTree.from_nodes([(), (0,), (0, 0), (1,)])
        assert tree.section(0) == ExplicitTree.from_nodes([(), (0,)])
        assert tree.section(1) == ExplicitTree.from_nodes([()])
        assert tree.section(7) == EMPTY_TREE

    def test_tail(self):
        assert tail((3, 1, 4)) == (1, 4)
        with pytest.raises(ValueError):
            tail(())

    def test_rank_matches_plain_recursion(self):
        rng = random.Random(51)
        for _ in range(40):
            tree = random_explicit_tree(rng, 25)
            for node in tree.nodes:
                assert tree.node_rank(node) == Ordinal.from_int(
                    oracle_node_rank(tree.nodes, node)
                )

    def test_tail_rank_lemma(self):
        rng = random.Random(52)
        for _ in range(40):
            tree = random_explicit_tree(rng, 25)
            for node in tree.nodes:
                if not node:
                    continue
                assert tree.node_rank(node) == tree.section(node[0]).node_rank(
                    tail(node)
                )

    def test_letters_may_be_tuples(self):
        letter = (3, "suc", 0)
        tree = ExplicitTree.from_nodes([(), (letter,)])
        assert tree.tree_rank() == Ordinal.from_int(2)
        assert tree.section(letter) == ExplicitTree.from_nodes([()])


class TestMultiTrees:
    def test_leaf_rank(self):
        assert LEAF.is_leaf
        assert LEAF.tree_rank() == Ordinal.from_int(1)

    def test_counts_do_not_change_rank(self):
        one = MultiTree((("a", LEAF, Count(1)),))
        many = MultiTree((("a", LEAF, OMEGA_COUNT),))
        assert one.tree_rank() == many.tree_rank() == Ordinal.from_int(2)

    def test_deep_and_shared_ranks(self):
        chain = LEAF
        for _ in range(3000):
            chain = MultiTree((("a", chain, Count(1)),))
        dag = LEAF
        for _ in range(40):
            dag = MultiTree((("a", dag, Count(1)), ("b", dag, OMEGA_COUNT)))
        ranks = (chain.tree_rank(), dag.tree_rank())
        assert ranks == (Ordinal.from_int(3001), Ordinal.from_int(41))

    def test_total_children_saturates(self):
        tree = MultiTree(
            (("a", LEAF, Count(2)), ("b", LEAF, OMEGA_COUNT))
        )
        assert tree.total_children() == OMEGA_COUNT
        finite = MultiTree((("a", LEAF, Count(2)), ("b", LEAF, Count(3))))
        assert finite.total_children() == Count(5)

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            MultiTree((("a", LEAF, Count(0)),))

    def test_from_mapping(self):
        tree = MultiTree.from_mapping({"a": [(LEAF, Count(2))]})
        assert tree == MultiTree((("a", LEAF, Count(2)),))


class TestSymbolicRanks:
    def test_chain(self):
        assert symbolic_rank(Chain(0)) == (ORD_ZERO, Ordinal.from_int(1))
        assert symbolic_rank(Chain(2)) == (Ordinal.from_int(2), Ordinal.from_int(3))
        assert wf_class(Chain(1), Ordinal.from_int(2), "eq")

    def test_branch_code_tree(self):
        assert symbolic_rank(ATree(EPSet.empty())) == (ORD_ZERO, Ordinal.from_int(1))
        assert symbolic_rank(ATree(EPSet.from_finite([1]))) == (
            Ordinal.from_int(2),
            Ordinal.from_int(3),
        )
        assert symbolic_rank(ATree(EVENS)) == (ORD_OMEGA, ORD_OMEGA + 1)

    def test_glued_modification_tree_rank_split(self):
        finite = BTree(EPSet.from_finite([0, 3]))
        infinite = BTree(EVENS)
        assert symbolic_rank(finite) == (ORD_OMEGA, ORD_OMEGA + 1)
        assert symbolic_rank(infinite) == (ORD_OMEGA + 1, ORD_OMEGA + 2)

    def test_glue(self):
        tree = Glue((Chain(2), Chain(0)))
        assert symbolic_rank(tree) == (Ordinal.from_int(3), Ordinal.from_int(4))
        assert symbolic_rank(Glue(())) == (ORD_ZERO, Ordinal.from_int(1))

    def test_root_rank_threshold(self):
        assert root_rank_at_least(ATree(EVENS), ORD_OMEGA)
        assert not root_rank_at_least(ATree(EVENS), ORD_OMEGA + 1)
        assert root_rank_at_least(BTree(EVENS), ORD_OMEGA + 1)
        assert not root_rank_at_least(BTree(EVENS), ORD_OMEGA + 2)

    def test_wf_class_comparisons(self):
        assert wf_class(Chain(2), Ordinal.from_int(4), "lt")
        assert wf_class(Chain(2), Ordinal.from_int(3), "le")
        assert wf_class(BTree(EVENS), ORD_OMEGA, "gt")
        assert not wf_class(Chain(2), Ordinal.from_int(3), "gt")
        with pytest.raises(ValueError):
            wf_class(Chain(2), Ordinal.from_int(3), "==")


class TestTruncation:
    def test_chain_truncation(self):
        got = truncate_symbolic(Chain(2), 5, 5)
        assert got == ExplicitTree.from_nodes([(), (0,), (0, 0)])
        shallow = truncate_symbolic(Chain(5), 2, 5)
        assert shallow == ExplicitTree.from_nodes([(), (0,), (0, 0)])

    def test_branch_code_truncation(self):
        got = truncate_symbolic(ATree(EPSet.from_finite([1])), 5, 5)
        assert got == ExplicitTree.from_nodes([(), (1,), (1, 0)])

    def test_width_cuts_branch_letters(self):
        got = truncate_symbolic(ATree(EPSet.from_finite([1, 7])), 10, 3)
        assert got == ExplicitTree.from_nodes([(), (1,), (1, 0)])

    def test_full_materialization_matches_symbolic_rank(self):
        cases = [
            Chain(3),
            ATree(EPSet.from_finite([0, 2])),
            Glue((Chain(1), ATree(EPSet.from_finite([2])))),
        ]
        for tree in cases:
            cut = truncate_symbolic(tree, 12, 12)
            assert cut.tree_rank() == symbolic_rank(tree)[1]

    def test_modification_sections_are_branch_code_trees(self):
        x = EPSet("01", "10")
        for n in range(4):
            section = truncate_symbolic(BTree(x), 6, 5).section(n)
            expected = truncate_symbolic(ATree(nth_modification(x, n)), 5, 5)
            assert section == expected

    def test_truncations_grow_monotonically(self):
        tree = BTree(EVENS)
        prev = truncate_symbolic(tree, 2, 2)
        for size in range(3, 7):
            cur = truncate_symbolic(tree, size, size)
            assert prev.nodes <= cur.nodes
            prev = cur

    def test_degenerate_cuts(self):
        assert truncate_symbolic(BTree(EVENS), 0, 5) == ExplicitTree.from_nodes([()])
        assert truncate_symbolic(ATree(EVENS), 5, 0) == ExplicitTree.from_nodes([()])
        with pytest.raises(ValueError):
            truncate_symbolic(Chain(2), -1, 3)


class TestModifications:
    def test_digit_flips(self):
        x = EPSet("", "10")
        assert nth_modification(x, 5) == x.xor_finite([0, 2])
        assert nth_modification(x, 0) == x

    def test_involution(self):
        rng = random.Random(53)
        for _ in range(50):
            x = EPSet(
                "".join(rng.choice("01") for _ in range(rng.randint(0, 4))),
                "".join(rng.choice("01") for _ in range(rng.randint(1, 4))),
            )
            n = rng.randint(0, 40)
            assert nth_modification(nth_modification(x, n), n) == x

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            nth_modification(EVENS, -1)
