"""Explicit, symbolic, and multiplicity trees."""

import json
import random

import pytest

from bisimkit import gen
from bisimkit.foundations import (
    Count,
    EPSet,
    OMEGA_COUNT,
    ORD_OMEGA,
    ORD_ZERO,
    Ordinal,
    nth_modification,
)
from bisimkit.jsonio import multitree_json_chunks, multitree_to_json
from bisimkit.treeiso import canon_chunks
from bisimkit.trees import (
    ATree,
    BTree,
    Chain,
    ExplicitTree,
    Glue,
    LEAF,
    MultiTree,
    PieceText,
    symbolic_rank,
    truncate_symbolic,
    truncation_levels,
)

EVENS = EPSet("", "10")
EMPTY = ExplicitTree(frozenset())


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

    def test_missing_node_has_rank_zero(self):
        tree = ExplicitTree.from_nodes([()])
        assert tree.node_rank((5,)) == ORD_ZERO

    def test_empty_tree(self):
        assert EMPTY.is_empty
        assert EMPTY.node_rank(()) == ORD_ZERO

    def test_singleton_tree(self):
        tree = ExplicitTree.from_nodes([()])
        assert tree.node_rank(()) == ORD_ZERO

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
        assert tree.section(7) == EMPTY

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
                assert tree.node_rank(node) == tree.section(node[0]).node_rank(node[1:])

    def test_letters_may_be_tuples(self):
        letter = (3, "suc", 0)
        tree = ExplicitTree.from_nodes([(), (letter,)])
        assert tree.node_rank(()) == Ordinal.from_int(1)
        assert tree.section(letter) == ExplicitTree.from_nodes([()])


class TestMultiTrees:
    def test_leaf_rank(self):
        assert not LEAF.children
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
        assert sum((count for _, _, count in tree.children), Count(0)) == OMEGA_COUNT
        finite = MultiTree((("a", LEAF, Count(2)), ("b", LEAF, Count(3))))
        assert sum((count for _, _, count in finite.children), Count(0)) == Count(5)

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            MultiTree((("a", LEAF, Count(0)),))

    @staticmethod
    def doubling_dag(levels: int, bottom: Count = Count(1)) -> MultiTree:
        """Built afresh on each call, so two copies share no node."""
        dag = MultiTree((("a", MultiTree(), bottom),))
        for _ in range(levels - 1):
            dag = MultiTree((("a", dag, Count(1)), ("b", dag, OMEGA_COUNT)))
        return dag

    @staticmethod
    def chain(depth: int, bottom: Count = Count(1)) -> MultiTree:
        tree = MultiTree((("a", MultiTree(), bottom),))
        for _ in range(depth - 1):
            tree = MultiTree((("a", tree, Count(1)),))
        return tree

    def test_shared_and_deep_trees_hash_and_compare_quickly(self):
        # The field-wise walk would visit 2**40 paths, or recurse 3000 deep.
        for build, size in ((self.doubling_dag, 40), (self.chain, 3000)):
            left, right = build(size), build(size)
            other = build(size, OMEGA_COUNT)
            assert left is not right
            assert left == right and hash(left) == hash(right)
            assert left != other and other != right
            assert hash(left) == hash((left.children,))
            assert len({left, right, other}) == 2

    def test_hash_matches_the_field_tuple_after_partial_caching(self):
        inner = self.doubling_dag(5)
        expected = hash((inner.children,))
        outer = MultiTree((("c", inner, Count(3)), ("c", LEAF, Count(1))))
        assert hash(inner) == expected
        assert hash(outer) == hash((outer.children,))

    def test_equality_is_by_fields_not_identity(self):
        assert MultiTree() == LEAF
        assert MultiTree((("a", LEAF, Count(1)),)) != MultiTree((("b", LEAF, Count(1)),))
        assert MultiTree((("a", LEAF, Count(1)),)) != MultiTree((("a", LEAF, Count(2)),))
        assert MultiTree((("a", LEAF, Count(1)),)) != MultiTree()
        assert MultiTree().__eq__(object()) is NotImplemented


class TestPieceTextBuild:
    """Both texts come from one builder, one entry per distinct piece list."""

    def test_equal_pieces_share_one_entry(self, monkeypatch):
        monkeypatch.setattr(PieceText, "INLINE", 0)
        first = MultiTree((("b", LEAF, Count(2)),))
        second = MultiTree((("b", LEAF, Count(2)),))
        split = MultiTree((("b", LEAF, Count(1)), ("b", LEAF, Count(1))))
        assert first == second and first is not second
        tree = MultiTree((("a", first, Count(1)), ("a", second, OMEGA_COUNT)))
        text = multitree_json_chunks(tree)
        # The leaf, both equal nodes, and the root.
        assert len(text.table) == 3
        assert str(text) == json.dumps(multitree_to_json(tree), sort_keys=True)
        # The JSON text tells the split node apart; canon merges its counts,
        # so its entries are one per isomorphism class.
        tree = MultiTree((("a", first, Count(1)), ("c", split, Count(1))))
        assert len(multitree_json_chunks(tree).table) == 4
        assert len(canon_chunks(tree).table) == 3


class TestSymbolicRanks:
    def test_chain(self):
        assert symbolic_rank(Chain(0)) == (ORD_ZERO, Ordinal.from_int(1))
        assert symbolic_rank(Chain(2)) == (Ordinal.from_int(2), Ordinal.from_int(3))
        assert symbolic_rank(Chain(1))[1] == Ordinal.from_int(2)

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
        assert symbolic_rank(ATree(EVENS))[0] >= ORD_OMEGA
        assert not symbolic_rank(ATree(EVENS))[0] >= ORD_OMEGA + 1
        assert symbolic_rank(BTree(EVENS))[0] >= ORD_OMEGA + 1
        assert not symbolic_rank(BTree(EVENS))[0] >= ORD_OMEGA + 2

    def test_wf_class_comparisons(self):
        assert symbolic_rank(Chain(2))[1] < Ordinal.from_int(4)
        assert symbolic_rank(Chain(2))[1] <= Ordinal.from_int(3)
        assert symbolic_rank(BTree(EVENS))[1] > ORD_OMEGA
        assert not symbolic_rank(Chain(2))[1] > Ordinal.from_int(3)


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
            assert cut.node_rank(()) == symbolic_rank(tree)[0]

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


def scan_node_rank(tree: ExplicitTree, node: tuple) -> Ordinal:
    """The former node_rank: one scan of the node set per call."""
    if node not in tree.nodes:
        return ORD_ZERO
    k = len(node)
    return Ordinal.from_int(max(len(u) for u in tree.nodes if u[:k] == node) - k)


def scan_section(tree: ExplicitTree, letter) -> ExplicitTree:
    """The former section: one scan of the node set per call."""
    return ExplicitTree(frozenset(u[1:] for u in tree.nodes if u and u[0] == letter))


class TestExplicitTreeTables:
    """node_rank and section read tables built once per tree."""

    def test_tables_match_the_scans(self):
        rng = random.Random(61)
        for _ in range(300):
            tree = gen.random_explicit_tree(rng, 40)
            off = [(9,), (0, 9), (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9), ("x",)]
            for node in sorted(tree.nodes) + off:
                assert tree.node_rank(node) == scan_node_rank(tree, node), node
            for letter in range(5):
                assert tree.section(letter) == scan_section(tree, letter)
                assert tree.section(letter) is tree.section(letter)

    def test_built_tables_leave_equality_hash_and_repr_alone(self):
        rng = random.Random(62)
        for _ in range(50):
            tree = gen.random_explicit_tree(rng, 30)
            fresh = ExplicitTree(frozenset(tree.nodes))
            tree.node_rank(())
            tree.section(0)
            assert "_heights" in vars(tree) and "_sections" in vars(tree)
            assert tree == fresh and fresh == tree
            assert hash(tree) == hash(fresh)
            assert repr(tree) == repr(fresh)
            assert len({tree, fresh}) == 1

    def test_empty_tree_tables(self):
        tree = ExplicitTree(frozenset())
        assert tree.node_rank(()) == ORD_ZERO
        assert tree.section(0) == EMPTY


def recursive_truncate(tree, depth: int, width: int) -> ExplicitTree:
    """The former truncate_symbolic: node sets built whole, by recursion."""
    if depth < 0 or width < 0:
        raise ValueError("depth and width must be naturals")
    nodes = {()}
    if isinstance(tree, Chain):
        if width >= 1:
            for j in range(1, min(tree.length, depth) + 1):
                nodes.add((0,) * j)
    elif isinstance(tree, ATree):
        if depth >= 1:
            for n in tree.param.elements_below(width):
                for j in range(min(n, depth - 1) + 1):
                    nodes.add((n,) + (0,) * j)
    elif isinstance(tree, BTree):
        if depth >= 1:
            for n in range(width):
                nodes.add((n,))
                if depth >= 2:
                    modified = nth_modification(tree.param, n)
                    for m in modified.elements_below(width):
                        for j in range(min(m, depth - 2) + 1):
                            nodes.add((n, m) + (0,) * j)
    elif isinstance(tree, Glue):
        if depth >= 1:
            for i, part in enumerate(tree.parts[:width]):
                nodes.add((i,))
                for u in recursive_truncate(part, depth - 1, width).nodes:
                    nodes.add((i,) + u)
    else:
        raise TypeError(f"not a symbolic tree: {tree!r}")
    return ExplicitTree(frozenset(nodes))


def random_symbolic_tree(rng: random.Random, nesting: int):
    kind = rng.randrange(4 if nesting else 3)
    if kind == 0:
        return Chain(rng.randrange(7))
    if kind == 1:
        return ATree(gen.random_epset(rng))
    if kind == 2:
        return BTree(gen.random_epset(rng))
    return Glue(tuple(random_symbolic_tree(rng, nesting - 1) for _ in range(rng.randrange(4))))


class TestTruncationLevels:
    """truncation_levels against the former whole-set truncation."""

    def test_levels_are_the_sorted_truncation(self):
        rng = random.Random(63)
        kinds = set()
        for _ in range(2000):
            tree = random_symbolic_tree(rng, 3)
            kinds.add(type(tree).__name__)
            depth, width = rng.randrange(7), rng.randrange(7)
            want = sorted(recursive_truncate(tree, depth, width).nodes, key=lambda u: (len(u), u))
            assert list(truncation_levels(tree, depth, width)) == want, (tree, depth, width)
            assert truncate_symbolic(tree, depth, width).nodes == frozenset(want)
        assert kinds == {"Chain", "ATree", "BTree", "Glue"}

    def test_nested_glue_and_degenerate_cuts(self):
        nested = Glue((Glue((Chain(3), Glue(()))), BTree(EVENS), Glue((ATree(EVENS),))))
        for tree in (nested, Glue(()), Chain(0), BTree(EPSet.empty())):
            for depth, width in ((0, 0), (0, 4), (4, 0), (1, 1), (5, 3), (9, 9)):
                want = sorted(recursive_truncate(tree, depth, width).nodes, key=lambda u: (len(u), u))
                assert list(truncation_levels(tree, depth, width)) == want

    def test_bad_arguments_raise_on_the_call(self):
        for depth, width in ((-1, 3), (3, -1), (-2, -2)):
            with pytest.raises(ValueError, match="depth and width must be naturals"):
                truncation_levels(BTree(EVENS), depth, width)
            with pytest.raises(ValueError, match="depth and width must be naturals"):
                truncate_symbolic(BTree(EVENS), depth, width)
        with pytest.raises(TypeError, match="not a symbolic tree"):
            truncation_levels(ExplicitTree.from_nodes([()]), 2, 2)

    def test_a_long_cut_stops_after_the_last_level(self):
        levels = truncation_levels(BTree(EPSet.from_finite([1, 3])), 10**12, 4)
        assert max(map(len, levels)) == 5


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
