"""File-format codecs: round trips and precise rejection messages."""

import json
import random
from fractions import Fraction

import pytest

from bisimkit.foundations import Count, EPSet, OMEGA_COUNT, Ordinal
from bisimkit.gen import random_multitree
from bisimkit.jsonio import (
    formula_to_json,
    lts_to_json,
    multitree_json_text,
    multitree_to_json,
    nlmp_to_json,
    parse_carrier,
    parse_formula,
    parse_lts,
    parse_multitree,
    parse_nlmp,
    parse_tree,
    parse_uniform,
    read_json_file,
    tree_to_json,
    uniform_to_json,
)
from bisimkit.lts import And, CharSet, Dia, Neg, RankAtLeast, TOP
from bisimkit.nlmp import PointmassNLMP, SubProbMeasure, ZERO_MEASURE
from bisimkit.trees import ATree, BTree, Chain, ExplicitTree, Glue, MultiTree
from bisimkit.uniform import derive_uniform


def measure(**masses) -> SubProbMeasure:
    return SubProbMeasure.from_mapping(
        {state: Fraction(text) for state, text in masses.items()}
    )


def random_nlmp(rng: random.Random) -> PointmassNLMP:
    states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
    labels = ("a", "b")[: rng.randint(1, 2)]
    trans = {}
    for s in states:
        for a in labels:
            if rng.random() < 0.4:
                continue
            bunch = set()
            for _ in range(rng.randint(0, 2)):
                support = rng.sample(states, k=min(len(states), rng.randint(1, 2)))
                denom = rng.randint(2, 5)
                bunch.add(
                    SubProbMeasure.from_mapping(
                        {t: Fraction(1, denom) for t in support}
                    )
                )
            if rng.random() < 0.2:
                bunch.add(ZERO_MEASURE)
            if bunch:
                trans[(s, a)] = frozenset(bunch)
    return PointmassNLMP(labels, states, trans)


class TestLTS:
    def test_round_trip(self):
        data = {
            "labels": ["a", "b"],
            "states": ["s", "t"],
            "root": "s",
            "edges": [["s", "a", "t"], ["t", "b", "t"]],
        }
        lts = parse_lts(data)
        assert lts.root == "s"
        assert lts.successors("s", "a") == ("t",)
        assert parse_lts(lts_to_json(lts)) == lts

    def test_dangling_edge_names_the_edge(self):
        data = {
            "labels": ["a"],
            "states": ["s"],
            "root": "s",
            "edges": [["s", "a", "ghost"]],
        }
        with pytest.raises(ValueError, match="ghost"):
            parse_lts(data)

    def test_missing_and_unknown_keys(self):
        with pytest.raises(ValueError, match="lacks.*root"):
            parse_lts({"labels": [], "states": ["s"], "edges": []})
        with pytest.raises(ValueError, match="unknown keys.*extra"):
            parse_lts(
                {
                    "labels": [],
                    "states": ["s"],
                    "root": "s",
                    "edges": [],
                    "extra": 1,
                }
            )

    def test_malformed_edge(self):
        with pytest.raises(ValueError, match="source, label, target"):
            parse_lts(
                {"labels": ["a"], "states": ["s"], "root": "s", "edges": [["s", "a"]]}
            )


class TestNLMP:
    def test_zero_measure_is_distinct_from_omission(self):
        data = {
            "labels": ["a"],
            "states": ["s", "t"],
            "trans": {"s": {"a": [{}]}},
        }
        nlmp = parse_nlmp(data)
        assert nlmp.measures("s", "a") == frozenset({ZERO_MEASURE})
        assert nlmp.measures("t", "a") == frozenset()

    def test_round_trip_randoms(self):
        rng = random.Random(21)
        for _ in range(40):
            nlmp = random_nlmp(rng)
            again = parse_nlmp(nlmp_to_json(nlmp))
            assert again == nlmp

    def test_zero_denominator(self):
        data = {"labels": ["a"], "states": ["s"], "trans": {"s": {"a": [{"s": "2/0"}]}}}
        with pytest.raises(ValueError, match="zero denominator"):
            parse_nlmp(data)

    def test_unknown_target_named(self):
        data = {"labels": ["a"], "states": ["s"], "trans": {"s": {"a": [{"u": "1/2"}]}}}
        with pytest.raises(ValueError, match="measure 0 at .*'u'"):
            parse_nlmp(data)

    def test_unknown_transition_state_and_label(self):
        base = {"labels": ["a"], "states": ["s"]}
        with pytest.raises(ValueError, match="unknown state 'x'"):
            parse_nlmp({**base, "trans": {"x": {}}})
        with pytest.raises(ValueError, match="unknown label 'b'"):
            parse_nlmp({**base, "trans": {"s": {"b": []}}})


class TestTrees:
    def test_all_kinds_round_trip(self):
        trees = [
            ExplicitTree.from_nodes([(), (0,), (0, 0), (1,)]),
            Chain(4),
            ATree(EPSet("", "10")),
            BTree(EPSet.from_finite([0, 2])),
            Glue((Chain(1), ATree(EPSet.empty()))),
        ]
        for tree in trees:
            assert parse_tree(tree_to_json(tree)) == tree

    def test_explicit_nodes_sorted_on_output(self):
        tree = ExplicitTree.from_nodes([(), (1,), (0,), (0, 2)])
        assert tree_to_json(tree)["nodes"] == [[], [0], [1], [0, 2]]

    def test_orphan_node_rejected(self):
        with pytest.raises(ValueError, match="lacks its parent"):
            parse_tree({"kind": "explicit", "nodes": [[], [0, 0]]})

    def test_glue_of_explicit_rejected(self):
        child = {"kind": "explicit", "nodes": [[]]}
        with pytest.raises(ValueError, match="symbolic"):
            parse_tree({"kind": "glue", "children": [child]})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown tree kind"):
            parse_tree({"kind": "mystery"})


class TestMultiTrees:
    def test_round_trip_with_omega(self):
        leaf = MultiTree()
        tree = MultiTree.from_mapping(
            {"a": [(leaf, OMEGA_COUNT), (MultiTree.from_mapping({"b": [(leaf, Count(2))]}), Count(1))]}
        )
        data = multitree_to_json(tree)
        assert data["a"][0] == [{}, "omega"]
        assert parse_multitree(data) == tree

    def test_rejects_bad_pair_shape(self):
        with pytest.raises(ValueError, match="subtree, multiplicity"):
            parse_multitree({"a": [[{}]]})


def recursive_multitree_to_json(tree: MultiTree) -> dict:
    """The former recursive serializer, kept as the oracle for both codecs."""
    grouped: dict[str, list] = {}
    for label, sub, count in tree.children:
        grouped.setdefault(label, []).append(
            [recursive_multitree_to_json(sub), count.to_json()]
        )
    return {label: grouped[label] for label in sorted(grouped)}


def doubling_dag(levels: int) -> MultiTree:
    """Each node holds the one node below under two labels: 2**levels leaves."""
    tree = MultiTree((("a", MultiTree(), Count(1)),))
    for _ in range(levels - 1):
        tree = MultiTree((("b", tree, OMEGA_COUNT), ("a", tree, Count(2))))
    return tree


def deep_chain(depth: int) -> MultiTree:
    tree = MultiTree()
    for _ in range(depth):
        tree = MultiTree((("a", tree, OMEGA_COUNT),))
    return tree


def text_oracle_inputs() -> list[MultiTree]:
    rng = random.Random(2024)
    leaf = MultiTree()
    one = MultiTree((("x", leaf, Count(1)),))
    return [
        *(random_multitree(rng, 4, ("a", "b", "c"), 3) for _ in range(200)),
        doubling_dag(14),
        MultiTree(
            (
                ('q"uote', leaf, Count(1)),
                ("back\\slash", one, OMEGA_COUNT),
                ("new\nline", leaf, Count(7)),
                ("\u00e9", one, Count(2)),
                ("\U0001f600", leaf, OMEGA_COUNT),
            )
        ),
        MultiTree(
            (
                ("b", one, Count(3)),
                ("a", leaf, OMEGA_COUNT),
                ("b", leaf, Count(1)),
                ("a", one, Count(12)),
                ("b", one, OMEGA_COUNT),
            )
        ),
        leaf,
    ]


class TestMultiTreeText:
    def test_text_matches_dumps_of_the_recursive_oracle(self):
        verdicts = [
            multitree_json_text(tree)
            == json.dumps(recursive_multitree_to_json(tree), sort_keys=True)
            for tree in text_oracle_inputs()
        ]
        assert verdicts == [True] * len(verdicts)

    def test_dicts_match_the_recursive_oracle(self):
        # Compared as unsorted dumps, so the key order must match too.
        verdicts = [
            json.dumps(multitree_to_json(tree))
            == json.dumps(recursive_multitree_to_json(tree))
            for tree in text_oracle_inputs()
        ]
        assert verdicts == [True] * len(verdicts)

    def test_shared_subtrees_share_one_dict(self):
        data = multitree_to_json(doubling_dag(40))
        assert data["a"][0][0] is data["b"][0][0]

    def test_deep_chain_does_not_recurse(self):
        tree = deep_chain(3000)
        assert multitree_json_text(tree) == '{"a": [[' * 3000 + "{}" + ', "omega"]]}' * 3000
        data, depth = multitree_to_json(tree), 0
        while data:
            data, depth = data["a"][0][0], depth + 1
        assert depth == 3000


class TestFormulas:
    def test_round_trip(self):
        phi = And(
            (
                Dia("a", Neg(TOP)),
                RankAtLeast(Ordinal(((1, 1), (0, 2)))),
                CharSet(EPSet("01", "1")),
            )
        )
        assert parse_formula(formula_to_json(phi)) == phi

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown formula op"):
            parse_formula({"op": "box", "sub": {"op": "top"}})


class TestUniform:
    def test_round_trip_from_derivation(self):
        rng = random.Random(22)
        for _ in range(20):
            nlmp = random_nlmp(rng)
            table = derive_uniform(nlmp)
            assert parse_uniform(uniform_to_json(table)) == table

    def test_entry_shape_rejected(self):
        data = {
            "labels": ["a"],
            "states": ["s"],
            "rows": {"s": {"a": [[[0, "1/2"]]]}},
        }
        with pytest.raises(ValueError, match=r"k, mass, target"):
            parse_uniform(data)


class TestFiles:
    def test_carrier(self):
        assert parse_carrier({"carrier": ["s", "t"]}) == ("s", "t")

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_json_file(str(path))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"carrier": ["s"]}))
        assert parse_carrier(read_json_file(str(path))) == ("s",)
