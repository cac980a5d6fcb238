"""File-format codecs: round trips and precise rejection messages."""

import contextlib
import io
import json
import os
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bisimkit import jsonio
from bisimkit.cli import VERBS, main
from bisimkit.foundations import Count, EPSet, OMEGA_COUNT, Ordinal
from bisimkit.gen import random_epset, random_explicit_tree, random_lts, random_multitree
from bisimkit.jsonio import (
    decode_multitree,
    formula_to_json,
    multitree_json_chunks,
    multitree_to_json,
    nlmp_to_json,
    parse_carrier,
    parse_formula,
    parse_lts,
    parse_multitree,
    parse_nlmp,
    parse_tree,
    read_json_file,
    read_multitree,
    read_text,
    tree_to_json,
)
from bisimkit.lts import And, CharSet, Dia, Neg, Or, PointedLTS, RankAtLeast, TOP, Top
from bisimkit.nlmp import PointmassNLMP, SubProbMeasure, ZERO_MEASURE
from bisimkit.treeiso import canon, class_ids
from bisimkit.trees import ATree, BTree, Chain, ExplicitTree, Glue, LEAF, MultiTree, postorder


def lts_to_json(lts: PointedLTS) -> dict:
    return {
        "labels": list(lts.labels),
        "states": list(lts.states),
        "root": lts.root,
        "edges": [list(edge) for edge in sorted(lts.edges)],
    }


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
                        {t: (1, denom) for t in support}
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
        inner = MultiTree((("b", leaf, Count(2)),))
        tree = MultiTree((("a", leaf, OMEGA_COUNT), ("a", inner, Count(1))))
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
            str(multitree_json_chunks(tree))
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
        assert str(multitree_json_chunks(tree)) == '{"a": [[' * 3000 + "{}" + ', "omega"]]}' * 3000
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


def oracle_tree_to_json(tree) -> dict:
    """The former recursive tree writer, kept as the oracle for tree_to_json."""
    if isinstance(tree, ExplicitTree):
        nodes = sorted(tree.nodes, key=lambda u: (len(u), u))
        for node in nodes:
            if not all(isinstance(v, int) for v in node):
                raise ValueError(f"node {node!r} has letters outside the naturals")
        return {"kind": "explicit", "nodes": [list(u) for u in nodes]}
    if isinstance(tree, Chain):
        return {"kind": "chain", "k": tree.length}
    if isinstance(tree, ATree):
        return {"kind": "A", "set": tree.param.to_json()}
    if isinstance(tree, BTree):
        return {"kind": "B", "set": tree.param.to_json()}
    if isinstance(tree, Glue):
        return {"kind": "glue", "children": [oracle_tree_to_json(p) for p in tree.parts]}
    raise ValueError(f"not a tree value: {tree!r}")


def oracle_formula_to_json(phi) -> dict:
    """The former recursive formula writer, kept as the oracle for formula_to_json."""
    if isinstance(phi, Top):
        return {"op": "top"}
    if isinstance(phi, Neg):
        return {"op": "neg", "sub": oracle_formula_to_json(phi.sub)}
    if isinstance(phi, And):
        return {"op": "and", "subs": [oracle_formula_to_json(s) for s in phi.subs]}
    if isinstance(phi, Or):
        return {"op": "or", "subs": [oracle_formula_to_json(s) for s in phi.subs]}
    if isinstance(phi, Dia):
        return {"op": "dia", "label": phi.label, "sub": oracle_formula_to_json(phi.sub)}
    if isinstance(phi, RankAtLeast):
        return {"op": "rank_at_least", "bound": phi.bound.to_json()}
    if isinstance(phi, CharSet):
        return {"op": "char_set", "set": phi.param.to_json()}
    raise ValueError(f"not a formula value: {phi!r}")


NOT_TREES = (None, 7, "leaf", (Chain(1),), ExplicitTree(frozenset({(), ("x",)})))
NOT_FORMULAS = (None, 7, "top", Chain(1), RankAtLeast(5))


def random_shared_tree(rng: random.Random, pool: list, depth: int):
    """Glue over chains, A, B and explicit trees; a part already built is
    reused now and then, so some parts are shared, and a few are no tree."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    kind = rng.randrange(5 if depth else 4)
    if kind == 0:
        tree = Chain(rng.randrange(4))
    elif kind == 1:
        tree = rng.choice((ATree, BTree))(random_epset(rng))
    elif kind == 2:
        tree = random_explicit_tree(rng, 5)
    elif kind == 3:
        tree = rng.choice(NOT_TREES) if rng.random() < 0.4 else Chain(0)
    else:
        parts = (random_shared_tree(rng, pool, depth - 1) for _ in range(rng.randrange(4)))
        tree = Glue(tuple(parts))
    pool.append(tree)
    return tree


def random_shared_formula(rng: random.Random, pool: list, depth: int):
    """A formula over every operator whose subformulas are sometimes shared,
    with a few atoms that are no formula."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    kind = rng.randrange(6 if depth else 3)
    if kind == 0:
        phi = rng.choice((TOP, Top()))
    elif kind == 1:
        bound = Ordinal.from_int(rng.randrange(3))
        phi = rng.choice((RankAtLeast(bound), CharSet(random_epset(rng))))
    elif kind == 2:
        phi = rng.choice(NOT_FORMULAS) if rng.random() < 0.4 else TOP
    elif kind == 3:
        phi = Neg(random_shared_formula(rng, pool, depth - 1))
    elif kind == 4:
        phi = Dia(rng.choice("ab"), random_shared_formula(rng, pool, depth - 1))
    else:
        subs = (random_shared_formula(rng, pool, depth - 1) for _ in range(rng.randrange(4)))
        phi = rng.choice((And, Or))(tuple(subs))
    pool.append(phi)
    return phi


def written(write, value):
    """The text a writer's document dumps to, or the error it raises."""
    try:
        return json.dumps(write(value))
    except Exception as exc:
        return type(exc), str(exc)


class TestWritersMatchRecursiveOracles:
    @pytest.mark.parametrize(
        "write, oracle, draw",
        [
            (tree_to_json, oracle_tree_to_json, random_shared_tree),
            (formula_to_json, oracle_formula_to_json, random_shared_formula),
        ],
        ids=["tree", "formula"],
    )
    def test_same_document_or_same_error(self, write, oracle, draw):
        rng = random.Random(33)
        outcomes = []
        for _ in range(1500):
            value = draw(rng, [], 4)
            outcomes.append(written(write, value))
            assert outcomes[-1] == written(oracle, value), value
        errors = [got for got in outcomes if isinstance(got, tuple)]
        assert 100 < len(errors) < 1400

    def test_shared_and_explicit_parts_are_written(self):
        shared = Glue((Chain(2), ExplicitTree.from_nodes([(), (0,)])))
        tree = Glue((shared, ATree(EPSet("", "1")), shared))
        data = tree_to_json(tree)
        assert data["children"][0] is data["children"][2]
        assert data["children"][0]["children"][1] == {"kind": "explicit", "nodes": [[], [0]]}
        assert json.dumps(data) == json.dumps(oracle_tree_to_json(tree))

    def test_the_leftmost_culprit_is_named(self):
        with pytest.raises(ValueError, match=r"not a tree value: 1$"):
            tree_to_json(Glue((Glue((Chain(0), 1)), 2)))
        with pytest.raises(ValueError, match=r"not a formula value: 1$"):
            formula_to_json(And((Neg(Dia("a", 1)), 2)))

    def test_deep_glue_does_not_recurse(self):
        tree = Chain(0)
        for _ in range(5000):
            tree = Glue((tree,))
        data, depth = tree_to_json(tree), 0
        while data["kind"] == "glue":
            (data,), depth = data["children"], depth + 1
        assert (depth, data) == (5000, {"kind": "chain", "k": 0})

    def test_deep_negation_does_not_recurse(self):
        phi = TOP
        for _ in range(5000):
            phi = Neg(phi)
        data, depth = formula_to_json(phi), 0
        while data["op"] == "neg":
            data, depth = data["sub"], depth + 1
        assert (depth, data) == (5000, {"op": "top"})


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


SCHEMA_KEYS = [
    "labels", "states", "root", "edges", "trans", "carrier", "kind", "nodes",
    "k", "set", "children", "prefix", "period", "op", "sub", "subs", "label",
    "bound", "a", "s0", "s1",
]
ODD_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2**70, -(2**70), 1.5, -0.0, float("nan"), float("inf")]),
    st.sampled_from(SCHEMA_KEYS),
    st.sampled_from([
        "", "omega", "1/2", "1/0", "-1/2", "3/-4", "1/2/3", "01", "10", "x",
        "top", "neg", "and", "dia", "rank_at_least", "char_set", "explicit",
        "chain", "A", "B", "glue", "\u00e9", "1" * 5000,
    ]),
)
JSON_VALUES = st.recursive(
    ODD_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(SCHEMA_KEYS), inner, max_size=5),
    ),
    max_leaves=25,
)
_TOP = {"op": "top"}
# One valid document per parser; the test replaces parts of it, so that
# the checks past each parser's outer shape are reached too.
VALID = {
    "parse_carrier": {"carrier": ["s0", "s1"]},
    "parse_epset": {"prefix": "1", "period": "01"},
    "parse_formula": {"op": "and", "subs": [
        {"op": "dia", "label": "a", "sub": _TOP},
        {"op": "neg", "sub": {"op": "rank_at_least", "bound": [[1, 2], [0, 1]]}},
        {"op": "or", "subs": [{"op": "char_set", "set": {"prefix": "", "period": "1"}}]},
    ]},
    "parse_lts": lts_to_json(random_lts(random.Random(3), 4)),
    "parse_multitree": {"a": [[{}, 2], [{"b": [[{}, "omega"]]}, 1]], "b": [[{}, 1]]},
    "parse_nlmp": nlmp_to_json(random_nlmp(random.Random(5))),
    "parse_tree": {"kind": "glue", "children": [
        {"kind": "A", "set": {"prefix": "1", "period": "01"}},
        {"kind": "chain", "k": 2},
        {"kind": "explicit", "nodes": [[], [0], [0, 1]]},
    ]},
}


def _paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, sub in items:
            yield from _paths(sub, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def malformed(data, name: str) -> object:
    """A parser's valid document, or any JSON value, with up to three parts replaced."""
    document = VALID[name]
    if data.draw(st.booleans()):
        document = data.draw(JSON_VALUES)
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(_paths(document))))
        document = _replaced(document, path, data.draw(JSON_VALUES))
    return document


class TestMalformedInput:
    """Every parser answers any JSON value with a value or a ValueError.

    The CLI maps ValueError to exit 2; any other exception would be
    reported as an internal error (exit 3).
    """

    @pytest.mark.parametrize("name", sorted(VALID))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_parsers_raise_only_value_errors(self, name, data):
        document = malformed(data, name)
        try:
            getattr(jsonio, name)(document)
        except ValueError:
            pass

    @pytest.mark.parametrize("bound", [[[True, 1]], [[0, True]], [[1, 1], [0, False]]])
    def test_booleans_are_not_ordinal_terms(self, bound):
        with pytest.raises(ValueError, match="bad ordinal term"):
            parse_formula({"op": "rank_at_least", "bound": bound})

    def test_every_parser_is_fuzzed(self):
        assert sorted(VALID) == [n for n in jsonio.__all__ if n.startswith("parse_")]


# Each verb's command line, with every file argument named by the parser
# whose valid document goes there.
CLI_LINES = {
    "bisim": ["bisim", "parse_lts", "parse_lts", "--witness"],
    "nlmp-bisim": ["nlmp-bisim", "parse_nlmp", "s0", "s1", "--other", "parse_nlmp"],
    "rank": ["rank", "parse_lts"],
    "expand": ["expand", "parse_lts"],
    "iso": ["iso", "parse_multitree", "parse_multitree", "--witness"],
    "e0 check": ["e0", "check", "parse_epset", "parse_epset"],
    "e0 reduce": ["e0", "reduce", "parse_epset", "--depth", "3", "--width", "3"],
    "e0 witness": ["e0", "witness", "parse_epset", "parse_epset", "--bound", "4"],
    "substructure": ["substructure", "parse_nlmp", "--carrier", "parse_carrier"],
    "substructure --state": ["substructure", "parse_nlmp", "--state", "s0", "--bound", "2"],
    "eval": ["eval", "parse_formula", "parse_tree"],
    "export-dot": ["export-dot", "parse_tree"],
}


class TestMalformedFilesThroughTheCLI:
    """Every verb answers a malformed file with exit 0, 1 or 2, never 3."""

    @pytest.mark.parametrize("verb", sorted(CLI_LINES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_no_internal_errors(self, verb, data):
        line = CLI_LINES[verb]
        with tempfile.TemporaryDirectory() as folder:

            def saved(name: str, document: object) -> str:
                path = os.path.join(folder, name)
                Path(path).write_text(json.dumps(document), encoding="utf-8")
                return path

            valid = [saved(f"{i}.json", VALID[arg]) if arg in VALID else arg for i, arg in enumerate(line)]
            for i, arg in enumerate(line):
                if arg in VALID:
                    argv = valid[:i] + [saved("bad.json", malformed(data, arg))] + valid[i + 1:]
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        code = main(argv)
                    assert code in (0, 1, 2), (argv, err.getvalue())
                    assert "internal error" not in err.getvalue()

    def test_every_verb_with_files_is_fuzzed(self):
        assert {line[0] for line in CLI_LINES.values()} == set(VERBS) - {"verify"}


def recursive_parse_multitree(data: object) -> MultiTree:
    """The former recursive parser, kept as the oracle for the shared one."""
    if not isinstance(data, dict):
        raise ValueError("multiplicity tree JSON must be an object keyed by label")
    entries = []
    for label, children in data.items():
        if not isinstance(children, list):
            raise ValueError(f"children under {label!r} must be a list")
        for i, pair in enumerate(children):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(
                    f"child {i} under {label!r} must be [subtree, multiplicity]"
                )
            entries.append(
                (label, recursive_parse_multitree(pair[0]), Count.from_json(pair[1]))
            )
    return MultiTree(tuple(entries))


def parse_outcome(parse, document) -> tuple:
    try:
        return ("tree", parse(document))
    except ValueError as err:
        return ("error", str(err))


def shuffled_split_json(data: dict, rng: random.Random) -> dict:
    """A copy with labels and children permuted and finite counts split."""
    labels = list(data)
    rng.shuffle(labels)
    copy = {}
    for label in labels:
        children = []
        for sub, count in data[label]:
            sub = shuffled_split_json(sub, rng)
            if isinstance(count, int) and count > 1:
                children += [[sub, 1], [sub, count - 1]]
            else:
                children.append([sub, count])
        rng.shuffle(children)
        copy[label] = children
    return copy


class TestSharedMultiTreeParsing:
    """parse_multitree against the recursive parser it replaced."""

    def test_trees_match_the_recursive_parser(self):
        rng = random.Random(71)
        verdicts = []
        for _ in range(300):
            tree = random_multitree(rng, 5, ("a", "b", "c"), 3)
            shared = multitree_to_json(tree)  # one dict per distinct node
            for document in (
                shared,
                json.loads(json.dumps(shared)),
                shuffled_split_json(shared, rng),
            ):
                parsed = parse_multitree(document)
                verdicts.append(parsed == recursive_parse_multitree(document))
            verdicts.append(multitree_to_json(parse_multitree(shared)) == shared)
        assert verdicts == [True] * len(verdicts)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_first_error_matches_the_recursive_parser(self, data):
        document = malformed(data, "parse_multitree")
        assert parse_outcome(parse_multitree, document) == parse_outcome(
            recursive_parse_multitree, document
        )

    @pytest.mark.parametrize("odd", [[1], {}, 1, True, 1.0, 0, -1, "1", "omega", None])
    def test_counts_are_checked_alike_when_reused(self, odd):
        inner = {"b": [[{}, 1]]}
        documents = [
            {"a": [[{}, 1], [{}, odd]]},
            {"a": [[{}, odd], [{}, 1]]},
            {"a": [[inner, 1], [inner, odd], ["x", 1]]},
            {"a": [[{}, "omega"], [{}, odd]], "b": [[{}, 2], [{}, 1], 3]},
            {"a": [[{}, 0], [{"c": 5}, odd]]},
            # Pair 0's count is read before pair 1's subtree.
            {"a": [[{}, odd], [{"c": 5}, 1]]},
        ]
        for document in documents:
            assert parse_outcome(parse_multitree, document) == parse_outcome(
                recursive_parse_multitree, document
            ), document

    def test_a_shared_dict_dag_parses_once_per_dict(self):
        document: dict = {}
        for _ in range(40):
            document = {"a": [[document, 1], [document, 2]]}
        tree = parse_multitree(document)
        assert len(postorder(tree)) == 41
        node = tree
        while node.children:
            (_, left, one), (_, right, two) = node.children
            assert (left is right, one, two) == (True, Count(1), Count(2))
            node = left

    def test_a_deep_dict_does_not_recurse(self):
        document: dict = {}
        for _ in range(3000):
            document = {"a": [[document, "omega"]]}
        tree, depth = parse_multitree(document), 0
        while tree.children:
            (label, tree, count), = tree.children
            assert (label, count) == ("a", OMEGA_COUNT)
            depth += 1
        assert depth == 3000

    def test_a_dict_holding_itself_is_rejected(self):
        document: dict = {"a": []}
        document["a"].append([{"b": [[document, 1]]}, 1])
        with pytest.raises(ValueError, match="contains itself"):
            parse_multitree(document)


def read_parsed(path: str) -> MultiTree:
    return parse_multitree(read_json_file(path))


def text_with_repeats(value, rng: random.Random) -> str:
    """JSON text of value in which objects may repeat one of their labels."""
    if isinstance(value, dict):
        pairs = list(value.items())
        if pairs and rng.random() < 0.5:
            label = rng.choice(pairs)[0]
            other = rng.choice([[], [[{}, 1]], [[{}, 0]], 5, {}, [[{"b": []}, "omega"]]])
            pairs.insert(rng.randint(0, len(pairs)), (label, other))
        return "{" + ", ".join(
            f"{json.dumps(label)}: {text_with_repeats(sub, rng)}" for label, sub in pairs
        ) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(text_with_repeats(sub, rng) for sub in value) + "]"
    return json.dumps(value)


def read_structural(path: str) -> MultiTree:
    """export-dot's reader: decode_multitree without a table, else parse_multitree."""
    tree, data = decode_multitree(path, read_text(path), None)
    return parse_multitree(data) if tree is None else tree


def canon_outcome(read, path: str) -> tuple:
    """parse_outcome with the tree given by its canonical string."""
    kind, value = parse_outcome(read, path)
    return (kind, canon(value)) if kind == "tree" else (kind, value)


class TestReadMultiTreeFromFiles:
    """Both file readers against parse_multitree of the decoded file.

    export-dot's reader, decode_multitree without a table, must build an
    equal tree; iso's, read_multitree into a table of classes, an
    isomorphic one. Both must raise the same error text.
    """

    @staticmethod
    def assert_alike(tmp_path, text: str | bytes) -> tuple:
        path = tmp_path / "tree.json"
        if isinstance(text, str):
            text = text.encode("utf-8")
        path.write_bytes(text)
        got = parse_outcome(read_structural, str(path))
        assert got == parse_outcome(read_parsed, str(path)), text[:200]
        assert canon_outcome(lambda p: read_multitree(p, {}), str(path)) == canon_outcome(
            read_parsed, str(path)
        ), text[:200]
        return got

    def test_valid_documents(self, tmp_path):
        rng = random.Random(83)
        for _ in range(200):
            shared = multitree_to_json(random_multitree(rng, 5, ("a", "b", "c"), 3))
            copy = shuffled_split_json(shared, rng)
            for document in (shared, copy):
                assert self.assert_alike(tmp_path, json.dumps(document))[0] == "tree"
            left, right = tmp_path / "left.json", tmp_path / "right.json"
            left.write_text(json.dumps(shared))
            right.write_text(json.dumps(copy))
            classes: dict = {}
            assert read_multitree(str(left), classes) is read_multitree(str(right), classes)
        for text in ("{}", '{"a": []}', '{"a": [[{}, 1]], "b": [[{"a": [[{}, "omega"]]}, 2]]}'):
            assert self.assert_alike(tmp_path, text)[0] == "tree"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_malformed_documents(self, tmp_path_factory, data):
        document = malformed(data, "parse_multitree")
        self.assert_alike(tmp_path_factory.mktemp("m"), json.dumps(document))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_syntax_error_after_a_shape_error(self, tmp_path_factory, data):
        # The shape error comes first in the text, the syntax error later;
        # the decoder meets the shape error only if it reads on.
        document = data.draw(st.sampled_from([
            {"a": 5, "b": [[{}, 1]]},
            {"a": [[{}, 0]], "b": [[{}, 1], [{}, 2]]},
            {"a": [[{"c": [[{}, "x"]]}, 1]], "b": [[{}, 1]]},
            {"a": [[{}]], "b": [[{"c": []}, 1]]},
            malformed(data, "parse_multitree"),
        ]))
        text = json.dumps(document)
        at = data.draw(st.integers(len(text) // 2, len(text)))
        junk = data.draw(st.sampled_from(["", "]", "}", ",", "{", "x", '"', "[[{}, 1]]"]))
        cut = data.draw(st.integers(0, 2))
        self.assert_alike(tmp_path_factory.mktemp("s"), text[:at] + junk + text[at + cut:])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32))
    def test_repeated_labels(self, tmp_path_factory, data, seed):
        text = text_with_repeats(malformed(data, "parse_multitree"), random.Random(seed))
        self.assert_alike(tmp_path_factory.mktemp("r"), text)

    def test_repeated_labels_keep_the_last_value_at_the_first_place(self, tmp_path):
        cases = {
            '{"a": 5, "b": [[{}, 2]], "a": [[{}, 1]]}': True,
            '{"a": [[{}, 1]], "a": [[{}, 0]]}': False,
            '{"a": [[{"c": 1, "c": [[{}, 3]]}, 1]], "b": []}': True,
            '{"a": [[{}, 1]], "a": "x"}': False,
        }
        for text, valid in cases.items():
            outcome = self.assert_alike(tmp_path, text)
            assert (outcome[0] == "tree") == valid, text
        path = tmp_path / "order.json"
        path.write_text('{"b": [[{}, 1]], "a": [[{}, 2]], "b": [[{}, 3]]}')
        for tree in (read_structural(str(path)), read_multitree(str(path), {})):
            assert [(label, count) for label, _, count in tree.children] == [
                ("b", Count(3)),
                ("a", Count(2)),
            ]

    def test_deep_documents(self, tmp_path):
        for depth, outcome in ((100, "tree"), (3000, "error")):
            text = '{"a": [[' * depth + "{}" + ', "omega"]]}' * depth
            assert self.assert_alike(tmp_path, text)[0] == outcome
        assert self.assert_alike(tmp_path, text)[1].endswith("nests too deeply to decode")

    def test_other_failures(self, tmp_path):
        for text in (
            "", "[]", "1", '"x"', "null", '{"a": [[{}, 1]]} x', b"{\xff}",
            '{"a": [[{}, 1e999]]}', '{"a": ""}', '{"a": [[{}, 1]], "b": ""}',
            '{"a": [[[], 1]]}', '{"a": [["ab", 1]]}', '{"a": ["ab"]}', '{"a": [[{}, {}]]}',
        ):
            assert self.assert_alike(tmp_path, text)[0] == "error"
        missing = str(tmp_path / "missing.json")
        for read in (read_structural, lambda p: read_multitree(p, {})):
            assert parse_outcome(read, missing) == parse_outcome(read_parsed, missing)

    def test_shared_subtrees_are_built_once(self, tmp_path):
        path = tmp_path / "dag.json"
        path.write_text(str(multitree_json_chunks(doubling_dag(16))))
        tree = read_structural(str(path))
        assert len(postorder(tree)) == 17
        assert tree == parse_multitree(multitree_to_json(doubling_dag(16)))
        classes: dict = {}
        tree = read_multitree(str(path), classes)
        assert len(postorder(tree)) == 17
        assert read_multitree(str(path), classes) is tree


class TestClassTable:
    """iso's reader: one node per isomorphism class, in a table that every
    file read into it shares."""

    def test_representatives_agree_with_the_structural_dags(self, tmp_path):
        rng = random.Random(89)
        verdicts = []
        for i in range(300):
            shared = multitree_to_json(random_multitree(rng, 5, ("a", "b", "c"), 3))
            if i % 3:
                other = shuffled_split_json(shared, rng)
            else:
                other = multitree_to_json(random_multitree(rng, 5, ("a", "b", "c"), 3))
            paths = [tmp_path / "left.json", tmp_path / "right.json"]
            for path, document in zip(paths, (shared, other)):
                path.write_text(json.dumps(document))
            classes: dict = {}
            reps = [read_multitree(str(path), classes) for path in paths]
            trees = [parse_multitree(shared), parse_multitree(other)]
            rep_ids, ids = class_ids(*reps), class_ids(*trees)
            same = ids[id(trees[0])] == ids[id(trees[1])]
            verdicts.append((
                rep_ids[id(reps[0])] == rep_ids[id(reps[1])],
                reps[0] is reps[1],
                len(postorder(*reps)),
                len(set(rep_ids.values())),
            ) == (same, same, len(set(ids.values())), len(set(ids.values()))))
        assert verdicts == [True] * len(verdicts)

    def test_a_bad_count_is_caught_once_its_class_is_in_the_table(self, tmp_path):
        # Each bad node sums to the good node's key, so only the check of
        # the node as built can catch it.
        good = tmp_path / "good.json"
        good.write_text('{"b": [[{"a": [[{}, 2]]}, 1]], "c": [[{}, 1]]}')
        bad_texts = (
            '{"b": [[{"a": [[{}, 2], [{}, 0]]}, 1]], "c": [[{}, 1]]}',
            '{"b": [[{"a": [[{}, 1], [{}, 1]]}, 1], [{"a": [[{}, 2]]}, 0]], "c": [[{}, 1]]}',
            '{"b": [[{"a": [[{}, 2]]}, 1]], "c": [[{}, 1], [{}, 0]]}',
        )
        for text in bad_texts:
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            classes: dict = {}
            read_multitree(str(good), classes)
            assert parse_outcome(lambda p: read_multitree(p, classes), str(bad)) == (
                parse_outcome(read_parsed, str(bad))
            ) == ("error", "child multiplicities must be positive")

    def test_an_empty_node_reads_as_the_leaf(self, tmp_path):
        classes: dict = {}
        trees = []
        for text in ("{}", '{"a": []}', '{"a": [[{"b": []}, 1]]}', '{"a": [[{}, 1]]}'):
            path = tmp_path / "tree.json"
            path.write_text(text)
            trees.append(read_multitree(str(path), classes))
        assert trees[0] is trees[1] is LEAF
        assert trees[2] is trees[3]

    def test_the_table_keeps_few_bytes_per_class(self, tmp_path):
        # A root over 4,000 distinct classes. Beyond the nodes that
        # structural consing keeps, the table kept 1.69-1.77 MB with
        # frozenset keys and keeps 0.92-0.95 MB with sorted tuples, on
        # Python 3.10 to 3.13.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"a": [[{"b": [[{}, k]]}, 1] for k in range(1, 4001)]}))
        text = path.read_text()

        def kept(read):
            tracemalloc.start()
            try:
                held = read()
                return tracemalloc.get_traced_memory()[0], held
            finally:
                tracemalloc.stop()

        def into_table():
            classes: dict = {}
            return read_multitree(str(path), classes), classes

        structural, _ = kept(lambda: decode_multitree(str(path), text, None)[0])
        table, (root, classes) = kept(into_table)
        assert (len(classes), len(root.children)) == (4002, 4000)
        assert table - structural <= 1_300_000
