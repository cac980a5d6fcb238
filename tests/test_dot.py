"""DOT emission: fixed layouts and determinism."""

import random
from fractions import Fraction
from itertools import islice

from bisimkit.dot import (
    explicit_tree_dot,
    lts_dot,
    multitree_dot_lines,
    nlmp_dot,
    symbolic_tree_lines,
)
from bisimkit.dot import _quote
from bisimkit.expansion import omega_expand
from bisimkit.foundations import Count, EPSet, OMEGA_COUNT
from bisimkit.gen import random_multitree
from bisimkit.lts import PointedLTS
from bisimkit.nlmp import PointmassNLMP, SubProbMeasure
from bisimkit.trees import ATree, BTree, ExplicitTree, MultiTree

GOLDEN_EVEN_CODE_TREE = """digraph tree {
  "e";
  "e.0";
  "e.2";
  "e.4";
  "e.2.0";
  "e.4.0";
  "e.2.0.0";
  "e.4.0.0";
  "e.4.0.0.0";
  "e.4.0.0.0.0";
  "e" -> "e.0";
  "e" -> "e.2";
  "e" -> "e.4";
  "e.2" -> "e.2.0";
  "e.4" -> "e.4.0";
  "e.2.0" -> "e.2.0.0";
  "e.4.0" -> "e.4.0.0";
  "e.4.0.0" -> "e.4.0.0.0";
  "e.4.0.0.0" -> "e.4.0.0.0.0";
}
"""


def test_even_branch_code_figure_portion():
    # Branches of lengths 1, 3, 5 below one root: the visible start of the
    # even-set code tree.
    lines = symbolic_tree_lines(ATree(EPSet("", "10")), 5, 5)
    assert "".join(lines) == GOLDEN_EVEN_CODE_TREE


def test_deterministic_across_runs():
    tree = BTree(EPSet.from_finite([0, 2]))
    first, second = symbolic_tree_lines(tree, 3, 4), symbolic_tree_lines(tree, 3, 4)
    assert "".join(first) == "".join(second)


def test_lts_counts_and_root_marker():
    lts = PointedLTS(
        ("a",), ("s", "t"), "s", frozenset({("s", "a", "t"), ("t", "a", "t")})
    )
    text = lts_dot(lts)
    assert text.count("->") == 2
    assert text.count("peripheries=2") == 1
    assert '"s" -> "t" [label="a"];' in text


def test_multitree_multiplicity_annotations():
    leaf = MultiTree()
    tree = MultiTree((("a", leaf, OMEGA_COUNT), ("b", leaf, Count(3))))
    text = "".join(multitree_dot_lines(tree))
    assert '[label="a*omega"]' in text
    assert '[label="b*3"]' in text
    assert text.count("->") == 2


def recursive_multitree_dot(tree: MultiTree) -> str:
    """The former recursive emitter, kept as the oracle for the stack walk."""
    lines = ["digraph multitree {"]
    counter = [0]

    def walk(sub: MultiTree) -> str:
        name = f"n{counter[0]}"
        counter[0] += 1
        lines.append(f"  {_quote(name)};")
        for label, child, count in sub.children:
            child_name = walk(child)
            lines.append(
                f"  {_quote(name)} -> {_quote(child_name)} [label={_quote(f'{label}*{count}')}];"
            )
        return name

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_multitree_matches_the_recursive_oracle():
    rng = random.Random(41)
    trees = [MultiTree(), MultiTree((("a", MultiTree(), Count(1)),))] + [
        random_multitree(rng, 4, ("a", 'q"\\', "\u00e9"), 3) for _ in range(150)
    ]
    verdicts = [
        "".join(multitree_dot_lines(tree)) == recursive_multitree_dot(tree) for tree in trees
    ]
    assert verdicts == [True] * len(verdicts)


def test_multitree_of_a_deep_chain():
    tree = MultiTree()
    for _ in range(3000):
        tree = MultiTree((("a", tree, Count(1)),))
    lines = "".join(multitree_dot_lines(tree)).splitlines()
    assert len(lines) == 2 + 3001 + 3000
    assert lines[3002] == '  "n2999" -> "n3000" [label="a*1"];'
    assert lines[-2] == '  "n0" -> "n1" [label="a*1"];'


def test_multitree_lines_are_lazy():
    # The 40-rung ladder's unfolding has 2**40 nodes, so only an emitter that
    # yields as it walks returns its first lines.
    rungs = 40
    states = tuple(f"{rail}{i}" for rail in "lr" for i in range(rungs + 1))
    edges = frozenset(
        edge
        for i in range(rungs)
        for edge in (
            (f"l{i}", "a", f"l{i + 1}"),
            (f"l{i}", "b", f"r{i + 1}"),
            (f"r{i}", "a", f"l{i + 1}"),
            (f"r{i}", "a", f"r{i + 1}"),
        )
    )
    tree = omega_expand(PointedLTS(("a", "b"), states, "l0", edges), "l0")
    lines = list(islice(multitree_dot_lines(tree), 5))
    assert lines == ["digraph multitree {\n"] + [f'  "n{i}";\n' for i in range(4)]


def test_nlmp_measure_hubs():
    nlmp = PointmassNLMP(
        ("a",),
        ("s", "t"),
        {
            ("s", "a"): frozenset(
                {SubProbMeasure.from_mapping({"t": Fraction(1, 2)})}
            )
        },
    )
    text = nlmp_dot(nlmp)
    assert '"s:a:0" [shape=point];' in text
    assert '"s:a:0" -> "t" [label="1/2"];' in text


def test_quoting_of_awkward_ids():
    lts = PointedLTS(("a",), ('s"1',), 's"1', frozenset())
    assert '"s\\"1" [peripheries=2];' in lts_dot(lts)


def test_explicit_tree_of_single_root():
    assert explicit_tree_dot(ExplicitTree.from_nodes([()])) == 'digraph tree {\n  "e";\n}\n'
