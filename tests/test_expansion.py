"""Expansion into counted-run trees."""

import random

import pytest

from bisimkit.foundations import OMEGA_COUNT, Ordinal
from bisimkit.lts import OmegaLTSCode, PointedLTS, state_rank
from bisimkit.expansion import (
    omega_code_expand,
    omega_expand,
    omega_expand_truncated,
)
from bisimkit.trees import LEAF, MultiTree
from support import chain_lts, random_wf_lts


def recursive_expand(lts: PointedLTS, state, depth=None) -> MultiTree:
    """The expansion by direct recursion, keeping each structurally distinct child."""
    if depth == 0:
        return LEAF
    below = None if depth is None else depth - 1
    entries = []
    for label in lts.labels:
        distinct = []
        for t in lts.successors(state, label):
            sub = recursive_expand(lts, t, below)
            if sub not in distinct:
                distinct.append(sub)
        entries.extend((label, sub, OMEGA_COUNT) for sub in distinct)
    return MultiTree(tuple(entries))


class TestOmegaExpand:
    def test_terminal_expands_to_leaf(self):
        lts = PointedLTS(("a",), ("s",), "s", frozenset())
        assert omega_expand(lts, "s") == LEAF

    def test_chain_expansion(self):
        lts = chain_lts(2)
        inner = MultiTree((("a", LEAF, OMEGA_COUNT),))
        assert omega_expand(lts, "s0") == MultiTree((("a", inner, OMEGA_COUNT),))

    def test_equal_successor_expansions_merge(self):
        lts = PointedLTS(
            ("a",),
            ("s", "t", "u"),
            "s",
            frozenset({("s", "a", "t"), ("s", "a", "u")}),
        )
        assert omega_expand(lts, "s") == MultiTree((("a", LEAF, OMEGA_COUNT),))

    def test_ill_founded_state_rejected(self):
        lts = PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "s")}))
        with pytest.raises(ValueError):
            omega_expand(lts, "s")

    def test_expansion_rank_tracks_state_rank(self):
        rng = random.Random(61)
        for _ in range(30):
            lts = random_wf_lts(rng, rng.randint(1, 6), ("a", "b"), 0.4)
            for s in lts.states:
                rank = state_rank(lts, s)
                assert omega_expand(lts, s).tree_rank() == rank + 1

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            omega_expand(chain_lts(1), "nope")

    def test_agrees_with_recursive_expansion(self):
        rng = random.Random(63)
        for _ in range(30):
            lts = random_wf_lts(rng, rng.randint(1, 6), ("a", "b"), 0.4)
            for s in lts.states:
                assert omega_expand(lts, s) == recursive_expand(lts, s)
                for depth in range(4):
                    assert omega_expand_truncated(lts, s, depth) == recursive_expand(
                        lts, s, depth
                    )

    def test_long_chain(self):
        lts = chain_lts(3000)
        full = omega_expand(lts, "s0").tree_rank()
        cut = omega_expand_truncated(lts, "s0", 2500).tree_rank()
        assert (full, cut) == (Ordinal.from_int(3001), Ordinal.from_int(2501))


class TestTruncatedExpand:
    def test_depth_zero_is_leaf(self):
        lts = PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "s")}))
        assert omega_expand_truncated(lts, "s", 0) == LEAF

    def test_self_loop_unrolls(self):
        lts = PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "s")}))
        one = MultiTree((("a", LEAF, OMEGA_COUNT),))
        two = MultiTree((("a", one, OMEGA_COUNT),))
        assert omega_expand_truncated(lts, "s", 1) == one
        assert omega_expand_truncated(lts, "s", 2) == two

    def test_agrees_with_full_expansion_beyond_rank(self):
        rng = random.Random(62)
        for _ in range(20):
            lts = random_wf_lts(rng, rng.randint(1, 5), ("a", "b"), 0.4)
            full = omega_expand(lts, lts.root)
            assert omega_expand_truncated(lts, lts.root, len(lts.states)) == full

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            omega_expand_truncated(chain_lts(1), "s0", -1)


class TestCodeExpansion:
    def test_code_expand_matches_lts_expand(self):
        code = OmegaLTSCode(0, {"a": frozenset({(0, 1), (1, 2)})})
        lts = chain_lts(2)
        assert omega_code_expand(code) == omega_expand(lts, "s0")

    def test_cyclic_code_rejected(self):
        code = OmegaLTSCode(0, {"a": frozenset({(0, 0)})})
        with pytest.raises(ValueError):
            omega_code_expand(code)
