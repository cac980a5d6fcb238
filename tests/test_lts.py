"""Transition systems, bisimulation fixpoints, ranks, and codes."""

import random
from typing import Mapping

import pytest

from bisimkit import gen
from bisimkit.foundations import ORD_OMEGA, ORD_ZERO, Ordinal
from bisimkit.lts import (
    And,
    CharSet,
    Dia,
    Neg,
    OmegaLTSCode,
    Or,
    PointedLTS,
    RankAtLeast,
    TOP,
    Top,
    UnsupportedFormula,
    bisimilar,
    bounded_bisim,
    code_to_lts,
    eval_formula,
    greatest_bisim,
    identity_rel,
    is_bisimulation,
    rank_formula,
    refine_blocks,
    sat_states,
    state_rank,
    symmetric_closure,
)
from bisimkit.foundations import EPSet
from support import chain_lts, random_shared_formula, random_wf_lts


def random_lts(rng: random.Random, n_states: int, labels: tuple[str, ...], p: float) -> PointedLTS:
    states = tuple(f"q{i}" for i in range(n_states))
    edges = frozenset(
        (s, a, t)
        for s in states
        for a in labels
        for t in states
        if rng.random() < p
    )
    return PointedLTS(labels, states, states[0], edges)


def zigzag_ok(left: PointedLTS, right: PointedLTS, rel: set) -> bool:
    """Definitional check written out independently of the library's."""
    labels = tuple(dict.fromkeys(left.labels + right.labels))
    for s, t in rel:
        for a in labels:
            for s1 in left.successors(s, a):
                if not any((s1, t1) in rel for t1 in right.successors(t, a)):
                    return False
            for t1 in right.successors(t, a):
                if not any((s1, t1) in rel for s1 in left.successors(s, a)):
                    return False
    return True


def oracle_greatest(left: PointedLTS, right: PointedLTS) -> frozenset:
    """Union of every relation passing the definitional check, by brute force."""
    pairs = [(s, t) for s in left.states for t in right.states]
    union: set = set()
    for mask in range(2 ** len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        if zigzag_ok(left, right, rel):
            union |= rel
    return frozenset(union)


def oracle_rank(lts: PointedLTS, state: str) -> int | None:
    """Path-exploring rank; None when some path can loop forever."""

    def go(s: str, on_path: frozenset) -> int | None:
        if s in on_path:
            return None
        best = -1
        for t in lts.all_successors(s):
            r = go(t, on_path | {s})
            if r is None:
                return None
            best = max(best, r)
        return best + 1

    return go(state, frozenset())


class TestGreatestBisim:
    def test_loop_vs_two_cycle(self):
        one = PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "s")}))
        two = PointedLTS(
            ("a",), ("t", "u"), "t", frozenset({("t", "a", "u"), ("u", "a", "t")})
        )
        rel = greatest_bisim(one, two)
        assert rel == frozenset({("s", "t"), ("s", "u")})
        assert bisimilar(one, two)

    def test_branching_counterexample(self):
        early = PointedLTS(
            ("a", "b", "c"),
            ("r", "u1", "u2", "v", "w"),
            "r",
            frozenset(
                {
                    ("r", "a", "u1"),
                    ("r", "a", "u2"),
                    ("u1", "b", "v"),
                    ("u2", "c", "w"),
                }
            ),
        )
        late = PointedLTS(
            ("a", "b", "c"),
            ("r", "u", "v", "w"),
            "r",
            frozenset({("r", "a", "u"), ("u", "b", "v"), ("u", "c", "w")}),
        )
        assert not bisimilar(early, late)

    def test_chain_lengths_differ(self):
        assert not bisimilar(chain_lts(2), chain_lts(3, prefix="t"))
        assert bisimilar(chain_lts(3), chain_lts(3, prefix="t"))

    def test_mismatched_label_sets(self):
        lab = PointedLTS(("a",), ("s", "t"), "s", frozenset({("s", "a", "t")}))
        silent = PointedLTS(("b",), ("u",), "u", frozenset())
        assert not bisimilar(lab, silent)

    def test_matches_exhaustive_union_on_random_systems(self):
        rng = random.Random(41)
        for _ in range(40):
            left = random_lts(rng, rng.randint(1, 3), ("a", "b")[: rng.randint(1, 2)], 0.4)
            right = random_lts(rng, rng.randint(1, 3), left.labels, 0.4)
            expected = oracle_greatest(left, right)
            got = greatest_bisim(left, right)
            assert got == expected
            assert is_bisimulation(left, right, got)

    def test_contains_identity_on_self(self):
        rng = random.Random(42)
        for _ in range(25):
            lts = random_lts(rng, rng.randint(1, 4), ("a", "b"), 0.35)
            rel = greatest_bisim(lts, lts)
            assert identity_rel(lts.states) <= rel
            assert symmetric_closure(rel) == rel


def lts_to_code(lts: PointedLTS, numbering: Mapping[str, int]) -> OmegaLTSCode:
    """Encode an LTS through an injective numbering of its states."""
    values = list(numbering.values())
    if len(set(values)) != len(values):
        raise ValueError("numbering must be injective")
    for s in lts.states:
        if s not in numbering:
            raise ValueError(f"numbering misses state {s!r}")
    edges = {
        label: frozenset(
            (numbering[src], numbering[dst])
            for src, lab, dst in lts.edges
            if lab == label
        )
        for label in lts.labels
    }
    return OmegaLTSCode(numbering[lts.root], edges)


def bisim_partition(lts: PointedLTS) -> tuple[tuple[str, ...], ...]:
    """Blocks of the refined system, each sorted by state order."""
    (part,) = refine_blocks((lts,))
    blocks: dict[int, list] = {}
    for s, b in part.items():
        blocks.setdefault(b, []).append(s)
    return tuple(tuple(block) for block in blocks.values())


class TestBoundedBisim:
    def test_depth_zero_is_total(self):
        left, right = chain_lts(1), chain_lts(2, prefix="t")
        total = frozenset((s, t) for s in left.states for t in right.states)
        assert bounded_bisim(left, right, 0) == total

    def test_chains_separate_at_exact_depth(self):
        left, right = chain_lts(2), chain_lts(3, prefix="t")
        assert ("s0", "t0") in bounded_bisim(left, right, 2)
        assert ("s0", "t0") not in bounded_bisim(left, right, 3)

    def test_decreasing_and_stabilizes_to_greatest(self):
        rng = random.Random(43)
        for _ in range(25):
            left = random_lts(rng, rng.randint(1, 3), ("a",), 0.5)
            right = random_lts(rng, rng.randint(1, 3), ("a",), 0.5)
            prev = bounded_bisim(left, right, 0)
            for d in range(1, 10):
                cur = bounded_bisim(left, right, d)
                assert cur <= prev
                prev = cur
            assert prev == greatest_bisim(left, right)


class TestPartition:
    def test_terminals_share_a_block(self):
        lts = PointedLTS(
            ("a",), ("x", "y", "z"), "x", frozenset({("z", "a", "x")})
        )
        assert bisim_partition(lts) == (("x", "y"), ("z",))

    def test_blocks_partition_states(self):
        rng = random.Random(44)
        for _ in range(20):
            lts = random_lts(rng, rng.randint(1, 5), ("a", "b"), 0.3)
            blocks = bisim_partition(lts)
            flat = [s for block in blocks for s in block]
            assert sorted(flat) == sorted(lts.states)
            assert len(set(flat)) == len(flat)


class TestRanks:
    def test_all_successors_by_label_then_declared_state(self):
        edges = {("s", "b", "v"), ("s", "b", "t"), ("s", "a", "u"), ("s", "a", "t")}
        lts = PointedLTS(("b", "a"), ("s", "t", "u", "v"), "s", frozenset(edges))
        assert lts.all_successors("s") == ("t", "v", "u")
        rng = random.Random(217)
        for _ in range(30):
            lts = random_lts(rng, 6, ("a", "b", "c"), 0.3)
            for s in lts.states:
                seen = []
                for label in lts.labels:
                    seen += [t for t in lts.successors(s, label) if t not in seen]
                assert lts.all_successors(s) == tuple(seen)

    def test_terminal_state_has_rank_zero(self):
        lts = PointedLTS(("a",), ("s",), "s", frozenset())
        assert state_rank(lts, "s") == ORD_ZERO

    def test_chain_rank_is_length(self):
        lts = chain_lts(4)
        assert state_rank(lts, "s0") == Ordinal.from_int(4)
        assert state_rank(lts, "s3") == Ordinal.from_int(1)

    def test_self_loop_has_no_rank(self):
        lts = PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "s")}))
        assert state_rank(lts, "s") is None

    def test_cycle_reachable_poisons_rank(self):
        lts = PointedLTS(
            ("a",),
            ("s", "t", "u"),
            "s",
            frozenset({("s", "a", "t"), ("t", "a", "u"), ("u", "a", "t")}),
        )
        assert state_rank(lts, "s") is None
        assert all(state_rank(lts, s) is None for s in lts.states)

    def test_rank_ignores_unreachable_cycle(self):
        lts = PointedLTS(
            ("a",),
            ("s", "t", "loop"),
            "s",
            frozenset({("s", "a", "t"), ("loop", "a", "loop")}),
        )
        assert state_rank(lts, "s") == Ordinal.from_int(1)
        ranked = {s for s in lts.states if state_rank(lts, s) is not None}
        assert ranked == {"s", "t"}

    def test_unknown_state_is_rejected(self):
        with pytest.raises(ValueError, match="unknown state 'bogus'"):
            state_rank(chain_lts(2), "bogus")

    def test_matches_path_oracle_on_random_systems(self):
        rng = random.Random(45)
        for _ in range(60):
            lts = random_lts(rng, rng.randint(1, 6), ("a", "b"), 0.25)
            for s in lts.states:
                expected = oracle_rank(lts, s)
                got = state_rank(lts, s)
                if expected is None:
                    assert got is None
                else:
                    assert got == Ordinal.from_int(expected)


class TestFormulas:
    def test_stage_zero_is_top(self):
        assert rank_formula(ORD_ZERO, ("a",)) == TOP

    def test_finite_stage_shape(self):
        phi = rank_formula(Ordinal.from_int(1), ("a", "b"))
        assert phi == Or((Dia("a", TOP), Dia("b", TOP)))

    def test_limit_stage_is_symbolic(self):
        assert rank_formula(ORD_OMEGA, ("a",)) == RankAtLeast(ORD_OMEGA)

    def test_rank_is_least_failing_stage(self):
        rng = random.Random(46)
        for _ in range(30):
            lts = random_wf_lts(rng, rng.randint(1, 6), ("a", "b"), 0.35)
            for s in lts.states:
                rank = state_rank(lts, s)
                assert rank is not None
                for alpha in range(6):
                    ord_alpha = Ordinal.from_int(alpha)
                    holds = eval_formula(lts, s, rank_formula(ord_alpha, lts.labels))
                    assert holds == (rank >= ord_alpha)

    def test_ill_founded_state_satisfies_every_stage(self):
        lts = PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "s")}))
        for alpha in range(5):
            assert eval_formula(lts, "s", rank_formula(Ordinal.from_int(alpha), ("a",)))
        assert eval_formula(lts, "s", RankAtLeast(ORD_OMEGA))

    def test_diamond_formula_on_chains(self):
        lts = chain_lts(3)
        phi = TOP
        for j in range(6):
            assert eval_formula(lts, "s0", phi) == (j <= 3)
            phi = Dia("a", phi)

    def test_boolean_connectives(self):
        lts = PointedLTS(
            ("a", "b"),
            ("s", "t"),
            "s",
            frozenset({("s", "a", "t")}),
        )
        assert eval_formula(lts, "s", And((Dia("a", TOP), Neg(Dia("b", TOP)))))
        assert not eval_formula(lts, "s", Or((Dia("b", TOP),)))
        assert sat_states(lts, Dia("a", TOP)) == frozenset({"s"})

    def test_char_set_has_no_lts_semantics(self):
        lts = chain_lts(1)
        with pytest.raises(UnsupportedFormula):
            eval_formula(lts, "s0", CharSet(EPSet.empty()))


def oracle_eval_formula(lts: PointedLTS, state: str, phi) -> bool:
    """The former recursive evaluator, kept as the oracle for the walk."""
    if state not in lts.states:
        raise ValueError(f"unknown state {state!r}")
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Neg):
        return not oracle_eval_formula(lts, state, phi.sub)
    if isinstance(phi, And):
        return all(oracle_eval_formula(lts, state, sub) for sub in phi.subs)
    if isinstance(phi, Or):
        return any(oracle_eval_formula(lts, state, sub) for sub in phi.subs)
    if isinstance(phi, Dia):
        return any(
            oracle_eval_formula(lts, nxt, phi.sub)
            for nxt in lts.successors(state, phi.label)
        )
    if isinstance(phi, RankAtLeast):
        rank = state_rank(lts, state)
        return rank is None or rank >= phi.bound
    raise UnsupportedFormula(
        "characteristic-set formulas only evaluate on symbolic trees"
    )


def verdict(evaluate, lts: PointedLTS, state: str, phi):
    """The verdict, or the type and message of the error raised instead."""
    try:
        return evaluate(lts, state, phi)
    except ValueError as err:
        return type(err), str(err)


class TestWalk:
    def test_matches_the_recursive_oracle(self):
        # Rank atoms on mostly cyclic systems, rank_formula DAGs, and
        # set atoms that some short circuits skip and others reach.
        atoms = (
            TOP,
            RankAtLeast(Ordinal.from_int(2)),
            RankAtLeast(ORD_OMEGA),
            CharSet(EPSet.empty()),
        )
        rng = random.Random(71)
        verdicts, kinds = [], set()
        for _ in range(200):
            lts = gen.random_lts(rng, 6, 2, 0.35)
            formulas = [
                random_shared_formula(rng, rng.randint(1, 12), atoms),
                rank_formula(Ordinal.from_int(rng.randint(0, 6)), lts.labels),
            ]
            for s in lts.states:
                for phi in formulas:
                    want = verdict(oracle_eval_formula, lts, s, phi)
                    verdicts.append(verdict(eval_formula, lts, s, phi) == want)
                    kinds.add(want if isinstance(want, bool) else want[0])
        assert verdicts == [True] * len(verdicts)
        assert kinds == {True, False, UnsupportedFormula}

    def test_short_circuits_decide_before_a_set_atom(self):
        chain = chain_lts(1)
        # s steps to the dead state t first, then to u, which loops.
        edges = frozenset({("s", "a", "u"), ("s", "a", "t"), ("u", "a", "u")})
        fork = PointedLTS(("a",), ("s", "t", "u"), "s", edges)
        bad = CharSet(EPSet.empty())
        error = (UnsupportedFormula, "characteristic-set formulas only evaluate on symbolic trees")
        for lts, phi, want in [
            (chain, And((Neg(TOP), bad)), False),
            (chain, Or((TOP, bad)), True),
            (chain, Dia("a", Dia("a", bad)), False),
            (chain, And((bad, Neg(TOP))), error),
            (chain, Dia("a", bad), error),
            (fork, Dia("a", Or((Neg(Dia("a", TOP)), bad))), True),
            (fork, Dia("a", Or((Dia("a", TOP), bad))), error),
        ]:
            assert verdict(eval_formula, lts, lts.root, phi) == want
            assert verdict(oracle_eval_formula, lts, lts.root, phi) == want

    def test_unknown_state(self):
        assert verdict(eval_formula, chain_lts(1), "x", TOP) == (
            ValueError,
            "unknown state 'x'",
        )


class TestCodes:
    def test_round_trip_preserves_structure(self):
        rng = random.Random(47)
        for _ in range(25):
            lts = random_lts(rng, rng.randint(1, 5), ("a", "b"), 0.3)
            numbering = {s: i for i, s in enumerate(lts.states)}
            code = lts_to_code(lts, numbering)
            back = code_to_lts(code)
            expected_states = _reachable(lts)
            assert set(back.states) == {str(numbering[s]) for s in expected_states}
            assert bisimilar(lts, back)

    def test_code_example(self):
        code = OmegaLTSCode(0, {"a": frozenset({(0, 1)})})
        lts = code_to_lts(code)
        assert lts.states == ("0", "1")
        assert lts.root == "0"
        assert lts.edges == frozenset({("0", "a", "1")})

    def test_unreachable_edges_dropped(self):
        code = OmegaLTSCode(0, {"a": frozenset({(5, 6)})})
        lts = code_to_lts(code)
        assert lts.states == ("0",)
        assert lts.edges == frozenset()

    def test_numbering_must_be_injective(self):
        lts = chain_lts(1)
        with pytest.raises(ValueError):
            lts_to_code(lts, {"s0": 0, "s1": 0})

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError):
            OmegaLTSCode(0, {"a": frozenset({(0, -1)})})


class TestValidation:
    def test_root_must_be_declared(self):
        with pytest.raises(ValueError):
            PointedLTS(("a",), ("s",), "t", frozenset())

    def test_edge_labels_must_be_declared(self):
        with pytest.raises(ValueError):
            PointedLTS(("a",), ("s",), "s", frozenset({("s", "b", "s")}))

    def test_edge_endpoints_must_be_states(self):
        with pytest.raises(ValueError):
            PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "t")}))


def _reachable(lts: PointedLTS) -> set:
    seen = {lts.root}
    frontier = [lts.root]
    while frontier:
        s = frontier.pop()
        for t in lts.all_successors(s):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen
