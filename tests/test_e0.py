"""Reduction gadgets and the symbolic formula evaluator."""

import json
import random
import time

import pytest

from bisimkit.cli import main
from bisimkit.e0 import (
    PROFILE_BUDGET,
    _chain_masks,
    diamond_depth_sat,
    eval_symbolic,
    leaf_depth_set,
    matching_bijection,
    mod_glue_bisim,
    separating_formula,
)
from bisimkit.foundations import (
    EPSet,
    ORD_OMEGA,
    ORD_ZERO,
    Ordinal,
    nth_modification,
)
from bisimkit.jsonio import formula_to_json, tree_to_json
from bisimkit.lts import (
    And,
    CharSet,
    Dia,
    Neg,
    Or,
    RankAtLeast,
    TOP,
    Top,
    UnsupportedFormula,
    bounded_bisim,
    eval_formula,
    formula_postorder,
)
from bisimkit.trees import (
    ATree,
    BTree,
    Chain,
    ExplicitTree,
    Glue,
    SUC_LABEL,
    symbolic_rank,
    truncate_symbolic,
)
from bisimkit.uniform import tree_process

EVENS = EPSet("", "10")
ODDS = EPSet("0", "10")

CATALOG = [
    EPSet.empty(),
    EPSet.full(),
    EVENS,
    ODDS,
    EPSet.from_finite([0, 2]),
    EPSet.from_finite([5]),
    EPSet("011", "010"),
]


def random_epset(rng: random.Random, prefix_max: int = 4, period_max: int = 4) -> EPSet:
    prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, prefix_max)))
    period = "".join(rng.choice("01") for _ in range(rng.randint(1, period_max)))
    return EPSet(prefix, period)


def random_symbolic(rng: random.Random, glue_budget: int = 1):
    kinds = ["chain", "atree", "btree"] + (["glue"] if glue_budget else [])
    kind = rng.choice(kinds)
    if kind == "chain":
        return Chain(rng.randint(0, 6))
    if kind == "atree":
        return ATree(random_epset(rng))
    if kind == "btree":
        return BTree(random_epset(rng))
    parts = tuple(
        random_symbolic(rng, glue_budget - 1) for _ in range(rng.randint(0, 3))
    )
    return Glue(parts)


def tower(k: int):
    """Diamonds k + 1 deep around "no successor", built from scratch."""
    phi = Neg(Dia("suc", TOP))
    for _ in range(k + 1):
        phi = Dia("suc", phi)
    return phi


def oracle_child_with_rank(tree, alpha: Ordinal) -> bool:
    """Does some child's root rank reach alpha? Case by case over the kinds."""
    if isinstance(tree, Chain):
        if tree.length == 0:
            return False
        return Ordinal.from_int(tree.length - 1) >= alpha
    if isinstance(tree, ATree):
        # Child ranks are the members themselves.
        if not alpha.is_finite:
            return False
        return tree.param.has_element_geq(alpha.as_int())
    if isinstance(tree, BTree):
        # Finite parameter: modifications of every finite rank, none higher.
        # Infinite parameter: every modification stays infinite, rank omega.
        if tree.param.is_finite:
            return alpha.is_finite
        return alpha <= ORD_OMEGA
    return any(symbolic_rank(part)[0] >= alpha for part in tree.parts)


def oracle_is_leaf(tree) -> bool:
    if isinstance(tree, Chain):
        return tree.length == 0
    if isinstance(tree, ATree):
        return tree.param.is_empty
    if isinstance(tree, BTree):
        return False
    return not tree.parts


ORACLE_BOUNDS = [Ordinal.from_int(n) for n in range(8)] + [
    ORD_OMEGA,
    ORD_OMEGA + 1,
    ORD_OMEGA + 2,
    Ordinal(((2, 1),)),
]


class TestChildFactsFromTheRootRank:
    """The evaluator reads both child facts off the closed-form root rank."""

    def test_against_the_case_by_case_oracles(self):
        rng = random.Random(14)
        verdicts = {True: 0, False: 0}
        for _ in range(1500):
            tree = random_symbolic(rng, glue_budget=2)
            for alpha in ORACLE_BOUNDS:
                want = oracle_child_with_rank(tree, alpha)
                assert eval_symbolic(tree, Dia("suc", RankAtLeast(alpha))) == want
                verdicts[want] += 1
            parts = (tree, random_symbolic(rng, glue_budget=1))
            want = any(oracle_is_leaf(part) for part in parts)
            assert leaf_depth_set(Glue(parts)).member(0) == want
            assert symbolic_rank(tree)[0].is_zero == oracle_is_leaf(tree)
        assert min(verdicts.values()) > 1000


class TestGadgetShapes:
    def test_branch_code_tree_truncation(self):
        got = truncate_symbolic(ATree(EPSet.from_finite([0, 2])), 3, 3)
        assert got == ExplicitTree.from_nodes([(), (0,), (2,), (2, 0), (2, 0, 0)])

    def test_branch_code_tree_of_empty_set(self):
        got = truncate_symbolic(ATree(EPSet.empty()), 4, 4)
        assert got == ExplicitTree.from_nodes([()])

    def test_glued_tree_child_zero_is_the_unmodified_code(self):
        x = EPSet.from_finite([0, 2])
        whole = truncate_symbolic(BTree(x), 5, 3)
        under_zero = {u[1:] for u in whole.nodes if u[:1] == (0,)} | {()}
        assert under_zero == truncate_symbolic(ATree(x), 4, 3).nodes

    def test_glued_tree_rank_split(self):
        assert symbolic_rank(BTree(EVENS))[1] == ORD_OMEGA + 2
        assert symbolic_rank(BTree(EPSet.from_finite([0, 2])))[1] == ORD_OMEGA + 1
        assert symbolic_rank(BTree(EPSet.empty()))[1] == ORD_OMEGA + 1


class TestLeafDepthSets:
    def test_catalog(self):
        assert leaf_depth_set(Chain(0)) == EPSet.empty()
        assert leaf_depth_set(Chain(3)) == EPSet.from_finite([2])
        assert leaf_depth_set(ATree(EVENS)) == EVENS
        assert leaf_depth_set(BTree(EVENS)) == EPSet("0", "1")
        assert leaf_depth_set(BTree(EPSet.from_finite([7]))) == EPSet.full()
        assert leaf_depth_set(Glue(())) == EPSet.empty()
        assert leaf_depth_set(Glue((Chain(0), Chain(2)))) == EPSet.from_finite([0, 2])
        assert leaf_depth_set(Glue((ATree(EVENS),))) == ODDS

    def test_matches_leaves_of_a_large_truncation(self):
        rng = random.Random(11)
        for _ in range(40):
            tree = random_symbolic(rng)
            if isinstance(tree, BTree) or (
                isinstance(tree, Glue)
                and any(isinstance(p, BTree) for p in tree.parts)
            ):
                continue  # width cuts fake leaves into glued modification trees
            cut = truncate_symbolic(tree, 12, 16)
            parents = {u[:-1] for u in cut.nodes if u}
            shallow_leaves = {
                len(u) - 1 for u in cut.nodes if 1 <= len(u) <= 8 and u not in parents
            }
            assert shallow_leaves == set(leaf_depth_set(tree).elements_below(8))

    def test_tower_satisfaction_reads_off_the_set(self):
        # One route climbs diamond towers child class by child class, the
        # other is the closed form; they must agree on every tree kind.
        rng = random.Random(12)
        for _ in range(25):
            tree = random_symbolic(rng)
            depths = leaf_depth_set(tree)
            for k in range(7):
                assert eval_symbolic(tree, tower(k)) == depths.member(k)


class TestDiamondTower:
    def test_frozen_examples(self):
        x = EPSet.from_finite([0, 2])
        assert diamond_depth_sat(x, 2)
        assert not diamond_depth_sat(x, 1)
        assert diamond_depth_sat(x, 0)

    def test_membership_up_to_32(self):
        for x in CATALOG:
            for k in range(33):
                assert diamond_depth_sat(x, k) == x.member(k)

    def test_against_explicit_truncation(self):
        rng = random.Random(13)
        for _ in range(20):
            x = random_epset(rng)
            k = rng.randint(0, 8)
            lts = tree_process(truncate_symbolic(ATree(x), k + 2, k + 2))
            assert eval_formula(lts, "e", tower(k)) == diamond_depth_sat(x, k)

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            diamond_depth_sat(EVENS, -1)


class TestCharAtom:
    def test_reflexive_on_catalog(self):
        for x in CATALOG:
            assert eval_symbolic(ATree(x), CharSet(x))

    def test_separates_even_finite_differences(self):
        assert not eval_symbolic(ATree(EVENS), CharSet(ODDS))
        assert not eval_symbolic(ATree(EVENS), CharSet(EVENS.xor_finite({3})))

    def test_decides_equality_with_conjunct_audit(self):
        rng = random.Random(14)
        for _ in range(60):
            w = random_epset(rng)
            z = w if rng.random() < 0.3 else random_epset(rng)
            verdict = eval_symbolic(ATree(w), CharSet(z))
            assert verdict == (w == z)
            conjuncts = all(
                diamond_depth_sat(w, k) == z.member(k) for k in range(9)
            )
            if verdict:
                assert conjuncts
            if not conjuncts:
                assert not verdict


class TestEvaluator:
    def test_foreign_labels_have_no_successors(self):
        assert not eval_symbolic(ATree(EVENS), Dia("other", TOP))

    def test_boolean_connectives(self):
        tree = Chain(1)
        holds = Dia("suc", TOP)
        assert eval_symbolic(tree, And((holds, Neg(Neg(holds)))))
        assert eval_symbolic(tree, Or((Neg(holds), holds)))
        assert not eval_symbolic(tree, Or(()))
        assert eval_symbolic(tree, And(()))

    def test_rank_atom_at_the_root(self):
        assert eval_symbolic(ATree(EPSet.from_finite([0, 2])), RankAtLeast(Ordinal.from_int(3)))
        assert not eval_symbolic(
            ATree(EPSet.from_finite([0, 2])), RankAtLeast(Ordinal.from_int(4))
        )
        assert eval_symbolic(BTree(EVENS), RankAtLeast(ORD_OMEGA + 1))
        assert not eval_symbolic(BTree(EVENS), RankAtLeast(ORD_OMEGA + 2))

    def test_diamond_over_rank_atom(self):
        code = ATree(EPSet.from_finite([0, 2]))
        assert eval_symbolic(code, Dia("suc", RankAtLeast(Ordinal.from_int(2))))
        assert not eval_symbolic(code, Dia("suc", RankAtLeast(Ordinal.from_int(3))))
        assert eval_symbolic(code, Dia("suc", RankAtLeast(ORD_ZERO)))
        assert not eval_symbolic(ATree(EPSet.empty()), Dia("suc", RankAtLeast(ORD_ZERO)))

        finite = BTree(EPSet.from_finite([1]))
        assert eval_symbolic(finite, Dia("suc", RankAtLeast(Ordinal.from_int(100))))
        assert not eval_symbolic(finite, Dia("suc", RankAtLeast(ORD_OMEGA)))
        assert eval_symbolic(BTree(EVENS), Dia("suc", RankAtLeast(ORD_OMEGA)))
        assert not eval_symbolic(BTree(EVENS), Dia("suc", RankAtLeast(ORD_OMEGA + 1)))

        assert eval_symbolic(Chain(2), Dia("suc", RankAtLeast(Ordinal.from_int(1))))
        assert not eval_symbolic(Chain(1), Dia("suc", RankAtLeast(Ordinal.from_int(1))))
        assert eval_symbolic(
            Glue((ATree(EVENS), Chain(3))), Dia("suc", RankAtLeast(ORD_OMEGA))
        )

    def test_diamond_over_char_atom(self):
        code = ATree(EPSet.from_finite([0, 3]))
        assert eval_symbolic(code, Dia("suc", CharSet(EPSet.empty())))
        assert eval_symbolic(code, Dia("suc", CharSet(EPSet.from_finite([2]))))
        assert not eval_symbolic(code, Dia("suc", CharSet(EPSet.from_finite([1]))))
        assert not eval_symbolic(code, Dia("suc", CharSet(EPSet.from_finite([0, 1]))))
        assert not eval_symbolic(code, Dia("suc", CharSet(EVENS)))

        assert eval_symbolic(Chain(3), Dia("suc", CharSet(EPSet.from_finite([1]))))
        assert eval_symbolic(Chain(1), Dia("suc", CharSet(EPSet.empty())))
        assert not eval_symbolic(Chain(0), Dia("suc", CharSet(EPSet.empty())))

        assert eval_symbolic(BTree(EVENS), Dia("suc", CharSet(EVENS.xor_finite({5}))))
        assert not eval_symbolic(BTree(EVENS), Dia("suc", CharSet(ODDS)))
        assert eval_symbolic(Glue((ATree(EVENS),)), Dia("suc", CharSet(EVENS)))

    def test_unsupported_nesting(self):
        buried = Dia("suc", And((CharSet(EVENS), TOP)))
        with pytest.raises(UnsupportedFormula):
            eval_symbolic(BTree(EVENS), buried)
        with pytest.raises(UnsupportedFormula):
            eval_symbolic(Chain(2), Dia("suc", Dia("suc", RankAtLeast(ORD_ZERO))))

    def test_depths_are_walked_once_per_evaluation(self, monkeypatch):
        # One chain-mask table per call carries the depths as well.
        calls = []

        def counted(order):
            calls.append(order)
            return _chain_masks(order)

        monkeypatch.setattr("bisimkit.e0._chain_masks", counted)
        phi = tower(6)
        results = [eval_symbolic(BTree(EVENS), phi), eval_symbolic(ATree(EVENS), phi)]
        assert results == [True, True]
        assert len(calls) == 2 and all(c[-1] is phi for c in calls)

    def test_unsupported_nesting_names_the_atom(self):
        buried = Dia("suc", Dia("suc", Neg(CharSet(EVENS))))
        with pytest.raises(UnsupportedFormula, match="^CharSet has no finite modal depth$"):
            eval_symbolic(Chain(3), buried)

    def test_unsupported_nesting_whatever_the_order(self, tmp_path, capsys):
        # A short circuit before the bad diamond must not hide it.
        bad = Dia("suc", Dia("suc", CharSet(EPSet.empty())))
        formulas = [
            And((Neg(TOP), bad)),
            And((bad, Neg(TOP))),
            Or((TOP, bad)),
            Or((bad, TOP)),
            Neg(And((Neg(TOP), Or((TOP, Neg(bad)))))),
        ]
        # Diamonds under other labels are false without reading their body.
        foreign = Dia("b", bad.sub)
        trees = [Chain(3), ATree(EVENS), BTree(EVENS), Glue((Chain(2), BTree(ODDS)))]
        for i, tree in enumerate(trees):
            tree_path = tmp_path / f"tree{i}.json"
            tree_path.write_text(json.dumps(tree_to_json(tree)))
            for j, phi in enumerate(formulas):
                with pytest.raises(UnsupportedFormula, match="^CharSet has no finite modal depth$"):
                    eval_symbolic(tree, phi)
                phi_path = tmp_path / f"phi{j}.json"
                phi_path.write_text(json.dumps(formula_to_json(phi)))
                code = main(["eval", str(phi_path), str(tree_path)])
                out, err = capsys.readouterr()
                assert (code, out) == (2, "")
                assert "CharSet has no finite modal depth" in err
            assert not eval_symbolic(tree, And((foreign, TOP)))
            assert not eval_symbolic(tree, And((TOP, foreign)))
            assert eval_symbolic(tree, Or((foreign, TOP)))


def oracle_modification_classes(x: EPSet, depth: int) -> list:
    """Representative modifications of x for depth-bounded bodies.

    The class of a branch-code child is its member pattern on the window
    [0, depth - 1) together with one bit for membership beyond it. Flips
    inside the window realize every pattern; the extra bit is forced to 1
    when x is infinite and is free otherwise.
    """
    window = max(depth - 1, 0)
    inside = set(x.elements_below(window))
    seen = set()
    classes = []

    def add(param: EPSet) -> None:
        if param not in seen:
            seen.add(param)
            classes.append(ATree(param))

    for bits in range(1 << window):
        pattern = {i for i in range(window) if bits >> i & 1}
        base = inside ^ pattern
        rep = x.xor_finite(base)
        add(rep)
        if rep.has_element_geq(window):
            if rep.is_finite:
                tail = {e for e in rep.finite_elements() if e >= window}
                add(x.xor_finite(base | tail))
        else:
            add(x.xor_finite(base | {window}))
    return classes


def oracle_child_classes(tree, depth: int) -> list:
    """Children of the root, one per depth-bounded behavior class."""
    if isinstance(tree, Chain):
        return [Chain(tree.length - 1)] if tree.length >= 1 else []
    if isinstance(tree, ATree):
        classes = [Chain(k) for k in tree.param.elements_below(depth)]
        if tree.param.has_element_geq(depth):
            classes.append(Chain(depth))
        return classes
    if isinstance(tree, BTree):
        return oracle_modification_classes(tree.param, depth)
    return list(tree.parts)


def recursive_modal_depth(phi) -> int:
    """Nesting depth of diamonds; the symbolic atoms have none to count."""
    if isinstance(phi, Top):
        return 0
    if isinstance(phi, Neg):
        return recursive_modal_depth(phi.sub)
    if isinstance(phi, (And, Or)):
        return max((recursive_modal_depth(sub) for sub in phi.subs), default=0)
    if isinstance(phi, Dia):
        return 1 + recursive_modal_depth(phi.sub)
    raise UnsupportedFormula(f"{type(phi).__name__} has no finite modal depth")


def oracle_eval_symbolic(tree, phi) -> bool:
    """A pure modal formula at the root, one child per behavior class."""
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Neg):
        return not oracle_eval_symbolic(tree, phi.sub)
    if isinstance(phi, And):
        return all(oracle_eval_symbolic(tree, sub) for sub in phi.subs)
    if isinstance(phi, Or):
        return any(oracle_eval_symbolic(tree, sub) for sub in phi.subs)
    if phi.label != SUC_LABEL:
        return False
    depth = recursive_modal_depth(phi.sub)
    classes = oracle_child_classes(tree, depth)
    return any(oracle_eval_symbolic(child, phi.sub) for child in classes)


def random_modal(rng: random.Random, depth: int):
    """A pure modal formula of modal depth at most depth."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return TOP if rng.random() < 0.8 else Dia("other", TOP)
    if roll < 0.3:
        return Neg(random_modal(rng, depth - 1))
    if roll < 0.6:
        subs = tuple(random_modal(rng, depth - 1) for _ in range(rng.randint(0, 2)))
        return And(subs) if roll < 0.45 else Or(subs)
    return Dia("suc", random_modal(rng, depth - 1))


def random_body(rng: random.Random):
    """A boolean combination of at most three distinct top-level diamonds,
    each used any number of times, of modal depth at most 6."""
    atoms = [
        Dia("suc", random_modal(rng, rng.randint(0, 5)))
        for _ in range(rng.randint(1, 3))
    ]

    def combine(budget: int):
        roll = rng.random()
        if budget == 0 or roll < 0.3:
            return rng.choice(atoms + [TOP])
        if roll < 0.5:
            return Neg(combine(budget - 1))
        subs = tuple(combine(budget - 1) for _ in range(rng.randint(0, 3)))
        return And(subs) if roll < 0.75 else Or(subs)

    return combine(3)


def random_gadget(rng: random.Random):
    kind = rng.choice(["chain", "atree", "finite", "infinite", "glue"])
    if kind == "chain":
        return Chain(rng.randint(0, 8))
    if kind == "atree":
        return ATree(random_epset(rng, 6))
    if kind == "finite":
        return BTree(EPSet(random_epset(rng, 6).prefix, "0"))
    if kind == "infinite":
        return BTree(EPSet(random_epset(rng, 6).prefix, "0" * rng.randint(0, 2) + "1"))
    return Glue(tuple(random_symbolic(rng) for _ in range(rng.randint(0, 3))))


class TestDiamondsAgainstModificationClasses:
    """Chain bitmasks and diamond profiles against one child per class."""

    def test_seeded_bodies_on_every_tree_kind(self):
        rng = random.Random(18)
        verdicts = {True: 0, False: 0}
        kinds = set()
        for _ in range(3000):
            tree = random_gadget(rng)
            body = random_body(rng)
            for phi in (Dia("suc", body), body):
                want = oracle_eval_symbolic(tree, phi)
                assert eval_symbolic(tree, phi) == want, (tree, phi)
                verdicts[want] += 1
            kinds.add((type(tree).__name__, isinstance(tree, BTree) and tree.param.is_finite))
        assert len(kinds) == 5
        assert min(verdicts.values()) > 2000, verdicts

    def test_a_shared_diamond_counts_once(self):
        # Top-level diamonds are told apart by identity, as the chain masks
        # tell subformulas apart: one object used many times is one of m.
        inner = Dia("suc", Neg(Dia("suc", TOP)))
        phi = Dia("suc", And((inner,) * (PROFILE_BUDGET + 1)))
        for x in CATALOG:
            assert eval_symbolic(BTree(x), phi) == oracle_eval_symbolic(BTree(x), phi)
        copies = tuple(Dia("suc", Neg(Dia("suc", TOP))) for _ in range(PROFILE_BUDGET + 1))
        with pytest.raises(ValueError, match=f"has {PROFILE_BUDGET + 1} distinct"):
            eval_symbolic(BTree(EVENS), Dia("suc", And(copies)))


def random_shared_formula(rng: random.Random, size: int):
    """A formula whose parts are drawn from a growing pool, so they share."""
    pool = [TOP, TOP, RankAtLeast(ORD_ZERO), CharSet(EPSet.empty())]
    for _ in range(size):
        pick = rng.random()
        if pick < 0.3:
            pool.append(Dia(rng.choice(("suc", "suc", "other")), rng.choice(pool)))
        elif pick < 0.45:
            pool.append(Neg(rng.choice(pool)))
        else:
            subs = tuple(rng.choice(pool[-6:]) for _ in range(rng.randint(0, 3)))
            pool.append((And if pick < 0.75 else Or)(subs))
    return pool[-1]


def subformulas(phi) -> list:
    found, stack = [], [phi]
    while stack:
        node = stack.pop()
        found.append(node)
        if isinstance(node, (And, Or)):
            stack.extend(node.subs)
        elif isinstance(node, (Neg, Dia)):
            stack.append(node.sub)
    return found


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except UnsupportedFormula as err:
        return str(err)


SHAPES = [
    Chain(0),
    Chain(4),
    ATree(EVENS),
    ATree(EPSet.from_finite([0, 3])),
    BTree(ODDS),
    BTree(EPSet.from_finite([1, 2])),
    Glue((Chain(2), ATree(ODDS), BTree(EPSet.empty()))),
]


class TestChainMasks:
    """Masks over every chain length, read without a modal-depth table."""

    def test_seeded_shared_formulas_match_the_oracle(self):
        # A diamond over a body without finite depth raises, naming the
        # body's first atom, as the recursive depth does; any other
        # diamond agrees with the one-child-per-class oracle.
        rng = random.Random(61)
        verdicts = {True: 0, False: 0, "raised": 0}
        for _ in range(300):
            phi = random_shared_formula(rng, rng.randint(1, 12))
            tree = rng.choice(SHAPES)
            for sub in subformulas(phi):
                if isinstance(sub, (CharSet, RankAtLeast)):
                    continue
                want = outcome(recursive_modal_depth, sub)
                if not isinstance(want, str):
                    want = oracle_eval_symbolic(tree, Dia("suc", sub))
                got = outcome(eval_symbolic, tree, Dia("suc", sub))
                assert got == want, (tree, sub)
                verdicts["raised" if isinstance(want, str) else want] += 1
        assert min(verdicts.values()) > 200, verdicts

    def test_first_atom_without_depth_is_named(self):
        for label in ("suc", "other"):
            body = Dia(label, And((TOP, Neg(RankAtLeast(ORD_ZERO)), CharSet(EPSet.empty()))))
            for tree in SHAPES:
                with pytest.raises(
                    UnsupportedFormula, match="^RankAtLeast has no finite modal depth$"
                ):
                    eval_symbolic(tree, Dia("suc", body))

    def test_deep_and_shared_formulas(self):
        # <suc>^3000 top holds where a path of 3000 steps starts, and the
        # 60-level DAG s_j = <suc>s_(j-1) and s_(j-1) is <suc>^60 top.
        deep = TOP
        for _ in range(3000):
            deep = Dia("suc", deep)
        shared = TOP
        for _ in range(60):
            shared = And((Dia("suc", shared), shared))
        for phi, n in ((deep, 3000), (shared, 60)):
            assert eval_symbolic(Chain(n), phi)
            assert not eval_symbolic(Chain(n - 1), phi)
            assert eval_symbolic(ATree(EPSet.from_finite([n - 1])), phi)
            assert not eval_symbolic(ATree(EPSet.from_finite([n - 2])), phi)
            assert eval_symbolic(ATree(EVENS), phi)
            assert eval_symbolic(Glue((Chain(1), Chain(n - 1))), phi)
            assert not eval_symbolic(Glue((Chain(n - 2),)), phi)
        for x in (ODDS, EPSet.empty()):
            assert eval_symbolic(BTree(x), deep)
        blocked = CharSet(EPSet.empty())
        for _ in range(3000):
            blocked = Dia("suc", blocked)
        with pytest.raises(UnsupportedFormula, match="^CharSet has no finite modal depth$"):
            eval_symbolic(Chain(3), blocked)

    def test_negated_bodies_on_every_tree_kind(self):
        leaf = Neg(Dia("suc", TOP))
        step = Dia("suc", leaf)
        bodies = [
            Neg(step),
            Neg(Dia("suc", step)),
            Neg(Dia("other", TOP)),
            Neg(Or((step, Dia("suc", step)))),
            And((Neg(step), Neg(leaf))),
            And((Neg(step), Neg(Dia("suc", Dia("suc", step))), Dia("suc", TOP))),
            Or((leaf, Neg(step))),
        ]
        trees = [
            Chain(0),
            Chain(1),
            Chain(2),
            Chain(5),
            ATree(EPSet.empty()),
            ATree(EPSet.from_finite([1])),
            ATree(EVENS),
            ATree(ODDS),
            BTree(EPSet.empty()),
            BTree(EPSet.from_finite([0, 1, 2])),
            BTree(EVENS),
            BTree(EPSet.full()),
            Glue((Chain(1), ATree(EPSet.from_finite([1])))),
            Glue((BTree(ODDS), Chain(4))),
        ]
        verdicts = {True: 0, False: 0}
        for body in bodies:
            assert _chain_masks(formula_postorder(body))[id(body)] < 0, body
            for tree in trees:
                for phi in (body, Dia("suc", body), Dia("suc", Dia("suc", body))):
                    want = oracle_eval_symbolic(tree, phi)
                    assert eval_symbolic(tree, phi) == want, (tree, phi)
                    verdicts[want] += 1
        assert min(verdicts.values()) > 50, verdicts

    def test_a_wide_or_reads_each_mask_at_its_own_width(self, monkeypatch):
        # Each disjunct's mask has bit length 1, so the A tree's members
        # are read at two positions at most per disjunct, not at as many
        # positions as the formula has diamonds.
        calls = []
        member = EPSet.member

        def counted(self, n):
            calls.append(n)
            return member(self, n)

        monkeypatch.setattr(EPSet, "member", counted)
        phi = Or(tuple(Dia("suc", Neg(Dia("suc", TOP))) for _ in range(2000)))
        assert not eval_symbolic(ATree(EPSet.empty()), phi)
        assert len(calls) <= 4000


def tower_file(tmp_path, k: int) -> str:
    path = tmp_path / f"tower{k}.json"
    phi = {"op": "neg", "sub": {"op": "dia", "label": "suc", "sub": {"op": "top"}}}
    for _ in range(k + 1):
        phi = {"op": "dia", "label": "suc", "sub": phi}
    path.write_text(json.dumps(phi))
    return str(path)


def gadget_file(tmp_path, name: str, x: EPSet) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"kind": "B", "set": x.to_json()}))
    return str(path)


class TestDeepFormulas:
    def test_forty_deep_tower_on_a_glued_gadget(self, tmp_path, capsys):
        # A tower of height k + 1 holds exactly when k is a leaf depth:
        # every k >= 1, and k = 0 when the parameter is finite.
        for name, x in (("finite", EPSet.from_finite([0, 2])), ("infinite", EVENS)):
            gadget = gadget_file(tmp_path, name, x)
            for k in (0, 39):
                tower = tower_file(tmp_path, k)
                start = time.perf_counter()
                code = main(["eval", tower, gadget])
                elapsed = time.perf_counter() - start
                holds = k >= 1 or x.is_finite
                assert code == (0 if holds else 1)
                assert json.loads(capsys.readouterr().out) == {"verb": "eval", "holds": holds}
                assert elapsed < 1.0

    def test_nest_deeper_than_the_recursion_limit(self):
        # g_0 = top and g_(j+1) = not <suc> g_j. At Chain(n), g_j holds iff
        # n is even when n < j, and iff j is even otherwise.
        nest = TOP
        for _ in range(1500):
            nest = Neg(Dia("suc", nest))
        assert eval_symbolic(Chain(1000), nest)
        assert not eval_symbolic(Chain(999), nest)
        assert eval_symbolic(Chain(2001), nest)
        # <suc> g_1499 holds where some child chain has even length < 1499.
        assert not eval_symbolic(ATree(EVENS), nest)
        assert eval_symbolic(ATree(ODDS), nest)
        assert eval_symbolic(Glue((Chain(3),)), nest)
        # A branch-code tree satisfies g_1499 iff its set has no even
        # member below 1498 and none from 1498 on, as {1} does; no
        # modification of an infinite set does.
        assert not eval_symbolic(BTree(EPSet.empty()), nest)
        assert eval_symbolic(BTree(ODDS), nest)

    def test_too_many_diamonds_exit_two(self, tmp_path, capsys):
        diamonds = [
            {"op": "dia", "label": "suc", "sub": {"op": "top"}}
            for _ in range(PROFILE_BUDGET + 1)
        ]
        body = {"op": "and", "subs": diamonds}
        formula = tmp_path / "wide.json"
        formula.write_text(json.dumps({"op": "dia", "label": "suc", "sub": body}))
        code = main(["eval", str(formula), gadget_file(tmp_path, "gadget", EVENS)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert f"{PROFILE_BUDGET + 1} distinct top-level diamonds" in err
        assert f"budget of {PROFILE_BUDGET}" in err

    def test_too_many_diamonds_exit_two_whatever_the_order(self, tmp_path, capsys):
        # A short circuit before the wide diamond must not hide it.
        diamonds = [
            {"op": "dia", "label": "suc", "sub": {"op": "top"}}
            for _ in range(PROFILE_BUDGET + 1)
        ]
        wide = {"op": "dia", "label": "suc", "sub": {"op": "and", "subs": diamonds}}
        false = {"op": "neg", "sub": {"op": "top"}}
        gadget = gadget_file(tmp_path, "gadget", EPSet("", "10"))
        for subs in ([false, wide], [wide, false]):
            formula = tmp_path / "phi.json"
            formula.write_text(json.dumps({"op": "and", "subs": subs}))
            code = main(["eval", str(formula), gadget])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "")
            assert err == (
                f"error: a diamond body on a glued modification tree has "
                f"{PROFILE_BUDGET + 1} distinct top-level diamonds, "
                f"over the budget of {PROFILE_BUDGET}\n"
            )


class TestReduction:
    def test_every_sixth_modification_is_equivalent(self):
        for x in CATALOG:
            assert mod_glue_bisim(x, nth_modification(x, 6))

    def test_empty_against_full(self):
        assert not mod_glue_bisim(EPSet.empty(), EPSet.full())

    def test_agrees_with_eventual_equality(self):
        rng = random.Random(15)
        for _ in range(200):
            x = random_epset(rng)
            if rng.random() < 0.5:
                y = nth_modification(x, rng.randint(0, 63))
            else:
                y = random_epset(rng)
            assert mod_glue_bisim(x, y) == x.eventually_equal(y)

    def test_forced_negative_families(self):
        for x in CATALOG:
            complement = x.sym_diff(EPSet.full())
            assert not mod_glue_bisim(x, complement)
            assert not x.eventually_equal(complement)


class TestWitnesses:
    def test_matching_pairs_carry_identical_modifications(self):
        rng = random.Random(16)
        for _ in range(30):
            x = random_epset(rng)
            y = nth_modification(x, rng.randint(0, 200))
            pairs = matching_bijection(x, y, 16)
            assert len(pairs) == 16
            assert len({m for _, m in pairs}) == 16
            assert pairs[0] == (0, x.sym_diff(y).encode_finite())
            for n, m in pairs:
                assert nth_modification(x, n) == nth_modification(y, m)

    def test_matching_requires_finite_difference(self):
        with pytest.raises(ValueError):
            matching_bijection(EVENS, ODDS, 8)

    def test_separator_evaluates_oppositely(self):
        rng = random.Random(17)
        found = 0
        for _ in range(60):
            x, y = random_epset(rng), random_epset(rng)
            if x.eventually_equal(y):
                continue
            found += 1
            phi = separating_formula(x, y)
            assert eval_symbolic(BTree(x), phi)
            assert not eval_symbolic(BTree(y), phi)
        assert found > 20

    def test_separator_requires_infinite_difference(self):
        with pytest.raises(ValueError):
            separating_formula(EVENS, EVENS.xor_finite({0, 4}))


class TestBoundedDepth:
    def test_truncations_of_equivalent_sets_stay_related(self):
        # Width is a power of two past the flip mask, so the index pairing
        # of the full trees restricts to a pairing of the truncations.
        rng = random.Random(18)
        for _ in range(8):
            x = random_epset(rng)
            y = x.xor_finite({k for k in (0, 1) if rng.random() < 0.7})
            assert mod_glue_bisim(x, y)
            for depth in range(1, 6):
                left = tree_process(truncate_symbolic(BTree(x), depth, 4))
                right = tree_process(truncate_symbolic(BTree(y), depth, 4))
                assert ("e", "e") in bounded_bisim(left, right, depth)

    def test_wider_window_at_shallow_depth(self):
        rng = random.Random(19)
        for _ in range(4):
            x = random_epset(rng)
            y = x.xor_finite({k for k in (0, 1, 2) if rng.random() < 0.7})
            for depth in range(1, 4):
                left = tree_process(truncate_symbolic(BTree(x), depth, 8))
                right = tree_process(truncate_symbolic(BTree(y), depth, 8))
                assert ("e", "e") in bounded_bisim(left, right, depth)
