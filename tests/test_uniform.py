"""Transition tables, enumeration closures, and the coding pipeline."""

import random
from fractions import Fraction

import pytest

from bisimkit.expansion import omega_code_expand
from bisimkit.foundations import Ordinal
from bisimkit.lts import (
    OmegaLTSCode,
    PointedLTS,
    bisimilar,
    code_to_lts,
    greatest_bisim,
    state_rank,
)
from bisimkit.nlmp import (
    PointmassNLMP,
    SubProbMeasure,
    ZERO_MEASURE,
    greatest_state_bisim,
    is_z_closed,
    lift_support,
)
from bisimkit.substructures import is_carrier, reachable_carrier
from bisimkit.trees import ExplicitTree
from bisimkit.treeiso import canon
from bisimkit.uniform import (
    UMLTSStructure,
    UniformStructure,
    _node_name,
    composition_enum,
    derive_umlts,
    derive_uniform,
    encode_state,
    gk_block,
    is_saturated_pair,
    mlts_to_nlmp,
    nlmp_to_mlts,
    pipeline_bisim,
    tree_process,
    umlts_to_uniform,
    uniform_bisim_search,
    uniform_mismatches,
    validate_umlts,
    validate_uniform,
    witness_indices,
    witness_mass_g,
)

F = Fraction


def measure(**masses) -> SubProbMeasure:
    return SubProbMeasure.from_mapping(
        {state: F(text) for state, text in masses.items()}
    )


def random_measure(rng: random.Random, states) -> SubProbMeasure:
    if rng.random() < 0.1:
        return ZERO_MEASURE
    support = [s for s in states if rng.random() < 0.5][:3]
    den = rng.choice((2, 3, 4))
    weights = {}
    remaining = den
    for s in support:
        w = rng.randint(0, remaining)
        remaining -= w
        if w:
            weights[s] = F(w, den)
    return SubProbMeasure.from_mapping(weights)


def random_nlmp(rng: random.Random, n_states: int, labels=("a",)) -> PointmassNLMP:
    states = tuple(f"s{i}" for i in range(n_states))
    trans = {}
    for s in states:
        for a in labels:
            if rng.random() < 0.35:
                continue
            trans[(s, a)] = frozenset(
                random_measure(rng, states) for _ in range(rng.randint(1, 2))
            )
    return PointmassNLMP(tuple(labels), states, trans)


def random_z_closed(rng: random.Random, left, right) -> frozenset:
    pairs = set()
    blocks = max(1, min(len(left), len(right)))
    assignment_l = {s: rng.randrange(-1, blocks) for s in left}
    assignment_r = {t: rng.randrange(-1, blocks) for t in right}
    for s in left:
        for t in right:
            if assignment_l[s] == assignment_r[t] != -1:
                pairs.add((s, t))
    return frozenset(pairs)


def random_explicit_tree(rng: random.Random, size: int) -> ExplicitTree:
    nodes = {()}
    while len(nodes) < size:
        parent = rng.choice(sorted(nodes, key=lambda n: (len(n), n)))
        nodes.add(parent + (rng.randrange(3),))
    return ExplicitTree.from_nodes(nodes)


class TestUniformStructure:
    def build(self) -> PointmassNLMP:
        trans = {
            ("s", "a"): frozenset({measure(t="1/2", u="1/4"), ZERO_MEASURE}),
            ("t", "a"): frozenset({measure(u="1")}),
        }
        return PointmassNLMP(("a",), ("s", "t", "u"), trans)

    def test_derived_table_validates(self):
        nlmp = self.build()
        table = derive_uniform(nlmp)
        assert validate_uniform(nlmp, table)
        assert table.to_nlmp() == nlmp

    def test_row_order_is_irrelevant(self):
        nlmp = self.build()
        table = derive_uniform(nlmp)
        shuffled = UniformStructure(
            table.labels,
            table.states,
            {key: tuple(reversed(rows)) for key, rows in table.rows.items()},
        )
        assert validate_uniform(nlmp, shuffled)

    def test_dropped_row_is_reported(self):
        nlmp = self.build()
        table = derive_uniform(nlmp)
        rows = dict(table.rows)
        rows[("s", "a")] = rows[("s", "a")][:1]
        broken = UniformStructure(table.labels, table.states, rows)
        problems = uniform_mismatches(nlmp, broken)
        assert not validate_uniform(nlmp, broken)
        assert any("misses" in line for line in problems)

    def test_foreign_row_is_reported(self):
        nlmp = self.build()
        table = derive_uniform(nlmp)
        rows = dict(table.rows)
        rows[("t", "a")] = (((0, F(1, 3), "u"),),)
        broken = UniformStructure(table.labels, table.states, rows)
        assert any(
            "row 0" in line and "'t'" in line
            for line in uniform_mismatches(nlmp, broken)
        )

    def test_row_measure_merges_repeated_targets(self):
        table = UniformStructure(
            ("a",),
            ("s", "t"),
            {("s", "a"): (((0, F(1, 4), "t"), (1, F(1, 4), "t")),)},
        )
        assert table.row_measure("s", "a", 0) == measure(t="1/2")

    def test_validation_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            UniformStructure(("a",), ("s",), {("s", "a"): ()})
        with pytest.raises(ValueError):
            UniformStructure(
                ("a",), ("s",), {("s", "a"): (((1, F(1), "s"), (0, F(1), "s")),)}
            )
        with pytest.raises(ValueError):
            UniformStructure(("a",), ("s",), {("s", "a"): (((0, F(0), "s"),),)})
        with pytest.raises(ValueError):
            UniformStructure(("a",), ("s",), {("s", "a"): (((0, F(1), "zz"),),)})
        with pytest.raises(ValueError):
            UniformStructure(
                ("a",), ("s",), {("s", "a"): (((0, F(2, 3), "s"), (1, F(1, 2), "s")),)}
            )

    def test_random_round_trips(self):
        rng = random.Random(201)
        for _ in range(30):
            nlmp = random_nlmp(rng, 4)
            table = derive_uniform(nlmp)
            assert validate_uniform(nlmp, table)
            rebuilt = table.to_nlmp()
            for s in nlmp.states:
                for a in nlmp.labels:
                    assert rebuilt.measures(s, a) == nlmp.measures(s, a)


class TestCompositionEnum:
    def test_starts_with_the_state(self):
        rng = random.Random(202)
        for _ in range(20):
            nlmp = random_nlmp(rng, 4)
            table = derive_uniform(nlmp)
            s = rng.choice(nlmp.states)
            assert composition_enum(table, s)[0] == s

    def test_terminal_state_is_alone(self):
        nlmp = PointmassNLMP(("a",), ("s",), {})
        assert composition_enum(derive_uniform(nlmp), "s") == ["s"]

    def test_closure_is_the_reachable_carrier(self):
        rng = random.Random(203)
        for _ in range(30):
            nlmp = random_nlmp(rng, 5)
            table = derive_uniform(nlmp)
            s = rng.choice(nlmp.states)
            values = composition_enum(table, s)
            assert len(set(values)) == len(values)
            assert set(values) == set(reachable_carrier(nlmp, s))
            assert is_carrier(nlmp, tuple(values))

    def test_bound_truncates_the_same_order(self):
        trans = {
            ("s", "a"): frozenset({measure(t="1/2", u="1/2")}),
            ("t", "a"): frozenset({measure(v="1")}),
        }
        nlmp = PointmassNLMP(("a",), ("s", "t", "u", "v"), trans)
        table = derive_uniform(nlmp)
        full = composition_enum(table, "s")
        assert full == ["s", "t", "u", "v"]
        assert composition_enum(table, "s", bound=2) == full[:2]


class TestUMLTS:
    def chain(self) -> PointedLTS:
        edges = frozenset({("s", "a", "t"), ("t", "a", "u"), ("s", "b", "u")})
        return PointedLTS(("a", "b"), ("s", "t", "u"), "s", edges)

    def test_derive_and_validate(self):
        lts = self.chain()
        structure = derive_umlts(lts)
        assert validate_umlts(lts, structure)
        assert structure.enum[("s", "a")] == ("t",)

    def test_validate_rejects_wrong_enum(self):
        lts = self.chain()
        structure = derive_umlts(lts)
        enum = dict(structure.enum)
        del enum[("s", "b")]
        assert not validate_umlts(
            lts, UMLTSStructure(structure.labels, structure.states, enum)
        )

    def test_uniform_view_reconstructs_the_dirac_process(self):
        lts = self.chain()
        table = umlts_to_uniform(derive_umlts(lts))
        assert table.to_nlmp() == mlts_to_nlmp(lts)
        assert validate_uniform(mlts_to_nlmp(lts), table)

    def test_edge_law(self):
        lts = self.chain()
        structure = derive_umlts(lts)
        values = composition_enum(umlts_to_uniform(structure), "s")
        for u in values:
            for a in lts.labels:
                targets = set(lts.successors(u, a))
                listed = set(structure.enum.get((u, a), ()))
                assert targets == listed

    def test_mlts_round_trip(self):
        lts = self.chain()
        back = nlmp_to_mlts(mlts_to_nlmp(lts), "s")
        assert back.edges == lts.edges
        assert back.states == lts.states

    def test_non_dirac_rejected(self):
        nlmp = PointmassNLMP(("a",), ("s", "t"), {("s", "a"): frozenset({measure(t="1/2")})})
        with pytest.raises(ValueError):
            nlmp_to_mlts(nlmp, "s")


class TestWitnessMachinery:
    def build_table(self) -> UniformStructure:
        trans = {
            ("s", "a"): frozenset({measure(t="1/2", u="1/2")}),
            ("s2", "a"): frozenset({measure(t2="1/2", u2="1/2")}),
        }
        states = ("s", "t", "u", "s2", "t2", "u2")
        return derive_uniform(PointmassNLMP(("a",), states, trans))

    def test_empty_relation_gives_empty_witnesses(self):
        table = self.build_table()
        assert witness_indices(table, "s", "s2", frozenset(), 0, 0, "a") == frozenset()
        assert witness_mass_g(table, "s", "s2", frozenset(), 0, 0, "a") == 0

    def test_full_block_collects_both_entries(self):
        table = self.build_table()
        rel = frozenset(
            (x, y) for x in ("t", "u") for y in ("t2", "u2")
        )
        assert witness_indices(table, "s", "s2", rel, 0, 0, "a") == {0, 1}
        assert witness_mass_g(table, "s", "s2", rel, 0, 0, "a") == 1
        assert gk_block(table, "s", "s2", rel, 0, 0, "a")

    def test_singleton_rows_have_tiny_index_sets(self):
        trans = {
            ("s", "a"): frozenset({measure(t="1")}),
            ("s2", "a"): frozenset({measure(t2="1")}),
        }
        table = derive_uniform(
            PointmassNLMP(("a",), ("s", "t", "s2", "t2"), trans)
        )
        assert witness_indices(table, "s", "s2", frozenset(), 0, 0, "a") == frozenset()
        rel = frozenset({("t", "t2")})
        assert witness_indices(table, "s", "s2", rel, 0, 0, "a") == {0}

    def test_missing_rows_are_errors(self):
        table = self.build_table()
        with pytest.raises(ValueError):
            witness_indices(table, "s", "s2", frozenset(), 1, 0, "a")
        with pytest.raises(ValueError):
            witness_indices(table, "s", "s2", frozenset(), 0, 7, "a")

    def test_block_matches_support_lifting(self):
        rng = random.Random(204)
        checked = 0
        for _ in range(80):
            nlmp = random_nlmp(rng, 4)
            table = derive_uniform(nlmp)
            states = nlmp.states
            x, x_prime = rng.choice(states), rng.choice(states)
            left = composition_enum(table, x)
            right = composition_enum(table, x_prime)
            rel = random_z_closed(rng, left, right)
            assert is_z_closed(rel)
            for a in nlmp.labels:
                rows = table.rows.get((x, a))
                prime_rows = table.rows.get((x_prime, a))
                if rows is None or prime_rows is None:
                    continue
                for n in range(len(rows)):
                    for n_prime in range(len(prime_rows)):
                        checked += 1
                        block = gk_block(table, x, x_prime, rel, n, n_prime, a)
                        lifted = lift_support(
                            table.row_measure(x, a, n),
                            table.row_measure(x_prime, a, n_prime),
                            rel,
                        )
                        assert block == lifted
        assert checked > 50


class TestSearch:
    def test_state_against_itself(self):
        rng = random.Random(205)
        nlmp = random_nlmp(rng, 4)
        table = derive_uniform(nlmp)
        s = nlmp.states[0]
        verdict, witness = uniform_bisim_search(table, s, s)
        assert verdict
        for value in composition_enum(table, s):
            assert (value, value) in witness

    def test_mass_mismatch(self):
        trans = {
            ("s", "a"): frozenset({measure(t="1/2")}),
            ("s2", "a"): frozenset({measure(t2="1/3")}),
        }
        table = derive_uniform(
            PointmassNLMP(("a",), ("s", "t", "s2", "t2"), trans)
        )
        verdict, witness = uniform_bisim_search(table, "s", "s2")
        assert not verdict
        assert ("s", "s2") not in witness

    def test_agreement_with_the_ambient_fixpoint(self):
        rng = random.Random(206)
        for _ in range(25):
            nlmp = random_nlmp(rng, 4)
            table = derive_uniform(nlmp)
            ambient = greatest_state_bisim(nlmp)
            s, s_prime = rng.choice(nlmp.states), rng.choice(nlmp.states)
            verdict, witness = uniform_bisim_search(table, s, s_prime)
            assert verdict == ((s, s_prime) in ambient)
            if verdict:
                assert is_saturated_pair(nlmp, witness, s, s_prime)


class TestTreeProcess:
    def test_single_node(self):
        lts = tree_process(ExplicitTree.from_nodes({()}))
        assert lts.states == ("e",)
        assert not lts.edges

    def test_chain_shape(self):
        lts = tree_process(ExplicitTree.from_nodes({(), (0,), (0, 0)}))
        assert lts.states == ("e", "e.0", "e.0.0")
        assert ("e", "suc", "e.0") in lts.edges
        assert ("e.0", "suc", "e.0.0") in lts.edges
        assert len(lts.edges) == 2

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            tree_process(ExplicitTree(frozenset()))

    def test_state_rank_matches_node_rank(self):
        rng = random.Random(207)
        for _ in range(20):
            tree = random_explicit_tree(rng, rng.randint(1, 10))
            lts = tree_process(tree)
            for node in tree.nodes:
                assert state_rank(lts, _node_name(node)) == tree.node_rank(node)


class TestEncoding:
    def test_terminal_state(self):
        lts = PointedLTS(("a",), ("s",), "s", frozenset())
        code = encode_state(lts, "s")
        assert code.root == 0
        assert code.edges == {"a": frozenset()}

    def test_two_chain(self):
        lts = PointedLTS(("a",), ("s", "t"), "s", frozenset({("s", "a", "t")}))
        code = encode_state(lts, "s")
        assert code == OmegaLTSCode(0, {"a": frozenset({(0, 1)})})

    def test_coded_system_is_bisimilar_to_the_source(self):
        rng = random.Random(208)
        for _ in range(25):
            n = rng.randint(1, 5)
            states = tuple(f"s{i}" for i in range(n))
            edges = frozenset(
                (states[i], a, states[j])
                for i in range(n)
                for j in range(n)
                for a in ("a", "b")
                if rng.random() < 0.2
            )
            lts = PointedLTS(("a", "b"), states, states[0], edges)
            s = rng.choice(states)
            code = encode_state(lts, s)
            decoded = code_to_lts(code, n + 1)
            assert bisimilar(decoded, PointedLTS(lts.labels, lts.states, s, lts.edges))

    def test_mismatched_enumeration_rejected(self):
        lts = PointedLTS(("a",), ("s", "t"), "s", frozenset({("s", "a", "t")}))
        other = UMLTSStructure(("a",), ("s", "t"), {("t", "a"): ("s",)})
        with pytest.raises(ValueError):
            encode_state(lts, "s", other)


class TestPipeline:
    def forest(self) -> PointedLTS:
        nodes = {(), (0,), (1,), (0, 0), (1, 0)}
        return tree_process(ExplicitTree.from_nodes(nodes))

    def test_equal_states(self):
        lts = self.forest()
        assert pipeline_bisim(lts, "e", "e", 5)

    def test_bisimilar_but_distinct_states(self):
        lts = self.forest()
        assert pipeline_bisim(lts, "e.0", "e.1", 5)
        assert (("e.0", "e.1") in greatest_bisim(lts, lts))

    def test_rank_difference_separates(self):
        lts = self.forest()
        assert not pipeline_bisim(lts, "e.0", "e.0.0", 5)

    def test_rank_bound_enforced(self):
        lts = self.forest()
        with pytest.raises(ValueError):
            pipeline_bisim(lts, "e", "e.0", 1)
        looped = PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "s")}))
        with pytest.raises(ValueError):
            pipeline_bisim(looped, "s", "s", 3)

    def test_pipeline_agrees_with_direct_bisimilarity(self):
        rng = random.Random(209)
        for _ in range(15):
            tree = random_explicit_tree(rng, rng.randint(1, 8))
            lts = tree_process(tree)
            rel = greatest_bisim(lts, lts)
            for s in lts.states:
                for t in lts.states:
                    assert pipeline_bisim(lts, s, t, Ordinal.from_int(10)) == (
                        (s, t) in rel
                    )

    def test_expansion_canon_route_matches_search_route(self):
        rng = random.Random(210)
        for _ in range(10):
            tree = random_explicit_tree(rng, rng.randint(1, 6))
            lts = tree_process(tree)
            table = derive_uniform(mlts_to_nlmp(lts))
            for s in lts.states:
                for t in lts.states:
                    via_codes = canon(
                        omega_code_expand(encode_state(lts, s))
                    ) == canon(omega_code_expand(encode_state(lts, t)))
                    verdict, _ = uniform_bisim_search(table, s, t)
                    assert via_codes == verdict
