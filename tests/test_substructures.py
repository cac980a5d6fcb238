"""Substructures, relation restriction and closure, and sums."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from bisimkit import gen
from bisimkit.lts import identity_rel, symmetric_closure
from bisimkit.nlmp import (
    PointmassNLMP,
    SubProbMeasure,
    ZERO_MEASURE,
    closed_atoms,
    external_atoms,
    is_ext_state_bisim,
    is_state_bisim,
    is_z_closed,
)
from bisimkit.substructures import (
    composition_enum,
    embed_rel,
    inl_state,
    inr_state,
    internal_closure,
    is_thick,
    ordered_measures,
    pair_closure,
    project_rel,
    reachable_carrier,
    restrict_rel,
    substructure,
    sum_nlmp,
    up_coherence_witness,
)
from support import measure, random_nlmp

F = Fraction


def random_equivalence(rng: random.Random, states) -> frozenset:
    blocks: list[list] = []
    for s in states:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(s)
        else:
            blocks.append([s])
    return frozenset(
        (x, y) for block in blocks for x in block for y in block
    )


class TestThickness:
    def test_is_thick(self):
        mu = measure(a="1/2", b="1/4")
        assert is_thick(mu, ("a", "b", "c"))
        assert not is_thick(mu, ("a", "c"))

    def test_restrict_measure(self):
        mu = measure(a="1/2")
        assert is_thick(mu, ("a", "b"))
        assert not is_thick(mu, ("b",))

    def test_a_set_carrier_is_not_copied(self):
        # substructure asks once per measure, so a copy of the carrier
        # per call made the verb quadratic in the carrier.
        carrier = {f"s{i}" for i in range(100_000)}
        mu = measure(s1="1/2", s2="1/4")
        tracemalloc.start()
        try:
            assert is_thick(mu, carrier)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSubstructure:
    def build(self) -> PointmassNLMP:
        trans = {
            ("s", "a"): frozenset({measure(t="1/2")}),
            ("t", "a"): frozenset({measure(t="1")}),
            ("u", "a"): frozenset({measure(s="1/3", t="1/3")}),
        }
        return PointmassNLMP(("a",), ("s", "t", "u"), trans)

    def test_induced_process(self):
        nlmp = self.build()
        sub = substructure(nlmp, ("s", "t"))
        assert sub.states == ("s", "t")
        assert sub.measures("s", "a") == nlmp.measures("s", "a")
        assert sub.measures("u", "a") == frozenset()

    def test_escaping_measure_rejected(self):
        nlmp = self.build()
        with pytest.raises(ValueError) as err:
            substructure(nlmp, ("u", "t"))
        assert "'u'" in str(err.value)

    def test_unknown_carrier_state_rejected(self):
        with pytest.raises(ValueError):
            substructure(self.build(), ("s", "zz"))

    def test_support_successors_ignores_zero_measure(self):
        trans = {("s", "a"): frozenset({ZERO_MEASURE})}
        nlmp = PointmassNLMP(("a",), ("s", "t"), trans)
        assert composition_enum(nlmp, "s") == ["s"]
        assert reachable_carrier(nlmp, "s") == ("s",)

    def test_reachable_carrier(self):
        nlmp = self.build()
        assert reachable_carrier(nlmp, "t") == ("t",)
        assert reachable_carrier(nlmp, "s") == ("s", "t")
        assert reachable_carrier(nlmp, "u") == ("s", "t", "u")
        assert substructure(nlmp, ("s", "t")).states == ("s", "t")
        with pytest.raises(ValueError, match="leaves the carrier"):
            substructure(nlmp, ("u",))

    def test_carrier_levels_grow(self):
        nlmp = self.build()
        full = composition_enum(nlmp, "u")
        assert full[0] == "u"
        assert set(full) == {"s", "t", "u"}
        for bound in range(len(full) + 1):
            assert composition_enum(nlmp, "u", bound) == full[:bound]


class TestUpCoherence:
    def test_identity_is_external_witness(self):
        rng = random.Random(101)
        for _ in range(20):
            nlmp = random_nlmp(rng, 4)
            root = rng.choice(nlmp.states)
            carrier = reachable_carrier(nlmp, root)
            sub = substructure(nlmp, carrier)
            witness = up_coherence_witness(nlmp, carrier)
            assert witness == identity_rel(carrier)
            assert is_ext_state_bisim(sub, nlmp, witness)


class TestTransfer:
    def test_external_bisim_is_independent_of_ambient(self):
        rng = random.Random(102)
        for _ in range(25):
            nlmp = random_nlmp(rng, 4)
            left = reachable_carrier(nlmp, rng.choice(nlmp.states))
            right = reachable_carrier(nlmp, rng.choice(nlmp.states))
            sub_left = substructure(nlmp, left)
            sub_right = substructure(nlmp, right)
            for _ in range(8):
                rel = frozenset(
                    (x, y)
                    for x in left
                    for y in right
                    if rng.random() < 0.3
                )
                inner = is_ext_state_bisim(sub_left, sub_right, rel)
                outer = is_ext_state_bisim(nlmp, nlmp, rel)
                assert inner == outer

    def test_closed_sets_restrict(self):
        rng = random.Random(103)
        for _ in range(25):
            states = tuple(f"s{i}" for i in range(4))
            carrier = tuple(s for s in states if rng.random() < 0.6) or states[:1]
            rel = frozenset(
                (x, y)
                for x in carrier
                for y in carrier
                if rng.random() < 0.3
            )
            inside = set(closed_atoms(rel, carrier))
            restricted = {
                frozenset(atom & set(carrier))
                for atom in closed_atoms(rel, states)
            } - {frozenset()}
            assert inside == restricted

    def test_symmetric_reflexive_state_bisim_transfers(self):
        rng = random.Random(104)
        for _ in range(25):
            nlmp = random_nlmp(rng, 4)
            carrier = reachable_carrier(nlmp, rng.choice(nlmp.states))
            sub = substructure(nlmp, carrier)
            base = frozenset(
                (x, y) for x in carrier for y in carrier if rng.random() < 0.3
            )
            rel = symmetric_closure(base) | identity_rel(carrier)
            assert is_state_bisim(sub, rel) == is_state_bisim(nlmp, rel)

    def test_external_between_substructures_symmetrizes(self):
        rng = random.Random(105)
        hits = 0
        for _ in range(40):
            nlmp = random_nlmp(rng, 3)
            left = reachable_carrier(nlmp, rng.choice(nlmp.states))
            right = reachable_carrier(nlmp, rng.choice(nlmp.states))
            rel = frozenset(
                (x, y) for x in left for y in right if rng.random() < 0.3
            )
            if is_ext_state_bisim(
                substructure(nlmp, left), substructure(nlmp, right), rel
            ):
                hits += 1
                assert is_state_bisim(nlmp, symmetric_closure(rel))
        assert hits > 0


class TestClosures:
    def test_three_point_example(self):
        rel = frozenset({("1", "2"), ("2", "3")})
        states = ("1", "2", "3")
        assert closed_atoms(rel, states) == (frozenset({"1", "2", "3"}),)
        full = internal_closure(rel, states)
        assert full == frozenset((x, y) for x in states for y in states)
        down = restrict_rel(rel, ("1", "2"), ("3",))
        assert down == frozenset({("2", "3")})
        comps = set(external_atoms(down, ("1", "2"), ("3",)))
        assert (frozenset({"1"}), frozenset()) in comps
        assert pair_closure(down, ("1", "2"), ("3",)) == frozenset({("2", "3")})
        assert restrict_rel(full, ("1", "2"), ("3",)) == frozenset(
            {("1", "3"), ("2", "3")}
        )

    def test_internal_closure_is_idempotent_equivalence(self):
        rng = random.Random(106)
        states = tuple(f"s{i}" for i in range(5))
        for _ in range(30):
            rel = frozenset(
                (x, y) for x in states for y in states if rng.random() < 0.2
            )
            closure = internal_closure(rel, states)
            assert internal_closure(closure, states) == closure
            assert identity_rel(states) <= closure
            assert symmetric_closure(closure) == closure

    def test_pair_closure_drops_isolated(self):
        rel = frozenset({("a", "x")})
        closure = pair_closure(rel, ("a", "b"), ("x", "y"))
        assert closure == frozenset({("a", "x")})


class TestDescent:
    def test_closed_state_bisim_descends(self):
        rng = random.Random(107)
        hits = 0
        for _ in range(60):
            nlmp = random_nlmp(rng, 4)
            rel = internal_closure(
                random_equivalence(rng, nlmp.states), nlmp.states
            )
            if not is_state_bisim(nlmp, rel):
                continue
            hits += 1
            left = reachable_carrier(nlmp, rng.choice(nlmp.states))
            right = reachable_carrier(nlmp, rng.choice(nlmp.states))
            down = restrict_rel(rel, left, right)
            assert is_z_closed(down)
            assert is_ext_state_bisim(
                substructure(nlmp, left), substructure(nlmp, right), down
            )
        assert hits > 0


class TestSums:
    def test_shape(self):
        left = PointmassNLMP(
            ("a",), ("s",), {("s", "a"): frozenset({measure(s="1/2")})}
        )
        right = PointmassNLMP(("b",), ("s",), {})
        total = sum_nlmp(left, right)
        assert total.states == ("l:s", "r:s")
        assert total.labels == ("a", "b")
        (mu,) = total.measures("l:s", "a")
        assert mu.mass({"l:s"}) == (1, 2)

    def test_embed_project_round_trip(self):
        rel = frozenset({("s", "t"), ("u", "v")})
        lifted = embed_rel(rel)
        assert lifted == frozenset({("l:s", "r:t"), ("l:u", "r:v")})
        assert project_rel(symmetric_closure(lifted)) == rel

    def test_prefix_helpers(self):
        assert inl_state("x") == "l:x"
        assert inr_state("x") == "r:x"

    def test_external_bisim_iff_sum_state_bisim(self):
        rng = random.Random(108)
        for _ in range(30):
            left = random_nlmp(rng, 3)
            right = random_nlmp(rng, 3)
            total = sum_nlmp(left, right)
            rel = frozenset(
                (s, t)
                for s in left.states
                for t in right.states
                if rng.random() < 0.3
            )
            ext = is_ext_state_bisim(left, right, rel)
            lifted = symmetric_closure(embed_rel(rel))
            assert ext == is_state_bisim(total, lifted)


def oracle_ordered_measures(nlmp: PointmassNLMP, state: str, label: str) -> list:
    """The measures sorted by their weight listings, masses read as Fractions."""
    return sorted(
        nlmp.measures(state, label),
        key=lambda mu: [(s, Fraction(*mass)) for s, mass in mu.weights],
    )


class TestOrderedMeasures:
    """Measures are listed in value order, which pair order is not."""

    def test_matches_the_fraction_order_on_random_processes(self):
        rng = random.Random(140)
        rows = disagreements = 0
        for _ in range(400):
            nlmp = gen.random_nlmp(rng, 3, 1, 4, 2)
            for s in nlmp.states:
                for a in nlmp.labels:
                    expected = oracle_ordered_measures(nlmp, s, a)
                    assert ordered_measures(nlmp, s, a) == expected
                    rows += 1
                    by_pairs = sorted(nlmp.measures(s, a), key=lambda mu: mu.weights)
                    disagreements += by_pairs != expected
        # The seeds reach rows where sorting the pairs themselves goes wrong.
        assert rows >= 500 and disagreements >= 10, (rows, disagreements)

    @pytest.mark.parametrize(
        "larger, smaller",
        [
            ({"t": "1/2"}, {"t": "1/3"}),
            ({"t": "2/5"}, {"t": "1/3"}),
            ({"s": "1/2", "t": "1/3"}, {"s": "1/2", "t": "1/6"}),
            ({"s": "1/3", "t": "1/2"}, {"s": "1/3"}),
            ({"t": "1"}, {"s": "1/7", "t": "6/7"}),
        ],
    )
    def test_hand_made_measures(self, larger, smaller):
        big, small = measure(**larger), measure(**smaller)
        nlmp = PointmassNLMP(("a",), ("s", "t"), {("s", "a"): frozenset({big, small})})
        assert ordered_measures(nlmp, "s", "a") == [small, big]
        assert oracle_ordered_measures(nlmp, "s", "a") == [small, big]

    def test_order_memory_follows_the_measures(self):
        # 3000 measures with distinct prime denominators: keys on the
        # denominators' common multiple would each take ~37,000 bits (over
        # 10 MiB in all), while pairwise comparison keeps no key that large.
        primes = [p for p in range(2, 30000) if all(p % q for q in range(2, int(p**0.5) + 1))]
        bundle = frozenset(SubProbMeasure((("t", (1, p)),)) for p in primes[:3000])
        nlmp = PointmassNLMP(("a",), ("s", "t"), {("s", "a"): bundle})
        tracemalloc.start()
        try:
            listed = ordered_measures(nlmp, "s", "a")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**22
        assert listed == oracle_ordered_measures(nlmp, "s", "a")

    def test_no_measures(self):
        nlmp = PointmassNLMP(("a",), ("s",), {})
        assert ordered_measures(nlmp, "s", "a") == []
