"""Measures, liftings, and probabilistic bisimulations."""

import random
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations

import pytest

from bisimkit import gen
from bisimkit.nlmp import (
    PointmassNLMP,
    SubProbMeasure,
    ZERO_MEASURE,
    closed_atoms,
    external_atoms,
    greatest_ext_bisim,
    greatest_state_bisim,
    is_ext_state_bisim,
    is_state_bisim,
    is_z_closed,
    lift_external,
    lift_support,
)

F = Fraction


def measure(**masses) -> SubProbMeasure:
    return SubProbMeasure.from_mapping(
        {state: F(text) for state, text in masses.items()}
    )


def subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def random_measure(rng: random.Random, states) -> SubProbMeasure:
    if rng.random() < 0.15:
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
            ms = frozenset(
                random_measure(rng, states) for _ in range(rng.randint(1, 2))
            )
            trans[(s, a)] = ms
    return PointmassNLMP(tuple(labels), states, trans)


def random_z_closed(rng: random.Random, left, right) -> frozenset:
    n_blocks = rng.randint(1, 3)
    left_block = {s: rng.randrange(-1, n_blocks) for s in left}
    right_block = {t: rng.randrange(-1, n_blocks) for t in right}
    return frozenset(
        (s, t)
        for s in left
        for t in right
        if left_block[s] == right_block[t] != -1
    )


class TestMeasures:
    def test_construction_and_mass(self):
        mu = measure(x="1/2", y="1/4")
        assert sum(m for _, m in mu.weights) == F(3, 4)
        assert mu.mass({"x"}) == F(1, 2)
        assert mu.mass({"z"}) == 0
        assert mu.mass({"x", "y"}) == F(3, 4)
        assert mu.support == frozenset({"x", "y"})

    def test_zero_measure(self):
        assert not ZERO_MEASURE.weights
        assert sum(m for _, m in ZERO_MEASURE.weights) == 0
        assert measure() == ZERO_MEASURE

    def test_from_mapping_drops_zero_entries(self):
        assert SubProbMeasure.from_mapping({"x": F(0)}) == ZERO_MEASURE

    def test_dirac(self):
        point = measure(x="1")
        assert point == SubProbMeasure((("x", F(1)),))
        assert point.mass({"x"}) == 1 and point.mass({"y"}) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SubProbMeasure((("x", F(-1, 2)),))
        with pytest.raises(ValueError):
            SubProbMeasure((("y", F(1, 2)), ("x", F(1, 2))))
        with pytest.raises(ValueError):
            SubProbMeasure((("x", F(2, 3)), ("y", F(2, 3))))
        with pytest.raises(ValueError):
            SubProbMeasure((("x", 0.5),))

    def test_total_mass_is_checked_exactly(self):
        # Checks run in order: each mass, then the sorting, then the total.
        with pytest.raises(ValueError, match="^total mass 5/4 exceeds one$"):
            SubProbMeasure((("x", F(1, 2)), ("y", F(3, 4))))
        with pytest.raises(ValueError, match="^total mass 2 exceeds one$"):
            SubProbMeasure((("x", F(1)), ("y", F(1))))
        with pytest.raises(ValueError, match="sorted"):
            SubProbMeasure((("y", F(1)), ("x", F(1))))
        thirds = tuple((f"s{i}", F(1, 3)) for i in range(3))
        assert sum(m for _, m in SubProbMeasure(thirds).weights) == 1
        rng = random.Random(41)
        for _ in range(500):
            masses = [F(rng.randint(1, 9), rng.randint(1, 40)) for _ in range(rng.randint(1, 5))]
            weights = tuple((f"s{i}", m) for i, m in enumerate(masses))
            if sum(masses) > 1:
                with pytest.raises(ValueError, match=f"^total mass {sum(masses)} exceeds one$"):
                    SubProbMeasure(weights)
            else:
                assert sum(m for _, m in SubProbMeasure(weights).weights) == sum(masses)


class TestClosedAtoms:
    def test_single_pair(self):
        atoms = closed_atoms(frozenset({("1", "2")}), ("1", "2", "3"))
        assert set(atoms) == {frozenset({"1", "2"}), frozenset({"3"})}

    def test_chain_merges(self):
        atoms = closed_atoms(
            frozenset({("1", "2"), ("2", "3")}), ("1", "2", "3", "4")
        )
        assert set(atoms) == {frozenset({"1", "2", "3"}), frozenset({"4"})}

    def test_pair_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            closed_atoms(frozenset({("1", "9")}), ("1", "2"))


class TestInternalLifting:
    def test_swap_pair(self):
        rel = frozenset({("1", "2"), ("2", "1")})
        mu = measure(**{"1": "1/2"})
        nu = measure(**{"2": "1/2"})
        assert oracle_lift_internal(mu, nu, rel, ("1", "2"))

    def test_empty_relation_needs_equality(self):
        mu = measure(**{"1": "1/2"})
        nu = measure(**{"2": "1/2"})
        assert not oracle_lift_internal(mu, nu, frozenset(), ("1", "2"))
        assert oracle_lift_internal(mu, mu, frozenset(), ("1", "2"))

    def test_support_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            oracle_lift_internal(measure(z="1/2"), ZERO_MEASURE, frozenset(), ("1", "2"))


class TestExternalLifting:
    def test_mass_on_isolated_state_fails(self):
        rel = frozenset({("s1", "t1")})
        mu = measure(s1="1/2", s2="1/4")
        nu = measure(t1="3/4")
        assert not lift_external(mu, nu, rel, ("s1", "s2"), ("t1",))

    def test_block_mass_transfer(self):
        rel = frozenset({("s1", "t1"), ("s2", "t1")})
        mu = measure(s1="1/2", s2="1/4")
        nu = measure(t1="3/4")
        assert lift_external(mu, nu, rel, ("s1", "s2"), ("t1",))
        assert not lift_external(mu, measure(t1="1/2"), rel, ("s1", "s2"), ("t1",))

    def test_matches_closed_pair_enumeration(self):
        rng = random.Random(81)
        left = ("s0", "s1", "s2")
        right = ("t0", "t1", "t2")
        for _ in range(150):
            rel = frozenset(
                (s, t) for s in left for t in right if rng.random() < 0.25
            )
            mu = random_measure(rng, left)
            nu = random_measure(rng, right)
            expected = self._oracle(mu, nu, rel, left, right)
            assert lift_external(mu, nu, rel, left, right) == expected

    @staticmethod
    def _oracle(mu, nu, rel, left, right) -> bool:
        for e in subsets(left):
            for e2 in subsets(right):
                image = {t for s, t in rel if s in e}
                preimage = {s for s, t in rel if t in set(e2)}
                if image <= set(e2) and preimage <= set(e):
                    if mu.mass(e) != nu.mass(e2):
                        return False
        return True

    def test_component_shape(self):
        rel = frozenset({("s1", "t1"), ("s2", "t1")})
        comps = external_atoms(rel, ("s1", "s2", "s3"), ("t1", "t2"))
        assert set(comps) == {
            (frozenset({"s1", "s2"}), frozenset({"t1"})),
            (frozenset({"s3"}), frozenset()),
            (frozenset(), frozenset({"t2"})),
        }


class TestSupportLifting:
    def test_z_closed_detection(self):
        missing = frozenset({("x1", "y1"), ("x2", "y1"), ("x2", "y2")})
        assert not is_z_closed(missing)
        assert is_z_closed(missing | {("x1", "y2")})
        assert is_z_closed(frozenset())

    def test_requires_z_closed(self):
        rel = frozenset({("x1", "y1"), ("x2", "y1"), ("x2", "y2")})
        with pytest.raises(ValueError):
            lift_support(ZERO_MEASURE, ZERO_MEASURE, rel)

    def test_unrelated_support_point_fails(self):
        rel = frozenset({("x1", "y1")})
        assert not lift_support(measure(x2="1"), ZERO_MEASURE, rel)
        assert not lift_support(ZERO_MEASURE, measure(y2="1"), rel)

    def test_agrees_with_external_on_z_closed(self):
        rng = random.Random(82)
        left = ("s0", "s1", "s2", "s3")
        right = ("t0", "t1", "t2", "t3")
        hits = 0
        for _ in range(250):
            rel = random_z_closed(rng, left, right)
            mu = random_measure(rng, left)
            nu = random_measure(rng, right)
            ext = lift_external(mu, nu, rel, left, right)
            assert lift_support(mu, nu, rel) == ext
            hits += ext
        assert hits > 0


def oracle_greatest_state(nlmp: PointmassNLMP) -> frozenset:
    pairs = [(s, t) for s in nlmp.states for t in nlmp.states]
    union: set = set()
    for mask in range(2 ** len(pairs)):
        rel = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if rel != frozenset((t, s) for s, t in rel):
            continue
        if is_state_bisim(nlmp, rel):
            union |= rel
    return frozenset(union)


def oracle_greatest_ext(left: PointmassNLMP, right: PointmassNLMP) -> frozenset:
    pairs = [(s, t) for s in left.states for t in right.states]
    union: set = set()
    for mask in range(2 ** len(pairs)):
        rel = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if is_ext_state_bisim(left, right, rel):
            union |= rel
    return frozenset(union)


class TestStateBisim:
    def test_identity_always_works(self):
        rng = random.Random(83)
        for _ in range(10):
            nlmp = random_nlmp(rng, 3)
            ident = frozenset((s, s) for s in nlmp.states)
            assert is_state_bisim(nlmp, ident)

    def test_asymmetric_relation_rejected(self):
        nlmp = PointmassNLMP(("a",), ("s", "t"))
        with pytest.raises(ValueError):
            is_state_bisim(nlmp, frozenset({("s", "t")}))

    def test_split_distribution_merges_with_dirac(self):
        trans = {
            ("u", "a"): frozenset({measure(v="1/2", w="1/2")}),
            ("u2", "a"): frozenset({measure(v="1")}),
        }
        nlmp = PointmassNLMP(("a",), ("u", "u2", "v", "w"), trans)
        rel = greatest_state_bisim(nlmp)
        assert ("u", "u2") in rel
        assert ("v", "w") in rel

    def test_zero_measure_differs_from_no_transition(self):
        trans = {("s", "a"): frozenset({ZERO_MEASURE})}
        nlmp = PointmassNLMP(("a",), ("s", "t"), trans)
        rel = greatest_state_bisim(nlmp)
        assert ("s", "t") not in rel
        assert ("s", "s") in rel

    def test_codes_do_not_carry_between_parts(self):
        # Each mass is paired with its part: mass 1 on u's part is no mass
        # on v's, though 1 and 1/2 could blur in a packed encoding.
        trans = {
            ("s", "a"): frozenset({measure(u="1")}),
            ("t", "a"): frozenset({measure(v="1/2")}),
        }
        nlmp = PointmassNLMP(("a",), ("s", "t", "u", "v"), trans)
        rel = frozenset({("s", "t"), ("t", "s")}) | {(x, x) for x in nlmp.states}
        assert not is_state_bisim(nlmp, rel)
        assert not is_ext_state_bisim(nlmp, nlmp, rel)

    def test_probability_values_matter(self):
        trans = {
            ("s", "a"): frozenset({measure(v="1/2")}),
            ("t", "a"): frozenset({measure(v="1/3")}),
        }
        nlmp = PointmassNLMP(("a",), ("s", "t", "v"), trans)
        assert ("s", "t") not in greatest_state_bisim(nlmp)

    def test_matches_exhaustive_union(self):
        rng = random.Random(84)
        for _ in range(25):
            nlmp = random_nlmp(rng, 3)
            assert greatest_state_bisim(nlmp) == oracle_greatest_state(nlmp)

    def test_greatest_is_itself_a_bisim(self):
        rng = random.Random(85)
        for _ in range(15):
            nlmp = random_nlmp(rng, 4)
            assert is_state_bisim(nlmp, greatest_state_bisim(nlmp))


class TestExternalBisim:
    def test_matches_exhaustive_union(self):
        rng = random.Random(86)
        for _ in range(20):
            left = random_nlmp(rng, 3)
            right = random_nlmp(rng, 3)
            assert greatest_ext_bisim(left, right) == oracle_greatest_ext(left, right)

    def test_greatest_is_itself_an_ext_bisim(self):
        rng = random.Random(87)
        for _ in range(15):
            left = random_nlmp(rng, 3)
            right = random_nlmp(rng, 3)
            rel = greatest_ext_bisim(left, right)
            assert is_ext_state_bisim(left, right, rel)

    def test_self_external_contains_identity(self):
        rng = random.Random(88)
        for _ in range(10):
            nlmp = random_nlmp(rng, 3)
            rel = greatest_ext_bisim(nlmp, nlmp)
            assert all((s, s) in rel for s in nlmp.states)


class TestInternalIsExternalOnReflexiveSymmetric:
    """For S = S', internal and external notions agree on R reflexive and symmetric.

    Such an R links each state to its own copy, so every bipartite
    component is a closed atom on both sides.
    """

    def relations(self, rng: random.Random, nlmp: PointmassNLMP):
        states = nlmp.states
        yield greatest_state_bisim(nlmp)
        yield gen.random_equivalence(rng, states, rng.randint(1, 3))
        pairs = {(s, t) for s in states for t in states if rng.random() < 0.2}
        identity = {(s, s) for s in states}
        yield frozenset(pairs | {(t, s) for s, t in pairs} | identity)

    def test_agree_on_seeded_relations(self):
        rng = random.Random(90)
        verdicts = {True: 0, False: 0}
        for _ in range(1000):
            nlmp = random_nlmp(rng, rng.randint(1, 4), ("a", "b"))
            states = nlmp.states
            for rel in self.relations(rng, nlmp):
                atoms = closed_atoms(rel, states)
                pairs = external_atoms(rel, states, states)
                assert all(q == q_prime for q, q_prime in pairs)
                assert tuple(q for q, _ in pairs) == atoms
                mu, nu = random_measure(rng, states), random_measure(rng, states)
                lifted = oracle_lift_internal(mu, nu, rel, states)
                assert lifted == lift_external(mu, nu, rel, states, states)
                verdict = is_state_bisim(nlmp, rel)
                assert verdict == is_ext_state_bisim(nlmp, nlmp, rel)
                verdicts[lifted] += 1
                verdicts[verdict] += 1
        assert min(verdicts.values()) > 1000, verdicts

    def test_greatest_state_bisim_is_the_greatest_ext_bisim_with_itself(self):
        rng = random.Random(91)
        merged = 0
        for _ in range(200):
            nlmp = gen.random_nlmp(rng, max_states=6)
            rel = greatest_state_bisim(nlmp)
            assert rel == greatest_ext_bisim(nlmp, nlmp)
            merged += len(rel) > len(nlmp.states)
        assert merged >= 40

    def test_reflexivity_is_needed(self):
        states = ("x", "y")
        rel = frozenset({("x", "y"), ("y", "x")})
        dirac = measure(x="1")
        assert oracle_lift_internal(dirac, dirac, rel, states)
        assert not lift_external(dirac, dirac, rel, states, states)


class TestHitBisim:
    def test_agrees_with_state_bisim(self):
        rng = random.Random(89)
        for _ in range(30):
            nlmp = random_nlmp(rng, 3)
            base = [(s, t) for s in nlmp.states for t in nlmp.states]
            raw = frozenset(p for p in base if rng.random() < 0.4)
            rel = raw | frozenset((t, s) for s, t in raw)
            assert oracle_is_hit_bisim(nlmp, rel) == is_state_bisim(nlmp, rel)

    def test_asymmetric_rejected(self):
        nlmp = PointmassNLMP(("a",), ("s", "t"))
        with pytest.raises(ValueError, match="must be symmetric"):
            is_state_bisim(nlmp, frozenset({("s", "t")}))


# The former lifting loops, kept as oracles for the code kernel:
# a neighbour search per atom and Fraction sums per atom and measure pair.


def oracle_closed_atoms(rel, states) -> tuple:
    universe = list(states)
    nbrs: dict = {}
    for x, y in rel:
        nbrs.setdefault(x, set()).add(y)
        nbrs.setdefault(y, set()).add(x)
    for x, y in rel:
        if x not in universe or y not in universe:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the universe")
    seen: set = set()
    atoms = []
    for s in universe:
        if s in seen:
            continue
        component = {s}
        frontier = [s]
        while frontier:
            for v in nbrs.get(frontier.pop(), ()):
                if v not in component:
                    component.add(v)
                    frontier.append(v)
        seen |= component
        atoms.append(frozenset(component))
    return tuple(atoms)


def oracle_external_atoms(rel, left, right) -> tuple:
    left, right = list(left), list(right)
    for x, y in rel:
        if x not in set(left) or y not in set(right):
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the universes")
    tagged = frozenset((("l", x), ("r", y)) for x, y in rel)
    universe = [("l", s) for s in left] + [("r", t) for t in right]
    return tuple(
        (
            frozenset(s for side, s in atom if side == "l"),
            frozenset(t for side, t in atom if side == "r"),
        )
        for atom in oracle_closed_atoms(tagged, universe)
    )


def oracle_lift_internal(mu, nu, rel, states) -> bool:
    universe = list(states)
    if mu.support - set(universe) or nu.support - set(universe):
        raise ValueError("measure support leaves the universe")
    return all(
        mu.mass(atom) == nu.mass(atom) for atom in oracle_closed_atoms(rel, universe)
    )


def oracle_lift_external(mu, nu, rel, left, right) -> bool:
    if mu.support - set(left) or nu.support - set(right):
        raise ValueError("measure support leaves the universe")
    return all(
        mu.mass(q) == nu.mass(q_prime)
        for q, q_prime in oracle_external_atoms(rel, left, right)
    )


def oracle_is_state_bisim(nlmp: PointmassNLMP, rel) -> bool:
    """The zig form: each measure of s meets an internally lifted one of t."""
    if rel != frozenset((y, x) for x, y in rel):
        raise ValueError("a state bisimulation must be symmetric")
    for x, y in rel:
        if x not in nlmp.states or y not in nlmp.states:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the state set")
    atoms = oracle_closed_atoms(rel, nlmp.states)

    def lift(mu, nu) -> bool:
        return all(mu.mass(atom) == nu.mass(atom) for atom in atoms)

    return all(
        any(lift(mu, nu) for nu in nlmp.measures(t, a))
        for s, t in rel
        for a in nlmp.labels
        for mu in nlmp.measures(s, a)
    )


def oracle_is_hit_bisim(nlmp: PointmassNLMP, rel) -> bool:
    """Related states offer the same sets of per-atom Fraction vectors."""
    if rel != frozenset((y, x) for x, y in rel):
        raise ValueError("a hit bisimulation must be symmetric")
    for x, y in rel:
        if x not in nlmp.states or y not in nlmp.states:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the state set")
    atoms = oracle_closed_atoms(rel, nlmp.states)

    def vectors(state, label) -> set:
        return {tuple(mu.mass(q) for q in atoms) for mu in nlmp.measures(state, label)}

    return all(vectors(s, a) == vectors(t, a) for s, t in rel for a in nlmp.labels)


def oracle_is_ext_state_bisim(left: PointmassNLMP, right: PointmassNLMP, rel) -> bool:
    """Both ways round: every measure on each side meets one on the other."""
    for x, y in rel:
        if x not in left.states or y not in right.states:
            raise ValueError(f"relation pair ({x!r},{y!r}) leaves the state sets")
    components = oracle_external_atoms(rel, left.states, right.states)

    def lift(mu, nu) -> bool:
        return all(mu.mass(q) == nu.mass(qp) for q, qp in components)

    for s, t in rel:
        for a in dict.fromkeys(left.labels + right.labels):
            for mu in left.measures(s, a):
                if not any(lift(mu, nu) for nu in right.measures(t, a)):
                    return False
            for nu in right.measures(t, a):
                if not any(lift(mu, nu) for mu in left.measures(s, a)):
                    return False
    return True


# Coprime denominators, and sums such as 1/6 + 1/3 that reduce.
MASSES = [F(1, 3), F(1, 7), F(2, 7), F(1, 2), F(1, 5), F(3, 7), F(1, 6)]


def coprime_measure(rng: random.Random, states) -> SubProbMeasure:
    masses: dict = {}
    for s in rng.sample(list(states), k=min(len(states), rng.randint(0, 3))):
        mass = rng.choice(MASSES)
        if sum(masses.values()) + mass <= 1:
            masses[s] = mass
    return SubProbMeasure.from_mapping(masses)


def coprime_nlmp(rng: random.Random, prefix: str) -> PointmassNLMP:
    states = tuple(f"{prefix}{i}" for i in range(rng.randint(1, 5)))
    labels = ("a", "b")[: rng.randint(1, 2)]
    trans = {}
    for s in states:
        for a in labels:
            roll = rng.random()
            if roll < 0.25:
                continue
            count = 0 if roll < 0.35 else rng.randint(1, 3)
            trans[s, a] = frozenset(coprime_measure(rng, states) for _ in range(count))
    return PointmassNLMP(labels, states, trans)


def outcome(fn, *args):
    """The value, or the text of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return f"error: {err}"


class TestCodeKernelMatchesOracles:
    CASES = 2400

    def relations(self, rng, left, right, greatest):
        pairs = [(x, y) for x in left.states for y in right.states]
        raw = frozenset(p for p in pairs if rng.random() < rng.choice((0.1, 0.3, 0.6)))
        part = frozenset(p for p in greatest if rng.random() < 0.7)
        stray = raw | {(rng.choice(left.states), "zz"), ("yy", rng.choice(right.states))}
        return [frozenset(), raw, greatest, part, stray]

    def test_verdicts_atoms_and_errors_agree(self):
        rng = random.Random(93)
        verdicts: dict = {}
        cases = 0
        while cases < self.CASES:
            left = coprime_nlmp(rng, "s")
            right = left if rng.random() < 0.2 else coprime_nlmp(rng, "t")
            inner = greatest_state_bisim(left)
            outer = greatest_ext_bisim(left, right)
            symmetric = self.relations(rng, left, left, inner)
            symmetric = [r | {(y, x) for x, y in r} for r in symmetric] + symmetric[1:2]
            for rel in symmetric:
                cases += 1
                mu, nu = coprime_measure(rng, left.states), coprime_measure(rng, left.states)
                if rng.random() < 0.1:
                    nu = measure(zz="1/3")
                for fn, oracle, args in (
                    (closed_atoms, oracle_closed_atoms, (rel, left.states)),
                    (is_state_bisim, oracle_is_state_bisim, (left, rel)),
                ):
                    got = outcome(fn, *args)
                    assert got == outcome(oracle, *args), (fn.__name__, args)
                    verdicts.setdefault(fn.__name__, set()).add(str(got)[:6])
            for rel in self.relations(rng, left, right, outer):
                cases += 1
                mu, nu = coprime_measure(rng, left.states), coprime_measure(rng, right.states)
                if rng.random() < 0.1:
                    mu = measure(zz="1/7")
                universes = (rel, left.states, right.states)
                for fn, oracle, args in (
                    (external_atoms, oracle_external_atoms, universes),
                    (lift_external, oracle_lift_external, (mu, nu, *universes)),
                    (is_ext_state_bisim, oracle_is_ext_state_bisim, (left, right, rel)),
                ):
                    got = outcome(fn, *args)
                    assert got == outcome(oracle, *args), (fn.__name__, args)
                    verdicts.setdefault(fn.__name__, set()).add(str(got)[:6])
        for name in ("is_state_bisim", "lift_external", "is_ext_state_bisim"):
            assert verdicts[name] >= {"True", "False", "error:"}, name

    def test_coprime_masses_merge_across_an_atom(self):
        mu = measure(x="1/3", y="1/7")
        nu = measure(x="10/21")
        states = ("x", "y")
        identity = frozenset({("x", "x"), ("y", "y")})
        full = identity | {("x", "y"), ("y", "x")}
        assert lift_external(mu, nu, full, states, states)
        assert not lift_external(mu, nu, identity, states, states)
        onto_u = frozenset({("x", "u"), ("y", "u")})
        assert lift_external(mu, measure(u="10/21"), onto_u, ("x", "y"), ("u",))
        sixth = measure(x="1/6", y="1/3")
        assert lift_external(sixth, measure(y="1/2"), full, states, states)

    def test_code_memory_follows_the_supports(self):
        # One part per state and 100 distinct prime denominators: codes
        # read on one common scale would take ~n^2 * log(scale) / 2 bits
        # (tens of MiB here), while (part, mass) pairs stay linear in n.
        primes = [p for p in range(3, 600) if all(p % q for q in range(2, p))][:100]
        states = tuple(f"s{i}" for i in range(600))
        trans = {
            (s, "a"): frozenset({SubProbMeasure(((s, F(1, primes[i % 100])),))})
            for i, s in enumerate(states)
        }
        nlmp = PointmassNLMP(("a",), states, trans)
        identity = frozenset((s, s) for s in states)
        tracemalloc.start()
        try:
            assert is_state_bisim(nlmp, identity)
            assert is_ext_state_bisim(nlmp, nlmp, identity)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**22


def event_atoms(events, states) -> tuple:
    """Atoms of the algebra generated by a family of state sets."""
    events = list(events)
    by_pattern: dict[tuple, list] = {}
    for s in states:
        pattern = tuple(s in event for event in events)
        by_pattern.setdefault(pattern, []).append(s)
    return tuple(frozenset(block) for block in by_pattern.values())


def oracle_is_event_bisim(nlmp: PointmassNLMP, events) -> bool:
    """Is the algebra the events generate stable under hit preimages?

    The event bisimulations of D'Argenio, Sanchez Terraf and Wolovick
    (2012), decided by summing every mass again per threshold.
    """
    atoms = event_atoms(events, nlmp.states)
    algebra = [frozenset(chain.from_iterable(chosen)) for chosen in subsets(atoms)]
    atom_of = {s: atom for atom in atoms for s in atom}
    for a in nlmp.labels:
        for measurable in algebra:
            attained = {
                mu.mass(measurable)
                for s in nlmp.states
                for mu in nlmp.measures(s, a)
            }
            for threshold in attained:
                for strict in (True, False):
                    hit = {
                        s
                        for s in nlmp.states
                        if any(
                            (mu.mass(measurable) > threshold)
                            if strict
                            else (mu.mass(measurable) >= threshold)
                            for mu in nlmp.measures(s, a)
                        )
                    }
                    if any(not atom_of[s] <= hit for s in hit):
                        return False
    return True


class TestEventBisim:
    def test_atom_pattern_partition(self):
        atoms = event_atoms([frozenset({"s", "t"})], ("s", "t", "u"))
        assert set(atoms) == {frozenset({"s", "t"}), frozenset({"u"})}

    def test_coarse_family_fails_when_it_splits_behavior(self):
        trans = {("s", "a"): frozenset({measure(u="1")})}
        nlmp = PointmassNLMP(("a",), ("s", "t", "u"), trans)
        assert not oracle_is_event_bisim(nlmp, [frozenset({"s", "t"})])

    def test_bisim_partition_induces_event_bisim(self):
        rng = random.Random(90)
        for _ in range(20):
            nlmp = random_nlmp(rng, 3)
            rel = greatest_state_bisim(nlmp)
            blocks = closed_atoms(rel, nlmp.states)
            assert oracle_is_event_bisim(nlmp, blocks)

    def test_full_algebra_always_works(self):
        rng = random.Random(91)
        for _ in range(10):
            nlmp = random_nlmp(rng, 3)
            singletons = [frozenset({s}) for s in nlmp.states]
            assert oracle_is_event_bisim(nlmp, singletons)


class TestValidation:
    def test_measure_support_must_be_states(self):
        with pytest.raises(ValueError):
            PointmassNLMP(
                ("a",), ("s",), {("s", "a"): frozenset({measure(zz="1/2")})}
            )

    def test_labels_must_be_declared(self):
        with pytest.raises(ValueError):
            PointmassNLMP(("a",), ("s",), {("s", "b"): frozenset()})
