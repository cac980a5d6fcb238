"""Enumeration closures, index-level lifting, search, and the coding pipeline."""

import random
from fractions import Fraction

import pytest

from bisimkit import gen
from bisimkit.expansion import omega_code_expand
from bisimkit.foundations import Ordinal, frozen
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
from bisimkit.substructures import composition_enum, ordered_measures, reachable_carrier
from bisimkit.trees import ExplicitTree, node_name
from bisimkit.treeiso import canon
from bisimkit.uniform import (
    encode_state,
    gk_block,
    pipeline_bisim,
    tree_process,
    uniform_bisim_search,
)

F = Fraction


def R(*value) -> tuple:
    """The reduced (num, den) pair of a rational, made through Fraction."""
    f = Fraction(*value)
    return f.numerator, f.denominator


def measure(**masses) -> SubProbMeasure:
    return SubProbMeasure.from_mapping(
        {state: R(text) for state, text in masses.items()}
    )


def is_carrier(nlmp: PointmassNLMP, carrier) -> bool:
    pool = set(carrier)
    return all(
        mu.support <= pool
        for s in pool
        for a in nlmp.labels
        for mu in nlmp.measures(s, a)
    )


def oracle_is_saturated_pair(nlmp: PointmassNLMP, rel, s: str, s_prime: str) -> bool:
    """Do the reachability levels of the two states cover each other?

    Level by level, every state on either side must be related to some
    state on the matching level of the other side.
    """
    left_levels = oracle_carrier_levels(nlmp, s)
    right_levels = oracle_carrier_levels(nlmp, s_prime)
    for n in range(max(len(left_levels), len(right_levels))):
        level = left_levels[min(n, len(left_levels) - 1)]
        level_prime = right_levels[min(n, len(right_levels) - 1)]
        if not all(any((x, y) in rel for x in level) for y in level_prime):
            return False
        if not all(any((x, y) in rel for y in level_prime) for x in level):
            return False
    return True


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
            weights[s] = R(w, den)
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


# The former table layer: per state and label, each transition measure as
# a row of (index, mass, target) entries, the walk over those rows and the
# level walk of the least carrier. The walk, the index-level block and the
# search now read the process directly; these are their oracles.


@frozen
class UniformStructure:
    """Per state and label, rows of weighted targets; absent pairs have none."""

    labels: tuple[str, ...]
    states: tuple[str, ...]
    rows: dict  # (state, label) -> tuple of rows


def oracle_derive_uniform(nlmp: PointmassNLMP) -> UniformStructure:
    """Tabulate a process, ordering measures by their weight listings,
    with every mass read as a Fraction."""
    rows = {}
    for (s, a), measures in nlmp.trans.items():
        if not measures:
            continue
        listings = sorted([(t, F(*mass)) for t, mass in mu.weights] for mu in measures)
        rows[(s, a)] = tuple(
            tuple((k, mass, target) for k, (target, mass) in enumerate(listing))
            for listing in listings
        )
    return UniformStructure(nlmp.labels, nlmp.states, rows)


def oracle_row(table: UniformStructure, state: str, label: str, n: int) -> tuple:
    rows = table.rows.get((state, label))
    if rows is None or not 0 <= n < len(rows):
        raise ValueError(f"no row {n} at ({state!r},{label!r})")
    return rows[n]


def oracle_composition_enum(
    table: UniformStructure, state: str, bound: int | None = None
) -> list[str]:
    """Values of the iterated target maps, breadth first over the table."""
    if state not in table.states:
        raise ValueError(f"unknown state {state!r}")
    if bound is not None and bound < 0:
        raise ValueError("bound must be a natural")
    listed = [state]
    seen = {state}
    for value in listed:
        if bound is not None and len(listed) >= bound:
            break
        for a in table.labels:
            for row in table.rows.get((value, a), ()):
                for _, _, target in row:
                    if target not in seen:
                        seen.add(target)
                        listed.append(target)
    return listed if bound is None else listed[:bound]


def oracle_carrier_levels(nlmp: PointmassNLMP, state: str) -> list[frozenset]:
    """Stages of the least carrier around a state: supports added level by level."""
    if state not in nlmp.states:
        raise ValueError(f"unknown state {state!r}")
    levels = [frozenset({state})]
    while True:
        cur = levels[-1]
        nxt = set(cur)
        for s in cur:
            for a in nlmp.labels:
                for mu in nlmp.measures(s, a):
                    nxt |= mu.support
        if nxt == cur:
            return levels
        levels.append(frozenset(nxt))


class TestCompositionEnum:
    def test_starts_with_the_state(self):
        rng = random.Random(202)
        for _ in range(20):
            nlmp = random_nlmp(rng, 4)
            s = rng.choice(nlmp.states)
            assert composition_enum(nlmp, s)[0] == s

    def test_terminal_state_is_alone(self):
        nlmp = PointmassNLMP(("a",), ("s",), {})
        assert composition_enum(nlmp, "s") == ["s"]

    def test_closure_is_the_reachable_carrier(self):
        rng = random.Random(203)
        for _ in range(30):
            nlmp = random_nlmp(rng, 5)
            s = rng.choice(nlmp.states)
            values = composition_enum(nlmp, s)
            assert len(set(values)) == len(values)
            assert set(values) == set(reachable_carrier(nlmp, s))
            assert is_carrier(nlmp, tuple(values))

    def test_bound_truncates_the_same_order(self):
        trans = {
            ("s", "a"): frozenset({measure(t="1/2", u="1/2")}),
            ("t", "a"): frozenset({measure(v="1")}),
        }
        nlmp = PointmassNLMP(("a",), ("s", "t", "u", "v"), trans)
        full = composition_enum(nlmp, "s")
        assert full == ["s", "t", "u", "v"]
        assert composition_enum(nlmp, "s", bound=2) == full[:2]

    def test_bound_stops_the_walk(self):
        rng = random.Random(208)
        for _ in range(500):
            drawn = gen.random_nlmp(rng, max_states=7)
            trans = RecordedRows(drawn.trans)
            nlmp = PointmassNLMP(drawn.labels, drawn.states, trans)
            s = rng.choice(nlmp.states)
            full = composition_enum(nlmp, s)
            for bound in range(len(full) + 2):
                trans.read.clear()
                assert composition_enum(nlmp, s, bound) == full[:bound]
                assert {value for value, _ in trans.read} <= set(full[:bound])

    def test_matches_the_table_walk(self):
        rng = random.Random(214)
        for _ in range(300):
            nlmp = gen.random_nlmp(rng, max_states=7)
            table = oracle_derive_uniform(nlmp)
            for s in nlmp.states:
                for bound in (None, 0, 1, 2, 3, 5):
                    expected = oracle_composition_enum(table, s, bound)
                    assert composition_enum(nlmp, s, bound) == expected, (nlmp, s, bound)

    def test_reachable_carrier_matches_the_level_walk(self):
        rng = random.Random(215)
        for _ in range(300):
            nlmp = gen.random_nlmp(rng, max_states=7)
            for s in nlmp.states:
                closure = oracle_carrier_levels(nlmp, s)[-1]
                expected = tuple(t for t in nlmp.states if t in closure)
                assert reachable_carrier(nlmp, s) == expected, (nlmp, s)


class RecordedRows(dict):
    """Transitions that record the key of every ``get``."""

    def __init__(self, rows: dict) -> None:
        super().__init__(rows)
        self.read: list = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


# The former enumeration layer that `encode_state` went through: an
# enumeration of every successor set, viewed as a table of unit rows and
# walked with `oracle_composition_enum`. Kept as the oracle of the direct walk.


@frozen
class UMLTSStructure:
    """Per state and label, an enumeration of the successor states."""

    labels: tuple[str, ...]
    states: tuple[str, ...]
    enum: dict  # (state, label) -> tuple of targets

    def __post_init__(self) -> None:
        states = set(self.states)
        if len(states) != len(self.states):
            raise ValueError("duplicate state ids")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        for (s, a), targets in self.enum.items():
            if s not in states:
                raise ValueError(f"enumeration source {s!r} is not a state")
            if a not in self.labels:
                raise ValueError(f"enumeration label {a!r} is not declared")
            if not targets:
                raise ValueError(f"enumeration at ({s!r},{a!r}) is empty")
            if len(set(targets)) != len(targets):
                raise ValueError(f"enumeration at ({s!r},{a!r}) repeats a target")
            for t in targets:
                if t not in states:
                    raise ValueError(
                        f"enumeration at ({s!r},{a!r}) targets unknown {t!r}"
                    )


def oracle_derive_umlts(lts: PointedLTS) -> UMLTSStructure:
    """Enumerate every successor set in declared state order."""
    enum = {}
    for s in lts.states:
        for a in lts.labels:
            targets = lts.successors(s, a)
            if targets:
                enum[(s, a)] = targets
    return UMLTSStructure(lts.labels, lts.states, enum)


def oracle_umlts_to_uniform(structure: UMLTSStructure) -> UniformStructure:
    """View an enumeration as a table of single-entry unit rows."""
    one = Fraction(1)
    rows = {
        key: tuple(((0, one, target),) for target in targets)
        for key, targets in structure.enum.items()
    }
    return UniformStructure(structure.labels, structure.states, rows)


def oracle_mlts_to_nlmp(lts: PointedLTS) -> PointmassNLMP:
    """Process with one Dirac measure per edge target, never the zero one."""
    trans = {}
    for s in lts.states:
        for a in lts.labels:
            targets = lts.successors(s, a)
            if targets:
                trans[(s, a)] = frozenset(
                    SubProbMeasure(((t, (1, 1)),)) for t in targets
                )
    return PointmassNLMP(lts.labels, lts.states, trans)


def oracle_encode_state(lts: PointedLTS, state: str) -> OmegaLTSCode:
    """Number nodes by first appearance in the enumeration order."""
    structure = oracle_derive_umlts(lts)
    values = oracle_composition_enum(oracle_umlts_to_uniform(structure), state)
    numbering = {value: i for i, value in enumerate(values)}
    edges = {
        a: frozenset(
            (numbering[u], numbering[v])
            for u in values
            for v in lts.successors(u, a)
        )
        for a in lts.labels
    }
    return OmegaLTSCode(0, edges)


class TestEncodeStateMatchesOracle:
    def test_agrees_on_seeded_systems(self):
        rng = random.Random(213)
        codes = systems = 0
        for _ in range(2000):
            lts = gen.random_lts(
                rng, max_states=8, max_labels=3, edge_chance=rng.choice((0.1, 0.3, 0.6))
            )
            systems += len(lts.labels) == 3
            for s in lts.states:
                assert encode_state(lts, s) == oracle_encode_state(lts, s), (lts, s)
                codes += 1
        assert codes > 8000 and systems > 500, (codes, systems)


class TestWitnessMachinery:
    def build(self) -> PointmassNLMP:
        trans = {
            ("s", "a"): frozenset({measure(t="1/2", u="1/2")}),
            ("s2", "a"): frozenset({measure(t2="1/2", u2="1/2")}),
        }
        states = ("s", "t", "u", "s2", "t2", "u2")
        return PointmassNLMP(("a",), states, trans)

    def test_empty_relation_gives_empty_witnesses(self):
        table = oracle_derive_uniform(self.build())
        assert witness_indices(table, "s", "s2", frozenset(), 0, 0, "a") == frozenset()
        assert witness_mass_g(table, "s", "s2", frozenset(), 0, 0, "a") == 0

    def test_full_block_collects_both_entries(self):
        nlmp = self.build()
        table = oracle_derive_uniform(nlmp)
        rel = frozenset(
            (x, y) for x in ("t", "u") for y in ("t2", "u2")
        )
        assert witness_indices(table, "s", "s2", rel, 0, 0, "a") == {0, 1}
        assert witness_mass_g(table, "s", "s2", rel, 0, 0, "a") == 1
        assert gk_block(nlmp, "s", "s2", rel, 0, 0, "a")

    def test_singleton_rows_have_tiny_index_sets(self):
        trans = {
            ("s", "a"): frozenset({measure(t="1")}),
            ("s2", "a"): frozenset({measure(t2="1")}),
        }
        table = oracle_derive_uniform(
            PointmassNLMP(("a",), ("s", "t", "s2", "t2"), trans)
        )
        assert witness_indices(table, "s", "s2", frozenset(), 0, 0, "a") == frozenset()
        rel = frozenset({("t", "t2")})
        assert witness_indices(table, "s", "s2", rel, 0, 0, "a") == {0}

    def test_missing_rows_are_errors(self):
        table = oracle_derive_uniform(self.build())
        with pytest.raises(ValueError):
            witness_indices(table, "s", "s2", frozenset(), 1, 0, "a")
        with pytest.raises(ValueError):
            witness_indices(table, "s", "s2", frozenset(), 0, 7, "a")

    def test_block_matches_support_lifting(self):
        rng = random.Random(204)
        checked = 0
        for _ in range(80):
            nlmp = random_nlmp(rng, 4)
            states = nlmp.states
            x, x_prime = rng.choice(states), rng.choice(states)
            left = composition_enum(nlmp, x)
            right = composition_enum(nlmp, x_prime)
            rel = random_z_closed(rng, left, right)
            assert is_z_closed(rel)
            for a in nlmp.labels:
                prime_rows = ordered_measures(nlmp, x_prime, a)
                for n, mu in enumerate(ordered_measures(nlmp, x, a)):
                    for n_prime, nu in enumerate(prime_rows):
                        checked += 1
                        block = gk_block(nlmp, x, x_prime, rel, n, n_prime, a)
                        assert block == lift_support(mu, nu, rel)
        assert checked > 50


# The former index-level block, which wrote out the entry lookup, the
# index set and the mass g of the forth half, and the back half's masses
# k and k' as mirror functions, kept as an oracle for the one-sided check.


def _entry_target(row: tuple, k: int, where: str):
    for j, _, target in row:
        if j == k:
            return target
    raise ValueError(f"{where} has no entry {k}")


def witness_indices(table, x, x_prime, rel, n, k, a) -> frozenset:
    """Row entries whose targets share a related enumeration value with entry ``k``."""
    row = oracle_row(table, x, a, n)
    anchor = _entry_target(row, k, f"row {n} at ({x!r},{a!r})")
    witnesses = [
        value
        for value in oracle_composition_enum(table, x_prime)
        if (anchor, value) in rel
    ]
    return frozenset(
        j
        for j, _, target in row
        if any((target, value) in rel for value in witnesses)
    )


def witness_mass_g(table, x, x_prime, rel, n, k, a) -> Fraction:
    """Mass of the entries sharing a related enumeration value with entry ``k``."""
    chosen = witness_indices(table, x, x_prime, rel, n, k, a)
    row = oracle_row(table, x, a, n)
    return sum((mass for j, mass, _ in row if j in chosen), Fraction(0))


def oracle_witness_mass_g_prime(table, x, x_prime, rel, n, n_prime, k, a):
    anchor = _entry_target(oracle_row(table, x, a, n), k, f"row {n} at ({x!r},{a!r})")
    prime_row = oracle_row(table, x_prime, a, n_prime)
    return sum(
        (mass for _, mass, target in prime_row if (anchor, target) in rel),
        Fraction(0),
    )


def oracle_witness_mass_k(table, x, x_prime, rel, n, n_prime, k_prime, a):
    anchor = _entry_target(
        oracle_row(table, x_prime, a, n_prime), k_prime, f"row {n_prime} at ({x_prime!r},{a!r})"
    )
    row = oracle_row(table, x, a, n)
    return sum(
        (mass for _, mass, target in row if (target, anchor) in rel), Fraction(0)
    )


def oracle_witness_mass_k_prime(table, x, x_prime, rel, n_prime, k_prime, a):
    prime_row = oracle_row(table, x_prime, a, n_prime)
    anchor = _entry_target(prime_row, k_prime, f"row {n_prime} at ({x_prime!r},{a!r})")
    witnesses = [
        value
        for value in oracle_composition_enum(table, x)
        if (value, anchor) in rel
    ]
    chosen = frozenset(
        j
        for j, _, target in prime_row
        if any((value, target) in rel for value in witnesses)
    )
    return sum((mass for j, mass, _ in prime_row if j in chosen), Fraction(0))


def oracle_gk_block(table, x, x_prime, rel, n, n_prime, a) -> bool:
    row = oracle_row(table, x, a, n)
    prime_row = oracle_row(table, x_prime, a, n_prime)
    right_values = oracle_composition_enum(table, x_prime)
    left_values = oracle_composition_enum(table, x)
    for k, _, target in row:
        if not any((target, value) in rel for value in right_values):
            return False
        g = witness_mass_g(table, x, x_prime, rel, n, k, a)
        if g != oracle_witness_mass_g_prime(table, x, x_prime, rel, n, n_prime, k, a):
            return False
    for k_prime, _, target in prime_row:
        if not any((value, target) in rel for value in left_values):
            return False
        kk = oracle_witness_mass_k(table, x, x_prime, rel, n, n_prime, k_prime, a)
        if kk != oracle_witness_mass_k_prime(table, x, x_prime, rel, n_prime, k_prime, a):
            return False
    return True


def outcome(fn, *args):
    """The value, or the text of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return f"error: {err}"


class TestOneSidedBlockMatchesOracle:
    TABLES = 2000

    def test_agrees_on_seeded_tables(self):
        rng = random.Random(211)
        verdicts: dict = {}
        for _ in range(self.TABLES):
            nlmp = gen.random_nlmp(rng)
            table = oracle_derive_uniform(nlmp)
            x, x_prime = rng.choice(nlmp.states), rng.choice(nlmp.states)
            pick = rng.random()
            if pick < 0.25:
                rel = greatest_state_bisim(nlmp)
            elif pick < 0.5:
                left = composition_enum(nlmp, x)
                right = composition_enum(nlmp, x_prime)
                rel = gen.random_z_closed(rng, left, right)
            else:
                pairs = [(s, t) for s in nlmp.states for t in nlmp.states]
                rel = frozenset(p for p in pairs if rng.random() < 0.4)
            a = rng.choice(nlmp.labels)
            rows = len(table.rows.get((x, a), ()))
            prime_rows = len(table.rows.get((x_prime, a), ()))
            for n in range(-1, rows + 1):
                for n_prime in range(-1, prime_rows + 1):
                    args = (x, x_prime, rel, n, n_prime, a)
                    got = outcome(gk_block, nlmp, *args)
                    assert got == outcome(oracle_gk_block, table, *args), args
                    if not 0 <= n < rows:
                        kind = "no row n"
                    elif not 0 <= n_prime < prime_rows:
                        kind = "no row n_prime"
                    else:
                        kind = got
                    verdicts[kind] = verdicts.get(kind, 0) + 1
        assert len(verdicts) == 4 and min(verdicts.values()) > 500, verdicts


class TestSearch:
    def test_state_against_itself(self):
        rng = random.Random(205)
        nlmp = random_nlmp(rng, 4)
        s = nlmp.states[0]
        verdict, witness = uniform_bisim_search(nlmp, s, s)
        assert verdict
        for value in composition_enum(nlmp, s):
            assert (value, value) in witness

    def test_mass_mismatch(self):
        trans = {
            ("s", "a"): frozenset({measure(t="1/2")}),
            ("s2", "a"): frozenset({measure(t2="1/3")}),
        }
        nlmp = PointmassNLMP(("a",), ("s", "t", "s2", "t2"), trans)
        verdict, witness = uniform_bisim_search(nlmp, "s", "s2")
        assert not verdict
        assert ("s", "s2") not in witness

    def test_agreement_with_the_ambient_fixpoint(self):
        rng = random.Random(206)
        for _ in range(25):
            nlmp = random_nlmp(rng, 4)
            ambient = greatest_state_bisim(nlmp)
            s, s_prime = rng.choice(nlmp.states), rng.choice(nlmp.states)
            verdict, witness = uniform_bisim_search(nlmp, s, s_prime)
            assert verdict == ((s, s_prime) in ambient)
            if verdict:
                assert oracle_is_saturated_pair(nlmp, witness, s, s_prime)


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
                assert state_rank(lts, node_name(node)) == tree.node_rank(node)


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
            decoded = code_to_lts(code)
            assert bisimilar(decoded, PointedLTS(lts.labels, lts.states, s, lts.edges))

    def test_unknown_state_rejected(self):
        lts = PointedLTS(("a",), ("s", "t"), "s", frozenset({("s", "a", "t")}))
        with pytest.raises(ValueError, match="^unknown state 'u'$"):
            encode_state(lts, "u")


class TestPipeline:
    def forest(self) -> PointedLTS:
        nodes = {(), (0,), (1,), (0, 0), (1, 0)}
        return tree_process(ExplicitTree.from_nodes(nodes))

    def test_equal_states(self):
        lts = self.forest()
        assert pipeline_bisim(lts, "e", "e", Ordinal.from_int(5))

    def test_bisimilar_but_distinct_states(self):
        lts = self.forest()
        assert pipeline_bisim(lts, "e.0", "e.1", Ordinal.from_int(5))
        assert (("e.0", "e.1") in greatest_bisim(lts, lts))

    def test_rank_difference_separates(self):
        lts = self.forest()
        assert not pipeline_bisim(lts, "e.0", "e.0.0", Ordinal.from_int(5))

    def test_rank_bound_enforced(self):
        lts = self.forest()
        with pytest.raises(ValueError):
            pipeline_bisim(lts, "e", "e.0", Ordinal.from_int(1))
        looped = PointedLTS(("a",), ("s",), "s", frozenset({("s", "a", "s")}))
        with pytest.raises(ValueError):
            pipeline_bisim(looped, "s", "s", Ordinal.from_int(3))

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

    def test_pipeline_agrees_on_labelled_dags(self):
        # Two labels, and states that share successors, unlike tree processes.
        rng = random.Random(214)
        bound = Ordinal.from_int(6)
        verdicts = {True: 0, False: 0}
        systems = shared = 0
        while systems < 400:
            lts = gen.random_wf_lts(rng, max_states=6, max_labels=2)
            if len(lts.labels) < 2:
                continue
            systems += 1
            targets = [t for s in lts.states for t in lts.all_successors(s)]
            shared += len(set(targets)) < len(targets)
            rel = greatest_bisim(lts, lts)
            for s in lts.states:
                for t in lts.states:
                    verdict = pipeline_bisim(lts, s, t, bound)
                    assert verdict == ((s, t) in rel), (lts, s, t)
                    if s != t:
                        verdicts[verdict] += 1
        assert shared > 150 and min(verdicts.values()) > 300, (shared, verdicts)

    def test_expansion_canon_route_matches_search_route(self):
        rng = random.Random(210)
        for _ in range(10):
            tree = random_explicit_tree(rng, rng.randint(1, 6))
            lts = tree_process(tree)
            nlmp = oracle_mlts_to_nlmp(lts)
            for s in lts.states:
                for t in lts.states:
                    via_codes = canon(
                        omega_code_expand(encode_state(lts, s))
                    ) == canon(omega_code_expand(encode_state(lts, t)))
                    verdict, _ = uniform_bisim_search(nlmp, s, t)
                    assert via_codes == verdict
