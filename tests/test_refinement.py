"""Partition refinement against the pairwise fixpoints it replaced.

The exhaustive unions in test_lts and test_nlmp enumerate every relation,
so they stop at three states. The oracles here are the decreasing pairwise
fixpoints from the total relation, written out independently of the
refinement kernel, and they reach the 5-8 state systems below. Most
systems are blown up from a smaller base, so that bisimilar states are
common, and some then get one extra transition. The former kernel, which
summed Fraction masses into blocks of (system, state) pairs, and the
atom-square closures are kept as oracles for the part maps, and so is
the kernel that signed every state in every round.
"""

import random
import tracemalloc
from fractions import Fraction

from bisimkit import lts
from bisimkit.gen import random_lts, random_nlmp
from bisimkit.lts import (
    PointedLTS,
    _label_universe,
    bisimilar,
    bounded_bisim,
    greatest_bisim,
    mass_codes,
    refine_blocks,
    same_part_pairs,
)
from bisimkit.nlmp import (
    PointmassNLMP,
    SubProbMeasure,
    closed_atoms,
    external_atoms,
    greatest_ext_bisim,
    greatest_state_bisim,
)
from bisimkit.substructures import internal_closure, pair_closure, project_rel, sum_nlmp

F = Fraction


def R(*value) -> tuple:
    """The reduced (num, den) pair of a rational, made through Fraction."""
    f = Fraction(*value)
    return f.numerator, f.denominator


# --- oracles: the pairwise fixpoints -------------------------------------


def _labels(left, right) -> tuple:
    return tuple(dict.fromkeys(left.labels + right.labels))


def _pair_matches(left, right, s, t, rel, labels) -> bool:
    for a in labels:
        for s1 in left.successors(s, a):
            if not any((s1, t1) in rel for t1 in right.successors(t, a)):
                return False
        for t1 in right.successors(t, a):
            if not any((s1, t1) in rel for s1 in left.successors(s, a)):
                return False
    return True


def fixpoint_bisim(left: PointedLTS, right: PointedLTS) -> frozenset:
    """Remove failing pairs from the total relation until none fails."""
    labels = _labels(left, right)
    rel = {(s, t) for s in left.states for t in right.states}
    changed = True
    while changed:
        changed = False
        for s in left.states:
            for t in right.states:
                if (s, t) in rel and not _pair_matches(left, right, s, t, rel, labels):
                    rel.remove((s, t))
                    changed = True
    return frozenset(rel)


def fixpoint_bounded(left: PointedLTS, right: PointedLTS, depth: int) -> frozenset:
    """Refine the total relation ``depth`` times, all pairs at once."""
    labels = _labels(left, right)
    rel = {(s, t) for s in left.states for t in right.states}
    for _ in range(depth):
        rel = {
            (s, t) for s, t in rel if _pair_matches(left, right, s, t, rel, labels)
        }
    return frozenset(rel)


def fixpoint_partition(lts: PointedLTS) -> tuple:
    """Group states by the greatest self-bisimulation, in state order."""
    rel = fixpoint_bisim(lts, lts)
    blocks: list[list] = []
    for s in lts.states:
        for block in blocks:
            if (s, block[0]) in rel:
                block.append(s)
                break
        else:
            blocks.append([s])
    return tuple(tuple(block) for block in blocks)


def _matched(left, right, s, t, labels, lift) -> bool:
    """Every measure on either side has a lifted partner on the other."""
    for a in labels:
        mus, nus = left.measures(s, a), right.measures(t, a)
        if not all(any(lift(mu, nu) for nu in nus) for mu in mus):
            return False
        if not all(any(lift(mu, nu) for mu in mus) for nu in nus):
            return False
    return True


def fixpoint_state_bisim(nlmp: PointmassNLMP) -> frozenset:
    """Drop pairs failing the internal lifting of the current relation."""
    rel = {(s, t) for s in nlmp.states for t in nlmp.states}
    while True:
        atoms = closed_atoms(frozenset(rel), nlmp.states)

        def lift(mu, nu):
            return all(mu.mass(atom) == nu.mass(atom) for atom in atoms)

        bad = {
            (s, t)
            for s, t in rel
            if not _matched(nlmp, nlmp, s, t, nlmp.labels, lift)
        }
        if not bad:
            return frozenset(rel)
        rel -= bad


def fixpoint_ext_bisim(left: PointmassNLMP, right: PointmassNLMP) -> frozenset:
    """Drop pairs failing the external lifting of the current relation."""
    labels = _labels(left, right)
    rel = {(s, t) for s in left.states for t in right.states}
    while True:
        components = external_atoms(frozenset(rel), left.states, right.states)

        def lift(mu, nu):
            return all(mu.mass(q) == nu.mass(qp) for q, qp in components)

        bad = {
            (s, t) for s, t in rel if not _matched(left, right, s, t, labels, lift)
        }
        if not bad:
            return frozenset(rel)
        rel -= bad


# --- oracles: the former kernel and closures ----------------------------


def oracle_refine_blocks(systems, labels, moves, rounds=None) -> list:
    """The former kernel: blocks as lists of (system index, state), split by
    per-label sets of Fraction block-mass vectors."""
    nodes = [(i, s) for i, system in enumerate(systems) for s in system.states]
    table = [[moves(systems[i], s, a) for a in labels] for i, s in nodes]
    block, n_blocks = dict.fromkeys(nodes, 0), 1
    for _ in range(len(nodes) if rounds is None else rounds):
        ids: dict = {}
        new = {
            node: ids.setdefault((block[node], oracle_vectors(node[0], row, block)), len(ids))
            for node, row in zip(nodes, table)
        }
        if len(ids) == n_blocks:
            break
        block, n_blocks = new, len(ids)
    groups: dict[int, list] = {}
    for node, b in block.items():
        groups.setdefault(b, []).append(node)
    return list(groups.values())


def oracle_round_parts(systems, rounds=None):
    """The part maps of the kernel before block ids stayed stable, after
    0, 1, ... rounds, until a round splits no block or ``rounds`` are
    done: every round signs every state, keyed by its block and its
    per-label `mass_codes` of triples over every declared label."""
    labels = _label_universe(*systems)
    tables = [
        [(s, [oracle_triple_moves(system, s, a) for a in labels]) for s in system.states]
        for system in systems
    ]
    parts, n_blocks = [dict.fromkeys(system.states, 0) for system in systems], 1
    yield parts
    for _ in range(sum(map(len, parts)) if rounds is None else rounds):
        ids: dict = {}
        new = [
            {
                s: ids.setdefault(
                    (part[s], tuple([mass_codes(ms, part) for ms in row])), len(ids)
                )
                for s, row in table
            }
            for part, table in zip(parts, tables)
        ]
        if len(ids) == n_blocks:
            return
        parts, n_blocks = new, len(ids)
        yield parts


def oracle_full_rounds(systems, rounds=None) -> list:
    """The oracle's part maps after ``rounds`` rounds, or once stable."""
    *_, parts = oracle_round_parts(systems, rounds)
    return parts


def oracle_triple_moves(system, state: str, label: str) -> list:
    """A state's moves as lists of (target, numerator, denominator)
    triples, an LTS edge as one triple of mass 1."""
    if isinstance(system, PointedLTS):
        return [[(t, 1, 1)] for t in system.successors(state, label)]
    return [
        [(t, n, d) for t, (n, d) in mu.weights]
        for mu in system.measures(state, label)
    ]


def oracle_vectors(i: int, row: list, block: dict) -> tuple:
    signature = []
    for label_moves in row:
        vectors = set()
        for move in label_moves:
            vector: dict = {}
            for t, mass in move:
                vector[block[i, t]] = vector.get(block[i, t], 0) + mass
            vectors.add(frozenset(vector.items()))
        signature.append(frozenset(vectors))
    return tuple(signature)


def oracle_crossing_pairs(blocks: list) -> frozenset:
    pairs: set = set()
    for block in blocks:
        right = [t for i, t in block if i == 1]
        pairs.update((s, t) for i, s in block if i == 0 for t in right)
    return frozenset(pairs)


def oracle_edge_moves(lts: PointedLTS, state: str, label: str) -> list:
    return [((t, F(1)),) for t in lts.successors(state, label)]


def oracle_measure_moves(nlmp: PointmassNLMP, state: str, label: str) -> list:
    return [tuple((t, F(*m)) for t, m in mu.weights) for mu in nlmp.measures(state, label)]


def oracle_internal_closure(rel, states) -> frozenset:
    pairs: set = set()
    for atom in closed_atoms(rel, states):
        pairs |= {(x, y) for x in atom for y in atom}
    return frozenset(pairs)


def oracle_pair_closure(rel, left, right) -> frozenset:
    pairs: set = set()
    for q, q_prime in external_atoms(rel, left, right):
        if q and q_prime:
            pairs |= {(x, y) for x in q for y in q_prime}
    return frozenset(pairs)


def union_blocks(parts: list) -> list:
    """Part maps of a union as the former kernel's blocks, in block order."""
    blocks: dict[int, list] = {}
    for i, part in enumerate(parts):
        for s, b in part.items():
            blocks.setdefault(b, []).append((i, s))
    return [blocks[b] for b in sorted(blocks)]


# --- generators: 5-8 states with many bisimilar ones ---------------------


def _copies(rng: random.Random, base_states: tuple, prefix: str) -> tuple:
    """Give each base state one or more copies, 5-8 copies in all."""
    total = rng.randint(5, 8)
    owners = list(base_states) + [
        rng.choice(base_states) for _ in range(total - len(base_states))
    ]
    rng.shuffle(owners)
    copies: dict = {b: [] for b in base_states}
    for k, owner in enumerate(owners):
        copies[owner].append(f"{prefix}{k}")
    return tuple(f"{prefix}{k}" for k in range(total)), copies


def blown_up_lts(
    rng: random.Random, base: PointedLTS, prefix: str, labels: tuple, extra: bool
) -> PointedLTS:
    """Every copy of s reaches some copies of each base successor of s."""
    states, copies = _copies(rng, base.states, prefix)
    edges = set()
    # Sorted, not hash, order keeps the instance behind a seed fixed.
    for src, a, dst in sorted(base.edges):
        for c in copies[src]:
            for t in rng.sample(copies[dst], rng.randint(1, len(copies[dst]))):
                edges.add((c, a, t))
    if extra:
        edges.add((rng.choice(states), rng.choice(labels), rng.choice(states)))
    return PointedLTS(labels, states, copies[base.root][0], frozenset(edges))


def lts_pairs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.25:
            yield (
                random_lts(rng, max_states=8, edge_chance=0.2),
                random_lts(rng, max_states=8, edge_chance=0.2),
            )
            continue
        base = random_lts(rng, max_states=4, edge_chance=0.35)
        right_labels = base.labels + (("z",) if rng.random() < 0.3 else ())
        yield (
            blown_up_lts(rng, base, "p", base.labels, rng.random() < 0.3),
            blown_up_lts(rng, base, "q", right_labels, rng.random() < 0.3),
        )


def _split(rng: random.Random, mu: SubProbMeasure, copies: dict) -> SubProbMeasure:
    """Spread each target's mass over some of its copies."""
    spread: dict = {}
    for s, mass in mu.weights:
        chosen = rng.sample(copies[s], rng.randint(1, len(copies[s])))
        cuts = [rng.randint(1, 3) for _ in chosen]
        for c, cut in zip(chosen, cuts):
            spread[c] = R(F(*mass) * F(cut, sum(cuts)))
    return SubProbMeasure.from_mapping(spread)


def blown_up_nlmp(
    rng: random.Random, base: PointmassNLMP, prefix: str, labels: tuple, extra: bool
) -> PointmassNLMP:
    """Every copy of s carries a spread of each measure of s."""
    states, copies = _copies(rng, base.states, prefix)
    trans = {}
    for (s, a), measures in base.trans.items():
        # Sorted, not hash, order keeps the instance behind a seed fixed.
        ordered = sorted(measures, key=lambda mu: [(t, F(*m)) for t, m in mu.weights])
        for c in copies[s]:
            trans[c, a] = frozenset(_split(rng, mu, copies) for mu in ordered)
    if extra:
        key = (rng.choice(states), rng.choice(labels))
        target = rng.choice(states)
        trans[key] = trans.get(key, frozenset()) | {
            SubProbMeasure.from_mapping({target: (1, rng.randint(1, 3))})
        }
    return PointmassNLMP(labels, states, trans)


def nlmp_pairs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.25:
            yield random_nlmp(rng, max_states=8), random_nlmp(rng, max_states=8)
            continue
        base = random_nlmp(rng, max_states=4, max_support=2)
        right_labels = base.labels + (("z",) if rng.random() < 0.3 else ())
        yield (
            blown_up_nlmp(rng, base, "p", base.labels, rng.random() < 0.3),
            blown_up_nlmp(rng, base, "q", right_labels, rng.random() < 0.3),
        )


def chain(n: int, prefix: str) -> PointedLTS:
    """An a-path of n states, each told apart by its distance to the end."""
    states = tuple(f"{prefix}{i}" for i in range(n))
    edges = frozenset((states[i], "a", states[i + 1]) for i in range(n - 1))
    return PointedLTS(("a",), states, states[0], edges)


def marked_cycle(n: int, prefix: str) -> PointedLTS:
    """An a-cycle of n states with a b-loop on its root: each state is told
    apart by its distance to the mark, so refinement needs about n rounds."""
    states = tuple(f"{prefix}{i}" for i in range(n))
    edges = {(states[i], "a", states[(i + 1) % n]) for i in range(n)}
    edges.add((states[0], "b", states[0]))
    return PointedLTS(("a", "b"), states, states[0], frozenset(edges))


def cascade(m: int, prefix: str) -> PointedLTS:
    """x0 loops under a, and each later x steps under a to the one before;
    under b, x0 steps to z0 and the others to z1. z0 and its twin z0'
    step under c to e, and z1 under c to f, which steps under d to e. z1
    leaves z0's block, then x1..xm leave x0's, and from then on the block
    of xr..xm keeps one unsigned member, xr, per round while the rest of
    it moves on."""
    xs = [f"{prefix}x{j}" for j in range(m + 1)]
    z0, twin, z1, e, f = (f"{prefix}{name}" for name in ("z0", "z0'", "z1", "e", "f"))
    edges = {(xs[0], "a", xs[0]), (xs[0], "b", z0), (z0, "c", e), (twin, "c", e)}
    edges |= {(z1, "c", f), (f, "d", e)}
    for j in range(1, m + 1):
        edges |= {(xs[j], "a", xs[j - 1]), (xs[j], "b", z1)}
    states = (*xs, z0, twin, z1, e, f)
    return PointedLTS(("a", "b", "c", "d"), states, xs[-1], frozenset(edges))


def renamed(system: PointedLTS, prefix: str) -> PointedLTS:
    """A copy with every state renamed and the declared order reversed."""
    name = {s: f"{prefix}{k}" for k, s in enumerate(system.states)}
    edges = frozenset((name[s], a, name[t]) for s, a, t in system.edges)
    states = tuple(name[s] for s in reversed(system.states))
    return PointedLTS(system.labels, states, name[system.root], edges)


# --- tests ---------------------------------------------------------------


class TestLTSRefinement:
    def test_greatest_bisim_matches_fixpoint(self):
        nontrivial = 0
        for left, right in lts_pairs(101, 80):
            expected = fixpoint_bisim(left, right)
            assert greatest_bisim(left, right) == expected
            assert greatest_bisim(left, left) == fixpoint_bisim(left, left)
            nontrivial += 0 < len(expected) < len(left.states) * len(right.states)
        assert nontrivial >= 20

    def test_partition_matches_fixpoint(self):
        merged = 0
        for left, right in lts_pairs(102, 80):
            for lts in (left, right):
                parts = refine_blocks((lts,))
                blocks = tuple(tuple(s for _, s in block) for block in union_blocks(parts))
                assert blocks == fixpoint_partition(lts)
                merged += len(blocks) < len(lts.states)
        assert merged >= 70

    def test_bounded_bisim_matches_fixpoint_at_every_depth(self):
        for left, right in lts_pairs(103, 40):
            n = len(left.states) + len(right.states)
            for depth in range(n + 2):
                assert bounded_bisim(left, right, depth) == fixpoint_bounded(
                    left, right, depth
                )


class TestNLMPRefinement:
    def test_state_bisim_matches_fixpoint(self):
        merged = 0
        for left, right in nlmp_pairs(201, 60):
            for nlmp in (left, right):
                rel = greatest_state_bisim(nlmp)
                assert rel == fixpoint_state_bisim(nlmp)
                merged += len(rel) > len(nlmp.states)
        assert merged >= 40

    def test_ext_bisim_matches_fixpoint(self):
        nontrivial = 0
        for left, right in nlmp_pairs(202, 60):
            expected = fixpoint_ext_bisim(left, right)
            assert greatest_ext_bisim(left, right) == expected
            nontrivial += 0 < len(expected) < len(left.states) * len(right.states)
        assert nontrivial >= 15

    def test_ext_bisim_is_the_crossing_part_of_the_sum(self):
        for left, right in nlmp_pairs(203, 60):
            assert greatest_ext_bisim(left, right) == project_rel(
                greatest_state_bisim(sum_nlmp(left, right))
            )


class TestKernelAgainstTheFormerKernel:
    ROUNDS = (None, 0, 1, 2, 3)

    def check(self, systems, labels, oracle_moves) -> int:
        """Compare every round count; return how many splits happened."""
        splits = 0
        for rounds in self.ROUNDS:
            parts = refine_blocks(systems, rounds)
            blocks = oracle_refine_blocks(systems, labels, oracle_moves, rounds)
            assert union_blocks(parts) == blocks
            if len(systems) == 2:
                assert same_part_pairs(*parts) == oracle_crossing_pairs(blocks)
            splits += len(blocks) > 1
        return splits

    def test_lts_unions(self):
        splits = 0
        for left, right in lts_pairs(104, 60):
            labels = _labels(left, right)
            for systems in ((left, right), (left,), (right, left)):
                splits += self.check(systems, labels, oracle_edge_moves)
        assert splits >= 350

    def test_nlmp_unions(self):
        splits = 0
        for left, right in nlmp_pairs(204, 60):
            labels = _labels(left, right)
            for systems in ((left, right), (left,), (right, left)):
                splits += self.check(systems, labels, oracle_measure_moves)
        assert splits >= 450


class TestTheKernelSplitsOverEveryDeclaredLabel:
    """A move under a label that only the second system declares still
    separates the roots: the kernel reads its labels off every system."""

    def test_lts(self):
        quiet = PointedLTS(("a",), ("p", "p1"), "p", frozenset({("p", "a", "p1")}))
        edges = frozenset({("q", "a", "q1"), ("q", "b", "q1")})
        loud = PointedLTS(("a", "b"), ("q", "q1"), "q", edges)
        for left, right in ((quiet, loud), (loud, quiet)):
            assert (left.root, right.root) not in greatest_bisim(left, right)
            assert not bisimilar(left, right)

    def test_nlmp(self):
        def loop(state):
            return frozenset({SubProbMeasure(((state, (1, 1)),))})

        quiet = PointmassNLMP(("a",), ("p",), {("p", "a"): loop("p")})
        loud = PointmassNLMP(("a", "b"), ("q",), {("q", "a"): loop("q"), ("q", "b"): loop("q")})
        for left, right in ((quiet, loud), (loud, quiet)):
            assert (left.states[0], right.states[0]) not in greatest_ext_bisim(left, right)


def seeded_relation(rng: random.Random, left: tuple, right: tuple) -> frozenset:
    chance = rng.choice((0.05, 0.15, 0.4))
    return frozenset((s, t) for s in left for t in right if rng.random() < chance)


class TestClosuresAgainstAtomSquares:
    def test_internal_closure(self):
        rng = random.Random(301)
        for _ in range(300):
            states = tuple(f"s{i}" for i in range(rng.randint(1, 9)))
            rel = seeded_relation(rng, states, states)
            assert internal_closure(rel, states) == oracle_internal_closure(rel, states)

    def test_pair_closure(self):
        rng = random.Random(302)
        for _ in range(300):
            left = tuple(f"s{i}" for i in range(rng.randint(1, 7)))
            right = tuple(f"{rng.choice('st')}{i}" for i in range(rng.randint(1, 7)))
            right = tuple(dict.fromkeys(right))
            rel = seeded_relation(rng, left, right)
            assert pair_closure(rel, left, right) == oracle_pair_closure(rel, left, right)


class TestBisimilarDecidesFromBlocks:
    def test_matches_the_relation(self):
        verdicts = {True: 0, False: 0}
        for left, right in lts_pairs(105, 120):
            verdict = bisimilar(left, right)
            assert verdict == ((left.root, right.root) in greatest_bisim(left, right))
            verdicts[verdict] += 1
        assert min(verdicts.values()) >= 20, verdicts

    def test_builds_no_relation(self):
        # Every state of two 1000-state cycles is bisimilar to every other:
        # the relation holds 10**6 pairs, the two part maps 2000 entries.
        def cycle(prefix: str) -> PointedLTS:
            states = tuple(f"{prefix}{i}" for i in range(1000))
            edges = frozenset((states[i], "a", states[i - 1]) for i in range(1000))
            return PointedLTS(("a",), states, states[0], edges)

        left, right = cycle("s"), cycle("t")
        tracemalloc.start()
        try:
            assert bisimilar(left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestKernelAgainstFullRounds:
    """Part maps, numbering included, equal those of the kernel that signed
    every state in every round."""

    def check(self, systems) -> int:
        """Compare every round count; return how many of them split."""
        splits = 0
        n = sum(len(system.states) for system in systems)
        for rounds in (None, 0, 1, 2, 3, n + 1):
            parts = refine_blocks(systems, rounds)
            assert parts == oracle_full_rounds(systems, rounds)
            splits += any(b > 0 for part in parts for b in part.values())
        return splits

    def test_lts_unions(self):
        splits = 0
        for left, right in lts_pairs(107, 60):
            for systems in ((left, right), (left,), (right, left)):
                splits += self.check(systems)
        assert splits >= 500

    def test_nlmp_unions(self):
        splits = 0
        for left, right in nlmp_pairs(207, 60):
            for systems in ((left, right), (left,), (right, left)):
                splits += self.check(systems)
        assert splits >= 500

    def test_chains_and_marked_cycles(self):
        for n in (1, 2, 5, 17):
            for shape in (chain, marked_cycle):
                left = shape(n, "s")
                for right in (renamed(left, "t"), shape(n + 1, "t")):
                    for systems in ((left, right), (left,), (right, left)):
                        self.check(systems)


    def test_cascades(self):
        # Every round count up to one past the oracle's last split.
        for m in range(31):
            left = cascade(m, "s")
            for systems in ((left,), (left, renamed(left, "t"))):
                history = list(oracle_round_parts(systems))
                assert len(history) == m + 3
                for rounds, parts in enumerate(history + history[-1:]):
                    assert refine_blocks(systems, rounds) == parts
                assert refine_blocks(systems) == history[-1]


class TestRefinementWorkIsLinearOnLongPaths:
    """A chain or a marked cycle needs about one round per state, yet the
    rounds after the first sign only the predecessors of states that
    moved: at most 4 signatures per state, each one `mass_codes` call per
    label, where signing every state in every round would take n² of
    them."""

    def counted(self, monkeypatch) -> list:
        """The measures of each `mass_codes` call the kernel makes."""
        calls = []

        def counting(measures, part):
            calls.append(measures)
            return mass_codes(measures, part)

        monkeypatch.setattr(lts, "mass_codes", counting)
        return calls

    def bisimilar_within_bound(self, monkeypatch, left, right) -> bool:
        calls = self.counted(monkeypatch)
        verdict = bisimilar(left, right)
        states = len(left.states) + len(right.states)
        assert len(calls) <= 4 * states * len(_label_universe(left, right))
        return verdict

    def test_renamed_chains(self, monkeypatch):
        left = chain(3000, "s")
        assert self.bisimilar_within_bound(monkeypatch, left, renamed(left, "t"))

    def test_one_state_longer_chain(self, monkeypatch):
        left, right = chain(3000, "s"), chain(3001, "t")
        assert not self.bisimilar_within_bound(monkeypatch, left, right)

    def test_renamed_marked_cycles(self, monkeypatch):
        left = marked_cycle(1000, "s")
        assert self.bisimilar_within_bound(monkeypatch, left, renamed(left, "t"))

    def test_the_largest_group_of_a_fully_signed_block_keeps_its_id(self, monkeypatch):
        # Round 1 signs all four states and splits off the end e. Round 2
        # signs p, q and r, all of block 0 by then: p and q keep its id,
        # so their loops are not signed again, and r, which moves, has no
        # predecessor. A kernel that lost count of block 0's members would
        # move p and q too and sign them in a third round.
        edges = {("p", "a", "p"), ("q", "a", "q"), ("r", "a", "e")}
        edges |= {("p", "a", "e"), ("q", "a", "e")}
        system = PointedLTS(("a",), ("p", "q", "r", "e"), "p", frozenset(edges))
        calls = self.counted(monkeypatch)
        assert refine_blocks((system,)) == [{"p": 0, "q": 0, "r": 1, "e": 2}]
        assert len(calls) == 4 + 3

    def test_a_label_that_nothing_moves_under_is_not_signed(self, monkeypatch):
        # Every state moves under a, and the root also under b; no edge
        # uses the z that both systems declare. Each signature makes one
        # call per label used, a's with the state's own row of the table,
        # where signing z too would make a third.
        def with_z(system: PointedLTS) -> PointedLTS:
            return PointedLTS(system.labels + ("z",), system.states, system.root, system.edges)

        base = marked_cycle(60, "s")
        for other, expected in ((renamed(base, "t"), True), (marked_cycle(61, "t"), False)):
            assert bisimilar(base, other) == expected
            parts = refine_blocks((base, other))
            left, right = with_z(base), with_z(other)
            a_rows = {
                id(row)
                for system in (left, right)
                for (_, label), row in system.moves.items()
                if label == "a"
            }
            calls = self.counted(monkeypatch)
            assert bisimilar(left, right) == expected
            signatures = sum(id(measures) in a_rows for measures in calls)
            assert signatures >= 4 * 60
            assert len(calls) == 2 * signatures
            assert refine_blocks((left, right)) == parts


def summed(mu: dict, part: dict) -> dict:
    sums: dict = {}
    for s, mass in mu.items():
        sums[part[s]] = sums.get(part[s], 0) + mass
    return sums


def coded(mu: dict, part: dict) -> frozenset:
    return mass_codes([[(s, m.numerator, m.denominator) for s, m in mu.items()]], part)


class TestUnitMassCodes:
    """A measure summing to exactly 1 on one part codes as that part's
    number; every code stays injective in the summed masses."""

    def test_named_cases(self):
        part = {"p": 0, "q": 0, "r": 1}
        unit = coded({"p": F(1)}, part)
        halves = coded({"p": F(1, 2), "q": F(1, 2)}, part)
        split = coded({"p": F(1, 2), "r": F(1, 2)}, part)
        sub = coded({"p": F(1, 2)}, part)
        assert unit == halves == frozenset({0})
        assert coded({"r": F(1)}, part) == frozenset({1})
        assert split == frozenset({frozenset({(0, (1, 2)), (1, (1, 2))})})
        assert sub == frozenset({frozenset({(0, (1, 2))})})
        assert len({unit, split, sub, coded({"p": F(1, 3), "q": F(1, 3)}, part)}) == 4

    def test_an_edge_codes_as_its_target_part(self):
        system = chain(3, "s")
        part = {"s0": 5, "s1": 7, "s2": 7}
        assert mass_codes(system.moves["s0", "a"], part) == frozenset({7})

    def test_codes_agree_exactly_when_summed_masses_do(self):
        rng = random.Random(401)
        totals = (F(1), F(1), F(1), F(1, 2), F(2, 3))
        agree = {True: 0, False: 0}
        for _ in range(3000):
            states = [f"s{i}" for i in range(rng.randint(1, 4))]
            part = {s: rng.randrange(2) for s in states}
            mu, nu = ({}, {})
            for measure in (mu, nu):
                support = rng.sample(states, rng.randint(1, len(states)))
                cuts = [rng.randint(1, 2) for _ in support]
                total = rng.choice(totals)
                for s, cut in zip(support, cuts):
                    measure[s] = total * F(cut, sum(cuts))
            expected = summed(mu, part) == summed(nu, part)
            assert (coded(mu, part) == coded(nu, part)) == expected
            agree[expected] += 1
        assert min(agree.values()) >= 500, agree
