"""Seeded request generators for the benchmark workloads.

A workload is built in rounds. Each round is a fixed list of request
kinds with fixed sizes; the seed only picks structure, names and
declaration orders. That keeps the cost mix of a round the same for every
seed, so medians and tails compare across seeds.

Every request carries its expected exit code and a check on the JSON it
prints. Both follow from how the input was built, never from bisimkit's
own answer: a renamed copy is bisimilar, a copy with one extra transition
under a declared label the original never uses is not, a shuffled copy of
a multiplicity tree is isomorphic, and so on. Where the expected output is
a canonical string, it comes from the small reference encoder below, which
follows the documented canonical form and shares no code with bisimkit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import lcm
from pathlib import Path
from random import Random
from typing import Callable

Check = Callable[[dict], "str | None"]

OMEGA = "omega"
UNUSED_LABEL = "z"  # declared everywhere, used only by the "not bisimilar" copies


@dataclass
class Request:
    verb: str
    args: list[str]
    expect_exit: int
    check: Check
    sizes: dict = field(default_factory=dict)


class Round:
    """Writes one round's input files and collects its requests."""

    def __init__(self, directory: Path, rng: Random) -> None:
        self.dir = directory
        self.rng = rng
        self.requests: list[Request] = []
        directory.mkdir(parents=True, exist_ok=True)

    def file(self, name: str, data: object) -> tuple[str, int]:
        path = self.dir / name
        text = json.dumps(data, separators=(",", ":"))
        path.write_text(text, encoding="utf-8")
        return str(path), len(text)

    def add(self, verb: str, args: list[str], expect_exit: int, check: Check, **sizes) -> None:
        self.requests.append(Request(verb, args, expect_exit, check, sizes))


def _expect(**fields) -> Check:
    def check(out: dict) -> str | None:
        for key, want in fields.items():
            if out.get(key) != want:
                return f"{key} is {out.get(key)!r}, expected {want!r}"
        return None

    return check


def _both(first: Check, second: Check) -> Check:
    def check(out: dict) -> str | None:
        return first(out) or second(out)

    return check


# ----------------------------------------------------------------------
# Labelled transition systems


@dataclass
class LTS:
    labels: list[str]
    states: list[str]
    root: str
    edges: list[tuple[str, str, str]]

    def to_json(self) -> dict:
        return {
            "labels": self.labels,
            "states": self.states,
            "root": self.root,
            "edges": [list(e) for e in self.edges],
        }

    def successors(self) -> dict[str, dict[str, list[str]]]:
        table: dict[str, dict[str, list[str]]] = {s: {} for s in self.states}
        for src, label, dst in self.edges:
            table[src].setdefault(label, []).append(dst)
        return table


def renamed(lts: LTS, rng: Random, prefix: str) -> tuple[LTS, dict[str, str]]:
    """An isomorphic copy with fresh names and shuffled declaration orders."""
    ids = list(range(len(lts.states)))
    rng.shuffle(ids)
    mapping = {s: f"{prefix}{i}" for s, i in zip(lts.states, ids)}
    states = [mapping[s] for s in lts.states]
    rng.shuffle(states)
    edges = [(mapping[s], a, mapping[t]) for s, a, t in lts.edges]
    rng.shuffle(edges)
    return LTS(list(lts.labels), states, mapping[lts.root], edges), mapping


def with_unused_label_edge(lts: LTS, rng: Random) -> LTS:
    """The root gains a transition under the declared but unused label."""
    extra = (lts.root, UNUSED_LABEL, rng.choice(lts.states))
    return LTS(list(lts.labels), list(lts.states), lts.root, lts.edges + [extra])


def random_sparse_lts(rng: Random, n: int) -> LTS:
    states = [f"s{i}" for i in range(n)]
    edges = set()
    for s in states:
        for _ in range(rng.choice((1, 1, 2, 2, 3))):
            edges.add((s, rng.choice("ab"), rng.choice(states)))
    return LTS(["a", "b", UNUSED_LABEL], states, states[0], sorted(edges))


def marked_cycle(n: int) -> LTS:
    """An a-cycle with a b-loop on its root: every state is distinguished
    by its distance to the mark, so refinement needs about n rounds."""
    states = [f"c{i}" for i in range(n)]
    edges = [(states[i], "a", states[(i + 1) % n]) for i in range(n)]
    edges.append((states[0], "b", states[0]))
    return LTS(["a", "b", UNUSED_LABEL], states, states[0], edges)


def chain(n: int) -> LTS:
    """An a-path; every state is distinguished by its distance to the end."""
    states = [f"c{i}" for i in range(n)]
    edges = [(states[i], "a", states[i + 1]) for i in range(n - 1)]
    return LTS(["a", UNUSED_LABEL], states, states[0], edges)


def ladder(rungs: int) -> LTS:
    """Two rails whose states expand to different trees at every rung, so
    the unfolding doubles per rung while the DAG grows by two states."""
    left = [f"l{i}" for i in range(rungs + 1)]
    right = [f"r{i}" for i in range(rungs + 1)]
    edges = []
    for i in range(rungs):
        edges += [
            (left[i], "a", left[i + 1]),
            (left[i], "b", right[i + 1]),
            (right[i], "a", left[i + 1]),
            (right[i], "a", right[i + 1]),
        ]
    return LTS(["a", "b"], left + right, left[0], edges)


def layered_dag(rng: Random, layers: int, width: int) -> LTS:
    """Layers of width nodes; every node has one a- and one b-successor in
    the next layer, so the unfolding has exactly 2^k nodes at depth k."""
    grid = [["r"]] + [[f"n{k}_{i}" for i in range(width)] for k in range(1, layers)]
    edges = []
    for k in range(layers - 1):
        for s in grid[k]:
            edges.append((s, "a", rng.choice(grid[k + 1])))
            edges.append((s, "b", rng.choice(grid[k + 1])))
    return LTS(["a", "b"], [s for layer in grid for s in layer], "r", edges)


def shift_graph(n: int) -> LTS:
    """State i steps to 2i and 2i+1 mod n: cyclic, two successors each."""
    states = [f"q{i}" for i in range(n)]
    edges = []
    for i in range(n):
        edges.append((states[i], "a", states[2 * i % n]))
        edges.append((states[i], "b", states[(2 * i + 1) % n]))
    return LTS(["a", "b"], states, states[0], edges)


def ref_expansion_canon(lts: LTS, state: str, depth: int | None = None) -> str:
    """Canonical string of the omega-expansion of a state, cut at depth.

    Every distinct child expansion sits under its label with multiplicity
    omega; labels and child strings are sorted; the text is compact JSON.
    """
    succ = lts.successors()
    memo: dict[tuple[str, int | None], str] = {}

    def go(s: str, d: int | None) -> str:
        if d == 0:
            return "{}"
        key = (s, d)
        if key not in memo:
            nxt = None if d is None else d - 1
            groups = {
                label: sorted({go(t, nxt) for t in targets})
                for label, targets in succ[s].items()
            }
            memo[key] = _render({label: [(c, OMEGA) for c in subs] for label, subs in groups.items()})
        return memo[key]

    return go(state, depth)


def _render(groups: dict[str, list[tuple[str, object]]]) -> str:
    parts = []
    for label in sorted(groups):
        entries = ",".join(f"[{child},{json.dumps(count)}]" for child, count in groups[label])
        parts.append(f"{json.dumps(label)}:[{entries}]")
    return "{" + ",".join(parts) + "}"


def _lts_sizes(lts: LTS, nbytes: int) -> dict:
    return {"states": len(lts.states), "edges": len(lts.edges), "bytes": nbytes}


# ----------------------------------------------------------------------
# Pointmass NLMPs


@dataclass
class NLMP:
    labels: list[str]
    states: list[str]
    trans: dict[str, dict[str, list[dict[str, str]]]]

    def to_json(self) -> dict:
        return {"labels": self.labels, "states": self.states, "trans": self.trans}

    def measure_count(self) -> int:
        return sum(len(ms) for by in self.trans.values() for ms in by.values())


def random_nlmp(rng: Random, n: int, prefix: str = "p") -> NLMP:
    states = [f"{prefix}{i}" for i in range(n)]
    trans: dict = {}
    for s in states:
        for label in "ab":
            if rng.random() < 0.4:
                continue
            measures = []
            for _ in range(rng.choice((1, 1, 2))):
                targets = rng.sample(states, rng.choice((1, 2, 3)))
                weights = [rng.randint(1, 3) for _ in targets]
                total = sum(weights) + rng.randint(0, 2)
                measures.append({t: f"{w}/{total}" for t, w in zip(targets, weights)})
            trans.setdefault(s, {})[label] = measures
    return NLMP(["a", "b", UNUSED_LABEL], states, trans)


def renamed_nlmp(nlmp: NLMP, rng: Random, prefix: str) -> tuple[NLMP, dict[str, str]]:
    ids = list(range(len(nlmp.states)))
    rng.shuffle(ids)
    mapping = {s: f"{prefix}{i}" for s, i in zip(nlmp.states, ids)}
    states = [mapping[s] for s in nlmp.states]
    rng.shuffle(states)
    trans = {
        mapping[s]: {
            a: [{mapping[t]: m for t, m in mu.items()} for mu in ms]
            for a, ms in by.items()
        }
        for s, by in nlmp.trans.items()
    }
    return NLMP(list(nlmp.labels), states, trans), mapping


def with_unused_label_measure(nlmp: NLMP, state: str) -> NLMP:
    trans = {s: dict(by) for s, by in nlmp.trans.items()}
    trans.setdefault(state, {})[UNUSED_LABEL] = [{state: "1/2"}]
    return NLMP(list(nlmp.labels), list(nlmp.states), trans)


def union_nlmp(left: NLMP, right: NLMP) -> NLMP:
    return NLMP(list(left.labels), left.states + right.states, {**left.trans, **right.trans})


def _nlmp_sizes(nbytes: int, *parts: NLMP) -> dict:
    return {
        "states": sum(len(p.states) for p in parts),
        "measures": sum(p.measure_count() for p in parts),
        "bytes": nbytes,
    }


def _witness_has(pairs: list[tuple[str, str]], exact: bool = False) -> Check:
    want = {tuple(p) for p in pairs}

    def check(out: dict) -> str | None:
        got = {tuple(p) for p in out.get("witness", [])}
        if not want <= got:
            return f"witness misses {len(want - got)} renaming pairs"
        if exact and got != want:
            return f"witness has {len(got - want)} pairs beyond the renaming"
        return None

    return check


# ----------------------------------------------------------------------
# Multiplicity trees


def random_multitree(rng: Random, depth: int, branching: int) -> list:
    """A tree as a list of [label, subtree, count] entries."""
    if depth == 0:
        return []
    return [
        [rng.choice("abc"), random_multitree(rng, depth - 1, branching), rng.choice((1, 2, 3, OMEGA))]
        for _ in range(branching)
    ]


def multitree_json(tree: list, rng: Random) -> dict:
    grouped: dict[str, list] = {}
    for label, sub, count in tree:
        grouped.setdefault(label, []).append([multitree_json(sub, rng), count])
    labels = list(grouped)
    rng.shuffle(labels)
    return {label: grouped[label] for label in labels}


def shuffled_split(tree: list, rng: Random) -> list:
    """An isomorphic copy: children permuted, leaf counts split in two.

    Splitting only entries over leaves keeps the copy's size nearly the
    same for every seed.
    """
    out = []
    for label, sub, count in tree:
        if sub:
            out.append([label, shuffled_split(sub, rng), count])
        elif count == OMEGA and rng.random() < 0.5:
            out += [[label, [], OMEGA], [label, [], OMEGA]]
        elif count != OMEGA and count >= 2 and rng.random() < 0.5:
            first = rng.randint(1, count - 1)
            out += [[label, [], first], [label, [], count - first]]
        else:
            out.append([label, [], count])
    rng.shuffle(out)
    return out


def bumped_deep_count(tree: list, rng: Random) -> list:
    """A copy with one multiplicity changed on the deepest level."""
    if not tree:
        return tree
    out = [list(entry) for entry in tree]
    i = rng.randrange(len(out))
    label, sub, count = out[i]
    if sub:
        out[i][1] = bumped_deep_count(sub, rng)
    else:
        out[i][2] = 1 if count == OMEGA else count + 1
    return out


def ref_multitree_canon(tree: list) -> str:
    groups: dict[tuple[str, str], object] = {}
    for label, sub, count in tree:
        key = (label, ref_multitree_canon(sub))
        old = groups.get(key)
        if old is None:
            groups[key] = count
        elif OMEGA in (old, count):
            groups[key] = OMEGA
        else:
            groups[key] = old + count
    by_label: dict[str, list] = {}
    for label, child in sorted(groups):
        by_label.setdefault(label, []).append((child, groups[(label, child)]))
    return _render(by_label)


def tree_size(tree: list) -> int:
    return 1 + sum(tree_size(sub) for _, sub, _ in tree)


# ----------------------------------------------------------------------
# Eventually periodic sets


@dataclass
class EP:
    prefix: str
    period: str

    def member(self, n: int) -> bool:
        if n < len(self.prefix):
            return self.prefix[n] == "1"
        return self.period[(n - len(self.prefix)) % len(self.period)] == "1"

    def to_json(self) -> dict:
        return {"prefix": self.prefix, "period": self.period}

    def same_set(self, other: dict) -> bool:
        try:
            that = EP(other["prefix"], other["period"])
        except (KeyError, TypeError):
            return False
        span = max(len(self.prefix), len(that.prefix)) + lcm(len(self.period), len(that.period))
        return all(self.member(n) == that.member(n) for n in range(span))


def _bits(rng: Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def random_ep(rng: Random) -> EP:
    period = _bits(rng, rng.randint(1, 4))
    if rng.random() < 0.25:
        period = "0"
    return EP(_bits(rng, rng.randint(0, 6)), period)


def flipped(x: EP, flips: set[int]) -> EP:
    """x with the members in flips toggled; the period stays aligned."""
    width = len(x.prefix) + len(x.period) * (max(flips) // len(x.period) + 1)
    bits = "".join("01"[x.member(n) != (n in flips)] for n in range(width))
    return EP(bits, x.period)


def tail_complement(x: EP, rng: Random) -> EP:
    """Differs from x at every position past the prefix: infinitely often."""
    period = "".join("10"[int(b)] for b in x.period)
    return EP(_bits(rng, len(x.prefix)), period)


def gadget_truncation(x: EP, depth: int, width: int) -> list[list[int]]:
    """Nodes of the modification gadget of x cut at depth and width.

    Child n of the root codes x with the binary digits of n flipped; under
    it hangs one chain of length m per member m below the width.
    """
    nodes = {()}
    if depth >= 1:
        for n in range(width):
            nodes.add((n,))
            if depth >= 2:
                for m in range(width):
                    if x.member(m) != bool(n >> m & 1):
                        for j in range(min(m, depth - 2) + 1):
                            nodes.add((n, m) + (0,) * j)
    return [list(u) for u in sorted(nodes, key=lambda u: (len(u), u))]


# ----------------------------------------------------------------------
# Workloads: one round each


REFINE_SPARSE_N = 120
REFINE_CYCLE_N = 56
REFINE_CHAIN_N = 64
REFINE_NLMP_INTERNAL_N = 40
REFINE_NLMP_EXTERNAL_N = 48


def refine_round(rd: Round) -> None:
    rng = rd.rng
    sparse = random_sparse_lts(rng, REFINE_SPARSE_N)
    copy, mapping = renamed(sparse, rng, "t")
    left, lb = rd.file("sparse.json", sparse.to_json())
    right, rb = rd.file("sparse-copy.json", copy.to_json())
    rd.add("bisim", ["bisim", left, right], 0, _expect(bisimilar=True), **_lts_sizes(sparse, lb + rb))
    rd.add(
        "bisim --witness",
        ["bisim", left, right, "--witness"],
        0,
        _both(_expect(bisimilar=True), _witness_has(list(mapping.items()))),
        **_lts_sizes(sparse, lb + rb),
    )
    odd, ob = rd.file("sparse-odd.json", with_unused_label_edge(copy, rng).to_json())
    rd.add("bisim", ["bisim", left, odd], 1, _expect(bisimilar=False), **_lts_sizes(sparse, lb + ob))

    cycle = marked_cycle(REFINE_CYCLE_N)
    copy, mapping = renamed(cycle, rng, "d")
    left, lb = rd.file("cycle.json", cycle.to_json())
    right, rb = rd.file("cycle-copy.json", copy.to_json())
    rd.add(
        "bisim --witness",
        ["bisim", left, right, "--witness"],
        0,
        _both(_expect(bisimilar=True), _witness_has(list(mapping.items()), exact=True)),
        **_lts_sizes(cycle, lb + rb),
    )

    line = chain(REFINE_CHAIN_N)
    copy, _ = renamed(line, rng, "d")
    left, lb = rd.file("chain.json", line.to_json())
    odd, ob = rd.file("chain-odd.json", with_unused_label_edge(copy, rng).to_json())
    rd.add("bisim", ["bisim", left, odd], 1, _expect(bisimilar=False), **_lts_sizes(line, lb + ob))

    base = random_nlmp(rng, REFINE_NLMP_INTERNAL_N)
    copy, mapping = renamed_nlmp(base, rng, "q")
    query = rng.choice(base.states)
    both, bb = rd.file("nlmp-union.json", union_nlmp(base, copy).to_json())
    rd.add(
        "nlmp-bisim",
        ["nlmp-bisim", both, query, mapping[query]],
        0,
        _expect(bisimilar=True),
        **_nlmp_sizes(bb, base, copy),
    )
    odd = with_unused_label_measure(copy, mapping[query])
    both, bb = rd.file("nlmp-union-odd.json", union_nlmp(base, odd).to_json())
    rd.add(
        "nlmp-bisim",
        ["nlmp-bisim", both, query, mapping[query]],
        1,
        _expect(bisimilar=False),
        **_nlmp_sizes(bb, base, odd),
    )

    base = random_nlmp(rng, REFINE_NLMP_EXTERNAL_N)
    copy, mapping = renamed_nlmp(base, rng, "q")
    query = rng.choice(base.states)
    left, lb = rd.file("nlmp.json", base.to_json())
    right, rb = rd.file("nlmp-copy.json", copy.to_json())
    rd.add(
        "nlmp-bisim --other --witness",
        ["nlmp-bisim", left, query, mapping[query], "--other", right, "--witness"],
        0,
        _both(_expect(bisimilar=True), _witness_has(list(mapping.items()))),
        **_nlmp_sizes(lb + rb, base, copy),
    )
    odd, ob = rd.file("nlmp-odd.json", with_unused_label_measure(copy, mapping[query]).to_json())
    rd.add(
        "nlmp-bisim --other",
        ["nlmp-bisim", left, query, mapping[query], "--other", odd],
        1,
        _expect(bisimilar=False),
        **_nlmp_sizes(lb + ob, base, copy),
    )


CANON_LADDER_RUNGS = 15
CANON_DAG_LAYERS = 15
CANON_DAG_WIDTH = 6
CANON_SMALL_LAYERS = 8
CANON_SHIFT_N = 24
CANON_SHIFT_DEPTH = 14
CANON_TREE_DEPTH = 6
CANON_TREE_BRANCHING = 3


def canon_round(rd: Round) -> None:
    rng = rd.rng

    def expand(name: str, lts: LTS, depth: int | None = None) -> None:
        want = ref_expansion_canon(lts, lts.root, depth)
        copy, _ = renamed(lts, rng, "e")
        path, nbytes = rd.file(name, copy.to_json())
        args = ["expand", path] + ([] if depth is None else ["--depth", str(depth)])
        verb = "expand" if depth is None else "expand --depth"
        rd.add(verb, args, 0, _expect(canon=want), **_lts_sizes(lts, nbytes))

    # Three large unfoldings make the tail; the small ones sit with the iso
    # requests in the bulk that sets the median.
    expand("ladder.json", ladder(CANON_LADDER_RUNGS))
    expand("dag.json", layered_dag(rng, CANON_DAG_LAYERS, CANON_DAG_WIDTH))
    expand("shift.json", shift_graph(CANON_SHIFT_N), CANON_SHIFT_DEPTH)
    expand("ladder-small.json", ladder(CANON_SMALL_LAYERS))
    expand("dag-small.json", layered_dag(rng, CANON_SMALL_LAYERS, CANON_DAG_WIDTH))

    for i, (witness, isomorphic) in enumerate(((False, True), (True, True), (False, False), (True, False))):
        tree = random_multitree(rng, CANON_TREE_DEPTH, CANON_TREE_BRANCHING)
        want_left = ref_multitree_canon(tree)
        if isomorphic:
            other = shuffled_split(tree, rng)
            want_right = ref_multitree_canon(other)
            if want_right != want_left:
                raise RuntimeError("a shuffled split copy must keep the canonical form")
        else:
            other = bumped_deep_count(tree, rng)
            want_right = ref_multitree_canon(other)
            while want_right == want_left:
                other = bumped_deep_count(other, rng)
                want_right = ref_multitree_canon(other)
        left, lb = rd.file(f"tree{i}.json", multitree_json(tree, rng))
        right, rb = rd.file(f"tree{i}-other.json", multitree_json(other, rng))
        check = _expect(isomorphic=isomorphic)
        if witness:
            check = _both(check, _expect(left=want_left, right=want_right))
        rd.add(
            "iso --witness" if witness else "iso",
            ["iso", left, right] + (["--witness"] if witness else []),
            0 if isomorphic else 1,
            check,
            states=tree_size(tree) + tree_size(other),
            bytes=lb + rb,
        )
    gadget_requests(rd)


GADGET_REDUCE = (8, 32)  # depth, width
GADGET_WITNESS_BOUND = 64


def gadget_requests(rd: Round) -> None:
    """e0 witness and reduce: the other verbs that print trees and formulas."""
    rng = rd.rng
    x = random_ep(rng)
    flips = set(rng.sample(range(12), rng.randint(1, 4)))
    xp, xb = rd.file("x.json", x.to_json())
    np_, nb = rd.file("near.json", flipped(x, flips).to_json())
    fp, fb = rd.file("far.json", tail_complement(x, rng).to_json())

    mask = sum(1 << i for i in flips)
    bound = GADGET_WITNESS_BOUND
    rd.add(
        "e0 witness",
        ["e0", "witness", xp, np_, "--bound", str(bound)],
        0,
        _expect(equivalent=True, matching=[[n, n ^ mask] for n in range(bound)]),
        bytes=xb + nb,
    )

    def separates(out: dict) -> str | None:
        sep = out.get("separator") or {}
        inner = sep.get("sub") or {}
        if sep.get("op") != "dia" or inner.get("op") != "char_set" or not x.same_set(inner.get("set")):
            return f"separator {sep!r} is not <suc> of the set's characteristic atom"
        return _expect(equivalent=False, left_sat=True, right_sat=False)(out)

    rd.add("e0 witness", ["e0", "witness", xp, fp], 1, separates, bytes=xb + fb)

    # Half the positions past the prefix are members, so the truncation
    # has about the same size for every seed.
    dense = EP(_bits(rng, 5), rng.choice(("01", "10")))
    dp, db = rd.file("dense.json", dense.to_json())
    depth, width = GADGET_REDUCE
    rd.add(
        "e0 reduce",
        ["e0", "reduce", dp, "--depth", str(depth), "--width", str(width)],
        0,
        _expect(
            tree={"kind": "explicit", "nodes": gadget_truncation(dense, depth, width)},
            rank=[[1, 1], [0, 2]],
        ),
        bytes=db,
    )


VERIFY_SUITES = (
    "measure-lifting",
    "greatest-bisim",
    "expansion-canon",
    "rank-coherence",
    "tree-iso",
    "tail-rank",
    "set-gadgets",
    "substructure-descent",
    "sum-process",
    "uniform-search",
    "umlts-pipeline",
    "determinism",
)


# Suites sent twice per round. Alone, the twelve suites put the median
# between two suites whose costs differ by a fifth; these three cost about
# the same, so the median lands among them.
VERIFY_REPEATED = ("tree-iso", "uniform-search", "sum-process")


def verify_round(rd: Round) -> None:
    rng = rd.rng
    suites = list(VERIFY_SUITES + VERIFY_REPEATED)
    rng.shuffle(suites)
    for suite in suites:
        seed = rng.randrange(1 << 20)

        def passed(out: dict, suite=suite, seed=seed) -> str | None:
            names = [s.get("name") for s in out.get("suites", [])]
            if names != [suite] or out.get("seed") != seed:
                return f"report covers {names} at seed {out.get('seed')}"
            return _expect(passed=True)(out)

        rd.add(f"verify {suite}", ["verify", "--suite", suite, "--seed", str(seed)], 0, passed)


WORKLOADS: dict[str, Callable[[Round], None]] = {
    "refine": refine_round,
    "canon": canon_round,
    "verify": verify_round,
}


def build_round(workload: str, seed: int, index: int, directory: Path) -> list[Request]:
    rd = Round(directory, Random(f"{workload}:{seed}:{index}"))
    WORKLOADS[workload](rd)
    return rd.requests
