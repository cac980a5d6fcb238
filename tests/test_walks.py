"""The one postorder walk, and the walks built on it, against their oracles.

`foundations.dfs_postorder` is compared with a recursive depth-first
search on seeded graphs. Each walk built on it is compared with the
explicit-stack walk it replaced, kept here as an ``oracle_*`` function:
multiplicity-tree postorder, hashing and ranking over shared DAGs, folds
over nested glue, formula postorder and top-level diamonds over formulas
with shared parts, the profile budget's walk over (place, formula) pairs,
and the ranks and expansions of cyclic and acyclic systems.
"""

import random

import pytest

from bisimkit import e0, expansion, gen, lts as lts_module, trees
from bisimkit.e0 import PROFILE_BUDGET, _check_profile_budget, _top_diamonds
from bisimkit.expansion import omega_expand, omega_expand_truncated
from bisimkit.foundations import (
    OMEGA_COUNT,
    Count,
    EPSet,
    Ordinal,
    dfs_postorder,
    ordinal_sup,
)
from bisimkit.lts import (
    And,
    CharSet,
    Dia,
    Neg,
    Or,
    PointedLTS,
    RankAtLeast,
    TOP,
    formula_postorder,
    rank_formula,
    state_rank,
)
from bisimkit.trees import (
    ATree,
    BTree,
    Chain,
    Glue,
    MultiTree,
    _root_rank,
    fold_symbolic,
    postorder,
    symbolic_rank,
)


def oracle_dfs(roots, children, key) -> list:
    """Depth-first postorder by plain recursion: the kernel's definition."""
    seen: set = set()
    order: list = []

    def visit(node) -> None:
        for sub in children(node):
            if key(sub) not in seen:
                seen.add(key(sub))
                visit(sub)
        order.append(node)

    for root in roots:
        if key(root) not in seen:
            seen.add(key(root))
            visit(root)
    return order


def random_graph(rng: random.Random, size: int, cyclic: bool) -> dict[int, list[int]]:
    """Successor lists over 0..size-1, repeats allowed; acyclic ones run forward."""
    graph = {}
    for n in range(size):
        targets = range(size) if cyclic else range(n + 1, size)
        graph[n] = [t for t in targets if rng.random() < 0.25] * rng.choice((1, 1, 2))
        rng.shuffle(graph[n])
    return graph


def reaches(graph: dict, start, goal) -> bool:
    seen, todo = {start}, [start]
    while todo:
        for t in graph[todo.pop()]:
            if t == goal:
                return True
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return False


class TestKernelContract:
    def test_matches_the_recursive_search(self):
        rng = random.Random(24)
        for trial in range(400):
            cyclic = trial % 2 == 1
            graph = random_graph(rng, rng.randint(1, 12), cyclic)
            roots = [rng.randrange(len(graph)) for _ in range(rng.randint(1, 3))]
            want = oracle_dfs(roots, graph.__getitem__, lambda n: n)
            assert dfs_postorder(roots, graph.__getitem__) == want, (graph, roots)
            # The same walk over unhashable nodes, told apart by id.
            boxes = [[n] for n in graph]
            boxed = {id(box): [boxes[t] for t in graph[box[0]]] for box in boxes}
            starts = [boxes[r] for r in roots]
            got = dfs_postorder(starts, lambda box: boxed[id(box)], id)
            assert [box[0] for box in got] == want

    def test_each_node_once_after_its_successors_but_open_ones(self):
        rng = random.Random(2024)
        closing = 0
        for trial in range(400):
            cyclic = trial % 2 == 1
            graph = random_graph(rng, rng.randint(1, 12), cyclic)
            order = dfs_postorder([0], graph.__getitem__)
            assert len(order) == len(set(order))
            reached = {0} | {n for n in graph if reaches(graph, 0, n)}
            assert set(order) == reached
            place = {n: i for i, n in enumerate(order)}
            for n in order:
                for t in graph[n]:
                    if place[t] > place[n]:
                        # Listed later: t was still open, so it reaches back to n.
                        assert cyclic and reaches(graph, t, n), (graph, n, t)
                        closing += 1
        assert closing > 100

    def test_a_deep_chain_walks_without_recursion(self):
        size = 50000
        order = dfs_postorder([0], lambda n: (n + 1,) if n + 1 < size else ())
        assert order == list(range(size - 1, -1, -1))

    def test_no_roots_list_nothing(self):
        assert dfs_postorder([], lambda n: ()) == []


# The walks each rebuilt function kept before it went through the kernel.


def oracle_postorder(*roots: MultiTree) -> list[MultiTree]:
    seen: set[int] = set()
    order: list[MultiTree] = []
    for root in roots:
        if id(root) in seen:
            continue
        seen.add(id(root))
        stack = [(root, iter(root.children))]
        while stack:
            node, children = stack[-1]
            for _, sub, _ in children:
                if id(sub) not in seen:
                    seen.add(id(sub))
                    stack.append((sub, iter(sub.children)))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


def oracle_hash(tree: MultiTree) -> int:
    stack = [tree]
    while stack:
        node = stack[-1]
        if "_hash" in node.__dict__:
            stack.pop()
            continue
        pending = [sub for _, sub, _ in node.children if "_hash" not in sub.__dict__]
        if pending:
            stack += pending
        else:
            stack.pop()
            object.__setattr__(node, "_hash", hash((node.children,)))
    return tree._hash


def oracle_tree_rank(tree: MultiTree) -> Ordinal:
    heights: dict[int, int] = {}
    for node in oracle_postorder(tree):
        heights[id(node)] = max(
            (heights[id(sub)] + 1 for _, sub, _ in node.children), default=0
        )
    return Ordinal.from_int(heights[id(tree)] + 1)


def oracle_fold_symbolic(tree, leaf, glue):
    values: dict[int, object] = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        if id(node) in values:
            stack.pop()
        elif not isinstance(node, Glue):
            values[id(node)] = leaf(node)
            stack.pop()
        else:
            waiting = [part for part in node.parts if id(part) not in values]
            if waiting:
                stack.extend(reversed(waiting))
            else:
                values[id(node)] = glue([values[id(part)] for part in node.parts])
                stack.pop()
    return values[id(tree)]


def oracle_formula_postorder(phi) -> list:
    order: list = []
    seen: set[int] = set()
    stack: list = [(phi, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, (And, Or)):
            stack.extend((sub, False) for sub in reversed(node.subs))
        elif isinstance(node, (Neg, Dia)):
            stack.append((node.sub, False))
    return order


def oracle_top_diamonds(body) -> list:
    found: list = []
    seen: set[int] = set()
    stack = [body]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, (And, Or)):
            stack.extend(reversed(node.subs))
        elif isinstance(node, Neg):
            stack.append(node.sub)
        elif isinstance(node, Dia) and node.label == "suc":
            found.append(node)
    return found


def oracle_check_profile_budget(tree, phi) -> None:
    seen: set[tuple[int, int]] = set()
    stack = [(tree, phi)]
    while stack:
        place, node = stack.pop()
        if (id(place), id(node)) in seen:
            continue
        seen.add((id(place), id(node)))
        if isinstance(node, (And, Or)):
            stack.extend((place, sub) for sub in reversed(node.subs))
        elif isinstance(node, Neg):
            stack.append((place, node.sub))
        elif (
            isinstance(node, Dia)
            and node.label == "suc"
            and not isinstance(node.sub, (CharSet, RankAtLeast))
        ):
            if isinstance(place, BTree):
                width = len(oracle_top_diamonds(node.sub))
                if width > PROFILE_BUDGET:
                    raise ValueError(
                        f"a diamond body on a glued modification tree has {width} "
                        f"distinct top-level diamonds, over the budget of {PROFILE_BUDGET}"
                    )
            elif isinstance(place, Glue):
                stack.extend((part, node.sub) for part in reversed(place.parts))


def oracle_state_rank(lts: PointedLTS, state: str) -> Ordinal | None:
    heights: dict[str, int] = {}
    on_path = {state}
    succs = lts.all_successors(state)
    stack = [(state, succs, iter(succs))]
    while stack:
        node, succs, pending = stack[-1]
        for t in pending:
            if t in on_path:
                return None
            if t not in heights:
                on_path.add(t)
                t_succs = lts.all_successors(t)
                stack.append((t, t_succs, iter(t_succs)))
                break
        else:
            stack.pop()
            on_path.remove(node)
            heights[node] = max((heights[t] + 1 for t in succs), default=0)
    return Ordinal.from_int(heights[state])


def oracle_expand(lts: PointedLTS, state: str, depth: int | None) -> MultiTree:
    if depth is None and oracle_state_rank(lts, state) is None:
        raise ValueError(
            f"state {state!r} can reach a cycle; its full expansion is infinite"
        )
    consed: dict[tuple, MultiTree] = {}
    built: dict[tuple, MultiTree] = {}
    stack = [(state, depth)]
    while stack:
        key = stack[-1]
        if key in built:
            stack.pop()
            continue
        s, d = key
        below = None if d is None else d - 1
        moves = [
            (label, (t, below))
            for label in (lts.labels if d != 0 else ())
            for t in lts.successors(s, label)
        ]
        pending = [sub for _, sub in moves if sub not in built]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        entries: dict[tuple[str, int], tuple] = {}
        for label, sub in moves:
            tree = built[sub]
            entries.setdefault((label, id(tree)), (label, tree, OMEGA_COUNT))
        shape = tuple(entries)
        if shape not in consed:
            consed[shape] = MultiTree(tuple(entries.values()))
        built[key] = consed[shape]
    return built[(state, depth)]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as error:
        return "error", str(error)


# Seeded shared structures.


def random_multitree_dag(rng: random.Random, size: int) -> MultiTree:
    """Nodes over a pool of earlier nodes, so subtrees are shared."""
    pool = [MultiTree()]
    for _ in range(size):
        entries = tuple(
            (rng.choice("ab"), rng.choice(pool), rng.choice((Count(1), Count(3), OMEGA_COUNT)))
            for _ in range(rng.randint(0, 3))
        )
        pool.append(MultiTree(entries))
    return pool[-1]


def random_glue(rng: random.Random, size: int):
    """Nested glue over a pool of earlier trees, so parts are shared."""
    pool = [Chain(rng.randint(0, 4)), ATree(gen.random_epset(rng)), BTree(gen.random_epset(rng))]
    for _ in range(size):
        if rng.random() < 0.3:
            pool.append(rng.choice((Chain(rng.randint(0, 4)), BTree(gen.random_epset(rng)))))
        else:
            pool.append(Glue(tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))))
    return pool[-1]


def random_shared_formula(rng: random.Random, size: int, labels=("suc", "a")):
    """A formula over a pool of earlier subformulas, so parts are shared."""
    pool = [TOP, CharSet(EPSet("1", "0")), RankAtLeast(Ordinal.from_int(2))]
    for _ in range(size):
        roll = rng.random()
        if roll < 0.2:
            pool.append(Neg(rng.choice(pool)))
        elif roll < 0.6:
            pool.append(Dia(rng.choice(labels), rng.choice(pool)))
        else:
            subs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
            pool.append(And(subs) if roll < 0.8 else Or(subs))
    return pool[-1]


class TestMultiTreeWalks:
    def test_postorder_on_shared_dags_and_expansions(self):
        rng = random.Random(31)
        for trial in range(300):
            if trial % 2:
                tree = omega_expand(gen.random_wf_lts(rng, 7), "s0")
                roots = (tree,)
            else:
                tree = random_multitree_dag(rng, rng.randint(1, 30))
                subs = [sub for _, sub, _ in tree.children]
                roots = (tree, *subs[:1], tree) if rng.random() < 0.5 else (*subs, tree)
            assert postorder(*roots) == oracle_postorder(*roots)

    def test_hash_matches_on_every_node(self):
        for seed in range(200):
            tree = random_multitree_dag(random.Random(seed), 25)
            twin = random_multitree_dag(random.Random(seed), 25)
            # Some nodes are hashed first, so the walk covers only the rest.
            for _, sub, _ in tree.children[:1]:
                hash(sub)
            assert hash(tree) == oracle_hash(twin)
            nodes, twins = postorder(tree), oracle_postorder(twin)
            assert [node.__dict__["_hash"] for node in nodes] == [
                node.__dict__["_hash"] for node in twins
            ]

    def test_hash_of_a_deep_tree(self):
        tree = MultiTree()
        for _ in range(20000):
            tree = MultiTree((("a", tree, OMEGA_COUNT),))
        twin = MultiTree()
        for _ in range(20000):
            twin = MultiTree((("a", twin, OMEGA_COUNT),))
        assert hash(tree) == oracle_hash(twin)

    def test_rank_matches_on_every_node(self):
        for seed in range(200):
            rng = random.Random(seed)
            if seed % 2:
                tree = gen.random_multitree(rng, rng.randint(0, 6), max_branch=3)
            else:
                tree = random_multitree_dag(rng, 25)
            # Some nodes are ranked first, so the walk covers only the rest.
            for _, sub, _ in tree.children[:1]:
                sub.tree_rank()
            assert tree.tree_rank() == oracle_tree_rank(tree)
            for node in postorder(tree):
                assert node.tree_rank() == oracle_tree_rank(node)

    def test_rank_of_a_doubling_dag_and_a_deep_chain(self):
        dag = MultiTree()
        for _ in range(40):
            dag = MultiTree((("a", dag, Count(1)), ("b", dag, OMEGA_COUNT)))
        chain = MultiTree()
        for _ in range(3000):
            chain = MultiTree((("a", chain, Count(2)),))
        assert dag.tree_rank() == oracle_tree_rank(dag) == Ordinal.from_int(41)
        assert chain.tree_rank() == oracle_tree_rank(chain) == Ordinal.from_int(3001)

    def test_a_second_rank_makes_no_walk(self, monkeypatch):
        walks = []

        def counted(walk):
            def run(*args):
                walks.append(args)
                return walk(*args)

            return run

        for seed in range(20):
            tree = random_multitree_dag(random.Random(seed), 25)
            nodes = postorder(tree)
            with monkeypatch.context() as patch:
                for name in ("dfs_postorder", "postorder"):
                    patch.setattr(trees, name, counted(getattr(trees, name)))
                first = tree.tree_rank()
                assert walks
                walks.clear()
                assert tree.tree_rank() == first
                for node in nodes:
                    assert node.tree_rank() == oracle_tree_rank(node)
                assert walks == []


class TestFoldSymbolic:
    def test_nested_glue_folds_in_the_same_order(self):
        rng = random.Random(37)
        for _ in range(300):
            tree = random_glue(rng, rng.randint(0, 25))
            assert fold_calls(fold_symbolic, tree) == fold_calls(oracle_fold_symbolic, tree)
            sup = lambda ranks: ordinal_sup(rank + 1 for rank in ranks)
            assert symbolic_rank(tree)[0] == oracle_fold_symbolic(tree, _root_rank, sup)
            assert e0.leaf_depth_set(tree) == oracle_fold_symbolic(
                tree, e0._leaf_depths, e0._glue_leaf_depths
            )

    def test_the_first_bad_part_raises(self):
        rng = random.Random(41)
        for _ in range(200):
            tree = random_glue(rng, rng.randint(1, 20))
            parts = lambda node: node.parts if isinstance(node, Glue) else ()
            nodes = oracle_dfs([tree], parts, id)
            bad = {id(node) for node in nodes if rng.random() < 0.3}

            def leaf(node):
                if id(node) in bad:
                    raise ValueError(f"bad {id(node)}")
                return 0

            assert outcome(fold_symbolic, tree, leaf, len) == outcome(
                oracle_fold_symbolic, tree, leaf, len
            )


def fold_calls(fold, tree) -> tuple:
    """The fold's value and the calls it made, in order."""
    calls: list = []

    def leaf(node):
        calls.append(("leaf", id(node)))
        return len(calls)

    def glue(values):
        calls.append(("glue", tuple(values)))
        return len(calls)

    return fold(tree, leaf, glue), calls


class TestFormulaWalks:
    def test_rank_formulas(self):
        for labels in (("a",), ("a", "b"), ("suc", "a", "b")):
            for k in range(9):
                phi = rank_formula(Ordinal.from_int(k), labels)
                order = formula_postorder(phi)
                assert order == oracle_formula_postorder(phi)
                assert len(order) == 1 + k * (1 + len(labels))

    def test_formulas_with_shared_parts(self):
        rng = random.Random(43)
        for _ in range(400):
            phi = random_shared_formula(rng, rng.randint(0, 30))
            assert formula_postorder(phi) == oracle_formula_postorder(phi)
            assert _top_diamonds(phi) == oracle_top_diamonds(phi)

    def test_profile_budget_over_place_formula_pairs(self):
        rng = random.Random(47)
        raised = 0
        for _ in range(300):
            tree = random_glue(rng, rng.randint(0, 12))
            phi = budget_formula(rng)
            want = outcome(oracle_check_profile_budget, tree, phi)
            assert outcome(_check_profile_budget, tree, phi) == want, (tree, phi)
            raised += want[0] == "error"
        assert 30 < raised < 270, raised


def budget_formula(rng: random.Random):
    """Diamonds whose bodies have 1 to 20 distinct top-level diamonds."""
    bodies = []
    for _ in range(rng.randint(1, 3)):
        width = rng.choice((1, 2, PROFILE_BUDGET + 1, PROFILE_BUDGET + 3))
        tops = [Dia("suc", rank_formula(Ordinal.from_int(k % 3), ("suc",))) for k in range(width)]
        body = Dia("suc", And(tuple(tops)) if rng.random() < 0.5 else Or(tuple(tops)))
        for _ in range(rng.randint(0, 2)):
            body = Dia("suc", body)
        bodies.append(body)
    pool = bodies + [Dia("suc", CharSet(EPSet("1", "0"))), TOP]
    for _ in range(rng.randint(0, 4)):
        pool.append(rng.choice((Neg(rng.choice(pool)), And((rng.choice(pool), rng.choice(pool))))))
    return pool[-1] if rng.random() < 0.5 else Or(tuple(pool))


class TestStateGraphWalks:
    def test_state_rank_on_cyclic_and_acyclic_systems(self):
        rng = random.Random(53)
        infinite = 0
        for trial in range(400):
            if trial % 2:
                lts = gen.random_lts(rng, max_states=7, edge_chance=0.2)
            else:
                lts = gen.random_wf_lts(rng, 8)
            for s in lts.states:
                want = oracle_state_rank(lts, s)
                assert state_rank(lts, s) == want, (lts, s)
                infinite += want is None
        assert infinite > 200

    def test_expansions_on_cyclic_and_acyclic_systems(self):
        rng = random.Random(59)
        cycles = 0
        for trial in range(300):
            if trial % 2:
                lts = gen.random_lts(rng, max_states=6, edge_chance=0.2)
            else:
                lts = gen.random_wf_lts(rng, 7)
            for s in lts.states:
                want = outcome(oracle_expand, lts, s, None)
                got = outcome(omega_expand, lts, s)
                assert got == want, (lts, s)
                if want[0] == "ok":
                    assert len(postorder(got[1])) == len(postorder(want[1]))
                cycles += want[0] == "error"
                for depth in (0, 1, 3):
                    tree = omega_expand_truncated(lts, s, depth)
                    assert tree == oracle_expand(lts, s, depth)
        assert cycles > 100

    def test_a_cycle_is_found_by_the_expansion_itself(self, monkeypatch):
        def no_rank(*args):
            raise AssertionError("state_rank called")

        monkeypatch.setattr(lts_module, "state_rank", no_rank)
        monkeypatch.setattr(expansion, "state_rank", no_rank, raising=False)
        states = tuple(f"q{i}" for i in range(6))
        edges = frozenset(
            (states[i], a, states[(2 * i + k) % 6]) for i in range(6) for k, a in enumerate("ab")
        )
        shift = PointedLTS(("a", "b"), states, "q0", edges)
        with pytest.raises(ValueError, match="state 'q1' can reach a cycle; its full"):
            omega_expand(shift, "q1")
        tail = PointedLTS(("a",), ("p", "q"), "p", frozenset({("p", "a", "q")}))
        assert omega_expand(tail, "p") == oracle_expand(tail, "p", None)
