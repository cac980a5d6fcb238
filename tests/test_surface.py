"""Every definition in the library is reached from the library.

A top-level function or class of ``src/bisimkit`` must be loaded by
name, as a ``Name`` or an ``Attribute``, in ``src/bisimkit`` outside its
own definition, and a method must be named as an ``Attribute``: a bare
name that matches a method is some local variable, not a use of it. A
``Name`` that the enclosing function binds itself (an argument, an
assignment target or a comprehension variable) is that local, not a use
either. Methods are matched by attribute name only, so a method whose
name another class's method or attribute shares counts as reached
through it, and must be checked by hand. Imports and ``__all__`` strings
do not count, so a helper that only tests call belongs in the test that
uses it. Dunder methods and the ``_cmd_*`` handlers, which
``cli._handler`` looks up by name, are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bisimkit"

# Kept although nothing in the library reaches them yet.
ALLOWED = {
    "sat_states": "the satisfying set that the planned labelling evaluator "
    "for eval returns (ROADMAP, global model checking)",
    "bounded_bisim": "the only caller of refine_blocks(rounds=...): it fixes "
    "the meaning of synchronous rounds that faster refinement must keep",
    "multitree_to_json": "perfbench/traced_cli.py wraps it through bisimkit.cli",
    "truncate_symbolic": "perfbench/traced_cli.py wraps it through bisimkit.cli",
}


ANY_NAME = (ast.Name, ast.Attribute)
ATTRIBUTE = (ast.Attribute,)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def binds(scope: ast.AST) -> set[str]:
    """The names a function binds itself: its arguments, the names it
    stores (comprehension variables included) and its nested definitions."""
    args = scope.args
    names = {
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
        if arg is not None
    }
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            stack += ast.iter_child_nodes(node)
    return names


def names_in(node: ast.AST, kinds: tuple = ANY_NAME) -> Counter:
    """Attribute names, and loaded names that no enclosing function binds."""
    found: Counter = Counter()
    stack = [(node, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, SCOPES):
            local = local | binds(node)
        if isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (
            isinstance(node, ast.Name)
            and ast.Name in kinds
            and isinstance(node.ctx, ast.Load)
            and node.id not in local
        ):
            found[node.id] += 1
        stack += ((sub, local) for sub in ast.iter_child_nodes(node))
    return found


def unreferenced() -> dict:
    """Each definition that nothing else names, by name, with its place."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    references = {
        kinds: sum((names_in(tree, kinds) for tree in modules.values()), Counter())
        for kinds in (ANY_NAME, ATTRIBUTE)
    }
    found = {}
    for path, tree in modules.items():
        for top in tree.body:
            inner = top.body if isinstance(top, ast.ClassDef) else []
            for node, kinds in [(top, ANY_NAME), *((sub, ATTRIBUTE) for sub in inner)]:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__") or name.startswith("_cmd_"):
                    continue
                if references[kinds][name] == names_in(node, kinds)[name]:
                    found[name] = f"{path.name}:{node.lineno}"
    return found


def test_every_definition_is_reached_from_the_library():
    assert {n: p for n, p in unreferenced().items() if n not in ALLOWED} == {}


def test_the_allowlist_is_current():
    assert sorted(n for n in unreferenced() if n in ALLOWED) == sorted(ALLOWED)
