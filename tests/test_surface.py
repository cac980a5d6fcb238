"""Every definition in the library is reached from the library.

A top-level function or class of ``src/bisimkit`` must be named, as a
``Name`` or an ``Attribute``, in ``src/bisimkit`` outside its own
definition, and a method must be named as an ``Attribute``: a bare name
that matches a method is some local variable, not a use of it. Imports
and ``__all__`` strings do not count, so a helper that only tests call
belongs in the test that uses it. Dunder methods and the ``_cmd_*``
handlers, which ``cli._handler`` looks up by name, are exempt.
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


def names_in(node: ast.AST, kinds: tuple = ANY_NAME) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds)
    )


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
