"""Test code is written once.

A top-level function whose body, docstring aside, appears in two modules
under ``tests/`` is a copy: it belongs in ``support.py``. A function in
``support.py`` must serve at least two test modules, directly or through
a support function that calls it; one that a single module uses, such as
an oracle it compares against, stays next to its test.
"""

import ast
from collections import defaultdict
from pathlib import Path

TREES = {path.stem: ast.parse(path.read_text()) for path in Path(__file__).parent.glob("*.py")}


def functions(tree: ast.Module) -> list[ast.FunctionDef]:
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)]


def loaded(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_function_body_is_written_twice():
    copies = defaultdict(list)
    for module, tree in sorted(TREES.items()):
        for function in functions(tree):
            body = function.body[ast.get_docstring(function) is not None:]
            copies[ast.dump(ast.Module(body, []))].append(f"{module}.{function.name}")
    repeated = [names for names in copies.values() if len({n.split(".")[0] for n in names}) > 1]
    assert not repeated, f"move each group into support.py: {sorted(repeated)}"


def test_every_support_function_serves_two_modules():
    shared = {function.name: function for function in functions(TREES["support"])}
    calls = {name: loaded(function) & shared.keys() for name, function in shared.items()}
    users = defaultdict(set)
    for module, tree in TREES.items():
        imported = {
            alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "support"
            for alias in node.names
        }
        reached = list(imported & loaded(tree))
        while reached:
            name = reached.pop()
            if module not in users[name]:
                users[name].add(module)
                reached += calls[name]
    lonely = sorted(name for name in shared if len(users[name]) < 2)
    assert not lonely, f"used by fewer than two test modules: {lonely}"
