"""No function in the library calls itself by name.

Deep inputs must not depend on Python's recursion limit, so walks keep
their own stacks. A function counts as recursive when its body, nested
definitions included, calls its own name, bare or as a method of
``self`` or ``cls``. The allowlist holds the
recursive functions not yet rewritten; it only shrinks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bisimkit"

ALLOWED = {
    "parse_tree",
    "parse_formula",
    "random_multitree",
}


def called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr if func.value.id in ("self", "cls") else None
    return None


def self_calling() -> dict:
    """Each function that calls its own name, by name, with its place."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = (sub for sub in ast.walk(node) if isinstance(sub, ast.Call))
            if any(called_name(call) == node.name for call in calls):
                found[node.name] = f"{path.name}:{node.lineno}"
    return found


def test_no_new_function_calls_itself():
    assert {n: p for n, p in self_calling().items() if n not in ALLOWED} == {}


def test_the_allowlist_is_current():
    assert sorted(n for n in self_calling() if n in ALLOWED) == sorted(ALLOWED)
