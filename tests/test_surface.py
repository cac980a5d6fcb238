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

Every defaulted parameter of a function in ``src/bisimkit``, and every
defaulted field of a ``@frozen`` class there, must be passed by some
call in ``src/bisimkit`` and left out by another: an option that every
caller omits, or that every caller passes, is one value, not an option.
Calls are matched by the name called, bare or as an attribute, and a
function's calls to itself do not count; a class is also called as
``cls`` inside its own body. A call that spreads ``*args`` or
``**kwargs`` counts as passing every parameter.

Every error text is raised from one place: the text of a ``raise
E("...")`` or ``raise E(f"...")`` in ``src/bisimkit``, with each
placeholder written as ``{}``, occurs at exactly one raise site, so a
message that two checks share lives in one helper they both call.
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

# Defaults that the library sets one way only, by module or by
# module:function.
DEFAULTS_ALLOWED = {
    "gen.py": "the seeded generators: verify draws at the defaults, the "
    "tests at other sizes",
    "cli.py:main": "the console script omits argv, the tests pass it",
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


def defaulted(function: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """Each defaulted parameter with its position in a call, None when
    keyword-only; a method's position leaves out self or cls."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
    shift = int(method and not static)
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, i - shift) for i, arg in enumerate(positional) if i >= first]
    found += [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return found


def frozen_fields(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """Each defaulted field of a ``@frozen`` class with its position in a
    call: the annotated names of the class body, in order."""
    if not any(getattr(d, "id", None) == "frozen" for d in cls.decorator_list):
        return []
    fields = [
        f for f in cls.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
    ]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def one_way_defaults() -> dict:
    """Each defaulted parameter, or defaulted field of a ``@frozen`` class,
    that library calls all pass or all omit, as "module:function(parameter)",
    with the numbers passed and omitted. A class is called by its name, or
    as ``cls`` inside its own body."""
    calls: dict[str, list] = {}  # called name -> [(call, enclosing functions)]
    definitions = []
    for path in SRC.glob("*.py"):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), (), None)]
        while stack:
            node, enclosing, owner = stack.pop()
            if isinstance(node, ast.FunctionDef):
                method = owner is not None and node in owner.body
                definitions.append((path.name, node, defaulted(node, method)))
                enclosing += (node,)
            elif isinstance(node, ast.ClassDef):
                definitions.append((path.name, node, frozen_fields(node)))
                owner = node
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "cls" and owner is not None:
                    name = owner.name
                calls.setdefault(name, []).append((node, enclosing))
            stack += ((sub, enclosing, owner) for sub in ast.iter_child_nodes(node))
    found = {}
    for module, function, parameters in definitions:
        outside = [call for call, within in calls.get(function.name, ()) if function not in within]
        for parameter, position in parameters:
            passed = sum(
                any(keyword.arg in (parameter, None) for keyword in call.keywords)
                or any(isinstance(arg, ast.Starred) for arg in call.args)
                or position is not None and len(call.args) > position
                for call in outside
            )
            if passed in (0, len(outside)):
                key = f"{module}:{function.name}({parameter})"
                found[key] = f"passed {passed}, omitted {len(outside) - passed}"
    return found


def allowed_default(key: str) -> str | None:
    """The allowlist entry that covers a one_way_defaults key, if any."""
    module, function = key.split("(")[0].split(":")
    return next((k for k in (module, f"{module}:{function}") if k in DEFAULTS_ALLOWED), None)


def test_every_default_is_set_both_ways_by_the_library():
    assert {k: v for k, v in one_way_defaults().items() if allowed_default(k) is None} == {}


def test_the_defaults_allowlist_is_current():
    covered = {allowed_default(key) for key in one_way_defaults()}
    assert sorted(covered - {None}) == sorted(DEFAULTS_ALLOWED)


def text_of(node: ast.expr) -> str | None:
    """A string literal's text, an f-string's with ``{}`` for each
    placeholder, or None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def raise_sites() -> dict[str, list[str]]:
    """The places of each literal text raised in the library, by text."""
    sites: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                text = text_of(node.exc.args[0])
                if text is not None:
                    sites.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    return sites


def test_every_error_text_is_raised_from_one_place():
    assert {text: places for text, places in raise_sites().items() if len(places) > 1} == {}
