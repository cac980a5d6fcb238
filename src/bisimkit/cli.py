"""Command line front end for equivalence checks, expansions, and exports.

Every verb prints a JSON report on stdout (human summary on stderr) and
signals through its exit code: 0 when the property holds or the
computation succeeded, 1 when the checked property fails, 2 on input
errors (including input too large for memory or nested too deeply), and
3 on an internal error, a bug to report. Errors print one line on stderr.

A verb's report is a dict, and one writer, `_report_pieces`, lays out
every report line as ``json.dumps(report, sort_keys=True)`` would. A
long value (expand's canonical string and tree, iso's witness strings,
e0 reduce's truncation) is a function that yields its JSON text in
chunks, called only as the line is written, so it is never held whole;
whatever can fail is built or checked before the first byte.

The verb table VERBS is the only description of the command line. A
plain line is parsed straight from it; argparse is imported, and a parser
built from the same table, only for help and for lines outside the plain
form (usage errors, abbreviations, "--opt=value", "--"), so help text,
error text and exit codes are argparse's own.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from types import SimpleNamespace

from .dot import (
    explicit_tree_dot,
    lts_dot,
    multitree_dot_lines,
    nlmp_dot,
    symbolic_tree_lines,
)
from .e0 import eval_symbolic, matching_bijection, mod_glue_bisim, separating_formula
from .expansion import CycleError, omega_expand, omega_expand_truncated
from .jsonio import (
    decode_json,
    decode_multitree,
    formula_to_json,
    multitree_json_chunks,
    multitree_to_json,  # noqa: F401 -- perfbench/traced_cli.py wraps this name
    nlmp_to_json,
    parse_carrier,
    parse_epset,
    parse_formula,
    parse_lts,
    parse_multitree,
    parse_nlmp,
    parse_tree,
    read_json_file,
    read_multitree,
    read_text,
    render_report,
    tree_to_json,
)
from .foundations import natural
from .lts import PointedLTS, eval_formula, greatest_bisim, known_state, no_char_sets, state_rank
from .nlmp import PointmassNLMP, greatest_ext_bisim, greatest_state_bisim
from .substructures import composition_enum, substructure
from .treeiso import (
    canon,  # noqa: F401 -- perfbench/traced_cli.py wraps this name
    canon_chunks,
    iso,
)
from .trees import (
    BTree,
    ExplicitTree,
    SymbolicTree,
    chunked,
    symbolic_rank,
    truncate_symbolic,  # noqa: F401 -- perfbench/traced_cli.py wraps this name
    truncation_levels,
)
from .uniform import tree_process
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _default_seed() -> int:
    raw = os.environ.get("BISIMKIT_SEED")
    return int(raw) if raw else 0


def _emit(args: SimpleNamespace, report: dict, summary: str | Iterable[str]) -> None:
    """Print the report line, or only the summary under ``--format text``.

    A summary may come as chunks, written as they come.
    """
    if args.format == "text":
        _write_line(sys.stdout, summary)
    else:
        _write_line(sys.stdout, chunked(_report_pieces(report)))
        _write_line(sys.stderr, summary)


def _report_pieces(report: dict) -> Iterator[str]:
    """The line ``json.dumps(report, sort_keys=True)`` prints, in pieces.

    A value may be a function of no arguments giving its JSON text in
    chunks, called only here, so a long value is never held whole.
    """
    separator = "{"
    for key in sorted(report):
        value = report[key]
        yield f"{separator}{json.dumps(key)}: "
        yield from value() if callable(value) else (json.dumps(value, sort_keys=True),)
        separator = ", "
    yield "}" if report else "{}"


def _string_chunks(chunks: Iterable[str]) -> Callable[[], Iterator[str]]:
    """A report value: the JSON string of the chunks joined.

    JSON escapes each character alone, so the chunks are escaped one by one.
    """
    return lambda: chain('"', (json.dumps(chunk)[1:-1] for chunk in chunks), '"')


def _write_line(stream, chunks: str | Iterable[str]) -> None:
    for chunk in (chunks,) if isinstance(chunks, str) else chunks:
        stream.write(chunk)
    stream.write("\n")


def _read_target(path: str) -> PointedLTS | SymbolicTree:
    """An LTS file, or a tree file, where an explicit tree unfolds to its process."""
    data = read_json_file(path)
    if _sniff_kind(data) != "tree":
        return parse_lts(data)
    tree = parse_tree(data)
    return tree_process(tree) if isinstance(tree, ExplicitTree) else tree


def _load_process(path: str) -> PointedLTS:
    """A process file: either an LTS or an explicit tree to unfold."""
    process = _read_target(path)
    if not isinstance(process, PointedLTS):
        raise ValueError(f"{path}: only explicit trees unfold to processes")
    return process


def _checked_state(process: PointedLTS | PointmassNLMP, state: str | None) -> str:
    if state is None:
        return process.root
    known_state(process, state)
    return state


def _bisim_verdict(args: SimpleNamespace, verb: str, rel, key: tuple, what: str) -> int:
    """Report whether the key pair is in the relation, listed under --witness."""
    good = key in rel
    report = {"verb": verb, "bisimilar": good}
    if args.witness:
        report["witness"] = [list(pair) for pair in sorted(rel)]
    _emit(args, report, f"{what} {'' if good else 'not '}bisimilar")
    return EXIT_OK if good else EXIT_FAIL


def _cmd_bisim(args: SimpleNamespace) -> int:
    left = _load_process(args.left)
    right = _load_process(args.right)
    rel = greatest_bisim(left, right)
    return _bisim_verdict(args, "bisim", rel, (left.root, right.root), "roots")


def _cmd_nlmp_bisim(args: SimpleNamespace) -> int:
    nlmp = parse_nlmp(read_json_file(args.file))
    other = nlmp if args.other is None else parse_nlmp(read_json_file(args.other))
    _checked_state(nlmp, args.state)
    _checked_state(other, args.state_prime)
    if args.other is None:
        rel = greatest_state_bisim(nlmp)
    else:
        rel = greatest_ext_bisim(nlmp, other)
    key = (args.state, args.state_prime)
    return _bisim_verdict(args, "nlmp-bisim", rel, key, "states")


def _cmd_rank(args: SimpleNamespace) -> int:
    lts = _load_process(args.file)
    state = _checked_state(lts, args.state)
    rank = state_rank(lts, state)
    report = {
        "verb": "rank",
        "state": state,
        "rank": "infinite" if rank is None else rank.to_json(),
    }
    text = "infinite" if rank is None else json.dumps(rank.to_json())
    _emit(args, report, f"rank of {state}: {text}")
    return EXIT_OK


def _cmd_expand(args: SimpleNamespace) -> int:
    lts = _load_process(args.file)
    state = _checked_state(lts, args.state)
    if args.depth is not None:
        tree = omega_expand_truncated(lts, state, args.depth)
    else:
        try:
            tree = omega_expand(lts, state)
        except CycleError:
            raise ValueError(f"state {state!r} reaches a cycle; give --depth to truncate")
    form = canon_chunks(tree)
    # Both texts are tabled before the first byte is written, so a failure
    # leaves stdout empty; text output renders no tree.
    text = None if args.format == "text" else multitree_json_chunks(tree)
    report = {
        "verb": "expand",
        "state": state,
        "canon": _string_chunks(form),
        "tree": lambda: text,
    }
    _emit(args, report, chain((f"expansion of {state} canonicalizes to ",), form))
    return EXIT_OK


def _cmd_iso(args: SimpleNamespace) -> int:
    # Both files are read into one table of isomorphism classes, so a class
    # met in both is built once; the verdict comes from class_ids all the
    # same, and the table is dropped before class_ids builds its own keys.
    classes: dict = {}
    left = read_multitree(args.left, classes)
    right = read_multitree(args.right, classes)
    del classes
    good = iso(left, right)
    report = {"verb": "iso", "isomorphic": good}
    if args.witness:
        # Both tables are built before the first byte is written.
        report["left"] = _string_chunks(canon_chunks(left))
        report["right"] = _string_chunks(canon_chunks(right))
    _emit(args, report, "isomorphic" if good else "not isomorphic")
    return EXIT_OK if good else EXIT_FAIL


def _cmd_e0_check(args: SimpleNamespace) -> int:
    x = parse_epset(read_json_file(args.left))
    y = parse_epset(read_json_file(args.right))
    good = mod_glue_bisim(x, y)
    report = {
        "verb": "e0-check",
        "equivalent": good,
        "left": str(x),
        "right": str(y),
    }
    _emit(args, report, "eventually equal" if good else "tails differ")
    return EXIT_OK if good else EXIT_FAIL


def _cmd_e0_reduce(args: SimpleNamespace) -> int:
    x = parse_epset(read_json_file(args.set))
    gadget = BTree(x)
    rank = symbolic_rank(gadget)[1].to_json()
    report = {"verb": "e0-reduce", "set": str(x), "rank": rank}
    if args.depth is None and args.width is None:
        report["tree"] = tree_to_json(gadget)
    else:
        # Checks depth and width now, so a bad one leaves stdout empty.
        nodes = truncation_levels(gadget, *_truncation(args))

        def tree() -> Iterator[str]:
            yield '{"kind": "explicit", "nodes": ['
            separator = ""
            for node in nodes:
                yield f"{separator}[{', '.join(map(str, node))}]"
                separator = ", "
            yield "]}"

        report["tree"] = tree
    _emit(args, report, f"gadget tree for {x}")
    return EXIT_OK


def _natural_bound(args: SimpleNamespace) -> None:
    if args.bound is not None:
        natural(args.bound, "bound")


def _cmd_e0_witness(args: SimpleNamespace) -> int:
    _natural_bound(args)
    x = parse_epset(read_json_file(args.left))
    y = parse_epset(read_json_file(args.right))
    if x.sym_diff(y).is_finite:
        pairs = matching_bijection(x, y, args.bound)
        report = {
            "verb": "e0-witness",
            "equivalent": True,
            "matching": [list(pair) for pair in pairs],
        }
        _emit(args, report, f"matched the first {args.bound} branch indices")
        return EXIT_OK
    phi = separating_formula(x, y)
    report = {
        "verb": "e0-witness",
        "equivalent": False,
        "separator": formula_to_json(phi),
        "left_sat": eval_symbolic(BTree(x), phi),
        "right_sat": eval_symbolic(BTree(y), phi),
    }
    _emit(args, report, "separated by a one-step characterizing formula")
    return EXIT_FAIL


def _cmd_substructure(args: SimpleNamespace) -> int:
    _natural_bound(args)
    nlmp = parse_nlmp(read_json_file(args.file))
    if args.carrier is not None:
        carrier = parse_carrier(read_json_file(args.carrier))
    else:
        carrier = composition_enum(nlmp, args.state, args.bound)
    sub = substructure(nlmp, carrier)
    report = {
        "verb": "substructure",
        "carrier": sorted(carrier),
        "process": nlmp_to_json(sub),
    }
    _emit(args, report, f"carrier of {len(carrier)} states")
    return EXIT_OK


def _cmd_eval(args: SimpleNamespace) -> int:
    phi = parse_formula(read_json_file(args.formula))
    target = _read_target(args.target)
    if isinstance(target, PointedLTS):
        state = _checked_state(target, args.state)
        # Checked before the walk, so that its short circuits cannot hide one.
        no_char_sets(phi)
        holds = eval_formula(target, state, phi)
    elif args.state is not None:
        raise ValueError("symbolic trees evaluate at their root only")
    else:
        holds = eval_symbolic(target, phi)
    report = {"verb": "eval", "holds": holds}
    _emit(args, report, "formula holds" if holds else "formula fails")
    return EXIT_OK if holds else EXIT_FAIL


def _sniff_kind(data: object) -> str:
    if isinstance(data, dict):
        if "kind" in data:
            return "tree"
        if "trans" in data:
            return "nlmp"
        if "edges" in data:
            return "lts"
    return "multitree"


def _cmd_export_dot(args: SimpleNamespace) -> int:
    pieces: Iterable[str]
    # The text is read once, as a pipe cannot be read twice, and decoded once
    # into a multiplicity tree's DAG, or else into the document.
    text = read_text(args.file)
    tree, data = decode_multitree(args.file, text, None)
    kind = args.kind or _sniff_kind(data)
    if kind == "multitree":
        pieces = multitree_dot_lines(parse_multitree(data) if tree is None else tree)
    else:  # a tree read as another kind, or whose root keys name one, is decoded again
        pieces = _dot_pieces(args, kind, data if tree is None else decode_json(args.file, text))
    chunks = chunked(pieces)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


def _dot_pieces(args: SimpleNamespace, kind: str, data: object) -> Iterable[str]:
    if kind == "lts":
        return (lts_dot(parse_lts(data)),)
    if kind == "nlmp":
        return (nlmp_dot(parse_nlmp(data)),)
    tree = parse_tree(data)
    if isinstance(tree, ExplicitTree):
        return (explicit_tree_dot(tree),)
    # A symbolic truncation is streamed, never held whole.
    return symbolic_tree_lines(tree, *_truncation(args))


def _truncation(args: SimpleNamespace) -> tuple[int, int]:
    """The depth and width of a symbolic tree's truncation, 6 by default."""
    return (6 if args.depth is None else args.depth, 6 if args.width is None else args.width)


def _cmd_verify(args: SimpleNamespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    report = run_suites(seed, names)
    lines = [
        f"{result['name']}: {'ok' if result['passed'] else 'FAIL'}"
        f" ({result['cases']} cases)"
        for result in report["suites"]
    ]
    if args.format == "text":
        print("\n".join(lines))
    else:
        print(render_report(report))
        print("\n".join(lines), file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_FAIL


_FORMAT = (
    "--format",
    {"choices": ("json", "text"), "default": "json", "help": "report format on stdout"},
)
_WITNESS = ("--witness", {"action": "store_true"})
_INT = {"type": int}

# The command line, verb by verb: the verb's help and its arguments in the
# order help lists them. For e0 the arguments are a table of sub-verbs in
# the same form. An argument is a positional name, a long option with its
# argparse keywords, or a list of options exactly one of which is given.
# _parse_plain reads only the keywords used here (action="store_true",
# type, choices, default, help); another one needs teaching it first.
# Verb v runs _cmd_v, and e0's sub-verb s runs _cmd_e0_s (dashes become
# underscores); the function is looked up when a line is parsed.
VERBS: dict[str, tuple[str, list | dict]] = {
    "bisim": ("compare two process roots", ["left", "right", _WITNESS, _FORMAT]),
    "nlmp-bisim": (
        "compare two NLMP states",
        [
            "file",
            "state",
            "state_prime",
            ("--other", {"help": "second process for an external check"}),
            _WITNESS,
            _FORMAT,
        ],
    ),
    "rank": ("ordinal rank of a state", ["file", ("--state", {}), _FORMAT]),
    "expand": (
        "omega-expansion of a state",
        ["file", ("--state", {}), ("--depth", _INT), _FORMAT],
    ),
    "iso": ("compare two multiplicity trees", ["left", "right", _WITNESS, _FORMAT]),
    "e0": (
        "eventual-equality reduction gadgets",
        {
            "check": ("decide eventual equality", ["left", "right", _FORMAT]),
            "reduce": (
                "emit the gadget tree of a set",
                ["set", ("--depth", _INT), ("--width", _INT), _FORMAT],
            ),
            "witness": (
                "matching or separating witness",
                ["left", "right", ("--bound", {"type": int, "default": 16}), _FORMAT],
            ),
        },
    ),
    "substructure": (
        "induced process on a carrier",
        [
            "file",
            [("--state", {}), ("--carrier", {})],
            ("--bound", {"type": int, "help": "cap the enumeration closure"}),
            _FORMAT,
        ],
    ),
    "eval": (
        "evaluate a formula on a process or tree",
        ["formula", "target", ("--state", {}), _FORMAT],
    ),
    "verify": (
        "run the theorem re-check suites",
        [("--suite", {"default": "all"}), ("--seed", _INT), _FORMAT],
    ),
    "export-dot": (
        "render a value as DOT",
        [
            "file",
            ("--kind", {"choices": ("lts", "nlmp", "tree", "multitree")}),
            ("--depth", _INT),
            ("--width", _INT),
            ("--out", {}),
        ],
    ),
}


def _handler(*path: str) -> Callable[[SimpleNamespace], int]:
    return globals()["_".join(("_cmd",) + path).replace("-", "_")]


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a plain command line, else None.

    A plain line is the verb (and e0's sub-verb), then positionals and
    exact long option names in any order, where no positional or option
    value starts with "-". Every other line -- help, abbreviations,
    "--opt=value", "--", negative numbers, bad values, missing or extra
    arguments -- is left to argparse, which alone prints help and errors.
    """
    if not argv or argv[0] not in VERBS:
        return None
    path = argv[:1]
    values = {"verb": argv[0]}
    arguments = VERBS[argv[0]][1]
    if isinstance(arguments, dict):
        if len(argv) < 2 or argv[1] not in arguments:
            return None
        path = argv[:2]
        values[f"{argv[0]}_verb"] = argv[1]
        arguments = arguments[argv[1]][1]
    positionals = []
    options = {}
    one_of = set()
    for argument in arguments:
        if isinstance(argument, str):
            positionals.append(argument)
            continue
        if isinstance(argument, list):
            one_of = {name for name, _ in argument}
        else:
            argument = [argument]
        for name, keywords in argument:
            dest = name[2:].replace("-", "_")
            options[name] = dest, keywords
            store_true = keywords.get("action") == "store_true"
            values[dest] = keywords.get("default", False if store_true else None)
    given = set()
    found = []
    words = iter(argv[len(path):])
    for word in words:
        if not word.startswith("-"):
            found.append(word)
            continue
        if word not in options:
            return None
        given.add(word)
        dest, keywords = options[word]
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if len(found) != len(positionals) or (one_of and len(given & one_of) != 1):
        return None
    values.update(zip(positionals, found))
    values["run"] = _handler(*path)
    return SimpleNamespace(**values)


def _build_parser():
    """An argparse parser for the lines _parse_plain leaves, built from VERBS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bisimkit",
        description="Bisimulation toolkit over JSON process descriptions.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_, arguments) in VERBS.items():
        sub = verbs.add_parser(verb, help=help_)
        if isinstance(arguments, dict):
            sub_verbs = sub.add_subparsers(dest=f"{verb}_verb", required=True)
            for name, (sub_help, sub_arguments) in arguments.items():
                _add_arguments(
                    sub_verbs.add_parser(name, help=sub_help),
                    sub_arguments,
                    _handler(verb, name),
                )
        else:
            _add_arguments(sub, arguments, _handler(verb))
    return parser


def _add_arguments(parser, arguments: list, run: Callable[[SimpleNamespace], int]) -> None:
    for argument in arguments:
        if isinstance(argument, str):
            parser.add_argument(argument)
        elif isinstance(argument, list):
            group = parser.add_mutually_exclusive_group(required=True)
            for name, keywords in argument:
                group.add_argument(name, **keywords)
        else:
            name, keywords = argument
            parser.add_argument(name, **keywords)
    parser.set_defaults(run=run)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = _build_parser().parse_args(argv, SimpleNamespace())
    try:
        return args.run(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        message = " ".join(str(err).splitlines())
        print(f"error: internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
