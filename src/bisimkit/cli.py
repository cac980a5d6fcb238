"""Command line front end for equivalence checks, expansions, and exports.

Every verb prints a JSON report on stdout (human summary on stderr) and
signals through its exit code: 0 when the property holds or the
computation succeeded, 1 when the checked property fails, 2 on input
errors (including input too large for memory or nested too deeply), and
3 on an internal error, a bug to report. Errors print one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Callable, Iterable, Iterator

from .dot import explicit_tree_dot, lts_dot, multitree_dot, nlmp_dot, symbolic_tree_dot
from .e0 import (
    eval_symbolic,
    matching_bijection,
    mod_glue_bisim,
    mod_glue_tree,
    separating_formula,
)
from .expansion import omega_expand, omega_expand_truncated
from .jsonio import (
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
    tree_to_json,
)
from .lts import PointedLTS, eval_formula, greatest_bisim, state_rank
from .nlmp import greatest_ext_bisim, greatest_state_bisim
from .substructures import reachable_carrier, substructure
from .treeiso import canon, canon_chunks, iso
from .trees import ExplicitTree, symbolic_rank, truncate_symbolic
from .uniform import composition_enum, derive_uniform, tree_process
from .verify import SUITES, render_report, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _default_seed() -> int:
    raw = os.environ.get("BISIMKIT_SEED")
    return int(raw) if raw else 0


def _emit(
    args: argparse.Namespace,
    report: dict | Callable[[], Iterable[str]],
    summary: str | Iterable[str],
) -> None:
    """Print the report line, or only the summary under ``--format text``.

    A report may come as a function yielding its JSON line in chunks,
    which text output never calls, and a summary as chunks; chunks are
    written as they come, so a long line is never held whole.
    """
    if getattr(args, "format", "json") == "text":
        _write_line(sys.stdout, summary)
    else:
        _write_line(
            sys.stdout,
            report() if callable(report) else json.dumps(report, sort_keys=True),
        )
        _write_line(sys.stderr, summary)


def _write_line(stream, chunks: str | Iterable[str]) -> None:
    for chunk in (chunks,) if isinstance(chunks, str) else chunks:
        stream.write(chunk)
    stream.write("\n")


def _load_process(path: str) -> PointedLTS:
    """A process file: either an LTS or an explicit tree to unfold."""
    data = read_json_file(path)
    if isinstance(data, dict) and "kind" in data:
        tree = parse_tree(data)
        if not isinstance(tree, ExplicitTree):
            raise ValueError(f"{path}: only explicit trees unfold to processes")
        return tree_process(tree)
    return parse_lts(data)


def _checked_state(lts: PointedLTS, state: str | None) -> str:
    if state is None:
        return lts.root
    if state not in lts.states:
        raise ValueError(f"unknown state {state!r}")
    return state


def _cmd_bisim(args: argparse.Namespace) -> int:
    left = _load_process(args.left)
    right = _load_process(args.right)
    rel = greatest_bisim(left, right)
    good = (left.root, right.root) in rel
    report = {"verb": "bisim", "bisimilar": good}
    if args.witness:
        report["witness"] = [list(pair) for pair in sorted(rel)]
    _emit(args, report, "roots bisimilar" if good else "roots not bisimilar")
    return EXIT_OK if good else EXIT_FAIL


def _cmd_nlmp_bisim(args: argparse.Namespace) -> int:
    nlmp = parse_nlmp(read_json_file(args.file))
    other = nlmp if args.other is None else parse_nlmp(read_json_file(args.other))
    if args.state not in nlmp.states:
        raise ValueError(f"unknown state {args.state!r}")
    if args.state_prime not in other.states:
        raise ValueError(f"unknown state {args.state_prime!r}")
    if args.other is None:
        rel = greatest_state_bisim(nlmp)
    else:
        rel = greatest_ext_bisim(nlmp, other)
    good = (args.state, args.state_prime) in rel
    report = {"verb": "nlmp-bisim", "bisimilar": good}
    if args.witness:
        report["witness"] = [list(pair) for pair in sorted(rel)]
    _emit(
        args,
        report,
        f"states {'' if good else 'not '}bisimilar",
    )
    return EXIT_OK if good else EXIT_FAIL


def _cmd_rank(args: argparse.Namespace) -> int:
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


def _cmd_expand(args: argparse.Namespace) -> int:
    lts = _load_process(args.file)
    state = _checked_state(lts, args.state)
    if args.depth is not None:
        tree = omega_expand_truncated(lts, state, args.depth)
    elif state_rank(lts, state) is None:
        raise ValueError(f"state {state!r} reaches a cycle; give --depth to truncate")
    else:
        tree = omega_expand(lts, state)
    form = canon_chunks(tree)
    # Both texts are tabled before the first byte is written, so a failure
    # leaves stdout empty; text output renders no tree.
    text = None if args.format == "text" else multitree_json_chunks(tree)

    def report() -> Iterator[str]:
        # The line json.dumps(..., sort_keys=True) would print. JSON escapes
        # each character alone, so the canon chunks are escaped one by one.
        yield '{"canon": "'
        for chunk in form:
            yield json.dumps(chunk)[1:-1]
        yield f'", "state": {json.dumps(state)}, "tree": '
        yield from text
        yield ', "verb": "expand"}'

    _emit(args, report, chain((f"expansion of {state} canonicalizes to ",), form))
    return EXIT_OK


def _cmd_iso(args: argparse.Namespace) -> int:
    left = parse_multitree(read_json_file(args.left))
    right = parse_multitree(read_json_file(args.right))
    good = iso(left, right)
    report = {"verb": "iso", "isomorphic": good}
    if args.witness:
        report["left"] = canon(left)
        report["right"] = canon(right)
    _emit(args, report, "isomorphic" if good else "not isomorphic")
    return EXIT_OK if good else EXIT_FAIL


def _cmd_e0_check(args: argparse.Namespace) -> int:
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


def _cmd_e0_reduce(args: argparse.Namespace) -> int:
    x = parse_epset(read_json_file(args.set))
    gadget = mod_glue_tree(x)
    if args.depth is None and args.width is None:
        tree_json = tree_to_json(gadget)
    else:
        depth = args.depth if args.depth is not None else 6
        width = args.width if args.width is not None else 6
        tree_json = tree_to_json(truncate_symbolic(gadget, depth, width))
    report = {
        "verb": "e0-reduce",
        "set": str(x),
        "tree": tree_json,
        "rank": symbolic_rank(gadget)[1].to_json(),
    }
    _emit(args, report, f"gadget tree for {x}")
    return EXIT_OK


def _cmd_e0_witness(args: argparse.Namespace) -> int:
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
        "left_sat": eval_symbolic(mod_glue_tree(x), phi),
        "right_sat": eval_symbolic(mod_glue_tree(y), phi),
    }
    _emit(args, report, "separated by a one-step characterizing formula")
    return EXIT_FAIL


def _cmd_substructure(args: argparse.Namespace) -> int:
    nlmp = parse_nlmp(read_json_file(args.file))
    if args.carrier is not None:
        carrier = parse_carrier(read_json_file(args.carrier))
    else:
        if args.state not in nlmp.states:
            raise ValueError(f"unknown state {args.state!r}")
        if args.bound is not None:
            carrier = composition_enum(derive_uniform(nlmp), args.state, args.bound)
        else:
            carrier = reachable_carrier(nlmp, args.state)
    sub = substructure(nlmp, carrier)
    report = {
        "verb": "substructure",
        "carrier": sorted(carrier),
        "process": nlmp_to_json(sub),
    }
    _emit(args, report, f"carrier of {len(carrier)} states")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    phi = parse_formula(read_json_file(args.formula))
    data = read_json_file(args.target)
    if isinstance(data, dict) and "kind" in data:
        tree = parse_tree(data)
        if isinstance(tree, ExplicitTree):
            lts = tree_process(tree)
            holds = eval_formula(lts, _checked_state(lts, args.state), phi)
        elif args.state is not None:
            raise ValueError("symbolic trees evaluate at their root only")
        else:
            holds = eval_symbolic(tree, phi)
    else:
        lts = parse_lts(data)
        holds = eval_formula(lts, _checked_state(lts, args.state), phi)
    report = {"verb": "eval", "holds": holds}
    _emit(args, report, "formula holds" if holds else "formula fails")
    return EXIT_OK if holds else EXIT_FAIL


def _sniff_dot_kind(data: object) -> str:
    if isinstance(data, dict):
        if "kind" in data:
            return "tree"
        if "trans" in data:
            return "nlmp"
        if "edges" in data:
            return "lts"
    return "multitree"


def _cmd_export_dot(args: argparse.Namespace) -> int:
    data = read_json_file(args.file)
    kind = args.kind or _sniff_dot_kind(data)
    if kind == "lts":
        text = lts_dot(parse_lts(data))
    elif kind == "nlmp":
        text = nlmp_dot(parse_nlmp(data))
    elif kind == "multitree":
        text = multitree_dot(parse_multitree(data))
    else:
        tree = parse_tree(data)
        if isinstance(tree, ExplicitTree):
            text = explicit_tree_dot(tree)
        else:
            depth = args.depth if args.depth is not None else 6
            width = args.width if args.width is not None else 6
            text = symbolic_tree_dot(tree, depth, width)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
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


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report format on stdout",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisimkit",
        description="Bisimulation toolkit over JSON process descriptions.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    bisim = verbs.add_parser("bisim", help="compare two process roots")
    bisim.add_argument("left")
    bisim.add_argument("right")
    bisim.add_argument("--witness", action="store_true")
    _add_format(bisim)
    bisim.set_defaults(run=_cmd_bisim)

    nlmp_bisim = verbs.add_parser("nlmp-bisim", help="compare two NLMP states")
    nlmp_bisim.add_argument("file")
    nlmp_bisim.add_argument("state")
    nlmp_bisim.add_argument("state_prime")
    nlmp_bisim.add_argument("--other", help="second process for an external check")
    nlmp_bisim.add_argument("--witness", action="store_true")
    _add_format(nlmp_bisim)
    nlmp_bisim.set_defaults(run=_cmd_nlmp_bisim)

    rank = verbs.add_parser("rank", help="ordinal rank of a state")
    rank.add_argument("file")
    rank.add_argument("--state")
    _add_format(rank)
    rank.set_defaults(run=_cmd_rank)

    expand = verbs.add_parser("expand", help="omega-expansion of a state")
    expand.add_argument("file")
    expand.add_argument("--state")
    expand.add_argument("--depth", type=int)
    _add_format(expand)
    expand.set_defaults(run=_cmd_expand)

    iso = verbs.add_parser("iso", help="compare two multiplicity trees")
    iso.add_argument("left")
    iso.add_argument("right")
    iso.add_argument("--witness", action="store_true")
    _add_format(iso)
    iso.set_defaults(run=_cmd_iso)

    e0 = verbs.add_parser("e0", help="eventual-equality reduction gadgets")
    e0_verbs = e0.add_subparsers(dest="e0_verb", required=True)
    check = e0_verbs.add_parser("check", help="decide eventual equality")
    check.add_argument("left")
    check.add_argument("right")
    _add_format(check)
    check.set_defaults(run=_cmd_e0_check)
    reduce_ = e0_verbs.add_parser("reduce", help="emit the gadget tree of a set")
    reduce_.add_argument("set")
    reduce_.add_argument("--depth", type=int)
    reduce_.add_argument("--width", type=int)
    _add_format(reduce_)
    reduce_.set_defaults(run=_cmd_e0_reduce)
    witness = e0_verbs.add_parser("witness", help="matching or separating witness")
    witness.add_argument("left")
    witness.add_argument("right")
    witness.add_argument("--bound", type=int, default=16)
    _add_format(witness)
    witness.set_defaults(run=_cmd_e0_witness)

    sub = verbs.add_parser("substructure", help="induced process on a carrier")
    sub.add_argument("file")
    pick = sub.add_mutually_exclusive_group(required=True)
    pick.add_argument("--state")
    pick.add_argument("--carrier")
    sub.add_argument("--bound", type=int, help="cap the enumeration closure")
    _add_format(sub)
    sub.set_defaults(run=_cmd_substructure)

    eval_ = verbs.add_parser("eval", help="evaluate a formula on a process or tree")
    eval_.add_argument("formula")
    eval_.add_argument("target")
    eval_.add_argument("--state")
    _add_format(eval_)
    eval_.set_defaults(run=_cmd_eval)

    verify = verbs.add_parser("verify", help="run the theorem re-check suites")
    verify.add_argument("--suite", default="all")
    verify.add_argument("--seed", type=int)
    _add_format(verify)
    verify.set_defaults(run=_cmd_verify)

    export = verbs.add_parser("export-dot", help="render a value as DOT")
    export.add_argument("file")
    export.add_argument("--kind", choices=("lts", "nlmp", "tree", "multitree"))
    export.add_argument("--depth", type=int)
    export.add_argument("--width", type=int)
    export.add_argument("--out")
    export.set_defaults(run=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
