"""Run the bisimkit CLI with spans around the library calls it makes.

Usage: python traced_cli.py <bisimkit arguments>, with PERFBENCH_SPANS
naming the file that receives the spans. Stdout and the exit code are the
CLI's own.

The spans wrap the names that ``bisimkit.cli`` and ``bisimkit.verify``
import from the library, plus the verify suites, so only calls made
through those two modules are seen; calls the library makes internally
fall into the caller's span. Each span is [name, start, end, parent index,
counters], with times from the monotonic clock the client also reads.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from time import perf_counter

# Library names imported by bisimkit.cli, by the span they are timed under.
CLI_SPANS = {
    "read_json_file": "jsonio.read",
    "parse_carrier": "jsonio.parse",
    "parse_epset": "jsonio.parse",
    "parse_formula": "jsonio.parse",
    "parse_lts": "jsonio.parse",
    "parse_multitree": "jsonio.parse",
    "parse_nlmp": "jsonio.parse",
    "parse_tree": "jsonio.parse",
    "formula_to_json": "jsonio.serialize",
    "multitree_to_json": "jsonio.serialize",
    "nlmp_to_json": "jsonio.serialize",
    "tree_to_json": "jsonio.serialize",
    "render_report": "jsonio.serialize",
    "greatest_bisim": "lts.greatest_bisim",
    "state_rank": "lts.state_rank",
    "eval_formula": "lts.eval_formula",
    "greatest_state_bisim": "nlmp.greatest_state_bisim",
    "greatest_ext_bisim": "nlmp.greatest_ext_bisim",
    "omega_expand": "expansion.expand",
    "omega_expand_truncated": "expansion.expand",
    "canon": "treeiso.canon",
    "eval_symbolic": "e0.eval_symbolic",
    "mod_glue_bisim": "e0.mod_glue_bisim",
    "matching_bijection": "e0.witness",
    "separating_formula": "e0.witness",
    "truncate_symbolic": "trees.truncate_symbolic",
}

# Library names imported by bisimkit.verify.
VERIFY_SPANS = {
    "greatest_bisim": "lts.greatest_bisim",
    "bisimilar": "lts.greatest_bisim",
    "is_bisimulation": "lts.is_bisimulation",
    "state_rank": "lts.state_rank",
    "eval_formula": "lts.eval_formula",
    "greatest_state_bisim": "nlmp.greatest_state_bisim",
    "is_state_bisim": "nlmp.is_bisim",
    "is_ext_state_bisim": "nlmp.is_bisim",
    "omega_expand": "expansion.expand",
    "canon": "treeiso.canon",
    "iso_at_rank": "treeiso.iso_at_rank",
    "pipeline_bisim": "uniform.pipeline_bisim",
    "uniform_bisim_search": "uniform.search",
    "mod_glue_bisim": "e0.mod_glue_bisim",
    "diamond_depth_sat": "e0.eval_symbolic",
}


def _file_bytes(args: tuple, result: object) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _lts_density(args: tuple, result: frozenset) -> dict:
    left, right = args
    return {"pairs": len(left.states) * len(right.states), "kept": len(result)}


def _nlmp_density(args: tuple, result: frozenset) -> dict:
    left, right = (args[0], args[0]) if len(args) == 1 else args
    return {"pairs": len(left.states) * len(right.states), "kept": len(result)}


def _dag(args: tuple, result: object) -> dict:
    """Distinct tree objects in the result, and the size of its unfolding."""
    unfolded: dict[int, int] = {}
    stack = [result]
    while stack:
        node = stack[-1]
        pending = [sub for _, sub, _ in node.children if id(sub) not in unfolded]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            unfolded[id(node)] = 1 + sum(unfolded[id(sub)] for _, sub, _ in node.children)
    return {"dag_nodes": len(unfolded), "unfolded": unfolded[id(result)]}


def _text_bytes(args: tuple, result: str) -> dict:
    return {"bytes": len(result)}


COUNTERS = {
    "read_json_file": _file_bytes,
    "greatest_bisim": _lts_density,
    "greatest_state_bisim": _nlmp_density,
    "greatest_ext_bisim": _nlmp_density,
    "omega_expand": _dag,
    "omega_expand_truncated": _dag,
    "canon": _text_bytes,
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []

    def start(self, name: str) -> int:
        parent = self.open[-1] if self.open else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self.open.append(len(self.spans) - 1)
        return self.open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.open.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                self.spans[index][4] = counter(args, result)
            return result

        return traced

    def install(self, module: types.ModuleType, table: dict[str, str]) -> None:
        for attr, name in table.items():
            setattr(module, attr, self.wrap(name, getattr(module, attr), COUNTERS.get(attr)))


def main() -> int:
    started = perf_counter()
    import bisimkit.cli as cli
    import bisimkit.verify as verify

    rec = Recorder()
    rec.spans.append(["cli.import", started, perf_counter(), -1, None])
    rec.install(cli, CLI_SPANS)
    rec.install(verify, VERIFY_SPANS)
    for suite, run in verify.SUITES.items():
        verify.SUITES[suite] = rec.wrap(f"verify.suite.{suite}", run)
    # cli renders its reports with json.dumps; time that as serialization too.
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(cli.json))
    proxy.dumps = rec.wrap("jsonio.serialize", cli.json.dumps)
    cli.json = proxy

    index = rec.start("cli.main")
    try:
        return cli.main(sys.argv[1:])
    finally:
        rec.end(index)
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as handle:
            json.dump(rec.spans, handle)


if __name__ == "__main__":
    sys.exit(main())
