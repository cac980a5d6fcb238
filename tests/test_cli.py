import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import bisimkit
from bisimkit import cli
from bisimkit.cli import VERBS, _parse_plain, main
from support import write


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bisimkit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def loop_lts():
    return {
        "labels": ["a"],
        "states": ["s"],
        "root": "s",
        "edges": [["s", "a", "s"]],
    }


def two_cycle_lts():
    return {
        "labels": ["a"],
        "states": ["t0", "t1"],
        "root": "t0",
        "edges": [["t0", "a", "t1"], ["t1", "a", "t0"]],
    }


CHAR_SET = {"op": "char_set", "set": {"prefix": "", "period": "10"}}


def chain_lts():
    return {
        "labels": ["a"],
        "states": ["s0", "s1"],
        "root": "s0",
        "edges": [["s0", "a", "s1"]],
    }


class TestProcessVerbs:
    def test_bisimilar_roots_emit_witness(self, tmp_path):
        left = write(tmp_path, "left.json", loop_lts())
        right = write(tmp_path, "right.json", two_cycle_lts())
        proc = run_cli("bisim", left, right, "--witness")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["bisimilar"] is True
        assert ["s", "t0"] in report["witness"]

    def test_distinct_roots_exit_one(self, tmp_path):
        left = write(tmp_path, "left.json", loop_lts())
        right = write(tmp_path, "right.json", chain_lts())
        proc = run_cli("bisim", left, right)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["bisimilar"] is False

    def test_tree_files_unfold_to_processes(self, tmp_path):
        tree = write(tmp_path, "tree.json", {"kind": "explicit", "nodes": [[], [0]]})
        lts = write(
            tmp_path,
            "chain.json",
            {
                "labels": ["suc"],
                "states": ["x", "y"],
                "root": "x",
                "edges": [["x", "suc", "y"]],
            },
        )
        proc = run_cli("bisim", tree, lts)
        assert proc.returncode == 0

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        proc = run_cli("rank", str(path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_rank_reports_ordinals(self, tmp_path):
        chain = write(tmp_path, "chain.json", chain_lts())
        proc = run_cli("rank", chain)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rank"] == [[0, 1]]
        loop = write(tmp_path, "loop.json", loop_lts())
        proc = run_cli("rank", loop)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rank"] == "infinite"

    def test_unknown_state_exits_two(self, tmp_path):
        chain = write(tmp_path, "chain.json", chain_lts())
        proc = run_cli("rank", chain, "--state", "ghost")
        assert proc.returncode == 2

    def test_expand_needs_depth_on_cycles(self, tmp_path):
        loop = write(tmp_path, "loop.json", loop_lts())
        proc = run_cli("expand", loop)
        assert proc.returncode == 2
        proc = run_cli("expand", loop, "--depth", "2")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["canon"] == json.loads(
            run_cli("expand", loop, "--depth", "2").stdout
        )["canon"]

    def test_iso_compares_canonical_forms(self, tmp_path):
        left = write(
            tmp_path,
            "left.json",
            {"a": [[{}, 2]], "b": [[{}, "omega"]]},
        )
        right = write(
            tmp_path,
            "right.json",
            {"b": [[{}, "omega"]], "a": [[{}, 1], [{}, 1]]},
        )
        proc = run_cli("iso", left, right, "--witness")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["left"] == report["right"]
        other = write(tmp_path, "other.json", {"a": [[{}, 1]]})
        assert run_cli("iso", left, other).returncode == 1

    def test_deeply_nested_input_exits_two(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"a":[[' * 3000 + "{}" + ",1]]}" * 3000)
        proc = run_cli("iso", str(deep), str(deep))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "error:" in proc.stderr

    def test_expand_prints_a_deep_chain(self, tmp_path):
        states = [f"s{i}" for i in range(3001)]
        chain = write(
            tmp_path,
            "chain.json",
            {
                "labels": ["a"],
                "states": states,
                "root": "s0",
                "edges": [[s, "a", t] for s, t in zip(states, states[1:])],
            },
        )
        proc = run_cli("expand", chain)
        form = '{"a":[[' * 3000 + "{}" + ',"omega"]]}' * 3000
        tree = '{"a": [[' * 3000 + "{}" + ', "omega"]]}' * 3000
        assert proc.returncode == 0
        assert proc.stdout == (
            f'{{"canon": {json.dumps(form)}, "state": "s0", '
            f'"tree": {tree}, "verb": "expand"}}\n'
        )

    def test_expand_text_format_prints_only_the_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        chain = write(tmp_path, "chain.json", chain_lts())
        proc = run_cli("expand", chain, "--format", "text")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == 'expansion of s0 canonicalizes to {"a":[[{},"omega"]]}\n'

        def unwanted(tree):
            raise AssertionError("text output rendered the tree")

        monkeypatch.setattr("bisimkit.cli.multitree_json_chunks", unwanted)
        assert main(["expand", chain, "--format", "text"]) == 0
        assert capsys.readouterr().out == proc.stdout


class TestSetVerbs:
    def test_check_mirrors_eventual_equality(self, tmp_path):
        ones = write(tmp_path, "ones.json", {"prefix": "", "period": "1"})
        late = write(tmp_path, "late.json", {"prefix": "01", "period": "1"})
        assert run_cli("e0", "check", ones, late).returncode == 0
        evens = write(tmp_path, "evens.json", {"prefix": "", "period": "10"})
        odds = write(tmp_path, "odds.json", {"prefix": "0", "period": "10"})
        proc = run_cli("e0", "check", evens, odds)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["equivalent"] is False

    def test_witness_matches_or_separates(self, tmp_path):
        left = write(tmp_path, "left.json", {"prefix": "0110", "period": "0"})
        right = write(tmp_path, "right.json", {"prefix": "", "period": "0"})
        proc = run_cli("e0", "witness", left, right, "--bound", "8")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["matching"][0] == [0, 6]
        assert report["matching"][1] == [1, 7]
        assert len(report["matching"]) == 8

        evens = write(tmp_path, "evens.json", {"prefix": "", "period": "10"})
        odds = write(tmp_path, "odds.json", {"prefix": "0", "period": "10"})
        proc = run_cli("e0", "witness", evens, odds)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["separator"]["op"] == "dia"
        assert report["left_sat"] is True
        assert report["right_sat"] is False

    def test_witness_rejects_negative_bound(self, tmp_path):
        left = write(tmp_path, "left.json", {"prefix": "0110", "period": "0"})
        right = write(tmp_path, "right.json", {"prefix": "", "period": "0"})
        evens = write(tmp_path, "evens.json", {"prefix": "", "period": "10"})
        odds = write(tmp_path, "odds.json", {"prefix": "0", "period": "10"})
        for pair in ((left, right), (evens, odds)):
            proc = run_cli("e0", "witness", *pair, "--bound", "-1")
            assert proc.returncode == 2, pair
            assert proc.stdout == ""
            assert "bound must be a natural" in proc.stderr

    def test_reduce_emits_the_gadget(self, tmp_path):
        pair = write(tmp_path, "pair.json", {"prefix": "0110", "period": "0"})
        proc = run_cli("e0", "reduce", pair)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["tree"]["kind"] == "B"
        assert report["rank"] == [[1, 1], [0, 1]]
        proc = run_cli("e0", "reduce", pair, "--depth", "4", "--width", "4")
        assert json.loads(proc.stdout)["tree"]["kind"] == "explicit"


class TestNLMPVerbs:
    def nlmp(self):
        return {
            "labels": ["a"],
            "states": ["s", "t", "u"],
            "trans": {"s": {"a": [{"t": "1/2"}]}, "t": {"a": [{"t": "1/2"}]}},
        }

    def test_internal_states_compare(self, tmp_path):
        path = write(tmp_path, "proc.json", self.nlmp())
        proc = run_cli("nlmp-bisim", path, "s", "t", "--witness")
        assert proc.returncode == 0
        assert ["s", "t"] in json.loads(proc.stdout)["witness"]
        proc = run_cli("nlmp-bisim", path, "s", "u")
        assert proc.returncode == 1

    def test_external_comparison_uses_other_file(self, tmp_path):
        left = write(tmp_path, "left.json", self.nlmp())
        right = write(
            tmp_path,
            "right.json",
            {
                "labels": ["a"],
                "states": ["v", "w"],
                "trans": {"v": {"a": [{"v": "1/2"}]}},
            },
        )
        proc = run_cli("nlmp-bisim", left, "s", "v", "--other", right)
        assert proc.returncode == 0
        assert run_cli("nlmp-bisim", left, "u", "v", "--other", right).returncode == 1

    def test_unknown_state_exits_two(self, tmp_path):
        path = write(tmp_path, "proc.json", self.nlmp())
        for argv in (
            (path, "x", "t"),
            (path, "s", "x"),
            (path, "x", "t", "--other", path),
            (path, "s", "x", "--other", path),
        ):
            proc = run_cli("nlmp-bisim", *argv)
            assert proc.returncode == 2, argv
            assert proc.stdout == ""
            assert "unknown state 'x'" in proc.stderr

    @pytest.mark.parametrize(
        ("measure", "text"),
        [
            ({"q": 1}, "rational must be a string, got 1"),
            ({"q": "x"}, "malformed rational 'x'"),
            ({"q": "1/0"}, "zero denominator in '1/0'"),
            ({"q": "1/-2"}, "denominator must be positive in '1/-2'"),
            ({"q": "-1/2"}, "mass of 'q' must be positive"),
            ({"q": "3/2"}, "total mass 3/2 exceeds one"),
            ({"p": "1", "q": "1"}, "total mass 2 exceeds one"),
        ],
    )
    def test_a_bad_mass_prints_one_error_line(self, tmp_path, measure, text):
        nlmp = {"labels": ["a"], "states": ["p", "q"], "trans": {"p": {"a": [measure]}}}
        proc = run_cli("nlmp-bisim", write(tmp_path, "proc.json", nlmp), "p", "q")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {text}\n")

    def test_substructure_restricts_to_reachable(self, tmp_path):
        path = write(tmp_path, "proc.json", self.nlmp())
        proc = run_cli("substructure", path, "--state", "t")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["carrier"] == ["t"]
        assert report["process"]["states"] == ["t"]

    def test_substructure_rejects_leaky_carrier(self, tmp_path):
        path = write(tmp_path, "proc.json", self.nlmp())
        carrier = write(tmp_path, "carrier.json", {"carrier": ["s"]})
        proc = run_cli("substructure", path, "--carrier", carrier)
        assert proc.returncode == 2

    def test_substructure_rejects_negative_bound(self, tmp_path):
        path = write(tmp_path, "proc.json", self.nlmp())
        carrier = write(tmp_path, "carrier.json", {"carrier": ["t"]})
        for argv in (
            ("--state", "s", "--bound", "-1"),
            ("--state", "s", "--bound", "-3"),
            ("--carrier", carrier, "--bound", "-4"),
        ):
            proc = run_cli("substructure", path, *argv)
            assert proc.returncode == 2, argv
            assert proc.stdout == ""
            assert "bound must be a natural" in proc.stderr


class TestEvalVerb:
    def test_formula_on_process(self, tmp_path):
        chain = write(tmp_path, "chain.json", chain_lts())
        step = write(
            tmp_path,
            "step.json",
            {"op": "dia", "label": "a", "sub": {"op": "top"}},
        )
        assert run_cli("eval", step, chain).returncode == 0
        assert run_cli("eval", step, chain, "--state", "s1").returncode == 1

    def test_symbolic_atom_on_process_is_an_input_error(self, tmp_path):
        chain = write(tmp_path, "chain.json", chain_lts())
        atom = write(
            tmp_path,
            "atom.json",
            {"op": "char_set", "set": {"prefix": "", "period": "10"}},
        )
        assert run_cli("eval", atom, chain).returncode == 2

    @pytest.mark.parametrize(
        "formula",
        [
            {"op": "and", "subs": [{"op": "neg", "sub": {"op": "top"}}, CHAR_SET]},
            {"op": "or", "subs": [{"op": "top"}, CHAR_SET]},
            {"op": "dia", "label": "a", "sub": {"op": "dia", "label": "a", "sub": CHAR_SET}},
        ],
    )
    def test_symbolic_atom_a_short_circuit_skips_is_an_input_error(self, tmp_path, formula):
        proc = run_cli(
            "eval", write(tmp_path, "phi.json", formula), write(tmp_path, "chain.json", chain_lts())
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: characteristic-set formulas only evaluate on symbolic trees\n"
        )

    @pytest.mark.parametrize(("depth", "code"), [(200, 0), (300, 1)])
    def test_deep_formula_on_a_process_gives_a_verdict(self, tmp_path, depth, code):
        # <a>(and ...) nested `depth` times, written as text so that no
        # encoder recurses: the walk keeps its own stack, so formulas that
        # decode are decided whatever their depth.
        phi = tmp_path / "phi.json"
        phi.write_text(
            '{"op": "dia", "label": "a", "sub": {"op": "and", "subs": [' * depth
            + '{"op": "top"}'
            + "]}}" * depth
        )
        states = [f"s{i}" for i in range(260)]
        chain = {
            "labels": ["a"],
            "states": states,
            "root": "s0",
            "edges": [[s, "a", t] for s, t in zip(states, states[1:])],
        }
        proc = run_cli("eval", str(phi), write(tmp_path, "chain.json", chain))
        assert (proc.returncode, proc.stderr) == (
            code,
            "formula holds\n" if code == 0 else "formula fails\n",
        )

    def test_symbolic_tree_targets(self, tmp_path):
        atom = write(
            tmp_path,
            "atom.json",
            {"op": "char_set", "set": {"prefix": "", "period": "10"}},
        )
        gadget = write(
            tmp_path,
            "gadget.json",
            {"kind": "A", "set": {"prefix": "", "period": "10"}},
        )
        assert run_cli("eval", atom, gadget).returncode == 0
        assert run_cli("eval", atom, gadget, "--state", "e").returncode == 2

    @pytest.mark.parametrize(
        ("formula", "code"),
        [
            ({"op": "rank_at_least", "bound": [[0, 3]]}, 0),
            ({"op": "char_set", "set": {"prefix": "001", "period": "0"}}, 1),
        ],
    )
    def test_deep_glue_gives_a_verdict(self, tmp_path, formula, code):
        # The ranks and leaf depths of a glue tree are folded on a stack, so
        # 450 levels, which decode, never reach the recursion limit.
        tree = {"kind": "chain", "k": 2}
        for _ in range(450):
            tree = {"kind": "glue", "children": [tree]}
        proc = run_cli(
            "eval",
            write(tmp_path, "phi.json", formula),
            write(tmp_path, "glue.json", tree),
        )
        assert (proc.returncode, proc.stderr) == (
            code,
            "formula holds\n" if code == 0 else "formula fails\n",
        )

    def test_boolean_ordinal_bound_is_an_input_error(self, tmp_path):
        loop = write(tmp_path, "loop.json", loop_lts())
        atom = write(
            tmp_path, "atom.json", {"op": "rank_at_least", "bound": [[True, 1]]}
        )
        proc = run_cli("eval", atom, loop)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: bad ordinal term [true, 1]\n"

    @pytest.mark.parametrize(
        ("value", "text"), [(True, "true"), (None, "null"), ("\u00e9", '"\u00e9"')]
    )
    def test_json_literal_chain_length_is_echoed_as_json(self, tmp_path, value, text):
        top = write(tmp_path, "top.json", {"op": "top"})
        chain = write(tmp_path, "chain.json", {"kind": "chain", "k": value})
        proc = run_cli("eval", top, chain)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: chain length must be a natural number, got {text}\n"
        )

    @pytest.mark.parametrize(
        ("value", "text"), [(True, "true"), (None, "null"), ("\u00e9", '"\u00e9"')]
    )
    def test_json_literal_count_is_echoed_as_json(self, tmp_path, value, text):
        tree = write(tmp_path, "tree.json", {"a": [[{}, value]]})
        proc = run_cli("iso", tree, tree)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f'error: count JSON must be an int or "omega", got {text}\n'
        )


class TestExportVerb:
    def test_lts_export_counts(self, tmp_path):
        path = write(tmp_path, "loop.json", two_cycle_lts())
        proc = run_cli("export-dot", path)
        assert proc.returncode == 0
        assert proc.stdout.count("->") == 2
        assert proc.stdout.count("peripheries=2") == 1

    def test_symbolic_tree_export_is_deterministic(self, tmp_path):
        gadget = write(
            tmp_path,
            "gadget.json",
            {"kind": "A", "set": {"prefix": "", "period": "10"}},
        )
        first = run_cli("export-dot", gadget, "--depth", "5", "--width", "5")
        second = run_cli("export-dot", gadget, "--depth", "5", "--width", "5")
        assert first.stdout == second.stdout
        assert first.stdout.startswith("digraph tree {")

    def test_out_flag_writes_a_file(self, tmp_path):
        path = write(tmp_path, "loop.json", loop_lts())
        target = tmp_path / "loop.dot"
        proc = run_cli("export-dot", path, "--out", str(target))
        assert proc.returncode == 0
        assert target.read_text().startswith("digraph lts {")

    @pytest.mark.parametrize(
        "document, flags",
        [
            (two_cycle_lts(), []),
            ({"labels": ["a"], "states": ["u"], "trans": {"u": {"a": [{"u": "1/2"}]}}}, []),
            ({"kind": "A", "set": {"prefix": "", "period": "10"}}, ["--depth", "3", "--width", "3"]),
            ({"a": [[{}, 2]], "b": [[{"a": [[{}, 1]]}, "omega"]]}, []),
            ({"a": [[{"a": [[{}, 0]]}, 1]]}, ["--kind", "multitree"]),
            ({"a": [[{}, 1]], "b": {"c": []}}, ["--kind", "multitree"]),
            ({"edges": [[{}, 1]]}, []),
        ],
    )
    def test_a_pipe_is_read_once(self, tmp_path, document, flags):
        # A pipe cannot be read twice, so every fallback decodes the text
        # that the multiplicity-tree reader was given.
        path = write(tmp_path, "doc.json", document)
        from_file = run_cli("export-dot", path, *flags)
        piped = subprocess.run(
            [sys.executable, "-m", "bisimkit.cli", "export-dot", "/dev/stdin", *flags],
            input=json.dumps(document),
            capture_output=True,
            text=True,
        )
        assert "not valid JSON" not in from_file.stderr
        assert (piped.returncode, piped.stdout, piped.stderr) == (
            from_file.returncode,
            from_file.stdout,
            from_file.stderr,
        )


class TestVerifyVerb:
    def test_single_suite_is_byte_identical(self):
        first = run_cli("verify", "--suite", "tail-rank", "--seed", "5")
        second = run_cli("verify", "--suite", "tail-rank", "--seed", "5")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["seed"] == 5
        assert report["suites"][0]["passed"] is True

    def test_env_seed_matches_flag(self):
        import os

        env = dict(os.environ, BISIMKIT_SEED="5")
        via_env = run_cli("verify", "--suite", "tail-rank", env=env)
        via_flag = run_cli("verify", "--suite", "tail-rank", "--seed", "5")
        assert via_env.stdout == via_flag.stdout

    def test_unknown_suite_exits_two(self):
        proc = run_cli("verify", "--suite", "no-such-suite")
        assert proc.returncode == 2
        assert "unknown suite" in proc.stderr

    def test_text_format_prints_summary_only(self):
        proc = run_cli("verify", "--suite", "tail-rank", "--seed", "5", "--format", "text")
        assert proc.returncode == 0
        assert proc.stdout.startswith("tail-rank: ok")


class TestErrorExits:
    """Failures inside a verb never read as a verdict (exit 1)."""

    def run_failing(self, monkeypatch, capsys, tmp_path, error):
        def failing(args):
            raise error

        monkeypatch.setattr("bisimkit.cli._cmd_rank", failing)
        lts = write(tmp_path, "loop.json", loop_lts())
        code = main(["rank", lts])
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        return code, err

    def test_memory_error_is_an_input_error(self, monkeypatch, capsys, tmp_path):
        code, err = self.run_failing(monkeypatch, capsys, tmp_path, MemoryError())
        assert (code, err) == (2, "error: out of memory\n")

    def test_other_exceptions_are_internal_errors(self, monkeypatch, capsys, tmp_path):
        code, err = self.run_failing(
            monkeypatch, capsys, tmp_path, KeyError("s")
        )
        assert (code, err) == (3, "error: internal error: KeyError: 's'\n")

    def test_internal_error_message_stays_on_one_line(
        self, monkeypatch, capsys, tmp_path
    ):
        error = ZeroDivisionError("first\nsecond")
        code, err = self.run_failing(monkeypatch, capsys, tmp_path, error)
        assert (code, err) == (
            3, "error: internal error: ZeroDivisionError: first second\n"
        )

    def test_recursion_error_stays_an_input_error(self, monkeypatch, capsys, tmp_path):
        code, err = self.run_failing(monkeypatch, capsys, tmp_path, RecursionError())
        assert (code, err) == (2, "error: input nests too deeply\n")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report format on stdout",
    )


def _build_parser() -> argparse.ArgumentParser:
    """The parser written out call by call, as it was before the verb table:
    the oracle that the table's fast path and argparse path are held to."""
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
    bisim.set_defaults(run=cli._cmd_bisim)

    nlmp_bisim = verbs.add_parser("nlmp-bisim", help="compare two NLMP states")
    nlmp_bisim.add_argument("file")
    nlmp_bisim.add_argument("state")
    nlmp_bisim.add_argument("state_prime")
    nlmp_bisim.add_argument("--other", help="second process for an external check")
    nlmp_bisim.add_argument("--witness", action="store_true")
    _add_format(nlmp_bisim)
    nlmp_bisim.set_defaults(run=cli._cmd_nlmp_bisim)

    rank = verbs.add_parser("rank", help="ordinal rank of a state")
    rank.add_argument("file")
    rank.add_argument("--state")
    _add_format(rank)
    rank.set_defaults(run=cli._cmd_rank)

    expand = verbs.add_parser("expand", help="omega-expansion of a state")
    expand.add_argument("file")
    expand.add_argument("--state")
    expand.add_argument("--depth", type=int)
    _add_format(expand)
    expand.set_defaults(run=cli._cmd_expand)

    iso = verbs.add_parser("iso", help="compare two multiplicity trees")
    iso.add_argument("left")
    iso.add_argument("right")
    iso.add_argument("--witness", action="store_true")
    _add_format(iso)
    iso.set_defaults(run=cli._cmd_iso)

    e0 = verbs.add_parser("e0", help="eventual-equality reduction gadgets")
    e0_verbs = e0.add_subparsers(dest="e0_verb", required=True)
    check = e0_verbs.add_parser("check", help="decide eventual equality")
    check.add_argument("left")
    check.add_argument("right")
    _add_format(check)
    check.set_defaults(run=cli._cmd_e0_check)
    reduce_ = e0_verbs.add_parser("reduce", help="emit the gadget tree of a set")
    reduce_.add_argument("set")
    reduce_.add_argument("--depth", type=int)
    reduce_.add_argument("--width", type=int)
    _add_format(reduce_)
    reduce_.set_defaults(run=cli._cmd_e0_reduce)
    witness = e0_verbs.add_parser("witness", help="matching or separating witness")
    witness.add_argument("left")
    witness.add_argument("right")
    witness.add_argument("--bound", type=int, default=16)
    _add_format(witness)
    witness.set_defaults(run=cli._cmd_e0_witness)

    sub = verbs.add_parser("substructure", help="induced process on a carrier")
    sub.add_argument("file")
    pick = sub.add_mutually_exclusive_group(required=True)
    pick.add_argument("--state")
    pick.add_argument("--carrier")
    sub.add_argument("--bound", type=int, help="cap the enumeration closure")
    _add_format(sub)
    sub.set_defaults(run=cli._cmd_substructure)

    eval_ = verbs.add_parser("eval", help="evaluate a formula on a process or tree")
    eval_.add_argument("formula")
    eval_.add_argument("target")
    eval_.add_argument("--state")
    _add_format(eval_)
    eval_.set_defaults(run=cli._cmd_eval)

    verify = verbs.add_parser("verify", help="run the theorem re-check suites")
    verify.add_argument("--suite", default="all")
    verify.add_argument("--seed", type=int)
    _add_format(verify)
    verify.set_defaults(run=cli._cmd_verify)

    export = verbs.add_parser("export-dot", help="render a value as DOT")
    export.add_argument("file")
    export.add_argument("--kind", choices=("lts", "nlmp", "tree", "multitree"))
    export.add_argument("--depth", type=int)
    export.add_argument("--width", type=int)
    export.add_argument("--out")
    export.set_defaults(run=cli._cmd_export_dot)

    return parser


def _verb_paths():
    for verb, (_, arguments) in VERBS.items():
        if isinstance(arguments, dict):
            yield from ((verb, sub) for sub in arguments)
        else:
            yield (verb,)


def _arguments(path):
    arguments = VERBS[path[0]][1]
    return arguments[path[1]][1] if len(path) == 2 else arguments


def _oracle(parser, argv):
    """(vars of the namespace or None, stdout, stderr, exit code) from argparse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            found = vars(parser.parse_args(argv))
            code = None
        except SystemExit as stop:
            found, code = None, stop.code
    return found, out.getvalue(), err.getvalue(), code


def _main(argv):
    """(stdout, stderr, exit code) of cli.main on a line argparse rejects or answers."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            main(argv)
    return out.getvalue(), err.getvalue(), stop.value.code


# Values with no leading "-", so a line built from them alone is plain.
PLAIN_VALUES = st.one_of(
    st.sampled_from(["a.json", "", "check", "e0", "json", "text", "lts", "3", " 7", "1_0", "x=y", "a b", "\u0663"]),
    st.text(alphabet="ab.=- ", max_size=4).filter(lambda v: not v.startswith("-")),
)
ODD_VALUES = st.sampled_from(["-", "-3", "-1.5", "-x", "--", "--witness", "-h", "two", "xml", "1e3", "--state"])


@st.composite
def command_lines(draw):
    """(argv, plain): a line from the verb table, perhaps perturbed.

    plain says the line was left unperturbed, gives every positional and
    exactly one option of a required group, so the fast path must take it.
    """
    path = draw(st.sampled_from(list(_verb_paths())))
    units = []
    plain = True
    for argument in _arguments(path):
        if isinstance(argument, str):
            units.append([draw(PLAIN_VALUES)])
            continue
        options = argument if isinstance(argument, list) else [argument]
        picked = [o for o in options if draw(st.booleans())]
        if isinstance(argument, list) and len(picked) != 1:
            plain = False
        for name, keywords in picked:
            if keywords.get("action") == "store_true":
                units.append([name])
            elif "choices" in keywords:
                units.append([name, draw(st.sampled_from(keywords["choices"]))])
            elif "type" in keywords:
                units.append([name, str(draw(st.integers(0, 99)))])
            else:
                units.append([name, draw(PLAIN_VALUES)])
    units = draw(st.permutations(units))
    argv = [word for unit in units for word in unit]
    perturbations = draw(st.lists(st.integers(0, 8), max_size=3))
    plain = plain and not perturbations
    for kind in perturbations:
        at = draw(st.integers(0, len(argv)))
        options = [i for i, word in enumerate(argv) if word.startswith("--")]
        if kind == 0 and options:  # abbreviate an option
            i = draw(st.sampled_from(options))
            argv[i] = argv[i][: draw(st.integers(3, max(3, len(argv[i]) - 1)))]
        elif kind == 1 and options:  # join an option to the next word with "="
            i = draw(st.sampled_from(options))
            argv[i : i + 2] = ["=".join(argv[i : i + 2])]
        elif kind == 2:
            argv.insert(at, draw(st.sampled_from(["--", "-h", "--help", "--he"])))
        elif kind == 3 and units:  # repeat a unit
            argv[at:at] = draw(st.sampled_from(units))
        elif kind == 4:
            argv[at:at] = draw(st.sampled_from([["--bogus"], ["--depth", "3"], ["--bound", "2"], ["--witness"]]))
        elif kind == 5 and argv:  # replace a word by an odd value
            argv[draw(st.integers(0, len(argv) - 1))] = draw(ODD_VALUES)
        elif kind == 6 and argv:  # drop a word
            del argv[draw(st.integers(0, len(argv) - 1))]
        elif kind == 7:  # an extra positional
            argv.insert(at, draw(PLAIN_VALUES))
        else:  # an odd word, as an option's value where there is one
            at = draw(st.sampled_from(options)) + 1 if options else at
            argv.insert(at, draw(ODD_VALUES))
    return [*path, *argv], plain


class TestCommandLine:
    """The verb table's fast path and argparse path against the oracle."""

    oracle = _build_parser()

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_fast_path_agrees_with_argparse(self, line):
        argv, plain = line
        parsed = _parse_plain(argv)
        found, _, _, _ = _oracle(self.oracle, argv)
        if plain:
            assert parsed is not None
        if parsed is not None:
            assert vars(parsed) == found

    @settings(max_examples=150, deadline=None)
    @given(command_lines())
    def test_argparse_path_agrees_with_argparse(self, line):
        argv, _ = line
        expect = _oracle(self.oracle, argv)
        got = _oracle(cli._build_parser(), argv)
        assert got == expect

    def test_help_is_the_oracles(self):
        for path in [(), *{p[:1] for p in _verb_paths()}, *_verb_paths()]:
            for flag in ("--help", "-h"):
                argv = [*path, flag]
                _, out, err, code = _oracle(self.oracle, argv)
                assert _main(argv) == (out, err, code) and code == 0 and out

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["bisim"],
            ["bisim", "a"],
            ["bisim", "a", "b", "c"],
            ["bisim", "a", "b", "--depth", "3"],
            ["bisim", "a", "b", "--witness=yes"],
            ["expand", "f", "--depth", "two"],
            ["expand", "f", "--depth", "-3x"],
            ["expand", "f", "--depth"],
            ["rank", "-x"],
            ["rank", "f", "--state", "-x"],
            ["rank", "f", "--state", "--format", "json"],
            ["verify", "--format", "xml"],
            ["verify", "--format=xml"],
            ["substructure", "f"],
            ["substructure", "f", "--state", "a", "--carrier", "b"],
            ["e0"],
            ["e0", "nope", "a"],
            ["e0", "--format", "json", "check", "a", "b"],
            ["e0", "witness", "a", "b", "--bound", "1.5"],
            ["export-dot", "f", "--kind", "svg"],
            ["export-dot", "f", "--format", "json"],
        ],
    )
    def test_usage_errors_are_the_oracles(self, argv):
        _, out, err, code = _oracle(self.oracle, argv)
        assert _main(argv) == (out, err, code) and code == 2 and err

    def test_plain_lines_skip_argparse(self, tmp_path):
        left = write(tmp_path, "left.json", loop_lts())
        right = write(tmp_path, "right.json", two_cycle_lts())
        src = os.path.dirname(os.path.dirname(bisimkit.__file__))
        code = (
            "import sys\n"
            "from bisimkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules, file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, "bisim", left, right],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.stderr.splitlines()[-1] == "0 False False"
        assert json.loads(proc.stdout) == {"verb": "bisim", "bisimilar": True}

    @pytest.mark.parametrize(
        ("argv", "code", "loaded"),
        [
            (["bisim", "loop", "cycle"], 0, []),
            (["rank", "loop"], 0, []),
            (["expand", "loop", "--depth", "2"], 0, []),
            (["iso", "multitree", "multitree", "--witness"], 0, []),
            (["e0", "check", "evens", "odds"], 1, []),
            (["e0", "reduce", "evens"], 0, []),
            (["e0", "witness", "evens", "odds"], 1, []),
            (["eval", "step", "loop"], 0, []),
            (["eval", "atom", "gadget"], 0, []),
            (["export-dot", "loop"], 0, []),
            (["export-dot", "tree"], 0, []),
            (["export-dot", "gadget", "--depth", "3", "--width", "3"], 0, []),
            (["export-dot", "multitree"], 0, []),
            (["verify", "--suite", "tree-iso"], 0, ["random"]),
            (["nlmp-bisim", "nlmp", "s", "t"], 0, []),
            (["substructure", "nlmp", "--state", "s"], 0, []),
            (["export-dot", "nlmp"], 0, []),
            (["verify", "--suite", "measure-lifting"], 0, ["random"]),
            (["verify", "--suite", "sum-process"], 0, ["random"]),
            (["verify", "--suite", "uniform-search"], 0, ["random"]),
            (["verify", "--suite", "greatest-bisim"], 0, ["random"]),
            (["verify", "--suite", "substructure-descent"], 0, ["random"]),
        ],
    )
    def test_only_verbs_that_read_rationals_load_fractions(self, tmp_path, argv, code, loaded):
        files = {
            "loop": loop_lts(),
            "cycle": two_cycle_lts(),
            "multitree": {"a": [[{}, 2]], "b": [[{}, "omega"]]},
            "evens": {"prefix": "", "period": "10"},
            "odds": {"prefix": "0", "period": "10"},
            "step": {"op": "dia", "label": "a", "sub": {"op": "top"}},
            "atom": CHAR_SET,
            "gadget": {"kind": "A", "set": {"prefix": "", "period": "10"}},
            "tree": {"kind": "explicit", "nodes": [[], [0]]},
            "nlmp": TestNLMPVerbs().nlmp(),
        }
        argv = [write(tmp_path, f"{arg}.json", files[arg]) if arg in files else arg for arg in argv]
        src = os.path.dirname(os.path.dirname(bisimkit.__file__))
        script = (
            "import sys\n"
            "from bisimkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "lazy = {'decimal', 'fractions', 'numbers', 'random'}\n"
            "print(code, sorted(lazy & set(sys.modules)), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stderr.splitlines()[-1] == f"{code} {loaded}"

    def test_abbreviations_still_run(self, tmp_path):
        left = write(tmp_path, "left.json", loop_lts())
        right = write(tmp_path, "right.json", two_cycle_lts())
        assert _parse_plain(["bisim", left, right, "--wit"]) is None
        proc = run_cli("bisim", left, right, "--wit", "--format=json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["witness"] == [["s", "t0"], ["s", "t1"]]
