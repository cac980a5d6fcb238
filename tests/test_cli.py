import json
import subprocess
import sys

from bisimkit.cli import main


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bisimkit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


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
        for bound in ("-1", "-3"):
            proc = run_cli("substructure", path, "--state", "s", "--bound", bound)
            assert proc.returncode == 2, bound
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
