"""Each verb decodes each input file once and walks each structure once.

The CLI runs in-process with counting wrappers around the library names,
as `tests/test_walks.py` patches them: `json.loads` per input file of
`export-dot` without ``--kind`` and of `iso`, `state_rank` under `expand`,
`formula_postorder` per `eval_symbolic` call, and the builds of each
system's ``moves`` table.
"""

import json

import pytest

from bisimkit import cli, e0, expansion, jsonio, lts as lts_module
from bisimkit.e0 import eval_symbolic
from bisimkit.foundations import EPSet, Ordinal
from bisimkit.lts import And, CharSet, Dia, Neg, Or, PointedLTS, RankAtLeast, TOP
from bisimkit.nlmp import PointmassNLMP
from bisimkit.trees import ATree, BTree, Chain, Glue

LTS = {
    "labels": ["a", "b"],
    "states": ["s", "t", "u"],
    "root": "s",
    "edges": [["s", "a", "t"], ["t", "b", "u"], ["s", "b", "u"]],
}
NLMP = {"labels": ["a"], "states": ["p", "q"], "trans": {"p": {"a": [{"p": "1/2", "q": "1/2"}]}}}
# The first object to close is the zero measure, which is also an empty
# multiplicity tree; it stays undecided until the second measure closes
# and shows that the file is no tree.
ZERO_FIRST_NLMP = {"labels": ["a"], "states": ["p"], "trans": {"p": {"a": [{}, {"p": "1"}]}}}
EXPLICIT = {"kind": "explicit", "nodes": [[], [0], [1], [0, 2]]}
GLUE = {
    "kind": "glue",
    "children": [{"kind": "chain", "k": 2}, {"kind": "A", "set": {"prefix": "1", "period": "01"}}],
}
MULTITREE = {"a": [[{}, 2], [{"b": [[{}, "omega"]]}, 1]], "c": [[{"b": [[{}, "omega"]]}, 3]]}


def write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def loads(monkeypatch):
    """The texts json.loads is called on, in order."""
    calls = []
    real = json.loads

    def counted(text, *args, **kwargs):
        calls.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(jsonio.json, "loads", counted)
    return calls


class TestOneDecodePerFile:
    @pytest.mark.parametrize(
        "name, document",
        [
            ("lts", LTS),
            ("nlmp", NLMP),
            ("explicit", EXPLICIT),
            ("glue", GLUE),
            ("multitree", MULTITREE),
        ],
    )
    def test_export_dot_without_kind(self, tmp_path, capsys, loads, name, document):
        path = write(tmp_path, f"{name}.json", document)
        assert cli.main(["export-dot", path]) == 0
        assert capsys.readouterr().out.startswith("digraph")
        assert len(loads) == 1

    def test_a_zero_first_measure_is_decoded_once(self, tmp_path, capsys, loads):
        path = write(tmp_path, "zero.json", ZERO_FIRST_NLMP)
        assert cli.main(["export-dot", path]) == 0
        assert capsys.readouterr().out.startswith("digraph nlmp")
        assert len(loads) == 1

    def test_iso_of_an_lts_against_a_multitree(self, tmp_path, capsys, loads):
        left = write(tmp_path, "lts.json", LTS)
        right = write(tmp_path, "tree.json", MULTITREE)
        assert cli.main(["iso", left, right]) == 2
        assert capsys.readouterr().err.startswith("error: child 0 under 'labels'")
        assert len(loads) == 1  # the error comes before the second file is read

    def test_iso_of_a_multitree_against_an_lts(self, tmp_path, capsys, loads):
        left = write(tmp_path, "tree.json", MULTITREE)
        right = write(tmp_path, "lts.json", LTS)
        assert cli.main(["iso", left, right]) == 2
        assert capsys.readouterr().err.startswith("error: child 0 under 'labels'")
        assert len(loads) == 2


class TestExpandTakesNoRank:
    @pytest.fixture
    def ranks(self, monkeypatch):
        calls = []
        real = lts_module.state_rank

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (cli, lts_module, expansion):
            monkeypatch.setattr(module, "state_rank", counted, raising=False)
        return calls

    def test_acyclic_and_cyclic_states(self, tmp_path, capsys, ranks):
        path = write(tmp_path, "lts.json", LTS)
        assert cli.main(["expand", path]) == 0
        loop = dict(LTS, edges=LTS["edges"] + [["u", "a", "t"]])
        path = write(tmp_path, "loop.json", loop)
        assert cli.main(["expand", path, "--state", "t"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: state 't' reaches a cycle; give --depth to truncate\n")
        assert ranks == []


class TestOneFormulaWalkPerEvaluation:
    def test_each_call_walks_its_formula_once(self, monkeypatch):
        calls = []
        real = lts_module.formula_postorder

        def counted(phi):
            calls.append(phi)
            return real(phi)

        monkeypatch.setattr(e0, "formula_postorder", counted)
        monkeypatch.setattr(lts_module, "formula_postorder", counted)
        evens = EPSet("", "10")
        body = And((Dia("suc", TOP), Neg(Dia("suc", Dia("suc", TOP)))))
        formulas = [
            TOP,
            Dia("suc", body),
            Or((Neg(TOP), Dia("suc", Dia("suc", body)))),
            Dia("suc", CharSet(evens)),
            Dia("suc", RankAtLeast(Ordinal.from_int(2))),
        ]
        trees = [Chain(3), ATree(evens), BTree(evens), Glue((Chain(1), BTree(evens)))]
        for tree in trees:
            for phi in formulas:
                calls.clear()
                eval_symbolic(tree, phi)
                assert len(calls) == 1 and calls[0] is phi, (tree, phi)


class TestOneMoveTablePerSystem:
    """Refinement, formula evaluation, ranks and expansion all read a
    system's cached ``moves`` table, which each command builds once per
    system it loads."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The systems whose table is built, once per build."""
        calls = []
        for cls in (PointedLTS, PointmassNLMP):
            table = cls.__dict__["moves"]

            def counted(system, real=table.func):
                calls.append(system)
                return real(system)

            monkeypatch.setattr(table, "func", counted)
        return calls

    @pytest.mark.parametrize(
        "argv, code, systems",
        [
            (["bisim", "lts.json", "lts.json", "--witness"], 0, 2),
            (["nlmp-bisim", "nlmp.json", "p", "q", "--witness"], 1, 1),
            (["nlmp-bisim", "nlmp.json", "p", "p", "--other", "nlmp.json"], 0, 2),
            (["eval", "phi.json", "lts.json", "--state", "s"], 0, 1),
            (["rank", "lts.json"], 0, 1),
            (["expand", "lts.json"], 0, 1),
        ],
    )
    def test_each_command(self, tmp_path, capsys, builds, argv, code, systems):
        phi = {"op": "dia", "label": "a", "sub": {"op": "top"}}
        files = {"lts.json": LTS, "nlmp.json": NLMP, "phi.json": phi}
        paths = {name: write(tmp_path, name, data) for name, data in files.items()}
        assert cli.main([paths.get(arg, arg) for arg in argv]) == code
        capsys.readouterr()
        assert len(builds) == len({id(system) for system in builds}) == systems
