"""Each check that a shared error text moved to one helper keeps its text.

One row per place that raised such a text on its own before: the call
there, with a bad argument, raises the same type with the same text.
Most of these places the CLI reaches too, where ``.github/base-diff.sh``
pins the line it prints; this table also covers the ones it never
reaches. The one mass check of ``SubProbMeasure`` has a row for each
kind of bad mass its text covers.
"""

import json
from types import SimpleNamespace

import pytest

from bisimkit import cli
from bisimkit.e0 import leaf_depth_set, matching_bijection
from bisimkit.expansion import omega_expand
from bisimkit.foundations import EPSet
from bisimkit.jsonio import parse_multitree
from bisimkit.lts import CharSet, PointedLTS, UnsupportedFormula, eval_formula, state_rank, TOP
from bisimkit.nlmp import PointmassNLMP, SubProbMeasure
from bisimkit.substructures import composition_enum
from bisimkit.trees import Glue, symbolic_rank, truncation_levels
from bisimkit.uniform import encode_state

LTS = PointedLTS(("a",), ("p", "q"), "p", frozenset({("p", "a", "q")}))
NLMP = PointmassNLMP(("a",), ("p",), {})
X = EPSet("1", "01")


def eval_char_set_on_a_process(tmp_path):
    formula, target = tmp_path / "formula.json", tmp_path / "lts.json"
    formula.write_text(json.dumps({"op": "char_set", "set": {"prefix": "", "period": "1"}}))
    target.write_text(json.dumps({"labels": [], "states": ["p"], "root": "p", "edges": []}))
    return cli._cmd_eval(cli._parse_plain(["eval", str(formula), str(target)]))


UNKNOWN = "unknown state 'nope'"
BOUND = "bound must be a natural"
CHAR_SET = "characteristic-set formulas only evaluate on symbolic trees"
NOT_OBJECT = "multiplicity tree JSON must be an object keyed by label"
NOT_SYMBOLIC = "not a symbolic tree: 'x'"
NOT_REDUCED = "mass of 'x' must be a reduced (num, den) pair of ints with den > 0"

SITES = [
    ("cli._checked_state", lambda _: cli._checked_state(LTS, "nope"), ValueError, UNKNOWN),
    ("expansion.omega_expand", lambda _: omega_expand(LTS, "nope"), ValueError, UNKNOWN),
    ("lts.eval_formula", lambda _: eval_formula(LTS, "nope", TOP), ValueError, UNKNOWN),
    ("lts.state_rank", lambda _: state_rank(LTS, "nope"), ValueError, UNKNOWN),
    (
        "substructures.composition_enum",
        lambda _: composition_enum(NLMP, "nope"),
        ValueError,
        UNKNOWN,
    ),
    ("uniform.encode_state", lambda _: encode_state(LTS, "nope"), ValueError, UNKNOWN),
    (
        "cli._natural_bound",
        lambda _: cli._natural_bound(SimpleNamespace(bound=-1)),
        ValueError,
        BOUND,
    ),
    ("e0.matching_bijection", lambda _: matching_bijection(X, X, -1), ValueError, BOUND),
    (
        "substructures.composition_enum bound",
        lambda _: composition_enum(NLMP, "p", -1),
        ValueError,
        BOUND,
    ),
    (
        "lts.PointedLTS states",
        lambda _: PointedLTS(("a",), ("p", "p"), "p", frozenset()),
        ValueError,
        "duplicate state ids",
    ),
    (
        "lts.PointedLTS labels",
        lambda _: PointedLTS(("a", "a"), ("p",), "p", frozenset()),
        ValueError,
        "duplicate labels",
    ),
    (
        "nlmp.PointmassNLMP states",
        lambda _: PointmassNLMP(("a",), ("p", "p"), {}),
        ValueError,
        "duplicate state ids",
    ),
    (
        "nlmp.PointmassNLMP labels",
        lambda _: PointmassNLMP(("a", "a"), ("p",), {}),
        ValueError,
        "duplicate labels",
    ),
    ("cli._cmd_eval", eval_char_set_on_a_process, ValueError, CHAR_SET),
    (
        "lts.eval_formula leaf",
        lambda _: eval_formula(LTS, "p", CharSet(X)),
        UnsupportedFormula,
        CHAR_SET,
    ),
    ("e0.leaf_depth_set", lambda _: leaf_depth_set("x"), TypeError, NOT_SYMBOLIC),
    ("trees.symbolic_rank", lambda _: symbolic_rank("x"), TypeError, NOT_SYMBOLIC),
    (
        "trees.truncation_levels",
        lambda _: truncation_levels("x", 1, 1),
        TypeError,
        NOT_SYMBOLIC,
    ),
    (
        "trees.truncation_levels glue part",
        lambda _: list(truncation_levels(Glue(("x",)), 1, 1)),
        TypeError,
        NOT_SYMBOLIC,
    ),
    ("jsonio.parse_multitree root", lambda _: parse_multitree(5), ValueError, NOT_OBJECT),
    (
        "jsonio.parse_multitree child",
        lambda _: parse_multitree({"a": [[{}, 1], [5, 1]]}),
        ValueError,
        NOT_OBJECT,
    ),
    (
        "nlmp.SubProbMeasure unreduced",
        lambda _: SubProbMeasure((("x", (2, 4)),)),
        ValueError,
        NOT_REDUCED,
    ),
    (
        "nlmp.SubProbMeasure zero denominator",
        lambda _: SubProbMeasure((("x", (1, 0)),)),
        ValueError,
        NOT_REDUCED,
    ),
    (
        "nlmp.SubProbMeasure non-int",
        lambda _: SubProbMeasure((("x", (0.5, 1)),)),
        ValueError,
        NOT_REDUCED,
    ),
]


@pytest.mark.parametrize(
    "call, error, text", [row[1:] for row in SITES], ids=[row[0] for row in SITES]
)
def test_each_former_raise_site_keeps_its_text(tmp_path, call, error, text):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert str(raised.value) == text
