"""The value classes behave as the frozen dataclasses they replace.

Each class is compared with a ``@dataclass(frozen=True)`` twin built
here from an independent list of its fields and defaults, sharing the
class's own ``__post_init__``. Both are built from the same seeded
arguments.
"""

import dataclasses
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bisimkit
from bisimkit.foundations import Count, EPSet, Ordinal, frozen
from bisimkit.gen import random_multitree
from bisimkit.lts import (
    And,
    CharSet,
    Dia,
    Neg,
    OmegaLTSCode,
    Or,
    PointedLTS,
    RankAtLeast,
    Top,
)
from bisimkit.nlmp import PointmassNLMP, SubProbMeasure
from bisimkit.trees import LEAF, ATree, BTree, Chain, ExplicitTree, Glue, MultiTree

REQUIRED = dataclasses.MISSING

FIELDS = {
    Ordinal: [("terms", ())],
    EPSet: [("prefix", REQUIRED), ("period", REQUIRED)],
    Count: [("finite", REQUIRED)],
    Top: [],
    Neg: [("sub", REQUIRED)],
    And: [("subs", REQUIRED)],
    Or: [("subs", REQUIRED)],
    Dia: [("label", REQUIRED), ("sub", REQUIRED)],
    RankAtLeast: [("bound", REQUIRED)],
    CharSet: [("param", REQUIRED)],
    PointedLTS: [
        ("labels", REQUIRED),
        ("states", REQUIRED),
        ("root", REQUIRED),
        ("edges", REQUIRED),
    ],
    OmegaLTSCode: [("root", REQUIRED), ("edges", REQUIRED)],
    SubProbMeasure: [("weights", ())],
    PointmassNLMP: [
        ("labels", REQUIRED),
        ("states", REQUIRED),
        ("trans", REQUIRED),
    ],
    ExplicitTree: [("nodes", REQUIRED)],
    MultiTree: [("children", ())],
    Chain: [("length", REQUIRED)],
    ATree: [("param", REQUIRED)],
    BTree: [("param", REQUIRED)],
    Glue: [("parts", REQUIRED)],
}


def make_twin(cls):
    specs = []
    for name, default in FIELDS[cls]:
        if default is REQUIRED:
            specs.append((name, object))
        else:
            specs.append((name, object, dataclasses.field(default=default)))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)


TWINS = {cls: make_twin(cls) for cls in FIELDS}

SUBFORMULAS = [Top(), Neg(Top()), And(()), Or((Top(),)), Dia("a", Top())]
TERMS = [(), ((0, 1),), ((0, 2),), ((1, 1),), ((1, 1), (0, 3)), ((2, 1), (1, 2))]
EXPLICIT = [frozenset(), frozenset({()}), frozenset({(), (0,)}), frozenset({(), (1,), (1, 0)})]


def bits(rng, low, high):
    return "".join(rng.choice("01") for _ in range(rng.randint(low, high)))


def measure_weights(rng):
    return tuple((s, rng.choice(((1, 2), (1, 3)))) for s in ("s", "t") if rng.random() < 0.5)


ARGS = {
    Ordinal: lambda rng: (rng.choice(TERMS),),
    EPSet: lambda rng: (bits(rng, 0, 2), bits(rng, 1, 2)),
    Count: lambda rng: (rng.choice((None, 0, 1, 2)),),
    Top: lambda rng: (),
    Neg: lambda rng: (rng.choice(SUBFORMULAS),),
    And: lambda rng: (tuple(rng.choices(SUBFORMULAS, k=rng.randint(0, 2))),),
    Or: lambda rng: (tuple(rng.choices(SUBFORMULAS, k=rng.randint(0, 2))),),
    Dia: lambda rng: (rng.choice("ab"), rng.choice(SUBFORMULAS)),
    RankAtLeast: lambda rng: (Ordinal(rng.choice(TERMS)),),
    CharSet: lambda rng: (EPSet(bits(rng, 0, 2), bits(rng, 1, 2)),),
    PointedLTS: lambda rng: (
        ("a",),
        ("s", "t"),
        rng.choice("st"),
        frozenset(e for e in (("s", "a", "t"), ("t", "a", "t")) if rng.random() < 0.5),
    ),
    OmegaLTSCode: lambda rng: (rng.randint(0, 1), {"a": frozenset({(0, rng.randint(0, 1))})}),
    SubProbMeasure: lambda rng: (measure_weights(rng),),
    PointmassNLMP: lambda rng: (
        ("a",),
        ("s", "t"),
        {("s", "a"): frozenset({SubProbMeasure(measure_weights(rng))})} if rng.random() < 0.7 else {},
    ),
    ExplicitTree: lambda rng: (rng.choice(EXPLICIT),),
    MultiTree: lambda rng: (random_multitree(rng, 2).children,),
    Chain: lambda rng: (rng.randint(0, 2),),
    ATree: lambda rng: (EPSet(bits(rng, 0, 2), bits(rng, 1, 2)),),
    BTree: lambda rng: (EPSet(bits(rng, 0, 2), bits(rng, 1, 2)),),
    Glue: lambda rng: (
        tuple(rng.choices((Chain(0), Chain(1), ATree(EPSet.empty())), k=rng.randint(0, 2))),
    ),
}

MEASURE = frozenset({SubProbMeasure((("zz", (1, 2)),))})
BAD_ARGS = {
    Ordinal: [(((-1, 1),),), (((0, 0),),), (((0, 1), (1, 1)),)],
    EPSet: [("", ""), ("2", "0"), ("0", "x")],
    Count: [(-1,)],
    PointedLTS: [
        (("a",), ("s", "s"), "s", frozenset()),
        (("a", "a"), ("s",), "s", frozenset()),
        (("a",), ("s",), "t", frozenset()),
        (("a",), ("s",), "s", frozenset({("s", "a", "t")})),
        (("a",), ("s",), "s", frozenset({("s", "b", "s")})),
    ],
    OmegaLTSCode: [(-1, {}), (0, {"a": frozenset({(0, -1)})})],
    SubProbMeasure: [
        ((("s", 0.5),),),
        ((("s", (0, 1)),),),
        ((("t", (1, 4)), ("s", (1, 4))),),
        ((("s", (3, 4)), ("t", (1, 2))),),
    ],
    PointmassNLMP: [
        (("a",), ("s", "s"), {}),
        (("a", "a"), ("s",), {}),
        (("a",), ("s",), {("t", "a"): frozenset()}),
        (("a",), ("s",), {("s", "b"): frozenset()}),
        (("a",), ("s",), {("s", "a"): MEASURE}),
    ],
    ExplicitTree: [(frozenset({(), "x"}),), (frozenset({(), (0, 1)}),)],
    MultiTree: [
        (((1, LEAF, Count(1)),),),
        ((("a", Top(), Count(1)),),),
        ((("a", LEAF, Count(0)),),),
    ],
    Chain: [(-1,)],
}


def fields_of(cls, value):
    return [getattr(value, name) for name, _ in FIELDS[cls]]


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as err:
        return str(err)


def error_of(build, *args, **kwargs):
    with pytest.raises(Exception) as info:
        build(*args, **kwargs)
    return type(info.value), str(info.value)


def seeded(seed, per_class=12):
    """(class, args, value, twin) for a few seeded instances of every class."""
    rng = random.Random(seed)
    return [
        (cls, args, cls(*args), TWINS[cls](*args))
        for cls in FIELDS
        for args in (ARGS[cls](rng) for _ in range(per_class))
    ]


def test_every_value_class_has_a_twin():
    assert len(FIELDS) == 20
    for cls in FIELDS:
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


@pytest.mark.parametrize("seed", range(5))
def test_fields_hash_and_repr_match_the_twin(seed):
    for cls, _, value, twin in seeded(seed):
        assert fields_of(cls, value) == fields_of(cls, twin)
        assert hash_or_error(value) == hash_or_error(twin)
        if cls is not MultiTree:
            assert repr(value) == repr(twin)


@pytest.mark.parametrize("seed", range(5))
def test_equality_matches_the_twin_within_and_across_classes(seed):
    instances = seeded(seed, per_class=6)
    for _, _, left, left_twin in instances:
        for _, _, right, right_twin in instances:
            assert (left == right) == (left_twin == right_twin)
            assert (left != right) == (left_twin != right_twin)
    assert And((Top(),)) != Or((Top(),))
    assert ATree(EPSet.empty()) != BTree(EPSet.empty()) != CharSet(EPSet.empty())


@pytest.mark.parametrize("seed", range(3))
def test_keyword_construction_matches_positional(seed):
    for cls, args, value, twin in seeded(seed, per_class=4):
        kwargs = {name: arg for (name, _), arg in zip(FIELDS[cls], args)}
        assert cls(**kwargs) == value
        assert TWINS[cls](**kwargs) == twin


@pytest.mark.parametrize(
    "cls, args",
    [
        (Ordinal, ()),
        (EPSet, ()),
        (EPSet, ("1",)),
        (SubProbMeasure, ()),
        (MultiTree, ()),
        (PointmassNLMP, (("a",), ("s",))),
    ],
)
def test_defaults_match_the_twin(cls, args):
    if any(default is REQUIRED for _, default in FIELDS[cls][len(args):]):
        assert error_of(cls, *args) == error_of(TWINS[cls], *args)
    else:
        assert fields_of(cls, cls(*args)) == fields_of(cls, TWINS[cls](*args))


def test_wrong_argument_counts_fail_like_the_twin():
    for cls, fields in FIELDS.items():
        too_many = [object()] * (len(fields) + 1)
        assert error_of(cls, *too_many) == error_of(TWINS[cls], *too_many)
        if any(default is REQUIRED for _, default in fields):
            assert error_of(cls) == error_of(TWINS[cls])


def test_default_instances():
    assert Ordinal() == Ordinal(())
    assert MultiTree() == LEAF


def test_assignment_and_deletion_raise_like_the_twin():
    for cls, _, value, twin in seeded(0, per_class=1):
        for name in [name for name, _ in FIELDS[cls]] + ["extra"]:
            assigned = error_of(setattr, value, name, 1)
            assert assigned[0] is AttributeError
            assert assigned[1] == error_of(setattr, twin, name, 1)[1]
            deleted = error_of(delattr, value, name)
            assert deleted[0] is AttributeError
            assert deleted[1] == error_of(delattr, twin, name)[1]
        assert fields_of(cls, value) == fields_of(cls, twin)


def test_post_init_errors_match_the_twin():
    for cls, cases in BAD_ARGS.items():
        messages = set()
        for args in cases:
            raised = error_of(cls, *args)
            assert raised[0] is ValueError, (cls, args, raised)
            assert raised == error_of(TWINS[cls], *args)
            messages.add(raised[1])
        assert len(messages) == len(cases)


def test_cached_property_still_caches():
    lts = PointedLTS(("a",), ("s", "t"), "s", frozenset({("s", "a", "t")}))
    assert lts.successors("s", "a") == ("t",)
    assert lts.moves is lts.moves
    assert lts == PointedLTS(("a",), ("s", "t"), "s", frozenset({("s", "a", "t")}))


def test_dunders_in_the_body_are_kept():
    @frozen
    class Shown:
        x: int

        def __repr__(self):
            return "shown"

    @frozen
    class Compared:
        x: int

        def __eq__(self, other):
            return True

    assert repr(Shown(1)) == "shown"
    assert Shown(1) == Shown(1) and Shown(1) != Shown(2)
    assert Compared(1) == Compared(2) == "anything"
    assert hash(Compared(1)) == hash((1,))


class TestMultiTreeRepr:
    @pytest.mark.parametrize(
        "levels, entries",
        [(40, (("a", 1), ("b", 2))), (3000, (("a", None),))],
        ids=["doubling-dag", "deep-chain"],
    )
    def test_repr_is_short_and_prompt(self, levels, entries):
        tree = LEAF
        for level in range(levels):
            tree = MultiTree(tuple((label, tree, Count(n)) for label, n in entries))
            if level == 10:
                # An unbounded repr fails here, before it could fill memory.
                assert len(repr(tree)) < 200
        start = time.perf_counter()
        text = repr(tree)
        assert time.perf_counter() - start < 1.0
        assert len(text) < 200
        assert text == f"<MultiTree: {len(entries)} entries, {levels + 1} distinct nodes>"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    src = Path(bisimkit.__file__).resolve().parent.parent
    code = (
        "import sys; import bisimkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'numbers', 'random'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
