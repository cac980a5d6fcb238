"""Helpers and seeded generators that two or more test modules use.

`test_support.py` keeps them here, once. A generator draws exactly what
the copies it replaced drew; it takes a parameter only where callers pass
different values.
"""

import json
import random
from fractions import Fraction

from bisimkit.foundations import Count, EPSet, ORD_ZERO
from bisimkit.lts import And, CharSet, Dia, Neg, Or, PointedLTS, RankAtLeast, TOP
from bisimkit.nlmp import PointmassNLMP, SubProbMeasure, ZERO_MEASURE
from bisimkit.trees import LEAF, MultiTree


def write(tmp_path, name, data) -> str:
    """The path of a JSON file named name under tmp_path, holding data."""
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def outcome(fn, *args):
    """The value, or the text of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return f"error: {err}"


# --- measures and NLMPs -------------------------------------------------------


def R(*value) -> tuple:
    """The reduced (num, den) pair of a rational, made through Fraction."""
    f = Fraction(*value)
    return f.numerator, f.denominator


def measure(**masses) -> SubProbMeasure:
    return SubProbMeasure.from_mapping(
        {state: R(text) for state, text in masses.items()}
    )


def random_measure(rng: random.Random, states, zero_chance: float = 0.15) -> SubProbMeasure:
    if rng.random() < zero_chance:
        return ZERO_MEASURE
    support = [s for s in states if rng.random() < 0.5][:3]
    den = rng.choice((2, 3, 4))
    weights = {}
    remaining = den
    for s in support:
        w = rng.randint(0, remaining)
        remaining -= w
        if w:
            weights[s] = R(w, den)
    return SubProbMeasure.from_mapping(weights)


def random_nlmp(
    rng: random.Random, n_states: int, labels=("a",), zero_chance: float = 0.15
) -> PointmassNLMP:
    states = tuple(f"s{i}" for i in range(n_states))
    trans = {}
    for s in states:
        for a in labels:
            if rng.random() < 0.35:
                continue
            trans[(s, a)] = frozenset(
                random_measure(rng, states, zero_chance) for _ in range(rng.randint(1, 2))
            )
    return PointmassNLMP(tuple(labels), states, trans)


# --- LTSs and formulas --------------------------------------------------------


def chain_lts(length: int, label: str = "a", prefix: str = "s") -> PointedLTS:
    states = tuple(f"{prefix}{i}" for i in range(length + 1))
    edges = frozenset(
        (f"{prefix}{i}", label, f"{prefix}{i + 1}") for i in range(length)
    )
    return PointedLTS((label,), states, f"{prefix}0", edges)


def random_wf_lts(rng: random.Random, n_states: int, labels: tuple[str, ...], p: float) -> PointedLTS:
    """Edges only go up in state index, so every path is finite."""
    states = tuple(f"q{i}" for i in range(n_states))
    edges = frozenset(
        (states[i], a, states[j])
        for i in range(n_states)
        for j in range(i + 1, n_states)
        for a in labels
        if rng.random() < p
    )
    return PointedLTS(labels, states, states[0], edges)


def random_shared_formula(
    rng: random.Random,
    size: int,
    atoms: tuple = (TOP, TOP, RankAtLeast(ORD_ZERO), CharSet(EPSet.empty())),
    labels=("a", "b"),
):
    """A formula whose parts are drawn from a growing pool, so they share."""
    pool = list(atoms)
    for _ in range(size):
        pick = rng.random()
        if pick < 0.3:
            pool.append(Dia(rng.choice(labels), rng.choice(pool)))
        elif pick < 0.45:
            pool.append(Neg(rng.choice(pool)))
        else:
            subs = tuple(rng.choice(pool[-6:]) for _ in range(rng.randint(0, 3)))
            pool.append((And if pick < 0.75 else Or)(subs))
    return pool[-1]


# --- multiplicity trees -------------------------------------------------------


def mt(*entries) -> MultiTree:
    return MultiTree(tuple(entries))


def doubling_dag(levels: int, bottom: Count = Count(1)) -> MultiTree:
    """Each node holds the one node below twice, so 2**levels root paths."""
    tree = mt(("a", LEAF, bottom))
    for _ in range(levels - 1):
        tree = mt(("a", tree, Count(1)), ("b", tree, Count(2)))
    return tree
