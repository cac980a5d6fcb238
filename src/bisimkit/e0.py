"""Tree gadgets deciding finite-modification equivalence of sets.

Two eventually periodic subsets of the naturals count as equivalent when
they differ in finitely many places. This module reduces that relation
to root bisimilarity of glued modification trees: `mod_glue_bisim`
decides it, `matching_bijection` and `separating_formula` extract the
witness for either outcome, and `eval_symbolic` checks modal formulas
on the symbolic trees directly, without materializing their infinitely
many nodes.
"""

from __future__ import annotations

from itertools import repeat
from operator import or_
from typing import Iterable

from .foundations import EPSet, dfs_postorder, natural
from .lts import (
    And,
    CharSet,
    Dia,
    Formula,
    Neg,
    Or,
    RankAtLeast,
    Top,
    TOP,
    UnsupportedFormula,
    _boolean_parts,
    formula_postorder,
    walk_formula,
)
from .trees import (
    ATree,
    BTree,
    Chain,
    Glue,
    SUC_LABEL,
    SymbolicTree,
    fold_symbolic,
    not_symbolic,
    symbolic_rank,
)

__all__ = [
    "diamond_depth_sat",
    "eval_symbolic",
    "leaf_depth_set",
    "matching_bijection",
    "mod_glue_bisim",
    "separating_formula",
]


def leaf_depth_set(tree: SymbolicTree) -> EPSet:
    """Depths d such that the tree has a leaf at level d + 1.

    Equivalently: the d with a diamond tower of height d + 1 ending in
    "no successor" true at the root. On a branch-code tree this recovers
    the coded set, which is what makes the set-characterizing atom tick.
    """
    return fold_symbolic(tree, _leaf_depths, _glue_leaf_depths)


def _leaf_depths(tree: SymbolicTree) -> EPSet:
    if isinstance(tree, Chain):
        if tree.length == 0:
            return EPSet.empty()
        return EPSet.from_finite([tree.length - 1])
    if isinstance(tree, ATree):
        return tree.param
    if isinstance(tree, BTree):
        # Level-1 leaves need an empty modification, available exactly for
        # finite parameters; deeper leaves are supplied by flipping in a
        # single member of the right size.
        return EPSet("1" if tree.param.is_finite else "0", "1")
    not_symbolic(tree)


def _glue_leaf_depths(parts: list[EPSet]) -> EPSet:
    depths = EPSet.empty()
    # A part is a leaf exactly when it has no leaf below it: every part
    # with a successor has a leaf somewhere below, so its depth set is
    # not empty.
    if any(part.is_empty for part in parts):
        depths = EPSet.from_finite([0])
    for part in parts:
        depths = depths.pointwise(_shift_up(part), or_)
    return depths


def _shift_up(s: EPSet) -> EPSet:
    """The set {d + 1 | d in s}."""
    return EPSet("0" + s.prefix, s.period)


# The most distinct top-level diamonds a body under <suc> may have on a
# glued modification tree: deciding it walks up to 2^m profiles.
PROFILE_BUDGET = 16


def eval_symbolic(tree: SymbolicTree, phi: Formula) -> bool:
    """Decide a modal formula at the root of a symbolic tree.

    Booleans short-circuit left to right, the set-characterizing atom
    compares leaf-depth sets, and rank atoms read the closed-form root
    rank. A diamond over a finite-depth body reads the body's chain
    bitmask (see `_chain_masks`), directly on chains and branch-code
    trees and through the reachable diamond profiles on glued
    modification trees; diamonds directly over the symbolic atoms get
    dedicated rules. Deeper nesting of those atoms raises
    UnsupportedFormula, and a diamond body too wide for a glued
    modification tree raises ValueError; both are checked before the
    walk, so that the short circuits cannot hide them. The walk keeps its
    own stack, so formula depth is not bounded by the recursion limit.
    """
    masks = _chain_masks(formula_postorder(phi))
    for dia in _top_diamonds(phi):
        mask = masks[id(dia.sub)]
        if isinstance(mask, str) and not isinstance(dia.sub, (CharSet, RankAtLeast)):
            raise UnsupportedFormula(f"{mask} has no finite modal depth")
    _check_profile_budget(tree, phi)

    def leaf(tree: SymbolicTree, node: Formula) -> bool | Iterable:
        if isinstance(node, CharSet):
            return leaf_depth_set(tree) == node.param
        if isinstance(node, RankAtLeast):
            return symbolic_rank(tree)[0] >= node.bound
        if not isinstance(node, Dia):
            raise UnsupportedFormula(
                f"cannot evaluate {type(node).__name__} symbolically"
            )
        if node.label != SUC_LABEL:
            return False
        body = node.sub
        if isinstance(body, CharSet):
            return _child_with_leaf_set(tree, body.param)
        if isinstance(body, RankAtLeast):
            # The root's rank is the sup of its children's plus one, so some
            # child reaches the bound exactly when the root passes it.
            return symbolic_rank(tree)[0] >= body.bound + 1
        mask = masks[id(body)]
        if isinstance(tree, Chain):
            return tree.length >= 1 and bool(mask >> tree.length - 1 & 1)
        if isinstance(tree, ATree):
            return bool(_members(tree.param, mask.bit_length()) & mask)
        if isinstance(tree, BTree):
            return _some_modification(tree.param, body, masks)
        return zip(tree.parts, repeat(body))

    return walk_formula(tree, phi, leaf)


def _child_with_leaf_set(tree: SymbolicTree, z: EPSet) -> bool:
    """Does some child's leaf-depth set equal z exactly?"""
    if isinstance(tree, Chain):
        return tree.length >= 1 and leaf_depth_set(Chain(tree.length - 1)) == z
    if isinstance(tree, ATree):
        # Chain children only carry the empty set or a singleton.
        if z.is_empty:
            return tree.param.member(0)
        if z.is_finite:
            members = z.finite_elements()
            if len(members) == 1:
                return tree.param.member(members[0] + 1)
        return False
    if isinstance(tree, BTree):
        # The children realize exactly the sets a finite flip away.
        return tree.param.sym_diff(z).is_finite
    return any(leaf_depth_set(part) == z for part in tree.parts)


def _chain_masks(order: list) -> dict:
    """L(psi) = {k : Chain(k) satisfies psi} per subformula, by id.

    A mask is an unbounded int: from its ``bit_length()`` on, every bit
    repeats the sign bit, which stands for every longer chain. Top is -1,
    negation is ~, <suc> shifts by one, other labels give the empty mask,
    and the other booleans are bit operations. A subformula over an atom
    without finite modal depth maps to the type name of its first such
    atom instead.
    """
    masks: dict[int, int | str] = {}
    for node in order:
        if isinstance(node, Top):
            mask = -1
        elif isinstance(node, (Neg, Dia)) and isinstance(masks[id(node.sub)], str):
            mask = masks[id(node.sub)]
        elif isinstance(node, Neg):
            mask = ~masks[id(node.sub)]
        elif isinstance(node, Dia):
            mask = masks[id(node.sub)] << 1 if node.label == SUC_LABEL else 0
        elif isinstance(node, (And, Or)):
            mask = -1 if isinstance(node, And) else 0
            for sub in node.subs:
                found = masks[id(sub)]
                if isinstance(found, str):
                    mask = found
                    break
                mask = mask & found if isinstance(node, And) else mask | found
        else:
            mask = type(node).__name__
        masks[id(node)] = mask
    return masks


def _members(x: EPSet, width: int) -> int:
    """x as a mask over 0..width, bit width standing for every member >= width."""
    return sum(1 << k for k in x.elements_below(width)) | x.has_element_geq(width) << width


def _some_modification(x: EPSet, body: Formula, masks: dict) -> bool:
    """Does the branch-code tree of some finite modification of x satisfy body?

    At ATree(x') the body's top-level diamond <suc>psi_i holds iff x'
    meets L(psi_i), so the body sees only the profile of x': which of the
    m masks it meets. Every mask is constant from its ``bit_length()`` on,
    so all of them are from the largest, the width w. Flips below w choose
    x''s window freely, so the profiles are the OR-closure of the position
    profiles, joined with the tail profile, and also without it when x is
    finite (x' may then end below w). That is 2^m profiles at most,
    instead of 2^w windows.
    """
    diamonds = _top_diamonds(body)
    lifted = [masks[id(dia.sub)] for dia in diamonds]
    width = max((mask.bit_length() for mask in lifted), default=0)

    def profile(k: int) -> int:
        return sum((mask >> k & 1) << i for i, mask in enumerate(lifted))

    reach = {0}
    for p in {profile(k) for k in range(width)}:
        if p not in reach:
            reach |= {c | p for c in reach}
    tail = profile(width)
    tails = {c | tail for c in reach}
    reach = reach | tails if x.is_finite else tails
    index = {id(dia): i for i, dia in enumerate(diamonds)}

    def leaf(c: int, node: Dia) -> bool:
        return node.label == SUC_LABEL and bool(c >> index[id(node)] & 1)

    return any(walk_formula(c, body, leaf) for c in reach)


def _check_profile_budget(tree: SymbolicTree, phi: Formula) -> None:
    """Raise where the walk would hand `_some_modification` too wide a body.

    That is the body of a <suc> diamond met at a glued modification tree
    (an atom has no top-level diamonds). This walk over (place,
    subformula) pairs takes every boolean branch and follows <suc> bodies
    into glued parts as the walk does, so what the short circuits skip
    is checked as well. The checked diamonds end the walk, so postorder
    lists them left to right in first-reached order.
    """
    for place, node in dfs_postorder(((tree, phi),), _budget_steps, _pair_ids):
        if isinstance(place, BTree) and isinstance(node, Dia) and node.label == SUC_LABEL:
            width = len(_top_diamonds(node.sub))
            if width > PROFILE_BUDGET:
                raise ValueError(
                    f"a diamond body on a glued modification tree has {width} "
                    f"distinct top-level diamonds, over the budget of {PROFILE_BUDGET}"
                )


def _budget_steps(pair: tuple) -> list[tuple]:
    place, node = pair
    if isinstance(place, Glue) and isinstance(node, Dia) and node.label == SUC_LABEL:
        return [(part, node.sub) for part in place.parts]
    return [(place, sub) for sub in _boolean_parts(node)]


def _pair_ids(pair: tuple) -> tuple[int, int]:
    return id(pair[0]), id(pair[1])


def _top_diamonds(body: Formula) -> list[Dia]:
    """The distinct <suc> diamonds reached from body through booleans.

    Told apart by id, and listed left to right in first-reached order.
    """
    return [
        node
        for node in dfs_postorder((body,), _boolean_parts, id)
        if isinstance(node, Dia) and node.label == SUC_LABEL
    ]


def _diamond_tower(k: int) -> Formula:
    """Diamonds k + 1 deep around the no-successor formula."""
    phi: Formula = Neg(Dia(SUC_LABEL, TOP))
    for _ in range(k + 1):
        phi = Dia(SUC_LABEL, phi)
    return phi


def diamond_depth_sat(x: EPSet, k: int) -> bool:
    """Can the branch-code tree of x reach a leaf in exactly k + 1 steps?

    Evaluates the height-(k + 1) diamond tower at the root; agreement
    with plain membership of k in x is the load-bearing property of the
    branch coding.
    """
    natural(k, "tower height")
    return eval_symbolic(ATree(x), _diamond_tower(k))


def mod_glue_bisim(x: EPSet, y: EPSet) -> bool:
    """Are the glued modification trees of x and y root-bisimilar?

    A finite symmetric difference yields a pairing of child indices that
    matches each modification of x with the identical modification of y,
    so the roots are bisimilar. Otherwise one diamond over the
    characterizing atom of x holds on the left but fails on the right,
    and that separation is what this returns.
    """
    if x.sym_diff(y).is_finite:
        return True
    separator = Dia(SUC_LABEL, CharSet(x))
    left = eval_symbolic(BTree(x), separator)
    right = eval_symbolic(BTree(y), separator)
    return not (left and not right)


def matching_bijection(x: EPSet, y: EPSet, bound: int) -> list[tuple[int, int]]:
    """Pairs (n, n') of child indices carrying identical modifications.

    Requires a finite symmetric difference; its digit mask m satisfies
    x xor flips(n) = y xor flips(n xor m), so the pairing is the xor
    with m, restricted here to indices below the bound.
    """
    natural(bound, "bound")
    difference = x.sym_diff(y)
    if not difference.is_finite:
        raise ValueError("no matching exists: the sets differ infinitely")
    mask = difference.encode_finite()
    return [(n, n ^ mask) for n in range(bound)]


def separating_formula(x: EPSet, y: EPSet) -> Formula:
    """A formula true on the glued tree of x and false on that of y.

    Requires an infinite symmetric difference: then no finite flip turns
    y into x, so no child of y's tree carries the leaf-depth set x while
    child 0 of x's tree does.
    """
    if x.sym_diff(y).is_finite:
        raise ValueError("no separator exists: the sets differ finitely")
    return Dia(SUC_LABEL, CharSet(x))
