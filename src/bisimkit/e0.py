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

from math import lcm

from .foundations import EPSet, nth_modification
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
    modal_depth,
    modal_depths,
)
from .trees import ATree, BTree, Chain, Glue, SUC_LABEL, SymbolicTree, symbolic_rank

__all__ = [
    "branch_code_tree",
    "diamond_depth_sat",
    "eval_symbolic",
    "leaf_depth_set",
    "matching_bijection",
    "mod_glue_bisim",
    "mod_glue_tree",
    "nth_modification",
    "separating_formula",
]


def branch_code_tree(x: EPSet) -> ATree:
    """The tree carrying one branch of length n + 1 per member n of x."""
    return ATree(x)


def mod_glue_tree(x: EPSet) -> BTree:
    """A fresh root gluing the branch-code trees of all modifications of x.

    Child n of the root codes x with the binary digits of n flipped, so
    the children enumerate exactly the sets at finite symmetric
    difference from x, each infinitely often up to duplication of
    parameter sets.
    """
    return BTree(x)


def leaf_depth_set(tree: SymbolicTree) -> EPSet:
    """Depths d such that the tree has a leaf at level d + 1.

    Equivalently: the d with a diamond tower of height d + 1 ending in
    "no successor" true at the root. On a branch-code tree this recovers
    the coded set, which is what makes the set-characterizing atom tick.
    """
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
    if isinstance(tree, Glue):
        depths = EPSet.empty()
        # A part is a leaf exactly when its root has rank 0.
        if any(symbolic_rank(part)[0].is_zero for part in tree.parts):
            depths = EPSet.from_finite([0])
        for part in tree.parts:
            depths = _union(depths, _shift_up(leaf_depth_set(part)))
        return depths
    raise TypeError(f"not a symbolic tree: {tree!r}")


def _union(a: EPSet, b: EPSet) -> EPSet:
    width = max(len(a.prefix), len(b.prefix))
    cycle = lcm(len(a.period), len(b.period))
    bits = ["01"[a.member(n) or b.member(n)] for n in range(width + cycle)]
    return EPSet("".join(bits[:width]), "".join(bits[width:]))


def _shift_up(s: EPSet) -> EPSet:
    """The set {d + 1 | d in s}."""
    return EPSet("0" + s.prefix, s.period)


def eval_symbolic(tree: SymbolicTree, phi: Formula) -> bool:
    """Decide a modal formula at the root of a symbolic tree.

    Booleans recurse, the set-characterizing atom compares leaf-depth
    sets, and rank atoms read the closed-form root rank. A diamond over
    a finite-depth body samples one actual child per depth-bounded
    behavior class, which is exhaustive even though the child family may
    be infinite; diamonds directly over the symbolic atoms get dedicated
    rules. Deeper nesting of those atoms raises UnsupportedFormula.
    """
    return _eval(tree, phi, modal_depths(phi))


def _eval(tree: SymbolicTree, phi: Formula, depths: dict[int, int | str]) -> bool:
    """`eval_symbolic`, with the modal depths of the top formula's parts."""
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Neg):
        return not _eval(tree, phi.sub, depths)
    if isinstance(phi, And):
        return all(_eval(tree, sub, depths) for sub in phi.subs)
    if isinstance(phi, Or):
        return any(_eval(tree, sub, depths) for sub in phi.subs)
    if isinstance(phi, CharSet):
        return leaf_depth_set(tree) == phi.param
    if isinstance(phi, RankAtLeast):
        return symbolic_rank(tree)[0] >= phi.bound
    if isinstance(phi, Dia):
        if phi.label != SUC_LABEL:
            return False
        return _dia(tree, phi.sub, depths)
    raise UnsupportedFormula(f"cannot evaluate {type(phi).__name__} symbolically")


def _dia(tree: SymbolicTree, body: Formula, depths: dict[int, int | str]) -> bool:
    """Does some child of the root satisfy the body?"""
    if isinstance(body, CharSet):
        return _child_with_leaf_set(tree, body.param)
    if isinstance(body, RankAtLeast):
        # The root's rank is the sup of its children's plus one, so some
        # child reaches the bound exactly when the root passes it.
        return symbolic_rank(tree)[0] >= body.bound + 1
    classes = _child_classes(tree, modal_depth(body, depths))
    return any(_eval(child, body, depths) for child in classes)


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


def _child_classes(tree: SymbolicTree, depth: int) -> list[SymbolicTree]:
    """Children of the root, one per depth-bounded behavior class.

    Formulas of modal depth d cannot tell two chains of length >= d
    apart, nor two branch-code trees agreeing below d - 1 and on having
    some member past it. Every returned tree is a genuine child; each
    omitted child behaves like a returned one under every depth-d body.
    """
    if isinstance(tree, Chain):
        return [Chain(tree.length - 1)] if tree.length >= 1 else []
    if isinstance(tree, ATree):
        classes: list[SymbolicTree] = [
            Chain(k) for k in tree.param.elements_below(depth)
        ]
        if tree.param.has_element_geq(depth):
            classes.append(Chain(depth))
        return classes
    if isinstance(tree, BTree):
        return _modification_classes(tree.param, depth)
    return list(tree.parts)


def _modification_classes(x: EPSet, depth: int) -> list[SymbolicTree]:
    """Representative modifications of x for depth-bounded bodies.

    The class of a branch-code child is its member pattern on the window
    [0, depth - 1) together with one bit for membership beyond it. Flips
    inside the window realize every pattern; the extra bit is forced to 1
    when x is infinite and is free otherwise.
    """
    window = max(depth - 1, 0)
    inside = set(x.elements_below(window))
    seen: set[EPSet] = set()
    classes: list[SymbolicTree] = []

    def add(param: EPSet) -> None:
        if param not in seen:
            seen.add(param)
            classes.append(ATree(param))

    for bits in range(1 << window):
        pattern = {i for i in range(window) if bits >> i & 1}
        base = inside ^ pattern
        rep = x.xor_finite(base)
        add(rep)
        if rep.has_element_geq(window):
            if rep.is_finite:
                tail = {e for e in rep.finite_elements() if e >= window}
                add(x.xor_finite(base | tail))
        else:
            add(x.xor_finite(base | {window}))
    return classes


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
    if k < 0:
        raise ValueError("tower height must be a natural")
    return eval_symbolic(branch_code_tree(x), _diamond_tower(k))


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
    left = eval_symbolic(mod_glue_tree(x), separator)
    right = eval_symbolic(mod_glue_tree(y), separator)
    return not (left and not right)


def matching_bijection(x: EPSet, y: EPSet, bound: int) -> list[tuple[int, int]]:
    """Pairs (n, n') of child indices carrying identical modifications.

    Requires a finite symmetric difference; its digit mask m satisfies
    x xor flips(n) = y xor flips(n xor m), so the pairing is the xor
    with m, restricted here to indices below the bound.
    """
    if bound < 0:
        raise ValueError("bound must be a natural")
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
