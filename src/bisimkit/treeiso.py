"""Isomorphism of multiplicity trees by integer class ids.

`class_ids` numbers the nodes of the given trees bottom-up, as in Aho,
Hopcroft and Ullman's tree isomorphism: a node's key (`class_key`) is
the set of its (label, child id) pairs with summed multiplicities, so two
nodes share an id exactly when they are isomorphic. `iso` and
rank-indexed isomorphism decide by comparing ids. The same key conses the
nodes of `iso`'s two files as they are read (`jsonio.decode_multitree`),
so a class met in both is built once.

`canon` is the printed form, a stable compact-JSON string that is equal
exactly for isomorphic trees; it is built only where a report prints it.
`canon_chunks` gives the same string streamed: it hands each node's
merged, sorted children to `trees.object_pieces` for the layout and to
`trees.PieceText.build` for the table, so an exponential unfolding of a
small DAG prints in chunks without ever being held whole. Same-label
siblings kept as table entries are ordered by their piece lists, walked
together up to the first pair of pieces that differ (`_compare`).
`_iso_rec`, a recursive pairing of child slots, is the independent
oracle that the tests and the tree-iso verify suite check both against.

The walks are keyed by node identity and keep nothing between calls, so
shared subtrees cost once and deep trees never recurse.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Hashable, Mapping

from .foundations import Count, Ordinal
from .trees import MultiTree, PieceText, object_pieces, postorder


def _type_counts(tree: MultiTree, classes: Mapping[int, Hashable]) -> dict:
    """Total multiplicity of each child type (label, class of the child).

    classes maps id(node) to a class id, or to a canonical string.
    """
    totals: dict = {}
    for label, sub, count in tree.children:
        kind = (label, classes[id(sub)])
        totals[kind] = totals[kind] + count if kind in totals else count
    return totals


def class_key(tree: MultiTree, classes: Mapping[int, Hashable]) -> frozenset:
    """The set of tree's (child type, total multiplicity) pairs.

    classes maps id(child) to the child's class. Where it gives one class
    per isomorphism class, two nodes have equal keys exactly when they
    are isomorphic: `class_ids` numbers nodes by it, and
    `jsonio.decode_multitree` conses a node on it as it is read.
    """
    return frozenset(_type_counts(tree, classes).items())


def class_ids(*roots: MultiTree) -> dict[int, int]:
    """Class id of every node under the roots, keyed by id(node).

    Two nodes get the same class id exactly when they are isomorphic.
    """
    classes: dict[frozenset, int] = {}
    ids: dict[int, int] = {}
    for node in postorder(*roots):
        ids[id(node)] = classes.setdefault(class_key(node, ids), len(classes))
    return ids


def canon_chunks(tree: MultiTree) -> PieceText:
    """The canonical string in chunks, from a table built before returning.

    Each node's children are grouped by label and sorted by string: with
    a plain sort while they are all whole strings, and by `_compare`,
    without joining them, once some child is a table entry. The pieces
    are laid out by `trees.object_pieces`, and `PieceText.build` keeps
    one entry per isomorphism class.
    """
    order = None

    def pieces_of(node: MultiTree, forms: dict, table: dict) -> list:
        nonlocal order
        totals = _type_counts(node, forms)
        if not table or all(type(child) is str for _, child in totals):
            kinds = sorted(totals)
        else:
            if order is None:
                order = _kind_order(table)
            kinds = sorted(totals, key=order)
        return object_pieces(
            [(label, child, totals[label, child]) for label, child in kinds], ",", ":"
        )

    return PieceText.build(tree, pieces_of)


def canon(tree: MultiTree) -> str:
    """Stable canonical string; equal exactly for isomorphic trees."""
    return str(canon_chunks(tree))


def _kind_order(table: dict[int, tuple]):
    """Sort key for (label, form) kinds: by label, then by the form's string.

    A form is a whole string or the key of a table entry; pairs involving
    an entry are ordered by `_compare`, with one memo for the whole table.
    """
    memo: dict[tuple[int, int], int] = {}

    def compare(left: tuple, right: tuple) -> int:
        if left[0] != right[0]:
            return -1 if left[0] < right[0] else 1
        a, b = left[1], right[1]
        if type(a) is str and type(b) is str:
            return (a > b) - (a < b)
        return _compare(table, a, b, memo)

    return cmp_to_key(compare)


def _compare(table: dict[int, tuple], a: str | int, b: str | int, memo: dict) -> int:
    """-1, 0 or 1 as the string of a is below, equal to or above b's.

    Entries' piece lists line up, constants at even positions and forms
    at odd ones, and no JSON text is a proper prefix of another, so the
    first pair of pieces that differ decides. Two strings compare
    directly; a string against an entry reads the entry up to the first
    difference; two entries pass the comparison on to their pair in this
    loop instead of recursing, memoizing every pair passed with the answer.
    """
    chain = []
    while type(a) is int and type(b) is int and a != b:
        if (a, b) in memo:
            result = memo[a, b]
            break
        chain.append((a, b))
        a, b = next((p, q) for p, q in zip(table[a], table[b]) if p != q)
    else:
        if type(a) is str and type(b) is str:
            result = (a > b) - (a < b)
        elif type(a) is str:
            result = _text_order(table, a, b)
        elif type(b) is str:
            result = -_text_order(table, b, a)
        else:
            result = 0
    for a, b in chain:
        memo[a, b] = result
        memo[b, a] = -result
    return result


def _text_order(table: dict[int, tuple], text: str, key: int) -> int:
    """The order of a whole string against entry key's, read piece by piece."""
    start = 0
    for piece in PieceText(table, key).pieces():
        part = text[start : start + len(piece)]
        if part != piece:
            return -1 if part < piece else 1
        start += len(piece)
    return int(start < len(text))


def iso(left: MultiTree, right: MultiTree) -> bool:
    ids = class_ids(left, right)
    return ids[id(left)] == ids[id(right)]


def _entries_by_label(tree: MultiTree) -> dict[str, list]:
    table: dict[str, list] = {}
    for label, sub, count in tree.children:
        table.setdefault(label, []).append((sub, count))
    return table


def _iso_rec(left: MultiTree, right: MultiTree) -> bool:
    """Recursive isomorphism via per-label multiplicity maps of child classes.

    The oracle for `class_ids` and `canon`; the library does not call it.
    """
    memo: dict[tuple[int, int], bool] = {}

    def rec(left: MultiTree, right: MultiTree) -> bool:
        key = (id(left), id(right))
        if key not in memo:
            memo[key] = same_classes(left, right)
        return memo[key]

    def same_classes(left: MultiTree, right: MultiTree) -> bool:
        left_by = _entries_by_label(left)
        right_by = _entries_by_label(right)
        if set(left_by) != set(right_by):
            return False
        for label in left_by:
            reps: list[MultiTree] = []
            left_mult: list[Count] = []
            right_mult: list[Count] = []

            def slot(sub: MultiTree) -> int:
                for i, rep in enumerate(reps):
                    if rec(sub, rep):
                        return i
                reps.append(sub)
                left_mult.append(Count(0))
                right_mult.append(Count(0))
                return len(reps) - 1

            for sub, count in left_by[label]:
                i = slot(sub)
                left_mult[i] = left_mult[i] + count
            for sub, count in right_by[label]:
                i = slot(sub)
                right_mult[i] = right_mult[i] + count
            if left_mult != right_mult:
                return False
        return True

    return rec(left, right)


def iso_at_rank(left: MultiTree, right: MultiTree, alpha: Ordinal) -> bool:
    """Isomorphism within the class of trees of rank exactly alpha."""
    return (
        left.tree_rank() == alpha
        and right.tree_rank() == alpha
        and iso(left, right)
    )
