"""Isomorphism of multiplicity trees by integer class ids.

`class_ids` numbers the nodes of the given trees bottom-up, as in Aho,
Hopcroft and Ullman's tree isomorphism: a node's key is the set of its
(label, child id) pairs with summed multiplicities, so two nodes share an
id exactly when they are isomorphic. `iso`, rank-indexed isomorphism and
the forth/back matching clauses all decide by comparing ids.

`canon` is the printed form, a stable compact-JSON string that is equal
exactly for isomorphic trees; it is built only where a report prints it.
`canon_chunks` gives the same string streamed from a per-node table
(`trees.PieceText`): short node strings are kept whole, longer ones as
pieces around their children, so an exponential unfolding of a small
DAG prints in chunks without ever being held whole. `_iso_rec`, a
recursive pairing of child slots, is the independent oracle that the
tests and the tree-iso verify suite check both against.

The walks are keyed by node identity and keep nothing between calls, so
shared subtrees cost once and deep trees never recurse.
"""

from __future__ import annotations

import json
from functools import cmp_to_key
from typing import Hashable, Mapping

from .foundations import Count, Ordinal
from .trees import MultiTree, PieceText, postorder


def _type_counts(tree: MultiTree, classes: Mapping[int, Hashable]) -> dict:
    """Total multiplicity of each child type (label, class of the child).

    classes maps id(node) to a class id, or to a canonical string.
    """
    totals: dict = {}
    for label, sub, count in tree.children:
        kind = (label, classes[id(sub)])
        totals[kind] = totals[kind] + count if kind in totals else count
    return totals


def class_ids(*roots: MultiTree) -> dict[int, int]:
    """Class id of every node under the roots, keyed by id(node).

    Two nodes get the same class id exactly when they are isomorphic.
    """
    classes: dict[frozenset, int] = {}
    ids: dict[int, int] = {}
    for node in postorder(*roots):
        key = frozenset(_type_counts(node, ids).items())
        ids[id(node)] = classes.setdefault(key, len(classes))
    return ids


def canon_chunks(tree: MultiTree) -> PieceText:
    """The canonical string in chunks, from a table built before returning.

    A node whose string fits in PieceText.INLINE characters is built
    whole, children grouped by label and sorted by string; a longer one
    is kept as pieces, one entry per isomorphism class, and its
    same-label children are sorted by `_compare` without being joined.
    """
    limit = PieceText.INLINE
    forms: dict[int, str | int] = {}
    table: dict[int, list] = {}
    classes: dict[frozenset, int] = {}
    order = None
    for node in postorder(tree):
        totals = _type_counts(node, forms)
        # With the table still empty, every child's form is a string.
        if not table or all(type(child) is str for _, child in totals):
            by_label: dict[str, list[str]] = {}
            for label, child in sorted(totals):
                count = totals[label, child].json_text()
                by_label.setdefault(label, []).append(f"[{child},{count}]")
            form = "{" + ",".join(
                f"{json.dumps(label)}:[{','.join(items)}]"
                for label, items in by_label.items()
            ) + "}"
            if len(form) <= limit:
                forms[id(node)] = form
                continue
        key = frozenset(totals.items())
        if key not in classes:
            if order is None:
                order = _kind_order(table)
            classes[key] = len(classes)
            table[classes[key]] = _canon_pieces(sorted(totals, key=order), totals)
        forms[id(node)] = classes[key]
    return PieceText(table, forms[id(tree)])


def canon(tree: MultiTree) -> str:
    """Stable canonical string; equal exactly for isomorphic trees."""
    return str(canon_chunks(tree))


def _canon_pieces(kinds: list, totals: dict) -> list:
    """Pieces of one node's string: constants around its children's forms."""
    pieces: list = []
    text = "{"
    last = None
    for label, child in kinds:
        if label != last:
            if last is not None:
                text += "],"
            text += json.dumps(label) + ":[["
            last = label
        else:
            text += ",["
        pieces += (text, child)
        text = "," + totals[label, child].json_text() + "]"
    pieces.append(text + ("]}" if last is not None else "}"))
    return pieces


def _kind_order(table: dict[int, list]):
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


def _compare(table: dict[int, list], a: str | int, b: str | int, memo: dict) -> int:
    """-1, 0 or 1 as the string of a is below, equal to or above b's.

    The strings are read in step, piece by piece, without joining them.
    Where both reach the start of a table entry at once and the two
    entries differ, the answer is theirs: no JSON text is a proper prefix
    of another, so the first difference lies inside both. The comparison
    moves on to that pair instead of recursing, and every pair passed on
    the way is memoized with the answer.
    """
    chain = []
    while True:
        if type(a) is int and type(b) is int:
            if (a, b) in memo:
                result = memo[a, b]
                break
            chain.append((a, b))
        step = _first_difference(table, a, b)
        if type(step) is int:
            result = step
            break
        a, b = step
    for a, b in chain:
        memo[a, b] = result
        memo[b, a] = -result
    return result


def _next_piece(stack: list) -> str | int | None:
    while stack:
        piece = next(stack[-1], None)
        if piece is not None:
            return piece
        stack.pop()
    return None


def _enter(table: dict[int, list], stack: list, key: int) -> str | int | None:
    stack.append(iter(table[key]))
    return _next_piece(stack)


def _first_difference(table: dict[int, list], a: str | int, b: str | int):
    """The order of two strings, or the first pair of distinct entries.

    Each string is read through its own stack of piece iterators. The
    result is -1 or 1 at the first differing character, or the keys of
    two distinct table entries that both strings start at the same
    offset. A whole string against an entry reads no more of the entry
    than the string's length.
    """
    left: list = []
    right: list = []
    if type(a) is int:
        a = _enter(table, left, a)
    if type(b) is int:
        b = _enter(table, right, b)
    i = j = 0
    while True:
        if type(a) is int and type(b) is int:
            if a != b:
                return a, b
            a, b = _next_piece(left), _next_piece(right)
        elif type(a) is int:
            a = _enter(table, left, a)
        elif type(b) is int:
            b = _enter(table, right, b)
        elif a is None or b is None:
            return (a is not None) - (b is not None)
        else:
            n = min(len(a) - i, len(b) - j)
            x, y = a[i : i + n], b[j : j + n]
            if x != y:
                return -1 if x < y else 1
            i += n
            j += n
            if i == len(a):
                a, i = _next_piece(left), 0
            if j == len(b):
                b, j = _next_piece(right), 0


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


def matching_clause(
    source: MultiTree, target: MultiTree, alpha: Ordinal, k: int
) -> bool:
    """Can every injective k-tuple of source children be matched in target?

    A match pairs each chosen child with a distinct target child of the
    same label, isomorphic at some rank below alpha. A type of
    multiplicity m never needs more than min(m, k) partners, so the
    quantifier over tuples collapses to a per-type count comparison.
    """
    if k < 0:
        raise ValueError("tuple length must be a natural")
    total = source.total_children()
    if not total.is_omega and total.finite < k:
        return True
    if k == 0:
        return True
    # Some child has rank >= alpha exactly when the source has rank > alpha.
    if source.tree_rank() > alpha:
        return False
    ids = class_ids(source, target)
    available = _type_counts(target, ids)
    return all(
        available.get(kind, Count(0)).at_least(count.capped(k))
        for kind, count in _type_counts(source, ids).items()
    )


def forth_condition(
    source: MultiTree, target: MultiTree, alpha: Ordinal, k: int
) -> bool:
    return source.tree_rank() == alpha and matching_clause(source, target, alpha, k)


def forth_back(left: MultiTree, right: MultiTree, alpha: Ordinal, k: int) -> bool:
    """Both one-sided conditions at rank alpha and tuple length k."""
    return forth_condition(left, right, alpha, k) and forth_condition(
        right, left, alpha, k
    )
