"""JSON codecs for the file formats the command line reads and writes.

One parse function and one serializer per compound value. Parsers check
shape and cross-references and raise ValueError naming the offending
field; deeper invariants stay with the value constructors, whose errors
already carry the culprit. Serializers emit deterministic structures:
declared orders are kept and everything unordered is sorted.

Multiplicity trees are built as a shared DAG by two readers.
`decode_multitree` builds each node while the JSON decoder closes its
object, so memory follows the DAG rather than the unfolded document; it
checks only enough to build a node. For `export-dot` it keeps one node
per distinct subtree. For `iso` it keeps one node per isomorphism class,
keyed by `treeiso.class_key`, in one table that both files are read
into, so memory follows the classes of the two files together.
`parse_multitree` checks every field of a decoded document in a
descent of per-object generators that `foundations.dfs_postorder`
drives, so its first error is the one a recursive descent would meet.
`iso` and `export-dot` decode each file once, through the first, and
hand the document of a file that is not a tree to the second; only
where a node was built first is it decoded again.

A multiplicity tree's JSON text can also be streamed:
`multitree_json_chunks` lays each node out with `trees.object_pieces`
and builds its table with `trees.PieceText.build`, the same builder as
the canonical form, then yields the text in chunks, so the unfolding is
never held whole.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from operator import itemgetter

from .foundations import Count, EPSet, Ordinal, dfs_postorder, format_rational, parse_rational
from .lts import And, CharSet, Dia, Formula, Neg, Or, PointedLTS, RankAtLeast, Top, TOP
from .lts import formula_postorder
from .nlmp import PointmassNLMP, SubProbMeasure
from .trees import (
    AnyTree,
    ATree,
    BTree,
    Chain,
    ExplicitTree,
    Glue,
    LEAF,
    MultiTree,
    PieceText,
    fold_symbolic,
    object_pieces,
    postorder,
)
from .treeiso import class_key

__all__ = [
    "decode_json",
    "decode_multitree",
    "formula_to_json",
    "multitree_json_chunks",
    "multitree_to_json",
    "nlmp_to_json",
    "parse_carrier",
    "parse_epset",
    "parse_formula",
    "parse_lts",
    "parse_multitree",
    "parse_nlmp",
    "parse_tree",
    "read_json_file",
    "read_multitree",
    "read_text",
    "render_report",
    "tree_to_json",
]


def read_json_file(path: str) -> object:
    return decode_json(path, read_text(path))


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def decode_json(path: str, text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path} nests too deeply to decode") from None


def _shape(data: object, keys: set[str], what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = keys - data.keys()
    if missing:
        raise ValueError(f"{what} lacks {sorted(missing)}")
    extra = data.keys() - keys
    if extra:
        raise ValueError(f"{what} has unknown keys {sorted(extra)}")
    return data


def _str_list(data: object, what: str) -> tuple[str, ...]:
    if not isinstance(data, list) or not all(isinstance(v, str) for v in data):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(data)


def _natural(data: object, what: str) -> int:
    if not isinstance(data, int) or isinstance(data, bool) or data < 0:
        culprit = json.dumps(data, ensure_ascii=False)
        raise ValueError(f"{what} must be a natural number, got {culprit}")
    return data


def parse_epset(data: object) -> EPSet:
    return EPSet.from_json(data)


def parse_lts(data: object) -> PointedLTS:
    fields = _shape(data, {"labels", "states", "root", "edges"}, "LTS")
    labels = _str_list(fields["labels"], "LTS labels")
    states = _str_list(fields["states"], "LTS states")
    if not isinstance(fields["root"], str):
        raise ValueError("LTS root must be a string")
    if not isinstance(fields["edges"], list):
        raise ValueError("LTS edges must be a list")
    edges = set()
    for entry in fields["edges"]:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(v, str) for v in entry)
        ):
            raise ValueError(f"LTS edge must be [source, label, target], got {entry!r}")
        edges.add(tuple(entry))
    return PointedLTS(labels, states, fields["root"], frozenset(edges))


def parse_nlmp(data: object) -> PointmassNLMP:
    fields = _shape(data, {"labels", "states", "trans"}, "NLMP")
    labels = _str_list(fields["labels"], "NLMP labels")
    states = _str_list(fields["states"], "NLMP states")
    if not isinstance(fields["trans"], dict):
        raise ValueError("NLMP trans must be an object keyed by state")
    known_states, known_labels = set(states), set(labels)
    trans: dict = {}
    for state, by_label in fields["trans"].items():
        if state not in known_states:
            raise ValueError(f"trans lists unknown state {state!r}")
        if not isinstance(by_label, dict):
            raise ValueError(f"trans[{state!r}] must be an object keyed by label")
        for label, measures in by_label.items():
            if label not in known_labels:
                raise ValueError(f"trans[{state!r}] uses unknown label {label!r}")
            if not isinstance(measures, list):
                raise ValueError(f"trans[{state!r}][{label!r}] must be a list")
            parsed = []
            for i, entry in enumerate(measures):
                where = f"measure {i} at ({state!r},{label!r})"
                if not isinstance(entry, dict):
                    raise ValueError(f"{where} must be an object")
                weights = {}
                for target, text in entry.items():
                    if target not in known_states:
                        raise ValueError(f"{where} names unknown state {target!r}")
                    weights[target] = parse_rational(text)
                parsed.append(SubProbMeasure.from_mapping(weights))
            trans[(state, label)] = frozenset(parsed)
    return PointmassNLMP(labels, states, trans)


def nlmp_to_json(nlmp: PointmassNLMP) -> dict:
    trans: dict = {}
    for state in nlmp.states:
        per_label: dict = {}
        for label in nlmp.labels:
            measures = nlmp.measures(state, label)
            if not measures:
                continue
            rendered = [
                {target: format_rational(mass) for target, mass in mu.weights}
                for mu in measures
            ]
            per_label[label] = sorted(rendered, key=lambda d: sorted(d.items()))
        if per_label:
            trans[state] = per_label
    return {
        "labels": list(nlmp.labels),
        "states": list(nlmp.states),
        "trans": trans,
    }


def parse_carrier(data: object) -> tuple[str, ...]:
    fields = _shape(data, {"carrier"}, "carrier file")
    return _str_list(fields["carrier"], "carrier")


def parse_tree(data: object) -> AnyTree:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError('tree JSON must be an object with a "kind"')
    kind = data["kind"]
    if kind == "explicit":
        fields = _shape(data, {"kind", "nodes"}, "explicit tree")
        if not isinstance(fields["nodes"], list):
            raise ValueError("explicit tree nodes must be a list")
        nodes = []
        for node in fields["nodes"]:
            if not isinstance(node, list):
                raise ValueError(f"tree node must be a list of naturals, got {node!r}")
            nodes.append(tuple(_natural(v, "tree node letter") for v in node))
        return ExplicitTree.from_nodes(nodes)
    if kind == "chain":
        fields = _shape(data, {"kind", "k"}, "chain tree")
        return Chain(_natural(fields["k"], "chain length"))
    if kind in ("A", "B"):
        fields = _shape(data, {"kind", "set"}, f"{kind}-tree")
        param = EPSet.from_json(fields["set"])
        return ATree(param) if kind == "A" else BTree(param)
    if kind == "glue":
        fields = _shape(data, {"kind", "children"}, "glued tree")
        if not isinstance(fields["children"], list):
            raise ValueError("glued tree children must be a list")
        parts = []
        for child in fields["children"]:
            part = parse_tree(child)
            if isinstance(part, ExplicitTree):
                raise ValueError("glued tree children must be symbolic trees")
            parts.append(part)
        return Glue(tuple(parts))
    raise ValueError(f"unknown tree kind {kind!r}")


def tree_to_json(tree: AnyTree) -> dict:
    """A tree's document, folded by `fold_symbolic`: shared parts share a dict."""
    return fold_symbolic(tree, _part_json, lambda parts: {"kind": "glue", "children": parts})


def _part_json(tree: AnyTree) -> dict:
    if isinstance(tree, ExplicitTree):
        nodes = tree.in_order()
        for node in nodes:
            if not all(isinstance(v, int) for v in node):
                raise ValueError(f"node {node!r} has letters outside the naturals")
        return {"kind": "explicit", "nodes": [list(u) for u in nodes]}
    if isinstance(tree, Chain):
        return {"kind": "chain", "k": tree.length}
    if isinstance(tree, ATree):
        return {"kind": "A", "set": tree.param.to_json()}
    if isinstance(tree, BTree):
        return {"kind": "B", "set": tree.param.to_json()}
    raise ValueError(f"not a tree value: {tree!r}")


def parse_multitree(data: object) -> MultiTree:
    """Nested objects keyed by label, parsed into a shared DAG.

    A recursive descent whose steps `dfs_postorder` drives, so deep
    documents never recurse. Each object's generator checks its pairs in
    order, yields each subtree and, resumed once that subtree is done,
    reads the pair's count; it builds the object's node when it
    finishes. So the first error is the one a recursive descent would
    meet. Nodes are hash-consed: entry lists equal in each label, child
    identity and count share one node, and so do JSON objects met twice,
    so repeated subtrees are built once.
    """
    consed: dict[tuple, MultiTree] = {}
    built: dict[int, MultiTree] = {}
    counts: dict[int | str, Count] = {}

    def descend(obj: object) -> Iterator[object]:
        if not isinstance(obj, dict):
            raise ValueError("multiplicity tree JSON must be an object keyed by label")
        entries, keys = [], []
        for label, children in obj.items():
            if not isinstance(children, list):
                raise ValueError(f"children under {label!r} must be a list")
            for i, pair in enumerate(children):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(
                        f"child {i} under {label!r} must be [subtree, multiplicity]"
                    )
                sub, raw = pair
                node = LEAF
                if sub != {}:  # anything but an object fails its own descent
                    yield sub
                    node = built.get(id(sub))
                    if node is None:  # still open: an object on the path down
                        raise ValueError("multiplicity tree JSON contains itself")
                count = _count(raw, counts)
                entries.append((label, node, count))
                keys.append((label, id(node), count))
        key = tuple(keys)
        node = consed.get(key)
        if node is None:
            node = consed[key] = MultiTree(tuple(entries))
        built[id(obj)] = node

    dfs_postorder((data,), descend, id)
    return built[id(data)]


def _count(raw: object, counts: dict[int | str, Count]) -> Count:
    """Count.from_json, reusing the Count of an int or string seen before."""
    if type(raw) is not int and type(raw) is not str:
        return Count.from_json(raw)
    count = counts.get(raw)
    if count is None:
        count = counts[raw] = Count.from_json(raw)
    return count


def decode_multitree(
    path: str, text: str, classes: dict[tuple, MultiTree] | None
) -> tuple[MultiTree | None, object]:
    """The text decoded once, into a shared DAG if it is a multiplicity tree.

    The decoder hands each JSON object to a hook as it closes. ``{}`` stays
    a dict, which a node reads as `LEAF`, and the first other object to
    close decides: if it is a node, the hook turns each into its node at
    once, so no document is held; if not, each stays the dict json makes.
    Returns the tree with its root object (`LEAF` for a bare ``{}``), or
    None with the document, decoded again only if a node was built before
    a failure.

    With classes None, nodes are consed on their structure, like
    `parse_multitree`'s. With a table of classes, they are consed on their
    isomorphism class: the table maps each `treeiso.class_key`, a sorted
    tuple that is ``()`` for the leaf, to the first node of that class read
    into it, from this text or an earlier one, and every later node of the
    class reads as that one.
    """
    consed: dict[tuple, MultiTree] = {}
    # A class's one node stands for it: ids maps each to its own identity,
    # which the table, holding the node, keeps from being reused.
    ids = {id(LEAF): id(LEAF)}
    if classes is not None:
        classes.setdefault((), LEAF)  # {"a": []} is a leaf too
    counts: dict[int | str, Count] = {}
    fields: dict = {}  # the last object made a node, which ends as the root
    nodes: bool | None = None  # None until a non-empty object closes

    def node(obj: dict) -> MultiTree | dict:
        nonlocal fields, nodes
        if nodes is False or not obj:
            return obj
        fields = obj
        entries = []
        try:
            for label, children in obj.items():
                if type(children) is not list:
                    raise ValueError
                for sub, raw in children:  # MultiTree rejects a sub that is no node
                    if type(sub) is dict:  # only {} reaches a node as a dict
                        sub = LEAF
                    entries.append((label, sub, _count(raw, counts)))
            if classes is None:
                key = tuple([(label, id(sub), count) for label, sub, count in entries])
                tree = consed.get(key)
                if tree is None:
                    tree = consed[key] = MultiTree(tuple(entries))
            else:  # built first, so that a node's checks run whether or not it is new
                tree = MultiTree(tuple(entries))
                tree = classes.setdefault(class_key(tree, ids), tree)
                ids[id(tree)] = id(tree)
        except (ValueError, TypeError):
            if nodes:
                raise
            nodes = False
            return obj
        nodes = True
        return tree

    try:
        value = json.loads(text, object_hook=node)
        if type(value) is MultiTree:
            return value, fields
        if value == {}:  # the hook leaves {} for its parent to read as LEAF
            return LEAF, value
        if not nodes:
            return None, value
    except (ValueError, TypeError, RecursionError):  # raised again by the second decode
        pass
    return None, decode_json(path, text)


def read_multitree(path: str, classes: dict[tuple, MultiTree]) -> MultiTree:
    """A multiplicity tree file read into a table of classes.

    The tree is `decode_multitree`'s, consed on the table; a document
    that its hook did not build is parsed by `parse_multitree`, which
    names the first error.
    """
    tree, data = decode_multitree(path, read_text(path), classes)
    return parse_multitree(data) if tree is None else tree


def multitree_to_json(tree: MultiTree) -> dict:
    """Nested objects keyed by sorted label, built bottom-up without recursion.

    Each distinct node becomes one dict, shared by all of its parents.
    """
    data: dict[int, dict] = {}
    for node in postorder(tree):
        grouped: dict[str, list] = {}
        for label, sub, count in node.children:
            grouped.setdefault(label, []).append([data[id(sub)], count.to_json()])
        data[id(node)] = {label: grouped[label] for label in sorted(grouped)}
    return data[id(tree)]


def multitree_json_chunks(tree: MultiTree) -> PieceText:
    """``json.dumps(multitree_to_json(tree), sort_keys=True)`` in chunks.

    Each node's entries, stable-sorted by label, are laid out by
    `trees.object_pieces` and the table is built by `PieceText.build`
    before returning. The cost is the DAG size plus the output length,
    without recursion.
    """

    def pieces_of(node: MultiTree, forms: dict, table: dict) -> list:
        entries = sorted(node.children, key=itemgetter(0))
        return object_pieces(
            [(label, forms[id(sub)], count) for label, sub, count in entries], ", ", ": "
        )

    return PieceText.build(tree, pieces_of)


def parse_formula(data: object) -> Formula:
    if not isinstance(data, dict) or "op" not in data:
        raise ValueError('formula JSON must be an object with an "op"')
    op = data["op"]
    if op == "top":
        _shape(data, {"op"}, "top formula")
        return TOP
    if op == "neg":
        fields = _shape(data, {"op", "sub"}, "negation")
        return Neg(parse_formula(fields["sub"]))
    if op in ("and", "or"):
        fields = _shape(data, {"op", "subs"}, f"{op} formula")
        if not isinstance(fields["subs"], list):
            raise ValueError(f"{op} subs must be a list")
        subs = tuple(parse_formula(sub) for sub in fields["subs"])
        return And(subs) if op == "and" else Or(subs)
    if op == "dia":
        fields = _shape(data, {"op", "label", "sub"}, "diamond")
        if not isinstance(fields["label"], str):
            raise ValueError("diamond label must be a string")
        return Dia(fields["label"], parse_formula(fields["sub"]))
    if op == "rank_at_least":
        fields = _shape(data, {"op", "bound"}, "rank atom")
        return RankAtLeast(Ordinal.from_json(fields["bound"]))
    if op == "char_set":
        fields = _shape(data, {"op", "set"}, "set atom")
        return CharSet(EPSet.from_json(fields["set"]))
    raise ValueError(f"unknown formula op {op!r}")


def formula_to_json(phi: Formula) -> dict:
    """A formula's document, built over `formula_postorder`: shared parts share a dict."""
    docs: dict[int, dict] = {}
    for node in formula_postorder(phi):
        docs[id(node)] = _formula_json(node, docs)
    return docs[id(phi)]


def _formula_json(phi: Formula, docs: dict[int, dict]) -> dict:
    if isinstance(phi, Top):
        return {"op": "top"}
    if isinstance(phi, Neg):
        return {"op": "neg", "sub": docs[id(phi.sub)]}
    if isinstance(phi, And):
        return {"op": "and", "subs": [docs[id(s)] for s in phi.subs]}
    if isinstance(phi, Or):
        return {"op": "or", "subs": [docs[id(s)] for s in phi.subs]}
    if isinstance(phi, Dia):
        return {"op": "dia", "label": phi.label, "sub": docs[id(phi.sub)]}
    if isinstance(phi, RankAtLeast):
        return {"op": "rank_at_least", "bound": phi.bound.to_json()}
    if isinstance(phi, CharSet):
        return {"op": "char_set", "set": phi.param.to_json()}
    raise ValueError(f"not a formula value: {phi!r}")


def render_report(report: dict) -> str:
    """A verify report as one compact JSON line with sorted keys."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
