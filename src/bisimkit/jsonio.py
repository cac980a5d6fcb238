"""JSON codecs for the file formats the command line reads and writes.

One parse function and one serializer per compound value. Parsers check
shape and cross-references and raise ValueError naming the offending
field; deeper invariants stay with the value constructors, whose errors
already carry the culprit. Serializers emit deterministic structures:
declared orders are kept and everything unordered is sorted.

Multiplicity trees are parsed into a shared DAG: `parse_multitree` walks
the document with its own stack and builds one node per distinct subtree.
A multiplicity tree's JSON text can also be streamed:
`multitree_json_chunks` builds one table entry per distinct node, the
node's text when it is short and otherwise pieces around its children,
and yields the text in chunks, so the unfolding is never held whole.
"""

from __future__ import annotations

import json
from typing import Iterator

from .foundations import Count, EPSet, Ordinal, format_rational, parse_rational
from .lts import And, CharSet, Dia, Formula, Neg, Or, PointedLTS, RankAtLeast, Top, TOP
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
    postorder,
)
from .uniform import UniformStructure

__all__ = [
    "formula_to_json",
    "lts_to_json",
    "multitree_json_chunks",
    "multitree_json_text",
    "multitree_to_json",
    "nlmp_to_json",
    "parse_carrier",
    "parse_epset",
    "parse_formula",
    "parse_lts",
    "parse_multitree",
    "parse_nlmp",
    "parse_tree",
    "parse_uniform",
    "read_json_file",
    "tree_to_json",
    "uniform_to_json",
]


def read_json_file(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
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
        raise ValueError(f"{what} must be a natural number, got {data!r}")
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


def lts_to_json(lts: PointedLTS) -> dict:
    return {
        "labels": list(lts.labels),
        "states": list(lts.states),
        "root": lts.root,
        "edges": [list(edge) for edge in sorted(lts.edges)],
    }


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
    if isinstance(tree, ExplicitTree):
        nodes = sorted(tree.nodes, key=lambda u: (len(u), u))
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
    if isinstance(tree, Glue):
        return {"kind": "glue", "children": [tree_to_json(p) for p in tree.parts]}
    raise ValueError(f"not a tree value: {tree!r}")


def parse_multitree(data: object) -> MultiTree:
    """Nested objects keyed by label, parsed into a shared DAG.

    The walk keeps its own stack and builds children before parents. It
    hash-conses: entry lists equal in each label, child identity and
    count share one node, and so do JSON objects met twice, so repeated
    subtrees are built once and deep documents never recurse. The checks
    run in preorder, so the first error is the one a recursive descent
    would meet.
    """
    if not isinstance(data, dict):
        raise ValueError("multiplicity tree JSON must be an object keyed by label")
    consed: dict[tuple, MultiTree] = {}
    parsed: dict[int, MultiTree | None] = {id(data): None}  # None: still open
    counts: dict[int | str, Count] = {}
    # A frame: the object, its pending pairs, its entries and their keys so
    # far, and the label and count JSON its parent holds it under.
    stack = [(data, _multitree_pairs(data), [], [], None, None)]
    while True:
        frame = stack[-1]
        _, pairs, entries, keys, _, _ = frame
        for label, sub, raw in pairs:
            node = parsed.get(id(sub))
            if node is None:
                if not isinstance(sub, dict):
                    raise ValueError(
                        "multiplicity tree JSON must be an object keyed by label"
                    )
                if sub:
                    if id(sub) in parsed:
                        raise ValueError("multiplicity tree JSON contains itself")
                    parsed[id(sub)] = None
                    stack.append((sub, _multitree_pairs(sub), [], [], label, raw))
                    break
                node = LEAF
            count = _count(raw, counts)
            entries.append((label, node, count))
            keys.append((label, id(node), count))
        else:
            stack.pop()
            key = tuple(keys)
            node = consed.get(key)
            if node is None:
                node = consed[key] = MultiTree(tuple(entries))
            obj, _, _, _, label, raw = frame
            parsed[id(obj)] = node
            if not stack:
                return node
            count = _count(raw, counts)
            stack[-1][2].append((label, node, count))
            stack[-1][3].append((label, id(node), count))


def _multitree_pairs(data: dict) -> Iterator[tuple[str, object, object]]:
    """(label, subtree JSON, count JSON) per child, each checked when reached."""
    for label, children in data.items():
        if not isinstance(children, list):
            raise ValueError(f"children under {label!r} must be a list")
        for i, pair in enumerate(children):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(
                    f"child {i} under {label!r} must be [subtree, multiplicity]"
                )
            yield label, pair[0], pair[1]


def _count(raw: object, counts: dict[int | str, Count]) -> Count:
    """Count.from_json, reusing the Count of an int or string seen before."""
    if type(raw) is not int and type(raw) is not str:
        return Count.from_json(raw)
    count = counts.get(raw)
    if count is None:
        count = counts[raw] = Count.from_json(raw)
    return count


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

    The table is built before returning, one entry per distinct node:
    its text when that fits in PieceText.INLINE characters, joined once
    from its children's texts, or else constant pieces between them. The
    cost is the DAG size plus the output length, without recursion.
    """
    limit = PieceText.INLINE
    texts: dict[int, str | int] = {}
    table: dict[int, list] = {}
    for node in postorder(tree):
        children = node.children
        if not table or all(type(texts[id(sub)]) is str for _, sub, _ in children):
            grouped: dict[str, list[str]] = {}
            for label, sub, count in children:
                grouped.setdefault(label, []).append(
                    f"[{texts[id(sub)]}, {count.json_text()}]"
                )
            text = "{" + ", ".join(
                f"{json.dumps(label)}: [{', '.join(grouped[label])}]"
                for label in sorted(grouped)
            ) + "}"
            if len(text) <= limit:
                texts[id(node)] = text
                continue
        by_label: dict[str, list] = {}
        for label, sub, count in children:
            by_label.setdefault(label, []).append((texts[id(sub)], count))
        pieces: list = []
        text = "{"
        for n, label in enumerate(sorted(by_label)):
            text += (", " if n else "") + json.dumps(label) + ": ["
            for i, (child, count) in enumerate(by_label[label]):
                pieces += (text + (", [" if i else "["), child)
                text = f", {count.json_text()}]"
            text += "]"
        pieces.append(text + "}")
        table[id(node)] = pieces
        texts[id(node)] = id(node)
    return PieceText(table, texts[id(tree)])


def multitree_json_text(tree: MultiTree) -> str:
    """``json.dumps(multitree_to_json(tree), sort_keys=True)``, node by node."""
    return str(multitree_json_chunks(tree))


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
    if isinstance(phi, Top):
        return {"op": "top"}
    if isinstance(phi, Neg):
        return {"op": "neg", "sub": formula_to_json(phi.sub)}
    if isinstance(phi, And):
        return {"op": "and", "subs": [formula_to_json(s) for s in phi.subs]}
    if isinstance(phi, Or):
        return {"op": "or", "subs": [formula_to_json(s) for s in phi.subs]}
    if isinstance(phi, Dia):
        return {"op": "dia", "label": phi.label, "sub": formula_to_json(phi.sub)}
    if isinstance(phi, RankAtLeast):
        return {"op": "rank_at_least", "bound": phi.bound.to_json()}
    if isinstance(phi, CharSet):
        return {"op": "char_set", "set": phi.param.to_json()}
    raise ValueError(f"not a formula value: {phi!r}")


def parse_uniform(data: object) -> UniformStructure:
    fields = _shape(data, {"labels", "states", "rows"}, "uniform table")
    labels = _str_list(fields["labels"], "uniform labels")
    states = _str_list(fields["states"], "uniform states")
    if not isinstance(fields["rows"], dict):
        raise ValueError("uniform rows must be an object keyed by state")
    rows: dict = {}
    for state, by_label in fields["rows"].items():
        if state not in states:
            raise ValueError(f"rows list unknown state {state!r}")
        if not isinstance(by_label, dict):
            raise ValueError(f"rows[{state!r}] must be an object keyed by label")
        for label, row_list in by_label.items():
            if label not in labels:
                raise ValueError(f"rows[{state!r}] uses unknown label {label!r}")
            if not isinstance(row_list, list):
                raise ValueError(f"rows[{state!r}][{label!r}] must be a list of rows")
            parsed_rows = []
            for n, row in enumerate(row_list):
                where = f"row {n} at ({state!r},{label!r})"
                if not isinstance(row, list):
                    raise ValueError(f"{where} must be a list of entries")
                entries = []
                for entry in row:
                    if not isinstance(entry, list) or len(entry) != 3:
                        raise ValueError(f"{where} entries must be [k, mass, target]")
                    k, mass_text, target = entry
                    if not isinstance(target, str):
                        raise ValueError(f"{where} target must be a state name, got {target!r}")
                    entries.append(
                        (_natural(k, f"{where} index"), parse_rational(mass_text), target)
                    )
                parsed_rows.append(tuple(entries))
            rows[(state, label)] = tuple(parsed_rows)
    return UniformStructure(labels, states, rows)


def uniform_to_json(table: UniformStructure) -> dict:
    rows: dict = {}
    for state in table.states:
        per_label: dict = {}
        for label in table.labels:
            if (state, label) not in table.rows:
                continue
            per_label[label] = [
                [[k, format_rational(mass), target] for k, mass, target in row]
                for row in table.rows[(state, label)]
            ]
        if per_label:
            rows[state] = per_label
    return {
        "labels": list(table.labels),
        "states": list(table.states),
        "rows": rows,
    }
