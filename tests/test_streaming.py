"""Streamed texts: canon and tree chunks from per-node piece tables.

The oracles are the whole-string builders the chunked writers replaced:
one string per distinct node, joined from its children's strings. The
streamed text must stay byte-identical to them at every inline limit, so
the tests also run with the limit lowered until most nodes become pieces.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from bisimkit.cli import main
from bisimkit.expansion import omega_expand
from bisimkit.foundations import Count, OMEGA_COUNT
from bisimkit.gen import random_multitree
from bisimkit.jsonio import multitree_json_chunks, multitree_json_text, parse_lts
from bisimkit.treeiso import _type_counts, canon, canon_chunks
from bisimkit.trees import LEAF, MultiTree, PieceText, postorder

LABELS = ("a", 'q"\\', "é", "new\nline", "\U0001f600")


# --- oracles: the whole-string builders ---------------------------------------


def oracle_canon(tree: MultiTree) -> str:
    forms: dict[int, str] = {}
    for node in postorder(tree):
        totals = _type_counts(node, forms)
        by_label: dict[str, list[str]] = {}
        for label, child in sorted(totals):
            count = json.dumps(totals[label, child].to_json())
            by_label.setdefault(label, []).append(f"[{child},{count}]")
        forms[id(node)] = "{" + ",".join(
            f"{json.dumps(label)}:[{','.join(items)}]"
            for label, items in by_label.items()
        ) + "}"
    return forms[id(tree)]


def oracle_json_text(tree: MultiTree) -> str:
    texts: dict[int, str] = {}
    for node in postorder(tree):
        grouped: dict[str, list[str]] = {}
        for label, sub, count in node.children:
            grouped.setdefault(label, []).append(
                f"[{texts[id(sub)]}, {json.dumps(count.to_json())}]"
            )
        texts[id(node)] = "{" + ", ".join(
            f"{json.dumps(label)}: [{', '.join(grouped[label])}]"
            for label in sorted(grouped)
        ) + "}"
    return texts[id(tree)]


# --- inputs -------------------------------------------------------------------


def mt(*entries) -> MultiTree:
    return MultiTree(tuple(entries))


def doubling_dag(levels: int, bottom: Count = Count(1)) -> MultiTree:
    tree = mt(("a", LEAF, bottom))
    for _ in range(levels - 1):
        tree = mt(("a", tree, Count(1)), ("b", tree, Count(2)))
    return tree


def deep_chain(depth: int) -> MultiTree:
    tree = LEAF
    for _ in range(depth):
        tree = mt(("a", tree, OMEGA_COUNT))
    return tree


def shared_dags(rng: random.Random, layers: int, width: int) -> list[MultiTree]:
    """Layers whose nodes reuse lower ones, often twice under one label."""
    counts = (Count(1), Count(3), OMEGA_COUNT)
    pool = [LEAF]
    for _ in range(layers):
        pool += [
            mt(*(
                (rng.choice(LABELS[:3]), rng.choice(pool[-2 * width :]), rng.choice(counts))
                for _ in range(rng.randint(1, 4))
            ))
            for _ in range(width)
        ]
    return pool[-width:]


def streamed_inputs() -> list[MultiTree]:
    rng = random.Random(907)
    big, twin, other = doubling_dag(7), doubling_dag(7, OMEGA_COUNT), doubling_dag(8)
    small = mt(("a", LEAF, Count(1)))
    return [
        LEAF,
        *(random_multitree(rng, 4, LABELS, 3) for _ in range(80)),
        *shared_dags(rng, 9, 4),
        # Large same-label siblings equal down to the bottom, and unequal early.
        mt(("a", big, Count(1)), ("a", twin, Count(2)), ("b", other, OMEGA_COUNT)),
        mt(("a", twin, Count(1)), ("a", big, Count(1)), ("a", other, Count(1))),
        # Small siblings against large ones under the same label.
        mt(("a", big, Count(1)), ("a", small, Count(1)), ("a", LEAF, OMEGA_COUNT)),
        mt(("é", small, Count(2)), ("é", other, Count(1)), ("a", big, Count(1))),
        # Isomorphic large siblings merge their counts.
        mt(("a", big, Count(1)), ("a", doubling_dag(7), Count(2))),
        doubling_dag(14),
        deep_chain(3000),
    ]


INPUTS = streamed_inputs()


# --- tests --------------------------------------------------------------------


@pytest.mark.parametrize("limit", [0, 5, 40, PieceText.INLINE])
def test_streamed_texts_match_the_whole_string_builders(monkeypatch, limit):
    monkeypatch.setattr(PieceText, "INLINE", limit)
    canon_ok = [canon(tree) == oracle_canon(tree) for tree in INPUTS]
    text_ok = [multitree_json_text(tree) == oracle_json_text(tree) for tree in INPUTS]
    assert canon_ok == [True] * len(INPUTS)
    assert text_ok == [True] * len(INPUTS)


@pytest.mark.parametrize("limit, size", [(0, 1), (5, 7), (40, 100)])
def test_chunks_are_bounded_and_repeatable(monkeypatch, limit, size):
    monkeypatch.setattr(PieceText, "INLINE", limit)
    monkeypatch.setattr(PieceText, "CHUNK", size)
    for tree in INPUTS[-4:] + INPUTS[:20]:
        for chunks, oracle in (
            (canon_chunks(tree), oracle_canon),
            (multitree_json_chunks(tree), oracle_json_text),
        ):
            parts = list(chunks)
            assert all(0 < len(part) <= size for part in parts)
            assert "".join(parts) == oracle(tree) == "".join(chunks)


def test_a_label_longer_than_a_chunk_is_split(monkeypatch):
    monkeypatch.setattr(PieceText, "INLINE", 0)
    monkeypatch.setattr(PieceText, "CHUNK", 64)
    tree = mt(("x" * 1000, doubling_dag(3), Count(1)))
    parts = list(canon_chunks(tree))
    assert max(map(len, parts)) == 64
    assert "".join(parts) == oracle_canon(tree)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def ladder_lts(rungs: int) -> dict:
    """Two rails whose unfolding doubles per rung."""
    states = [f"{rail}{i}" for rail in "lr" for i in range(rungs + 1)]
    edges = []
    for i in range(rungs):
        l, r, nl, nr = f"l{i}", f"r{i}", f"l{i + 1}", f"r{i + 1}"
        edges += [[l, "a", nl], [l, "b", nr], [r, "a", nl], [r, "a", nr]]
    return {"labels": ["a", "b"], "states": states, "root": "l0", "edges": edges}


def braided_lts(layers: int) -> dict:
    """Every node steps twice under one label, to two distinct lower nodes."""
    labels = ['q"\\', "é", "c"]
    names = [[f"x{i}.{j}" for j in range(3)] for i in range(layers + 1)]
    edges = [[names[layers][1], "c", names[layers][0]]]
    edges.append([names[layers][2], "c", names[layers][1]])
    for i in range(layers):
        for j in range(3):
            edges.append([names[i][j], labels[0], names[i + 1][j]])
            edges.append([names[i][j], labels[0], names[i + 1][(j + 1) % 3]])
            if j == 0:
                edges.append([names[i][j], labels[1], names[i + 1][2]])
    states = [name for row in names for name in row]
    return {"labels": labels, "states": states, "root": names[0][0], "edges": edges}


@pytest.mark.parametrize("limit", [0, 40, PieceText.INLINE])
def test_expand_streams_the_report_of_the_whole_string_builders(
    tmp_path, monkeypatch, capsys, limit
):
    monkeypatch.setattr(PieceText, "INLINE", limit)
    for name, data in (("ladder", ladder_lts(9)), ("braid", braided_lts(9))):
        path = write(tmp_path, f"{name}.json", data)
        lts = parse_lts(data)
        tree = omega_expand(lts, lts.root)
        form = oracle_canon(tree)
        assert main(["expand", path]) == 0
        out, err = capsys.readouterr()
        assert out == (
            f'{{"canon": {json.dumps(form)}, "state": {json.dumps(lts.root)}, '
            f'"tree": {oracle_json_text(tree)}, "verb": "expand"}}\n'
        )
        assert err == f"expansion of {lts.root} canonicalizes to {form}\n"
        assert main(["expand", path, "--format", "text"]) == 0
        assert capsys.readouterr() == (err, "")


def test_expand_failing_after_parsing_prints_nothing(tmp_path, monkeypatch, capsys):
    loop = write(tmp_path, "loop.json", ladder_lts(2) | {"edges": [["l0", "a", "l0"]]})
    assert main(["expand", loop]) == 2
    out, err = capsys.readouterr()
    assert (out, err.startswith("error: state 'l0' reaches a cycle")) == ("", True)

    def failing(tree):
        raise ValueError("table too large")

    monkeypatch.setattr("bisimkit.cli.multitree_json_chunks", failing)
    assert main(["expand", write(tmp_path, "ladder.json", ladder_lts(3))]) == 2
    assert capsys.readouterr() == ("", "error: table too large\n")


# Spawns each expand from one small helper, so that both children start from
# the helper's small high-water mark rather than the test runner's, and
# reports each child's exit code and ru_maxrss (KiB on Linux).
RSS_HELPER = """
import json, os, subprocess, sys
results = []
for path, out in zip(sys.argv[1::2], sys.argv[2::2]):
    with open(out, "w") as handle:
        child = subprocess.Popen(
            [sys.executable, "-m", "bisimkit.cli", "expand", path],
            stdout=handle, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(child.pid, 0)
    results.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss])
print(json.dumps(results))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_expand_peak_memory_does_not_follow_the_output(tmp_path):
    # The 20-rung report is 75 MB; printing it whole took ~300 MiB more
    # than the 2-rung one.
    big = write(tmp_path, "big.json", ladder_lts(20))
    small = write(tmp_path, "small.json", ladder_lts(2))
    big_out, small_out = tmp_path / "big.out", tmp_path / "small.out"
    proc = subprocess.run(
        [sys.executable, "-c", RSS_HELPER, big, str(big_out), small, str(small_out)],
        capture_output=True,
        text=True,
        check=True,
    )
    (big_exit, big_rss), (small_exit, small_rss) = json.loads(proc.stdout)
    assert (big_exit, small_exit) == (0, 0)
    assert big_out.stat().st_size > 70_000_000
    with open(big_out, "rb") as handle:
        handle.seek(-20, os.SEEK_END)
        assert handle.read().endswith(b', "verb": "expand"}\n')
    assert (big_rss - small_rss) / 1024 < 8
