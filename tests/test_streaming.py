"""Streamed texts: canon and tree chunks from per-node piece tables, the
report lines of the one report writer, and e0 reduce's report and
export-dot's symbolic tree from the truncation's levels.

The oracles are the whole-string builders the chunked writers replaced:
one string per distinct node, joined from its children's strings, and
json.dumps of e0 reduce's whole report. The streamed text must stay
byte-identical to them at every inline limit and chunk size, so the tests
also run with both lowered until most nodes become pieces.
"""

import contextlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from bisimkit.cli import _report_pieces, _string_chunks, main
from bisimkit.expansion import omega_expand
from bisimkit.foundations import Count, EPSet, OMEGA_COUNT
from bisimkit.gen import random_epset, random_multitree
from bisimkit.jsonio import multitree_json_chunks, parse_lts
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
    text_ok = [str(multitree_json_chunks(tree)) == oracle_json_text(tree) for tree in INPUTS]
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


@pytest.mark.parametrize("limit", [0, 5, PieceText.INLINE])
def test_long_siblings_are_ordered_without_reading_them_whole(monkeypatch, limit):
    # Each 40-level sibling unfolds to about 2**40 nodes. The two 40-level
    # DAGs differ only in the bottom count, the one-node tree is a whole
    # string against entries, and the 39-level DAG is one level short: an
    # entry read whole here would never finish.
    monkeypatch.setattr(PieceText, "INLINE", limit)
    tree = mt(
        ("a", doubling_dag(40), Count(1)),
        ("a", doubling_dag(40, OMEGA_COUNT), Count(1)),
        ("a", LEAF, Count(1)),
        ("a", doubling_dag(39), Count(1)),
    )
    start = time.perf_counter()
    first = next(iter(canon_chunks(tree)))
    assert time.perf_counter() - start < 1
    assert first.startswith('{"a":[[' * 40)
    assert 0 < len(first) <= PieceText.CHUNK


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


# Spawns each CLI call from one small helper, so that all children start
# from the helper's small high-water mark rather than the test runner's, and
# reports each child's exit code and ru_maxrss (KiB on Linux). The helper
# reads a JSON list of [arguments, stdout path] pairs.
RSS_HELPER = """
import json, os, subprocess, sys
results = []
for args, out in json.loads(sys.argv[1]):
    with open(out, "w") as handle:
        child = subprocess.Popen(
            [sys.executable, "-m", "bisimkit.cli", *args],
            stdout=handle, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(child.pid, 0)
    results.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss])
print(json.dumps(results))
"""


def peak_rss(*calls: tuple[list[str], object]) -> list[list[int]]:
    """[exit code, ru_maxrss in KiB] of each CLI call, spawned by RSS_HELPER."""
    plan = json.dumps([[args, str(out)] for args, out in calls])
    proc = subprocess.run(
        [sys.executable, "-c", RSS_HELPER, plan],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_expand_peak_memory_does_not_follow_the_output(tmp_path):
    # The 20-rung report is 75 MB; printing it whole took ~300 MiB more
    # than the 2-rung one.
    big = write(tmp_path, "big.json", ladder_lts(20))
    small = write(tmp_path, "small.json", ladder_lts(2))
    big_out, small_out = tmp_path / "big.out", tmp_path / "small.out"
    (big_exit, big_rss), (small_exit, small_rss) = peak_rss(
        (["expand", big], big_out), (["expand", small], small_out)
    )
    assert (big_exit, small_exit) == (0, 0)
    assert big_out.stat().st_size > 70_000_000
    with open(big_out, "rb") as handle:
        handle.seek(-20, os.SEEK_END)
        assert handle.read().endswith(b', "verb": "expand"}\n')
    assert (big_rss - small_rss) / 1024 < 8


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_iso_peak_memory_follows_the_distinct_subtrees(tmp_path):
    # The 14-rung tree's text is 0.57 MB with 28 distinct subtrees;
    # decoding it whole before sharing took ~11 MiB more than the small pair.
    lts = parse_lts(ladder_lts(14))
    big = tmp_path / "big.json"
    big.write_text(str(multitree_json_chunks(omega_expand(lts, lts.root))))
    small = write(tmp_path, "small.json", {"a": [[{}, 1]]})
    big_out, small_out = tmp_path / "big.out", tmp_path / "small.out"
    (big_exit, big_rss), (small_exit, small_rss) = peak_rss(
        (["iso", str(big), str(big)], big_out), (["iso", small, small], small_out)
    )
    assert (big_exit, small_exit) == (0, 0)
    assert big.stat().st_size > 500_000
    assert big_out.read_text() == '{"isomorphic": true, "verb": "iso"}\n'
    assert (big_rss - small_rss) / 1024 < 4


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_iso_witness_peak_memory_follows_plain_iso(tmp_path):
    # Each of the 16-rung tree's canonical strings is 1.1 MB; building the
    # two whole took ~11 MiB more than plain iso on the same file.
    lts = parse_lts(ladder_lts(16))
    tree = omega_expand(lts, lts.root)
    path = tmp_path / "tree.json"
    path.write_text(str(multitree_json_chunks(tree)))
    plain_out, witness_out = tmp_path / "plain.out", tmp_path / "witness.out"
    (plain_exit, plain_rss), (witness_exit, witness_rss) = peak_rss(
        (["iso", str(path), str(path)], plain_out),
        (["iso", str(path), str(path), "--witness"], witness_out),
    )
    assert (plain_exit, witness_exit) == (0, 0)
    form = json.dumps(oracle_canon(tree))
    assert witness_out.read_text() == (
        f'{{"isomorphic": true, "left": {form}, "right": {form}, "verb": "iso"}}\n'
    )
    assert (witness_rss - plain_rss) / 1024 < 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
@pytest.mark.parametrize("flags", [[], ["--kind", "multitree"]])
def test_export_dot_of_a_multitree_peak_memory_follows_the_distinct_subtrees(
    tmp_path, flags
):
    # The 14-rung tree's DOT text is 1.5 MB; decoding the document whole
    # before building the tree took ~11 MiB more than a one-entry tree.
    lts = parse_lts(ladder_lts(14))
    big = tmp_path / "big.json"
    big.write_text(str(multitree_json_chunks(omega_expand(lts, lts.root))))
    small = write(tmp_path, "small.json", {"a": [[{}, 1]]})
    big_out, small_out = tmp_path / "big.dot", tmp_path / "small.dot"
    (big_exit, big_rss), (small_exit, small_rss) = peak_rss(
        (["export-dot", str(big), *flags], big_out),
        (["export-dot", small, *flags], small_out),
    )
    assert (big_exit, small_exit) == (0, 0)
    assert big_out.stat().st_size == 1_514_855
    assert small_out.read_text() == (
        'digraph multitree {\n  "n0";\n  "n1";\n  "n0" -> "n1" [label="a*1"];\n}\n'
    )
    assert (big_rss - small_rss) / 1024 < 4


# --- the report writer ----------------------------------------------------------

# Quotes, backslashes, control characters, non-ASCII characters, a non-BMP
# one, which JSON writes as a surrogate pair, and a lone surrogate.
ESCAPED = ('', 'q"', "\\", "\x00\x1f\n\t\x7f", "é\u2028", "\U0001f600", "\ud800")


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ESCAPED + ("a", "verb")) for _ in range(rng.randint(0, 4)))


def random_json(rng: random.Random, depth: int) -> object:
    kind = rng.randrange(4 if depth else 2)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, -3, 2**70, 1.5, True, False, None])
    if kind == 2:
        return [random_json(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return {random_text(rng): random_json(rng, depth - 1) for _ in range(rng.randint(0, 3))}


def test_the_report_writer_lays_out_json_dumps_sorted():
    rng = random.Random(28)
    checked = 0
    for _ in range(300):
        report = {random_text(rng): random_json(rng, 3) for _ in range(rng.randint(0, 4))}
        expected = json.dumps(report, sort_keys=True)
        assert "".join(_report_pieces(report)) == expected
        for key, value in report.items():
            if isinstance(value, str):
                for cut in range(len(value) + 1):
                    streamed = dict(report)
                    streamed[key] = _string_chunks((value[:cut], value[cut:]))
                    assert "".join(_report_pieces(streamed)) == expected
                    checked += 1
            else:
                streamed = dict(report)
                streamed[key] = lambda text=json.dumps(value, sort_keys=True): iter(text)
                assert "".join(_report_pieces(streamed)) == expected
    assert checked > 300


# --- e0 reduce ------------------------------------------------------------------

DENSE = {"prefix": "10110", "period": "01"}


def gadget_nodes(x: EPSet, depth: int, width: int) -> list[list[int]]:
    """The gadget's truncation from its definition: child n of the root codes
    x with the binary digits of n flipped, one chain of length m hanging
    under it per member m below the width."""
    nodes = {()}
    if depth >= 1:
        for n in range(width):
            nodes.add((n,))
            if depth >= 2:
                for m in range(width):
                    if x.member(m) != bool(n >> m & 1):
                        for j in range(min(m, depth - 2) + 1):
                            nodes.add((n, m) + (0,) * j)
    return [list(u) for u in sorted(nodes, key=lambda u: (len(u), u))]


def oracle_e0_reduce(data: dict, depth, width, text: bool) -> tuple[str, str]:
    """Stdout and stderr of the whole-string e0 reduce."""
    x = EPSet.from_json(data)
    if depth is None and width is None:
        tree = {"kind": "B", "set": x.to_json()}
    else:
        cut = gadget_nodes(x, 6 if depth is None else depth, 6 if width is None else width)
        tree = {"kind": "explicit", "nodes": cut}
    # Tree rank omega + 1, or omega + 2 when x is infinite.
    rank = [[1, 1], [0, 1 if x.is_finite else 2]]
    report = {"verb": "e0-reduce", "set": str(x), "tree": tree, "rank": rank}
    summary = f"gadget tree for {x}\n"
    if text:
        return summary, ""
    return json.dumps(report, sort_keys=True) + "\n", summary


def reduce_args(path: str, depth, width, text: bool) -> list[str]:
    args = ["e0", "reduce", path]
    args += [] if depth is None else ["--depth", str(depth)]
    args += [] if width is None else ["--width", str(width)]
    return args + (["--format", "text"] if text else [])


def reduce_sets() -> list[dict]:
    rng = random.Random(913)
    return [DENSE, {"prefix": "", "period": "0"}, {"prefix": "011", "period": "0"}] + [
        random_epset(rng, 5, 3).to_json() for _ in range(5)
    ]


def test_e0_reduce_streams_the_whole_string_report(tmp_path, capsys):
    cuts = [(d, w) for d in (0, 1, 2, 5, 8) for w in (0, 1, 3, 32)]
    cuts += [(3, None), (None, 4), (None, None)]
    for i, data in enumerate(reduce_sets()):
        path = write(tmp_path, f"set{i}.json", data)
        for depth, width in cuts:
            for text in (False, True):
                assert main(reduce_args(path, depth, width, text)) == 0
                want = oracle_e0_reduce(data, depth, width, text)
                assert capsys.readouterr() == want, (data, depth, width, text)


class Sink:
    """A stream that keeps each write apart."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> None:
        self.writes.append(text)


@pytest.mark.parametrize("size", [1, 7, 64, 1000])
def test_e0_reduce_chunks_cross_their_bounds(tmp_path, monkeypatch, capsys, size):
    monkeypatch.setattr(PieceText, "CHUNK", size)
    long_prefix = {"prefix": "10" * 300 + "1", "period": "01"}  # a long "set" field
    for name, data in (("dense", DENSE), ("long", long_prefix)):
        path = write(tmp_path, f"{name}.json", data)
        sink = Sink()
        with contextlib.redirect_stdout(sink):
            assert main(reduce_args(path, 5, 9, False)) == 0
        want, _ = oracle_e0_reduce(data, 5, 9, False)
        *chunks, end = sink.writes
        assert ("".join(chunks), end) == (want[:-1], "\n")
        assert all(0 < len(chunk) <= size for chunk in chunks)
        assert len(chunks) >= -(-len(want[:-1]) // size) > 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags", [["--depth", "-1"], ["--width", "-1"], ["--depth", "-3", "--width", "2"]]
)
@pytest.mark.parametrize("text", [False, True])
def test_e0_reduce_bad_cut_prints_nothing(tmp_path, capsys, flags, text):
    path = write(tmp_path, "dense.json", DENSE)
    args = ["e0", "reduce", path, *flags] + (["--format", "text"] if text else [])
    assert main(args) == 2
    assert capsys.readouterr() == ("", "error: depth and width must be naturals\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_e0_reduce_peak_memory_does_not_follow_the_output(tmp_path):
    # The 12-by-400 report is 22.9 MB; printing it whole took ~240 MiB more
    # than the 2-by-2 one.
    path = write(tmp_path, "dense.json", DENSE)
    big_out, small_out = tmp_path / "big.out", tmp_path / "small.out"
    (big_exit, big_rss), (small_exit, small_rss) = peak_rss(
        (reduce_args(path, 12, 400, False), big_out),
        (reduce_args(path, 2, 2, False), small_out),
    )
    assert (big_exit, small_exit) == (0, 0)
    # The length json.dumps gives this report, one line.
    assert big_out.stat().st_size == 22_895_801
    head = b'{"rank": [[1, 1], [0, 2]], "set": "10110(01)*", "tree": {"kind": "explicit"'
    with open(big_out, "rb") as handle:
        assert handle.read(len(head)) == head
        handle.seek(-40, os.SEEK_END)
        assert handle.read().endswith(b'0, 0, 0, 0]]}, "verb": "e0-reduce"}\n')
    assert (big_rss - small_rss) / 1024 < 8


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_export_dot_of_a_symbolic_tree_peak_memory_does_not_follow_the_output(tmp_path):
    # The 12-by-120 DOT text is 5.1 MB; building it whole took ~38 MiB more
    # than the 2-by-2 one.
    path = write(tmp_path, "dense.json", {"kind": "B", "set": DENSE})
    big_out, small_out = tmp_path / "big.dot", tmp_path / "small.dot"
    (big_exit, big_rss), (small_exit, small_rss) = peak_rss(
        (["export-dot", path, "--depth", "12", "--width", "120"], big_out),
        (["export-dot", path, "--depth", "2", "--width", "2"], small_out),
    )
    assert (big_exit, small_exit) == (0, 0)
    assert big_out.stat().st_size == 5_058_059
    with open(big_out, "rb") as handle:
        assert handle.read(22) == b'digraph tree {\n  "e";\n'
        handle.seek(-40, os.SEEK_END)
        assert handle.read().endswith(b' -> "e.119.118' + b".0" * 10 + b'";\n}\n')
    assert (big_rss - small_rss) / 1024 < 8
