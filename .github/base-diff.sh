#!/usr/bin/env bash
# Compare every verb's output at two source trees, byte for byte.
#
# Usage: .github/base-diff.sh BASE_SRC HEAD_SRC
#
# BASE_SRC and HEAD_SRC are the src directories of two checkouts, say of a
# pull request's base commit and of its head. The script runs verify and
# the other verbs of the CLI on the same inputs under each, and exits
# non-zero at the first difference in stdout, in stderr (where the
# commands capture it) or in the exit code. It works in a fresh temporary
# directory (RUNNER_TEMP when set), so it leaves nothing behind in the
# checkout.
set -e
if [ "$#" -ne 2 ]; then
  echo "usage: $0 BASE_SRC HEAD_SRC" >&2
  exit 2
fi
base_src="$(cd "$1" && pwd)"
head_src="$(cd "$2" && pwd)"
temp="${RUNNER_TEMP:-$(mktemp -d)}"
cd "$temp"
PYTHONPATH="$base_src" python -c 'import bisimkit, sys; assert bisimkit.__file__.startswith(sys.argv[1]), bisimkit.__file__' "$base_src"
PYTHONPATH="$base_src" python -m bisimkit.cli verify --suite all --seed 7 > verify-base.json
PYTHONPATH="$head_src" python -m bisimkit.cli verify --suite all --seed 7 > verify-head.json
diff verify-base.json verify-head.json
# The suites that lift the most measures, and every seed the
# benchmark sends at --seed 1 to the suites that refine partitions.
for args in \
  "greatest-bisim --seed 917935" \
  "greatest-bisim --seed 983746" \
  "greatest-bisim --seed 516359" \
  "greatest-bisim --seed 1040582" \
  "greatest-bisim --seed 998746" \
  "sum-process --seed 465973" \
  "sum-process --seed 843740" \
  "sum-process --seed 390867" \
  "sum-process --seed 479372" \
  "sum-process --seed 218935" \
  "sum-process --seed 405009" \
  "sum-process --seed 692467" \
  "sum-process --seed 879986" \
  "sum-process --seed 207661" \
  "sum-process --seed 43041" \
  "substructure-descent --seed 406078" \
  "substructure-descent --seed 433528" \
  "substructure-descent --seed 106895" \
  "substructure-descent --seed 131551" \
  "substructure-descent --seed 101366" \
  "uniform-search --seed 400644" \
  "uniform-search --seed 355924" \
  "uniform-search --seed 755818" \
  "uniform-search --seed 844087" \
  "uniform-search --seed 868918" \
  "uniform-search --seed 284649" \
  "uniform-search --seed 254169" \
  "uniform-search --seed 325829" \
  "uniform-search --seed 78895" \
  "uniform-search --seed 663422" \
  "measure-lifting --seed 649346" \
  "measure-lifting --seed 885000" \
  "measure-lifting --seed 659811" \
  "tree-iso --seed 148662" \
  "tree-iso --seed 712082" \
  "expansion-canon --seed 451659" \
  "set-gadgets --seed 520945" \
  "set-gadgets --seed 754768" \
  "set-gadgets --seed 986518" \
  "umlts-pipeline --seed 920913"; do
  PYTHONPATH="$base_src" python -m bisimkit.cli verify --suite $args > verify-base.json
  PYTHONPATH="$head_src" python -m bisimkit.cli verify --suite $args > verify-head.json
  diff verify-base.json verify-head.json
done
inputs="$temp/inputs"
mkdir -p "$inputs"
python -c '
import json, sys
def save(name, data):
    with open(f"{sys.argv[1]}/{name}.json", "w", encoding="utf-8") as handle:
        json.dump(data, handle)
# A 12-rung ladder: two rails whose unfolding doubles per rung.
states = [f"{rail}{i}" for rail in "lr" for i in range(13)]
edges = []
for i in range(12):
    l, r, nl, nr = f"l{i}", f"r{i}", f"l{i + 1}", f"r{i + 1}"
    edges += [[l, "a", nl], [l, "b", nr], [r, "a", nl], [r, "a", nr]]
save("ladder", {"labels": ["a", "b"], "states": states, "root": "l0", "edges": edges})
# Three nodes per layer, each stepping twice under one label to two
# distinct lower nodes, so same-label siblings unfold to large,
# different trees.
layers = 12
names = [[f"x{i}.{j}" for j in range(3)] for i in range(layers + 1)]
edges = [[names[layers][1], "c", names[layers][0]], [names[layers][2], "c", names[layers][1]]]
for i in range(layers):
    for j in range(3):
        edges += [[names[i][j], "q\"\u00e9", names[i + 1][k % 3]] for k in (j, j + 1)]
        if j == 0:
            edges.append([names[i][j], "b", names[i + 1][2]])
states = [name for row in names for name in row]
save("braid", {"labels": ["q\"\u00e9", "b", "c"], "states": states, "root": "x0.0", "edges": edges})
# A 24-state shift graph: q_i steps to q_2i and q_2i+1 mod 24.
q = [f"q{i}" for i in range(24)]
edges = [[q[i], a, q[(2 * i + k) % 24]] for i in range(24) for k, a in enumerate("ab")]
save("shift", {"labels": ["a", "b"], "states": q, "root": "q0", "edges": edges})
# Two isomorphic multitrees: children permuted, one count split.
inner = {"b": [[{}, "omega"]]}
save("left", {"a": [[{}, 2], [inner, 1]], "q\"t\u00e9": [[inner, 3]]})
save("right", {"q\"t\u00e9": [[inner, 3]], "a": [[inner, 1], [{}, 1], [{}, 1]]})
# A 6-ring and a 3-ring, bisimilar: b steps half way round.
six = [f"s{i}" for i in range(6)]
edges = [[six[i], a, six[(i + k) % 6]] for i in range(6) for a, k in (("a", 1), ("b", 3))]
save("ring6", {"labels": ["a", "b"], "states": six, "root": "s0", "edges": edges})
three = [f"t{i}" for i in range(3)]
edges = [[three[i], a, three[(i + k) % 3]] for i in range(3) for a, k in (("a", 1), ("b", 0))]
save("ring3", {"labels": ["a", "b"], "states": three, "root": "t0", "edges": edges})
# Two NLMPs: p matches u, q matches v and w, x only steps to zero.
half = {"a": [{"p": "1/2", "q": "1/2"}]}
save("nlmp-left", {"labels": ["a"], "states": ["p", "q"], "trans": {"p": half, "q": {"a": [{"q": "1"}]}}})
half = {"a": [{"v": "1/2", "w": "1/2"}]}
trans = {"u": half, "v": half, "w": {"a": [{"w": "1"}]}, "x": {"a": [{}]}}
save("nlmp-right", {"labels": ["a"], "states": ["u", "v", "w", "x"], "trans": trans})
# A closed carrier, and one that the measure at u leaves.
save("carrier", {"carrier": ["v", "w"]})
save("open-carrier", {"carrier": ["u"]})
# x and y differ in finitely many places; z differs from both forever.
save("x", {"prefix": "1", "period": "01"})
save("y", {"prefix": "0110", "period": "10"})
save("z", {"prefix": "", "period": "011"})
save("gadget", {"kind": "B", "set": {"prefix": "1", "period": "01"}})
save("gadget-finite", {"kind": "B", "set": {"prefix": "0101", "period": "0"}})
save("explicit", {"kind": "explicit", "nodes": [[], [0], [1], [0, 0], [0, 3]]})
# An NLMP whose first measure is the zero one, which also reads as an
# empty multiplicity tree: the decoder leaves it undecided until the
# second measure closes, and export-dot draws the NLMP.
zero_first = {"p": {"a": [{}, {"q": "1/2"}]}, "q": {"a": [{"p": "1"}]}}
save("nlmp-zero-first", {"labels": ["a"], "states": ["p", "q"], "trans": zero_first})
save("glue", {"kind": "glue", "children": [
    {"kind": "chain", "k": 0},
    {"kind": "A", "set": {"prefix": "001", "period": "0"}},
    {"kind": "glue", "children": [{"kind": "chain", "k": 2}]},
]})
# Twin rails: the root steps under a to two 14-level doubling rails
# that differ only in their last label, and to a one-step state.
states = ["root", "one", "end"]
edges = [["root", "a", "one"], ["one", "a", "end"]]
for rail, last in (("p", "c"), ("q", "d")):
    states += [f"{rail}{i}" for i in range(15)]
    edges.append(["root", "a", f"{rail}0"])
    edges += [[f"{rail}{i}", a, f"{rail}{i + 1}"] for i in range(14) for a in "ab"]
    edges.append([f"{rail}14", last, "end"])
save("twin-rails", {"labels": ["a", "b", "c", "d"], "states": states, "root": "root", "edges": edges})
# Half the positions past the prefix are members: a dense gadget.
save("dense", {"prefix": "10110", "period": "01"})
# Two isomorphic multitrees repeating one subtree in many places.
rep = {"a": [[{}, 2], [{"b": [[{}, "omega"]]}, 1]]}
save("rep-left", {"a": [[rep, 1], [rep, 2]], "b": [[{"c": [[rep, 3]]}, 1], [rep, "omega"]]})
save("rep-right", {"b": [[rep, "omega"], [{"c": [[rep, 1], [rep, 2]]}, 1]], "a": [[rep, 3]]})
top = {"op": "top"}
save("phi", {"op": "and", "subs": [
    {"op": "dia", "label": "a", "sub": top},
    {"op": "rank_at_least", "bound": [[0, 3]]},
    {"op": "neg", "sub": {"op": "dia", "label": "b", "sub": {"op": "dia", "label": "b", "sub": top}}},
]})
# Some child has rank at least omega, or at least 2.
save("suc-omega", {"op": "dia", "label": "suc", "sub": {"op": "rank_at_least", "bound": [[1, 1]]}})
save("suc-two", {"op": "dia", "label": "suc", "sub": {"op": "rank_at_least", "bound": [[0, 2]]}})
leaf = {"op": "neg", "sub": {"op": "dia", "label": "suc", "sub": top}}
save("psi", {"op": "dia", "label": "suc", "sub": {"op": "and", "subs": [
    {"op": "dia", "label": "suc", "sub": leaf},
    {"op": "neg", "sub": {"op": "dia", "label": "suc", "sub": {"op": "dia", "label": "suc", "sub": leaf}}},
]}})
# Process formulas through every operator that has process semantics,
# where they hold and where they fail.
rank2 = {"op": "rank_at_least", "bound": [[0, 2]]}
save("lts-mix", {"op": "or", "subs": [
    {"op": "and", "subs": [
        {"op": "dia", "label": "a", "sub": {"op": "neg", "sub": {"op": "dia", "label": "c", "sub": top}}},
        {"op": "neg", "sub": rank2},
    ]},
    {"op": "dia", "label": "b", "sub": top},
]})
save("lts-omega", {"op": "dia", "label": "b", "sub": {"op": "rank_at_least", "bound": [[1, 1]]}})
save("lts-steps", {"op": "and", "subs": [
    {"op": "or", "subs": [{"op": "dia", "label": "c", "sub": top}, {"op": "dia", "label": "b", "sub": top}]},
    {"op": "neg", "sub": {"op": "dia", "label": "c", "sub": {"op": "dia", "label": "c", "sub": top}}},
    {"op": "neg", "sub": rank2},
]})
save("lts-suc", {"op": "and", "subs": [
    {"op": "dia", "label": "suc", "sub": {"op": "or", "subs": [
        {"op": "neg", "sub": {"op": "dia", "label": "suc", "sub": top}},
        rank2,
    ]}},
    {"op": "neg", "sub": {"op": "rank_at_least", "bound": [[0, 4]]}},
]})
# <a>(and ...) forty deep, deeper than any a-path of the ladder.
deep = top
for _ in range(40):
    deep = {"op": "dia", "label": "a", "sub": {"op": "and", "subs": [deep]}}
save("tower-a40", deep)
# Empty objects, which stay undecided while a file is decoded.
save("empty", {})
save("list-empty", [{}, {"a": [[{}, 1]]}])
# Thirteen diamonds around "no successor": a leaf at depth 13.
tower = leaf
for _ in range(13):
    tower = {"op": "dia", "label": "suc", "sub": tower}
save("tower12", tower)
# A <suc> diamond whose body ors 17 structurally distinct <suc> diamonds:
# one over the budget of a glued modification tree, even once equal
# subformulas are consed into one object.
towers = [top]
for _ in range(17):
    towers.append({"op": "dia", "label": "suc", "sub": towers[-1]})
save("wide17", {"op": "dia", "label": "suc", "sub": {"op": "or", "subs": towers[1:]}})
# Multitree files that the reader must reject, or accept, exactly as
# the base does: a bad count 40 levels down, children that are not a
# list, a syntax error after a shape error, repeated labels (the last
# value wins, in the place of the first) and a 3000-deep document.
deep = {}
for i in range(40):
    deep = {"a": [[deep, 0 if i == 0 else 1]]}
save("bad-count", deep)
save("non-list", {"a": [[{}, 1]], "b": {"c": []}})
def pairs(*items):
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items) + "}"
head, tail = json.dumps({"a": [[0, "omega"]]}).split("0")
texts = {
    "shape-then-syntax": json.dumps({"a": 5, "b": [[{}, 1]]})[:-1],
    "repeated": pairs(("b", [[{}, 0]]), ("a", [[{}, 2]]), ("b", [[{"c": [[{}, 1]]}, 3]])),
    "repeated-bad": pairs(("a", [[{}, 1]]), ("b", [[{}, 1]]), ("a", 7)),
    "deep3000": head * 3000 + "{}" + tail * 3000,
}
for name, text in texts.items():
    with open(f"{sys.argv[1]}/{name}.json", "w", encoding="utf-8") as handle:
        handle.write(text)
save("repeated-plain", {"b": [[{"c": [[{}, 1]]}, 3]], "a": [[{}, 1], [{}, 1]]})
# A multiplicity tree whose root label is one that export-dot sniffs
# as an LTS key.
save("edges-tree", {"edges": [[{}, 1]]})
# A bad count before a bad sibling subtree, and a zero count deep in
# pair 0 before a shape error in pair 1: the reader reports the first
# error in preorder, the count of a pair before the next subtree.
save("count-then-subtree", {"a": [[{}, "x"], [5, 1]]})
deep = {"a": [[{}, 0]]}
for _ in range(5):
    deep = {"a": [[deep, 1]]}
save("zero-then-shape", {"a": [[deep, 1], [{"b": 5}, 1]]})
' "$inputs"
# The tree that expand prints for the ladder, for iso to read back.
PYTHONPATH="$base_src" python -m bisimkit.cli expand "$inputs/ladder.json" 2> /dev/null \
  | python -c 'import json, sys; json.dump(json.load(sys.stdin)["tree"], sys.stdout)' > "$inputs/ladder-tree.json"
# expand streams its report and summary, so both streams are diffed;
# a cyclic state without --depth exits 2.
for cmd in \
  "expand $inputs/ladder.json" \
  "expand $inputs/ladder.json --format text" \
  "expand $inputs/braid.json" \
  "expand $inputs/shift.json --depth 10" \
  "expand $inputs/shift.json" \
  "expand $inputs/shift.json --state q3"; do
  PYTHONPATH="$base_src" python -m bisimkit.cli $cmd > report-base.json 2> summary-base.txt || echo "exit $?" >> report-base.json
  PYTHONPATH="$head_src" python -m bisimkit.cli $cmd > report-head.json 2> summary-head.txt || echo "exit $?" >> report-head.json
  diff report-base.json report-head.json
  diff summary-base.txt summary-head.txt
done
for cmd in \
  "iso $inputs/left.json $inputs/right.json --witness" \
  "bisim $inputs/ring6.json $inputs/ring3.json --witness" \
  "bisim $inputs/ring6.json $inputs/ladder.json --witness" \
  "nlmp-bisim $inputs/nlmp-left.json p u --other $inputs/nlmp-right.json --witness" \
  "nlmp-bisim $inputs/nlmp-right.json u x --witness" \
  "bisim $inputs/ladder.json $inputs/braid.json --witness" \
  "bisim $inputs/shift.json $inputs/shift.json --witness" \
  "nlmp-bisim $inputs/nlmp-right.json v w" \
  "nlmp-bisim $inputs/nlmp-left.json q w --other $inputs/nlmp-right.json --witness" \
  "export-dot $inputs/ladder-tree.json" \
  "e0 witness $inputs/x.json $inputs/y.json --bound 8" \
  "e0 witness $inputs/x.json $inputs/z.json" \
  "e0 reduce $inputs/z.json --depth 4 --width 4" \
  "rank $inputs/ladder.json" \
  "rank $inputs/shift.json" \
  "eval $inputs/phi.json $inputs/ladder.json --state l3" \
  "eval $inputs/psi.json $inputs/gadget.json"; do
  PYTHONPATH="$base_src" python -m bisimkit.cli $cmd > report-base.json || echo "exit $?" >> report-base.json
  PYTHONPATH="$head_src" python -m bisimkit.cli $cmd > report-head.json || echo "exit $?" >> report-head.json
  diff report-base.json report-head.json
done
# e0 reduce and export-dot stream a symbolic tree's truncation
# level by level, multitrees are parsed into a shared DAG while
# decoding (iso and export-dot, which hand the decoded document
# of any other file to the checked path), expand
# orders long same-label siblings piece by piece, and eval reads
# child ranks off the root's, and substructure cuts a carrier out
# of the enumeration order (--bound 2 names the state it leaves
# out, --bound 1 and 0 stop the walk before any measure is read);
# e0 check decides eventual equality, export-dot draws an LTS,
# NLMPs and trees without --kind, iso rejects an LTS file, and
# eval decides diamonds over modal bodies on every gadget kind,
# checks the profile budget and decides a rank atom on a cyclic
# system: stdout, stderr and the exit code must match the base.
for cmd in \
  "iso $inputs/ladder-tree.json $inputs/ladder-tree.json --witness" \
  "iso $inputs/ladder-tree.json $inputs/ladder-tree.json --witness --format text" \
  "iso $inputs/count-then-subtree.json $inputs/left.json" \
  "export-dot $inputs/count-then-subtree.json --kind multitree" \
  "iso $inputs/left.json $inputs/zero-then-shape.json" \
  "export-dot $inputs/zero-then-shape.json --kind multitree" \
  "iso $inputs/bad-count.json $inputs/left.json" \
  "iso $inputs/left.json $inputs/non-list.json" \
  "iso $inputs/shape-then-syntax.json $inputs/left.json" \
  "iso $inputs/repeated.json $inputs/repeated-plain.json --witness" \
  "iso $inputs/left.json $inputs/repeated-bad.json" \
  "iso $inputs/deep3000.json $inputs/left.json" \
  "eval $inputs/tower12.json $inputs/gadget.json" \
  "eval $inputs/wide17.json $inputs/gadget.json" \
  "eval $inputs/phi.json $inputs/shift.json" \
  "eval $inputs/tower12.json $inputs/gadget-finite.json" \
  "eval $inputs/tower12.json $inputs/glue.json" \
  "eval $inputs/psi.json $inputs/gadget-finite.json" \
  "eval $inputs/suc-omega.json $inputs/gadget.json" \
  "eval $inputs/suc-two.json $inputs/gadget.json" \
  "eval $inputs/suc-omega.json $inputs/gadget-finite.json" \
  "eval $inputs/suc-two.json $inputs/gadget-finite.json" \
  "eval $inputs/suc-omega.json $inputs/glue.json" \
  "eval $inputs/suc-two.json $inputs/glue.json" \
  "e0 reduce $inputs/dense.json --depth 8 --width 32" \
  "e0 reduce $inputs/dense.json --depth 0 --width 5" \
  "e0 reduce $inputs/dense.json --width 3" \
  "e0 reduce $inputs/dense.json" \
  "e0 reduce $inputs/dense.json --format text" \
  "e0 reduce $inputs/dense.json --depth -1" \
  "iso $inputs/rep-left.json $inputs/rep-right.json --witness" \
  "export-dot $inputs/rep-left.json" \
  "export-dot $inputs/left.json --kind multitree" \
  "export-dot $inputs/bad-count.json" \
  "export-dot $inputs/non-list.json" \
  "export-dot $inputs/shape-then-syntax.json" \
  "export-dot $inputs/repeated.json" \
  "export-dot $inputs/edges-tree.json" \
  "export-dot $inputs/edges-tree.json --kind multitree" \
  "export-dot $inputs/gadget.json --depth 4 --width 4" \
  "expand $inputs/twin-rails.json" \
  "export-dot $inputs/gadget.json --depth 8 --width 32" \
  "substructure $inputs/nlmp-right.json --state u" \
  "substructure $inputs/nlmp-right.json --state u --bound 2" \
  "substructure $inputs/nlmp-right.json --state u --bound 3" \
  "substructure $inputs/nlmp-right.json --state u --bound 1" \
  "substructure $inputs/nlmp-right.json --state u --bound 0" \
  "substructure $inputs/nlmp-right.json --state x" \
  "substructure $inputs/nlmp-right.json --state w --bound 5" \
  "e0 check $inputs/x.json $inputs/y.json" \
  "e0 check $inputs/x.json $inputs/z.json" \
  "export-dot $inputs/ring6.json" \
  "export-dot $inputs/nlmp-right.json" \
  "export-dot $inputs/nlmp-zero-first.json" \
  "export-dot $inputs/empty.json" \
  "export-dot $inputs/list-empty.json" \
  "iso $inputs/empty.json $inputs/empty.json --witness" \
  "iso $inputs/list-empty.json $inputs/empty.json" \
  "eval $inputs/lts-mix.json $inputs/ring6.json" \
  "eval $inputs/lts-omega.json $inputs/ring6.json --state s2" \
  "eval $inputs/lts-mix.json $inputs/braid.json --state x3.1" \
  "eval $inputs/lts-steps.json $inputs/braid.json --state x12.1" \
  "eval $inputs/lts-steps.json $inputs/braid.json --state x12.2" \
  "eval $inputs/lts-mix.json $inputs/explicit.json" \
  "eval $inputs/lts-suc.json $inputs/explicit.json" \
  "eval $inputs/lts-suc.json $inputs/explicit.json --state e.0" \
  "eval $inputs/lts-suc.json $inputs/explicit.json --state e.0.3" \
  "eval $inputs/tower-a40.json $inputs/ladder.json" \
  "eval $inputs/tower-a40.json $inputs/ladder.json --state r11" \
  "export-dot $inputs/explicit.json" \
  "export-dot $inputs/glue.json" \
  "iso $inputs/ring6.json $inputs/left.json" \
  "substructure $inputs/nlmp-right.json --carrier $inputs/carrier.json" \
  "substructure $inputs/nlmp-right.json --carrier $inputs/open-carrier.json"; do
  PYTHONPATH="$base_src" python -m bisimkit.cli $cmd > out-base.txt 2> err-base.txt && echo "exit 0" >> out-base.txt || echo "exit $?" >> out-base.txt
  PYTHONPATH="$head_src" python -m bisimkit.cli $cmd > out-head.txt 2> err-head.txt && echo "exit 0" >> out-head.txt || echo "exit $?" >> out-head.txt
  diff out-base.txt out-head.txt
  diff err-base.txt err-head.txt
done
# Help, usage errors and an abbreviated option are parsed by
# argparse, the rest by the verb table: stdout, stderr and the exit
# code must match the base either way.
for cmd in \
  "--help" \
  "bisim --help" \
  "e0 reduce --help" \
  "bisim" \
  "expand $inputs/ladder.json --depth two" \
  "verify --format xml" \
  "bisim $inputs/ring6.json $inputs/ring3.json --wit"; do
  PYTHONPATH="$base_src" python -m bisimkit.cli $cmd > out-base.txt 2> err-base.txt && echo "exit 0" >> out-base.txt || echo "exit $?" >> out-base.txt
  PYTHONPATH="$head_src" python -m bisimkit.cli $cmd > out-head.txt 2> err-head.txt && echo "exit 0" >> out-head.txt || echo "exit $?" >> out-head.txt
  diff out-base.txt out-head.txt
  diff err-base.txt err-head.txt
done
