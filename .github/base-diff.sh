#!/usr/bin/env bash
# Compare every verb's output at two source trees, byte for byte.
#
# Usage: .github/base-diff.sh BASE_SRC HEAD_SRC
#
# BASE_SRC and HEAD_SRC are the src directories of two checkouts, say of a
# pull request's base commit and of its head; the head checkout's
# perfbench/ supplies the verify requests. The script runs verify and
# the other verbs of the CLI on the same inputs under each, and exits
# non-zero at the first difference in stdout, in stderr or in the exit
# code. It works in a fresh temporary directory (RUNNER_TEMP when set),
# so it leaves nothing behind in the checkout.
set -e
if [ "$#" -ne 2 ]; then
  echo "usage: $0 BASE_SRC HEAD_SRC" >&2
  exit 2
fi
base_src="$(cd "$1" && pwd)"
head_src="$(cd "$2" && pwd)"
bench="$(cd "$2/../perfbench" && pwd)"
temp="${RUNNER_TEMP:-$(mktemp -d)}"
cd "$temp"
PYTHONPATH="$base_src" python -c 'import bisimkit, sys; assert bisimkit.__file__.startswith(sys.argv[1]), bisimkit.__file__' "$base_src"
# Run the CLI with the given arguments under each tree, and stop at the
# first difference in stdout, stderr or the exit code.
same() {
  local side src
  for side in base head; do
    if [ "$side" = base ]; then src="$base_src"; else src="$head_src"; fi
    PYTHONPATH="$src" python -m bisimkit.cli "$@" > "out-$side.txt" 2> "err-$side.txt" \
      && echo "exit 0" >> "out-$side.txt" || echo "exit $?" >> "out-$side.txt"
  done
  diff out-base.txt out-head.txt
  diff err-base.txt err-head.txt
}
same verify --suite all --seed 7
# Every verify request that perfbench builds in rounds 0-4 at seed 1, read
# off perfbench/workloads.py in the head checkout, one line per request.
requests="$(python -B -c '
import sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import build_round
with tempfile.TemporaryDirectory() as rounds:
    for index in range(5):
        for request in build_round("verify", 1, index, Path(rounds)):
            print(" ".join(request.args))
' "$bench")"
while read -ra request; do
  same "${request[@]}"
done <<< "$requests"
inputs="$temp/inputs"
mkdir -p "$inputs"
# The refine requests that perfbench builds in rounds 0-4 at seed 1 and
# the canon requests of round 0, the traffic its benchmark times, with
# their input files written under inputs/WORKLOAD/ROUND (each round
# reuses its file names).
requests="$(python -B -c '
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import build_round
for workload, rounds in (("refine", 5), ("canon", 1)):
    for index in range(rounds):
        for request in build_round(workload, 1, index, Path(sys.argv[2], workload, str(index))):
            print(" ".join(request.args))
' "$bench" "$inputs")"
while read -ra request; do
  same "${request[@]}"
done <<< "$requests"
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
# The 6-ring again, declaring a label z that no edge uses.
edges = [[six[i], a, six[(i + k) % 6]] for i in range(6) for a, k in (("a", 1), ("b", 3))]
save("ring6-z", {"labels": ["a", "b", "z"], "states": six, "root": "s0", "edges": edges})
# Cascades: x0 loops under a and each later x steps under a to the one
# before; under b, x0 steps to z0 and the others to z1; z0 and its twin w0
# step under c to e, z1 under c to f, and f under d to e. Refinement
# moves most of the x states once per round: m = 200, a renamed copy
# declared in reverse order, and m = 201.
def cascade(m, prefix, order):
    xs = [f"{prefix}x{j}" for j in range(m + 1)]
    z0, twin, z1, e, f = (prefix + name for name in ("z0", "w0", "z1", "e", "f"))
    edges = [[xs[0], "a", xs[0]], [xs[0], "b", z0], [z0, "c", e], [twin, "c", e]]
    edges += [[z1, "c", f], [f, "d", e]]
    for j in range(1, m + 1):
        edges += [[xs[j], "a", xs[j - 1]], [xs[j], "b", z1]]
    states = (xs + [z0, twin, z1, e, f])[::order]
    return {"labels": ["a", "b", "c", "d"], "states": states, "root": xs[-1], "edges": edges}
save("cascade200", cascade(200, "c", 1))
save("cascade200-copy", cascade(200, "k", -1))
save("cascade201", cascade(201, "k", 1))
# A 300-state a-chain and a renamed copy declared in reverse order:
# refinement needs a round per state.
for name, prefix, order in (("chain300", "c", 1), ("chain300-copy", "d", -1)):
    line = [f"{prefix}{i}" for i in range(300)]
    edges = [[line[i], "a", line[i + 1]] for i in range(299)]
    save(name, {"labels": ["a"], "states": line[::order], "root": line[0], "edges": edges})
# Two NLMPs: p matches u, q matches v and w, x only steps to zero.
half = {"a": [{"p": "1/2", "q": "1/2"}]}
save("nlmp-left", {"labels": ["a"], "states": ["p", "q"], "trans": {"p": half, "q": {"a": [{"q": "1"}]}}})
half = {"a": [{"v": "1/2", "w": "1/2"}]}
trans = {"u": half, "v": half, "w": {"a": [{"w": "1"}]}, "x": {"a": [{}]}}
save("nlmp-right", {"labels": ["a"], "states": ["u", "v", "w", "x"], "trans": trans})
# NLMPs with one bad mass each, one per text that reading or checking a
# rational can print: not a string, malformed, a zero or a negative
# denominator, a negative mass, and a total over one, whole or not.
bad_masses = {
    "int": {"q": 1},
    "malformed": {"q": "x"},
    "zero-den": {"q": "1/0"},
    "negative-den": {"q": "1/-2"},
    "negative": {"q": "-1/2"},
    "over-one": {"q": "3/2"},
    "two-ones": {"p": "1", "q": "1"},
}
for name, measure in bad_masses.items():
    save(f"mass-{name}", {"labels": ["a"], "states": ["p", "q"], "trans": {"p": {"a": [measure]}}})
# Measures that share a first state and differ in its mass, where the
# order of the (num, den) pairs is not the order of the values: 1/3
# lists before 1/2, so export-dot numbers its hub first and the
# enumeration from s reaches w before v (with --bound 3, the carrier
# that it cuts leaves out v, not w).
trans = {
    "s": {"a": [{"t": "1/2", "v": "1/4"}, {"t": "1/3", "w": "1/2"}]},
    "u": {"a": [{"t": "2/5", "v": "1/5"}, {"t": "1/3", "w": "1/3"}]},
    "t": {"a": [{"t": "1"}]},
    "v": {"a": [{}]},
}
save("nlmp-order", {"labels": ["a"], "states": ["s", "t", "u", "v", "w"], "trans": trans})
# Masses written unreduced, as zero over three and as a bare integer.
trans = {"p": {"a": [{"p": "2/4", "q": "0/3"}, {"q": "1"}]}, "q": {"a": [{"p": "1/2", "q": "3/6"}]}}
save("nlmp-forms", {"labels": ["a"], "states": ["p", "q"], "trans": trans})
# A system that declares a state twice, and a process that declares a
# label twice.
save("repeated-state", {"labels": ["a"], "states": ["p", "q", "p"], "root": "p", "edges": []})
save("repeated-label", {"labels": ["a", "a"], "states": ["p"], "trans": {}})
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
# Trees whose leaf depths a set atom reads: {2} for the chain, the evens
# for the A tree and {0, 3} for the glue, whose first part has no node
# below its root.
save("chain3", {"kind": "chain", "k": 3})
save("atree", {"kind": "A", "set": {"prefix": "1", "period": "01"}})
sets = {"one": ("01", "0"), "two": ("001", "0"), "evens": ("", "10"), "zero-three": ("1001", "0")}
for name, (prefix, period) in sets.items():
    save(f"set-{name}", {"op": "char_set", "set": {"prefix": prefix, "period": period}})
for name in ("one", "two"):
    prefix, period = sets[name]
    atom = {"op": "char_set", "set": {"prefix": prefix, "period": period}}
    save(f"suc-set-{name}", {"op": "dia", "label": "suc", "sub": atom})
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
# Chain masks that go negative, fifteen diamonds under a body of depth
# two, and a 300-deep tower.
def dia(sub, label="suc"):
    return {"op": "dia", "label": label, "sub": sub}
def neg(sub):
    return {"op": "neg", "sub": sub}
save("suc-neg-suc", dia(neg(dia(top))))
save("neg-suc-suc", neg(dia(dia(top))))
save("and-negs", {"op": "and", "subs": [neg(dia(neg(dia(top)))), neg(dia(dia(dia(dia(top))))), neg(dia(top, "b"))]})
save("wide15", dia({"op": "or", "subs": [dia(neg(dia(top))) for _ in range(15)]}))
deep = leaf
for _ in range(300):
    deep = dia(deep)
save("tower300", deep)
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
# expand streams its report and summary; a cyclic state without
# --depth exits 2.
same expand "$inputs/ladder.json"
same expand "$inputs/ladder.json" --format text
same expand "$inputs/braid.json"
same expand "$inputs/shift.json" --depth 10
same expand "$inputs/shift.json"
same expand "$inputs/shift.json" --state q3
same iso "$inputs/left.json" "$inputs/right.json" --witness
same bisim "$inputs/ring6.json" "$inputs/ring3.json" --witness
same bisim "$inputs/chain300.json" "$inputs/chain300-copy.json" --witness
same bisim "$inputs/cascade200.json" "$inputs/cascade200-copy.json" --witness
same bisim "$inputs/cascade200.json" "$inputs/cascade201.json"
same bisim "$inputs/ring6-z.json" "$inputs/ring3.json" --witness
same bisim "$inputs/ring6.json" "$inputs/ladder.json" --witness
same nlmp-bisim "$inputs/nlmp-left.json" p u --other "$inputs/nlmp-right.json" --witness
same nlmp-bisim "$inputs/nlmp-right.json" u x --witness
same bisim "$inputs/ladder.json" "$inputs/braid.json" --witness
same bisim "$inputs/shift.json" "$inputs/shift.json" --witness
same nlmp-bisim "$inputs/nlmp-right.json" v w
same nlmp-bisim "$inputs/nlmp-left.json" q w --other "$inputs/nlmp-right.json" --witness
same export-dot "$inputs/ladder-tree.json"
same e0 witness "$inputs/x.json" "$inputs/y.json" --bound 8
same e0 witness "$inputs/x.json" "$inputs/z.json"
same e0 reduce "$inputs/z.json" --depth 4 --width 4
same rank "$inputs/ladder.json"
same rank "$inputs/shift.json"
same eval "$inputs/phi.json" "$inputs/ladder.json" --state l3
same eval "$inputs/psi.json" "$inputs/gadget.json"
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
same iso "$inputs/ladder-tree.json" "$inputs/ladder-tree.json" --witness
same iso "$inputs/ladder-tree.json" "$inputs/ladder-tree.json" --witness --format text
same iso "$inputs/count-then-subtree.json" "$inputs/left.json"
same export-dot "$inputs/count-then-subtree.json" --kind multitree
same iso "$inputs/left.json" "$inputs/zero-then-shape.json"
same export-dot "$inputs/zero-then-shape.json" --kind multitree
same iso "$inputs/bad-count.json" "$inputs/left.json"
same iso "$inputs/left.json" "$inputs/non-list.json"
same iso "$inputs/shape-then-syntax.json" "$inputs/left.json"
same iso "$inputs/repeated.json" "$inputs/repeated-plain.json" --witness
same iso "$inputs/left.json" "$inputs/repeated-bad.json"
same iso "$inputs/deep3000.json" "$inputs/left.json"
same eval "$inputs/tower12.json" "$inputs/gadget.json"
same eval "$inputs/wide17.json" "$inputs/gadget.json"
same eval "$inputs/phi.json" "$inputs/shift.json"
same eval "$inputs/tower12.json" "$inputs/gadget-finite.json"
same eval "$inputs/tower12.json" "$inputs/glue.json"
same eval "$inputs/psi.json" "$inputs/gadget-finite.json"
same eval "$inputs/suc-omega.json" "$inputs/gadget.json"
same eval "$inputs/suc-two.json" "$inputs/gadget.json"
same eval "$inputs/suc-omega.json" "$inputs/gadget-finite.json"
same eval "$inputs/suc-two.json" "$inputs/gadget-finite.json"
same eval "$inputs/suc-omega.json" "$inputs/glue.json"
same eval "$inputs/suc-two.json" "$inputs/glue.json"
same eval "$inputs/set-two.json" "$inputs/chain3.json"
same eval "$inputs/set-one.json" "$inputs/chain3.json"
same eval "$inputs/set-evens.json" "$inputs/atree.json"
same eval "$inputs/set-one.json" "$inputs/atree.json"
same eval "$inputs/set-zero-three.json" "$inputs/glue.json"
same eval "$inputs/set-two.json" "$inputs/glue.json"
same eval "$inputs/suc-set-one.json" "$inputs/chain3.json"
same eval "$inputs/suc-set-two.json" "$inputs/chain3.json"
same eval "$inputs/suc-set-two.json" "$inputs/glue.json"
same eval "$inputs/suc-set-one.json" "$inputs/glue.json"
for phi in suc-neg-suc neg-suc-suc and-negs wide15 tower300; do
  for tree in chain3 atree gadget gadget-finite glue; do
    same eval "$inputs/$phi.json" "$inputs/$tree.json"
  done
done
same e0 reduce "$inputs/dense.json" --depth 8 --width 32
same e0 reduce "$inputs/dense.json" --depth 0 --width 5
same e0 reduce "$inputs/dense.json" --width 3
same e0 reduce "$inputs/dense.json"
same e0 reduce "$inputs/dense.json" --format text
same e0 reduce "$inputs/dense.json" --depth -1
same iso "$inputs/rep-left.json" "$inputs/rep-right.json" --witness
same export-dot "$inputs/rep-left.json"
same export-dot "$inputs/left.json" --kind multitree
same export-dot "$inputs/bad-count.json"
same export-dot "$inputs/non-list.json"
same export-dot "$inputs/shape-then-syntax.json"
same export-dot "$inputs/repeated.json"
same export-dot "$inputs/edges-tree.json"
same export-dot "$inputs/edges-tree.json" --kind multitree
same export-dot "$inputs/gadget.json" --depth 4 --width 4
same expand "$inputs/twin-rails.json"
same export-dot "$inputs/gadget.json" --depth 8 --width 32
same substructure "$inputs/nlmp-right.json" --state u
same substructure "$inputs/nlmp-right.json" --state u --bound 2
same substructure "$inputs/nlmp-right.json" --state u --bound 3
same substructure "$inputs/nlmp-right.json" --state u --bound 1
same substructure "$inputs/nlmp-right.json" --state u --bound 0
same substructure "$inputs/nlmp-right.json" --state x
same substructure "$inputs/nlmp-right.json" --state w --bound 5
same e0 check "$inputs/x.json" "$inputs/y.json"
same e0 check "$inputs/x.json" "$inputs/z.json"
same export-dot "$inputs/ring6.json"
same export-dot "$inputs/nlmp-right.json"
same export-dot "$inputs/nlmp-zero-first.json"
same export-dot "$inputs/empty.json"
same export-dot "$inputs/list-empty.json"
same iso "$inputs/empty.json" "$inputs/empty.json" --witness
same iso "$inputs/list-empty.json" "$inputs/empty.json"
same eval "$inputs/lts-mix.json" "$inputs/ring6.json"
same eval "$inputs/lts-omega.json" "$inputs/ring6.json" --state s2
same eval "$inputs/lts-mix.json" "$inputs/braid.json" --state x3.1
same eval "$inputs/lts-steps.json" "$inputs/braid.json" --state x12.1
same eval "$inputs/lts-steps.json" "$inputs/braid.json" --state x12.2
same eval "$inputs/lts-mix.json" "$inputs/explicit.json"
same eval "$inputs/lts-suc.json" "$inputs/explicit.json"
same eval "$inputs/lts-suc.json" "$inputs/explicit.json" --state e.0
same eval "$inputs/lts-suc.json" "$inputs/explicit.json" --state e.0.3
same eval "$inputs/tower-a40.json" "$inputs/ladder.json"
same eval "$inputs/tower-a40.json" "$inputs/ladder.json" --state r11
same export-dot "$inputs/explicit.json"
same export-dot "$inputs/glue.json"
same iso "$inputs/ring6.json" "$inputs/left.json"
same substructure "$inputs/nlmp-right.json" --carrier "$inputs/carrier.json"
same substructure "$inputs/nlmp-right.json" --carrier "$inputs/open-carrier.json"
# Error texts that several checks share: an unknown state, a negative
# bound or depth, a set atom on a process, and a repeated declaration.
same rank "$inputs/ladder.json" --state nope
same expand "$inputs/ladder.json" --state nope
same eval "$inputs/phi.json" "$inputs/ladder.json" --state nope
same nlmp-bisim "$inputs/nlmp-right.json" u nope
same substructure "$inputs/nlmp-right.json" --state nope
same substructure "$inputs/nlmp-right.json" --state u --bound -1
same e0 witness "$inputs/x.json" "$inputs/y.json" --bound -1
same expand "$inputs/ladder.json" --depth -1
same eval "$inputs/set-one.json" "$inputs/ring6.json"
same bisim "$inputs/repeated-state.json" "$inputs/ring3.json"
same nlmp-bisim "$inputs/repeated-label.json" p p
# A bad mass, read by each verb that reads a rational.
for name in int malformed zero-den negative-den negative over-one two-ones; do
  same nlmp-bisim "$inputs/mass-$name.json" p q
done
same substructure "$inputs/mass-over-one.json" --state p
same export-dot "$inputs/mass-over-one.json"
# Measures listed in value order, and masses in every written form.
same export-dot "$inputs/nlmp-order.json"
same substructure "$inputs/nlmp-order.json" --state s
same substructure "$inputs/nlmp-order.json" --state s --bound 3
same substructure "$inputs/nlmp-order.json" --state u --bound 3
same nlmp-bisim "$inputs/nlmp-order.json" s u --witness
same nlmp-bisim "$inputs/nlmp-forms.json" p q --witness
same substructure "$inputs/nlmp-forms.json" --state p
same export-dot "$inputs/nlmp-forms.json"
# iso reads both of its files into one table of isomorphism classes: a
# seeded tree against a copy whose every occurrence of a subtree is
# permuted and count-split on its own draw; the same pair with a count of
# 0 deep in the copy, beside a sibling it would merge with, read after the
# table holds the tree's classes; and a node whose one label lists no
# children, a leaf, against a leaf.
python -c '
import json, random, sys
rng = random.Random(42)
def save(name, data):
    with open(f"{sys.argv[1]}/{name}.json", "w", encoding="utf-8") as handle:
        json.dump(data, handle)
def tree(depth):
    node = {}
    if depth and rng.random() < 0.8:
        for _ in range(rng.randint(1, 3)):
            count = rng.choice((1, 2, 3, "omega"))
            node.setdefault(rng.choice("abc"), []).append([tree(depth - 1), count])
    return node
def copy(node):
    labels = list(node)
    rng.shuffle(labels)
    out = {}
    for label in labels:
        children = []
        for sub, count in node[label]:
            if count != "omega" and count > 1:
                first = rng.randint(1, count - 1)
                children += [[copy(sub), first], [copy(sub), count - first]]
            else:
                children.append([copy(sub), count])
        rng.shuffle(children)
        out[label] = children
    return out
seeded = tree(6)
save("seeded", seeded)
save("seeded-copy", copy(seeded))
bad = copy(seeded)
node = bad
while True:
    label = next(iter(node))
    sub, count = node[label][0]
    if not sub:
        node[label].append([{}, 0])
        break
    node = sub
save("seeded-bad", bad)
save("empty-b", {"a": [[{"b": []}, 1]]})
save("leaf-a", {"a": [[{}, 1]]})
' "$inputs"
for witness in "" --witness; do
  same iso "$inputs/seeded.json" "$inputs/seeded-copy.json" $witness
  same iso "$inputs/seeded.json" "$inputs/seeded-bad.json" $witness
  same iso "$inputs/empty-b.json" "$inputs/leaf-a.json" $witness
done
# Help, usage errors and an abbreviated option are parsed by
# argparse, the rest by the verb table: stdout, stderr and the exit
# code must match the base either way.
same --help
same bisim --help
same e0 reduce --help
same bisim
same expand "$inputs/ladder.json" --depth two
same verify --format xml
same bisim "$inputs/ring6.json" "$inputs/ring3.json" --wit
