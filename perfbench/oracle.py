"""Naive reference evaluator for the CTL fragment of the generated formulas.

It reads a graph exported by ``wftc build --json`` and evaluates a formula
tree from ``workloads.random_formula`` by textbook Kleene iteration: every
round recomputes the whole operator over all states, until two rounds
agree. It shares no code with ``wftc.dctl`` or ``wftc.textio``; it exists
to check their verdicts.

Semantics follow the README. Paths are maximal: a deadlocked state (one
without successors) ends a run. ``deadlock`` is ``!EX true``; ``AX f`` is
``!EX !f & EX true``, so it is false at a deadlock; ``EF``/``AF`` are
``E(true U f)``/``A(true U f)``; ``AG f`` is ``!EF !f``. ``A(f U g)`` needs
a successor at every ``f``-state before ``g``; ``EG f`` holds at a
deadlocked ``f``-state. The derived operators are iterated as their own
fixed points below, which must agree with those expansions.
"""

from __future__ import annotations

import json
import sys


class Graph:
    def __init__(self, payload: dict):
        ids = [state["id"] for state in payload["states"]]
        self.index = {name: i for i, name in enumerate(ids)}
        self.size = len(ids)
        self.initial = self.index[payload["initial"]]
        self.arcs = len(payload["edges"])
        self.succ = [set() for _ in ids]
        for edge in payload["edges"]:
            self.succ[self.index[edge["from"]]].add(self.index[edge["to"]])
        self.marked = {}
        for i, state in enumerate(payload["states"]):
            for place, tokens in state["marking"].items():
                if tokens > 0:
                    self.marked.setdefault(place, set()).add(i)
        self.all = frozenset(range(self.size))

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        return cls(json.loads(text))

    def ex(self, target: set) -> set:
        return {s for s in self.all if self.succ[s] & target}

    def ax(self, target: set) -> set:
        return {s for s in self.all if self.succ[s] and self.succ[s] <= target}

    def ax_weak(self, target: set) -> set:
        """All successors in ``target``; true at a deadlock."""
        return {s for s in self.all if self.succ[s] <= target}


def _lfp(step) -> set:
    current = set()
    while True:
        following = step(current)
        if following == current:
            return current
        current = following


def _gfp(step, top) -> set:
    current = set(top)
    while True:
        following = step(current)
        if following == current:
            return current
        current = following


def evaluate(graph: Graph, node: tuple, memo: dict | None = None) -> frozenset:
    """Satisfaction set of ``node``; ``memo`` caches equal subtrees."""
    if memo is None:
        memo = {}
    if node in memo:
        return memo[node]
    op = node[0]
    args = [evaluate(graph, child, memo) for child in node[1:] if isinstance(child, tuple)]
    g = graph
    if op == "ap":
        result = g.marked.get(node[1], set())
    elif op == "true":
        result = g.all
    elif op == "deadlock":
        result = {s for s in g.all if not g.succ[s]}
    elif op == "not":
        result = g.all - args[0]
    elif op == "and":
        result = args[0] & args[1]
    elif op == "or":
        result = args[0] | args[1]
    elif op == "imp":
        result = (g.all - args[0]) | args[1]
    elif op == "EX":
        result = g.ex(args[0])
    elif op == "AX":
        result = g.ax(args[0])
    elif op == "EF":
        result = _lfp(lambda z: args[0] | g.ex(z))
    elif op == "AF":
        result = _lfp(lambda z: args[0] | g.ax(z))
    elif op == "EG":
        dead = {s for s in g.all if not g.succ[s]}
        result = _gfp(lambda z: args[0] & (g.ex(z) | dead), args[0])
    elif op == "AG":
        result = _gfp(lambda z: args[0] & g.ax_weak(z), args[0])
    elif op == "EU":
        result = _lfp(lambda z: args[1] | (args[0] & g.ex(z)))
    elif op == "AU":
        result = _lfp(lambda z: args[1] | (args[0] & g.ax(z)))
    else:
        raise ValueError(f"unknown operator {op!r}")
    memo[node] = frozenset(result)
    return memo[node]


def _tree(value):
    return tuple(_tree(v) for v in value) if isinstance(value, list) else value


def main(argv: list[str]) -> int:
    """``oracle.py GRAPH [TREES]``: print the graph's state and arc counts
    and, given a JSON list of formula trees, their verdicts and
    satisfaction-set sizes. The benchmark runs this in a child process so
    that its own memory, which every child it spawns inherits until
    ``exec``, stays small."""
    with open(argv[0], encoding="utf-8") as handle:
        graph = Graph.from_json(handle.read())
    found = {"states": graph.size, "arcs": graph.arcs}
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as handle:
            trees = [_tree(t) for t in json.load(handle)]
        memo: dict = {}
        sets = [evaluate(graph, tree, memo) for tree in trees]
        found["verdicts"] = ["TRUE" if graph.initial in s else "FALSE" for s in sets]
        found["satCounts"] = [len(s) for s in sets]
    print(json.dumps(found))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
