"""``build_srg`` against a reference explorer written from the firing rule
in the README ("Construction").

The reference reads the parsed net's declarations and nothing else: it
imports nothing from ``wftc.srg`` and no sort, key or evaluation helper
from ``wftc.model``. It keeps states as plain tuples and tables in its own
canonical order, and explores breadth-first without numbering. Both sides
must agree on the state set, the labelled edge set and the pseudo flags,
on seeded random small nets and on grown tables of the bundled model.
"""

import random
import re
import statistics
from collections import deque
from itertools import product

import pytest

from conftest import arc_triples, fixture_text, parallel_model, parallel_nets, table_model
from wftc import CONSTRAINED, UNCONSTRAINED, ResourceLimitError, build_srg, enabled, fire, parse_model

T, F, U = "T", "F", "U"


def token_order(token):
    """Unwritten cells first; tokens by (prefix, numeric suffix, text)."""
    if token is None:
        return (0,)
    prefix = token.rstrip("0123456789")
    if prefix == token:
        return (1, token, -1, token)
    return (1, prefix, int(token[len(prefix):]), token)


def canonical(records):
    return tuple(sorted(set(records), key=lambda rec: [token_order(v) for v in rec]))


class Reference:
    def __init__(self, net, mode):
        self.net, self.mode = net, mode
        self.pos = {d: i for i, d in enumerate(net.data_items)}
        self.guards = list(net.guards)
        self.attrs = net.schema.attributes if net.schema else ()
        self.pre = {t: [] for t in net.transitions}
        self.post = {t: [] for t in net.transitions}
        place = {p: i for i, p in enumerate(net.places)}
        for src, dst in net.arcs:
            if src in self.pre:
                self.post[src].append(place[dst])
            else:
                self.pre[dst].append(place[src])

    # -- values, rows and scopes ------------------------------------------

    def value(self, data, source):
        kind, name = source
        return data[self.pos[name]] if kind == "item" else name

    def rows(self, table, attr, source, data):
        col = self.attrs.index(attr)
        return [rec for rec in table if rec[col] == self.value(data, source)]

    def scope_values(self, scope, data, table):
        if scope.where_attr:
            table = self.rows(table, scope.where_attr, scope.where_source, data)
        col = self.attrs.index(scope.column)
        out = []
        for rec in table:
            if rec[col] is not None and rec[col] not in out:
                out.append(rec[col])
        return out

    def domain(self, t, item, data, table):
        binding = [(pi.table, pi.column) for pi in self.net.predicates.values() if pi.kind == "in" and pi.item == item]
        if not binding or self.net.schema is None:
            return {item}
        col = self.attrs.index(binding[0][1])
        scopes = [
            s for s in self.net.sel.get(t, ()) if not s.assign_item and (s.table, s.column) == binding[0]
        ]
        if scopes:
            values = set(self.scope_values(scopes[0], data, table))
        else:
            values = {rec[col] for rec in table if rec[col] is not None}
        suffixes = [0]
        for rec in table:
            m = re.fullmatch(re.escape(item) + r"(\d+)", rec[col] or "")
            if m:
                suffixes.append(int(m.group(1)))
        return values | {f"{item}{max(suffixes) + 1}"}

    # -- guards and constraints -------------------------------------------

    def predicate(self, name, data, table):
        pi = self.net.predicates[name]
        value = data[self.pos[pi.item]]
        if value is None:
            return U
        if pi.kind == "def":
            return T
        if pi.kind == "eq":
            return T if value == pi.const else F
        if self.net.schema is None or self.net.schema.name != pi.table:
            return U
        col = self.attrs.index(pi.column)
        return T if any(rec[col] == value for rec in table) else F

    def guard_names(self, expr):
        if expr[0] == "pi":
            return {expr[1]}
        return set().union(*(self.guard_names(e) for e in expr[1:]))

    def guard(self, name, data, table):
        expr = self.net.guards[name].expr
        values = {p: self.predicate(p, data, table) for p in self.guard_names(expr)}
        if U in values.values():
            return U

        def holds(e):
            if e[0] == "pi":
                return values[e[1]] == T
            if e[0] == "not":
                return not holds(e[1])
            if e[0] == "and":
                return all(holds(x) for x in e[1:])
            return any(holds(x) for x in e[1:])

        return T if holds(expr) else F

    def deps(self, name):
        return {self.net.predicates[p].item for p in self.guard_names(self.net.guards[name].expr)}

    def violates(self, sigma):
        value = dict(zip(self.guards, sigma))
        for constraint in self.net.constraints:
            if constraint and all(
                any(value[g] != U and (value[g] == T) != positive for g, positive in disjunct)
                for disjunct in constraint
            ):
                return True
        return False

    # -- the firing rule --------------------------------------------------

    def enabled(self, state, t):
        marking, data, table, sigma = state
        net = self.net
        if any(marking[p] < 1 for p in self.pre[t]):
            return False
        if any(data[self.pos[d]] is None for d in net.rd.get(t, ())):
            return False
        if any(s.assign_item and not self.scope_values(s, data, table) for s in net.sel.get(t, ())):
            return False
        for op in net.dele.get(t, ()) + net.upd.get(t, ()):
            if not self.rows(table, op.where_attr, op.where_source, data):
                return False
        if t not in net.guard_of:
            return True
        guard, positive = net.guard_of[t]
        return sigma[self.guards.index(guard)] == (T if positive else F)

    def successors(self, state, t):
        marking, data, table, sigma = state
        net = self.net
        marking = list(marking)
        for p in self.pre[t]:
            marking[p] -= 1
        for p in self.post[t]:
            marking[p] += 1
        written = net.wt.get(t, ())
        domains = [sorted(self.domain(t, d, data, table)) for d in written]
        out = set()
        for combo in product(*domains):
            new = list(data)
            for d in net.dt.get(t, ()):
                new[self.pos[d]] = None
            for d, v in zip(written, combo):
                new[self.pos[d]] = v
            written_only = tuple(new)
            selected = True
            for s in net.sel.get(t, ()):
                if s.assign_item:
                    values = self.scope_values(s, written_only, table)
                    if not values:
                        selected = False
                        break
                    new[self.pos[s.assign_item]] = values[0]
            if not selected:
                continue
            new = tuple(new)
            records = list(table)
            for op in net.ins.get(t, ()):
                rec = [None] * len(self.attrs)
                for attr, source in op.values:
                    rec[self.attrs.index(attr)] = self.value(new, source)
                records.append(tuple(rec))
            for op in net.dele.get(t, ()):
                col = self.attrs.index(op.where_attr)
                records = [r for r in records if r[col] != self.value(new, op.where_source)]
            for op in net.upd.get(t, ()):
                col = self.attrs.index(op.where_attr)
                kept, changed = [], []
                for r in records:
                    if r[col] != self.value(new, op.where_source):
                        kept.append(r)
                        continue
                    r = list(r)
                    for attr, source in op.sets:
                        r[self.attrs.index(attr)] = self.value(new, source)
                    changed.append(tuple(r))
                records = kept + changed
            new_table = canonical(records)
            moved = set(written) | set(net.dt.get(t, ()))
            options = []
            for g, old in zip(self.guards, sigma):
                if any(new[self.pos[d]] is None for d in self.deps(g)):
                    options.append([U])
                elif self.deps(g) & moved:
                    value = self.guard(g, new, new_table)
                    options.append([T, F] if self.mode == UNCONSTRAINED or value == U else [value])
                else:
                    options.append([old])
            for new_sigma in product(*options):
                if self.mode == CONSTRAINED and self.violates(new_sigma):
                    continue
                out.add((tuple(marking), new, new_table, new_sigma))
        return out

    def explore(self):
        net = self.net
        root = (
            tuple(1 if p == net.start else 0 for p in net.places),
            (None,) * len(net.data_items),
            canonical(net.initial_records),
            (U,) * len(self.guards),
        )
        seen, edges, queue = {root}, set(), deque([root])
        while queue:
            state = queue.popleft()
            for t in net.transitions:
                if not self.enabled(state, t):
                    continue
                for succ in self.successors(state, t):
                    edges.add((state, t, succ))
                    if succ not in seen:
                        seen.add(succ)
                        queue.append(succ)
        pseudo = {s: self.mode == UNCONSTRAINED and self.violates(s[3]) for s in seen}
        return seen, edges, pseudo


def graph_of(srg):
    states = [(s.marking, s.data, s.table, s.sigma) for s in srg.states]
    edges = [(states[a], t, states[b]) for a, t, b in arc_triples(srg)]
    assert len(set(states)) == len(states) and len(set(edges)) == len(edges)
    return set(states), set(edges), dict(zip(states, srg.pseudo))


def assert_agrees(net, mode, **limit):
    """Compare both explorers and return the graph; ``None`` when the net
    exceeds ``limit``."""
    try:
        srg = build_srg(net, mode, **limit)
    except ResourceLimitError:
        return None
    states, edges, pseudo = graph_of(srg)
    ref_states, ref_edges, ref_pseudo = Reference(net, mode).explore()
    assert states == ref_states
    assert edges == ref_edges
    assert pseudo == ref_pseudo
    return srg


# ---------------------------------------------------------------------------
# random small nets


def random_model(rng: random.Random) -> str:
    places = [f"p{i}" for i in range(rng.randint(3, 6))]
    transitions = [f"t{i}" for i in range(rng.randint(2, 6))]
    # tokens mostly move forward, so runs get long; a looping net moves
    # one token and some arcs lead back, an acyclic one forks and joins
    looping = rng.random() < 0.5
    arcs, reached = [], [places[0]]
    for t in transitions:
        sources = rng.sample(reached, min(len(reached), 1 if looping else rng.choice((1, 1, 2))))
        later = places[max(map(places.index, sources)) + 1:]
        if looping and (not later or rng.random() < 0.15):
            later = places[1:]
        targets = rng.sample(later, min(len(later), 1 if looping else rng.choice((1, 1, 2))))
        arcs += [f"{p}->{t}" for p in sources] + [f"{t}->{p}" for p in targets]
        reached += [p for p in targets if p not in reached]
    items = [f"d{i}" for i in range(rng.randint(1, 3))]
    cols = ("A", "B")
    consts = ["a1", "a2", "b1", "x"]
    lines = [
        f"[PLACES] {' '.join(places)}",
        f"[TRANSITIONS] {' '.join(transitions)}",
        f"[ARCS] {' '.join(arcs)}",
        f"[DATA] {' '.join(items)}",
    ]
    has_table = rng.random() < 0.85
    if has_table:
        lines.append("[TABLE] R(A, B)")
        for _ in range(rng.choice((0, 1, 2, 2, 3))):
            lines.append(f"  {rng.choice(['a1', 'a2', 'a10', '-'])}, {rng.choice(['b1', 'b1', 'b2', '-'])}")

    def source():
        return rng.choice(items + items + consts)

    ops = []
    for i, t in enumerate(transitions):
        chosen = []
        if rng.random() < 0.7:
            chosen.append(f"wt({', '.join(rng.sample(items, rng.randint(1, len(items))))})")
        if i and rng.random() < 0.15:
            chosen.append(f"rd({rng.choice(items)})")
        if rng.random() < 0.2:
            chosen.append(f"dt({rng.choice(items)})")
        if has_table:
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                col, other = rng.sample(cols, 2)
                # an assignment whose filter reads an unwritten item
                # disables its transition, so t0 has none
                assign = f" -> {rng.choice(items)}" if i and rng.random() < 0.4 else ""
                where = f" where {other}={source()}" if rng.random() < 0.5 else ""
                chosen.append(f"sel(R.{col}{where}{assign})")
            if i and rng.random() < 0.15:
                # a second assignment filtering on the first one's item
                first, second = rng.choice(items), rng.choice(items)
                chosen.append(f"sel(R.A -> {first}) sel(R.B where A={first} -> {second})")
            if rng.random() < 0.2:
                chosen.append(f"ins(R: A={source()}{', B=' + source() if rng.random() < 0.5 else ''})")
            if i and rng.random() < 0.15:
                chosen.append(f"del(R where {rng.choice(('A=a1', 'B=b1', 'B=' + rng.choice(items)))})")
            if i and rng.random() < 0.15:
                col, other = rng.sample(cols, 2)
                chosen.append(f"upd(R: {col}={source()} where {other}={source()})")
        if chosen:
            ops.append(f"  {t}: {' '.join(chosen)}")
    if ops:
        lines += ["[OPS]"] + ops

    preds = []
    for i in range(rng.randint(0, 4)):
        kind = rng.choice(("in", "in", "in", "eq", "def")) if has_table else rng.choice(("eq", "def"))
        item = rng.choice(items)
        body = {
            "in": f"in({item}, R.{rng.choice(cols)})",
            "eq": f"eq({item}, {rng.choice(consts)})",
            "def": f"def({item})",
        }[kind]
        preds.append(f"pi{i} = {body}")
    if preds:
        lines += ["[PREDICATES]"] + [f"  {p}" for p in preds]
        names = [p.split(" = ")[0] for p in preds]

        def literal():
            return ("!" if rng.random() < 0.3 else "") + rng.choice(names)

        guards = []
        for i in range(rng.randint(1, 3)):
            body = literal()
            if rng.random() < 0.4:
                body += f" {rng.choice('&|')} {literal()}"
            guards.append(f"g{i} = {body}")
        lines += ["[GUARDS]", "  " + " ; ".join(guards)]
        gnames = [g.split(" = ")[0] for g in guards]
        attached = [
            f"{t}:{'!' if rng.random() < 0.3 else ''}{rng.choice(gnames)}"
            for t in transitions[1:]
            if rng.random() < 0.25
        ]
        if attached:
            lines.append(f"[GUARDMAP] {' '.join(attached)}")
        if rng.random() < 0.6:
            g = rng.sample(gnames, min(2, len(gnames)))
            if len(g) == 2:
                lines += ["[CONSTRAINTS]", f"  ({g[0]} & !{g[1]}) | (!{g[0]} & {g[1]})"]
            else:
                lines += ["[CONSTRAINTS]", f"  {g[0]} | !{g[0]}"]
    lines += [f"[INITIAL] {places[0]}", f"[FINAL] {places[-1]}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", [CONSTRAINED, UNCONSTRAINED])
def test_random_nets_agree_with_the_reference(mode):
    rng = random.Random(4242)
    compared = 0
    for _ in range(300):
        compared += assert_agrees(parse_model(random_model(rng)), mode, limit=300) is not None
    # a few looping nets grow their table forever
    assert compared >= 280


# the names each copy of a ``random_model`` net renames in ``parallel_nets``:
# places, transitions, data items, predicates and guards
_RANDOM_NAMES = re.compile(r"\b(p\d+|t\d+|d\d+|pi\d+|g\d+)\b")


@pytest.mark.parametrize("mode, median", [(CONSTRAINED, 10.5), (UNCONSTRAINED, 44)])
def test_two_random_nets_between_a_fork_and_a_join_agree_with_the_reference(mode, median):
    # a random net alone has a median of 3 states; two of them interleave
    # over one shared table, so their graphs are deeper and wider
    rng = random.Random(3535)
    sizes = []
    for _ in range(100):
        text = parallel_nets([random_model(rng), random_model(rng)], _RANDOM_NAMES)
        srg = assert_agrees(parse_model(text), mode, limit=2000)
        if srg is not None:
            sizes.append(len(srg.states))
    assert len(sizes) >= 90
    assert statistics.median(sizes) == median


@pytest.mark.parametrize("mode, states", [(CONSTRAINED, 120), (UNCONSTRAINED, 4341)])
def test_four_row_table_agrees_with_the_reference(mode, states):
    assert len(assert_agrees(parse_model(table_model(4)), mode).states) == states


@pytest.fixture(scope="module")
def sixteen_rows():
    net = parse_model(table_model(16))
    return net, assert_agrees(net, CONSTRAINED)


def test_sixteen_row_table_agrees_with_the_reference(sixteen_rows):
    _, srg = sixteen_rows
    assert (len(srg.states), len(srg.edges)) == (1020, 1375)


@pytest.fixture(scope="module")
def fast_path_graphs(sixteen_rows):
    """Graphs where each fast path of ``enabled`` and ``fire`` is taken
    often: plain firings dominate the unconstrained ones, data-dependent
    enabling tests the constrained table-16 graph."""
    wfd, four = parse_model(fixture_text("motivating-wfd.wftc")), parse_model(table_model(4))
    return {
        "wfd-unconstrained": build_srg(wfd, UNCONSTRAINED),
        "table-4-unconstrained": build_srg(four, UNCONSTRAINED),
        "table-16-constrained": sixteen_rows[1],
    }


def test_enabled_agrees_with_the_reference_on_every_pair(fast_path_graphs):
    # every (state, transition) pair, also those the build never fires
    for name, srg in fast_path_graphs.items():
        ref = Reference(srg.net, srg.mode)
        for state in srg.states:
            as_tuple = (state.marking, state.data, state.table, state.sigma)
            for t in srg.net.transitions:
                assert enabled(srg.net, state, t) == ref.enabled(as_tuple, t), (name, state, t)


def test_fire_without_a_build_gives_the_out_edges(fast_path_graphs):
    # each call answers from its own table store, and a build from one
    # store for the whole graph; both must give the same successors
    for name, srg in fast_path_graphs.items():
        net = srg.net
        number = {state: i for i, state in enumerate(srg.states)}
        edges = set()
        for i, state in enumerate(srg.states):
            for t in net.transitions:
                if enabled(net, state, t):
                    successors = fire(net, state, t, srg.mode)
                    assert len(set(successors)) == len(successors), (name, state, t)
                    edges.update((i, t, number[succ]) for succ in successors)
        assert len(edges) == len(srg.edges), name
        assert edges == set(arc_triples(srg)), name


def test_net_2_agrees_with_the_reference():
    # two copies of the bundled model fork, interleave over one shared
    # table and join: 198 markings instead of one token's 14
    srg = assert_agrees(parse_model(parallel_model(2)), CONSTRAINED)
    assert (len(srg.states), len(srg.edges)) == (3424, 9094)
