"""The evaluator against a naive per-state reference.

The reference below evaluates every subformula at every state and every
fixed point by plain iteration over the whole graph. It follows the
formula semantics of the README and shares no helper with ``wftc.dctl``
or ``wftc.compiler``:
it has its own atom comparison, token ordering and quantifier
classification.
"""

import copy
import json
import random
import re

from conftest import arcs_of, bitset, make_copied_srg, make_random_srg, table_model
from test_bisimulation import classes
from wftc import CONSTRAINED, build_srg, parse_dctl, parse_model, sat, verify
from wftc import dctl as ast
from wftc.cli import main
from wftc.model import TableSchema, WftcNet, canonical_table
from wftc.srg import Srg, StateC

# ---------------------------------------------------------------------------
# reference evaluator


class Naive:
    def __init__(self, srg):
        self.srg = srg
        self.net = srg.net
        self.n = len(srg.states)
        self.succ = [set() for _ in range(self.n)]
        for src, dst in zip(srg.edges.src, srg.edges.dst):
            self.succ[src].add(dst)

    def sat(self, node) -> set:
        everything = set(range(self.n))
        if isinstance(node, ast.Not):
            return everything - self.sat(node.inner)
        if isinstance(node, ast.And):
            return self.sat(node.lhs) & self.sat(node.rhs)
        if isinstance(node, ast.Or):
            return self.sat(node.lhs) | self.sat(node.rhs)
        if isinstance(node, ast.EX):
            inner = self.sat(node.inner)
            return {s for s in everything if self.succ[s] & inner}
        if isinstance(node, ast.EG):
            hold, z = self.sat(node.inner), everything
            while True:
                step = {s for s in hold & z if not self.succ[s] or self.succ[s] & z}
                if step == z:
                    return z
                z = step
        if isinstance(node, (ast.EU, ast.AU)):
            lhs, rhs, z = self.sat(node.lhs), self.sat(node.rhs), set()
            while True:
                if isinstance(node, ast.EU):
                    step = rhs | {s for s in lhs if self.succ[s] & z}
                else:
                    step = rhs | {s for s in lhs if self.succ[s] and self.succ[s] <= z}
                if step == z:
                    return z
                z = step
        return {s for s in everything if self.local(node, self.srg.states[s], {})}

    def local(self, node, state, binding) -> bool:
        if isinstance(node, ast.TrueF):
            return True
        if isinstance(node, ast.PlaceAtom):
            return state.marking[self.net.places.index(node.place)] > 0
        if isinstance(node, ast.Not):
            return not self.local(node.inner, state, binding)
        if isinstance(node, ast.And):
            return self.local(node.lhs, state, binding) and self.local(node.rhs, state, binding)
        if isinstance(node, ast.Or):
            return self.local(node.lhs, state, binding) or self.local(node.rhs, state, binding)
        if isinstance(node, ast.Quantifier):
            if self.ranges_over_records(node):
                results = [
                    self.local(node.body, state, {**binding, node.var: row}) for row in state.table
                ]
                return all(results) if node.kind == "forall" else any(results)
            return node.var in self.keys(state.table) and self.local(
                node.body, state, {**binding, node.var: node.var}
            )
        assert isinstance(node, ast.DataAtom)
        return self.compare(node, binding)

    def ranges_over_records(self, q) -> bool:
        schema = self.net.schema
        if schema is None:
            return True
        todo = [q.body]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.DataAtom):
                for term in (node.lhs, node.rhs):
                    if term[0] == "attr" and term[1] == q.var and term[2] in schema.attributes:
                        return True
            elif isinstance(node, ast.Quantifier):
                if node.var != q.var:
                    todo.append(node.body)
            else:
                todo.extend(
                    getattr(node, name) for name in ("inner", "lhs", "rhs") if hasattr(node, name)
                )
        return False

    def keys(self, table):
        return {row[0] for row in table if row[0] is not None}

    def value(self, term, binding):
        if term[0] == "empty":
            return None
        if term[0] == "const":
            return term[1]
        if term[0] == "var":
            return binding[term[1]]
        row = binding[term[1]]
        if isinstance(row, str):
            return term[2]  # a literal variable's attribute is a plain token
        return row[self.net.schema.attributes.index(term[2])]

    def compare(self, atom, binding) -> bool:
        a, b = self.value(atom.lhs, binding), self.value(atom.rhs, binding)
        if "empty" in (atom.lhs[0], atom.rhs[0]):
            other = b if atom.lhs[0] == "empty" else a
            return {"=": other is None, "!=": other is not None}.get(atom.op, False)
        if isinstance(a, tuple) or isinstance(b, tuple):
            return a == b if atom.op == "=" else a != b
        if a is None or b is None:
            return False
        if atom.op in ("=", "!="):
            return (a == b) == (atom.op == "=")
        ka, kb = order_key(a), order_key(b)
        return {"<": ka < kb, "<=": ka <= kb, ">": ka > kb, ">=": ka >= kb}[atom.op]

    def precondition(self, node) -> set:
        chain = []
        while True:
            if isinstance(node, ast.Quantifier):
                chain.append(node)
                node = node.body
            elif isinstance(node, (ast.Not, ast.EX, ast.EG)):
                node = node.inner
            elif isinstance(node, (ast.EU, ast.AU)):
                node = node.rhs
            else:
                break
        return {
            s
            for s, state in enumerate(self.srg.states)
            if all(
                state.table if self.ranges_over_records(q) else q.var in self.keys(state.table)
                for q in chain
            )
        }


def order_key(token: str):
    # tokens sharing a prefix order by their numeric suffix
    m = re.fullmatch(r"(.*?)(\d+)", token)
    return (m.group(1), int(m.group(2)), token) if m else (token, -1, token)


def assert_agrees(srg, formula):
    naive = Naive(srg)
    pre = naive.precondition(formula)
    verdict = verify(srg, formula)
    assert verdict.pre_bits == bitset(pre)
    if pre:
        expected = naive.sat(formula)
        assert sat(srg, formula) == verdict.sat_bits == bitset(expected)
        assert verdict.holds == (srg.initial in expected)
    else:
        assert not verdict.holds and verdict.sat_bits == 0


# ---------------------------------------------------------------------------
# random formulas on random graphs


def random_formula(rng, n, depth, quantifiers=True):
    """Over places q0..q{n-1}; without ``quantifiers`` the leaves that
    would be quantifiers are ``deadlock`` (``!EX true``) instead."""
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.1:
            return ast.TrueF()
        place = ast.PlaceAtom(f"q{rng.randrange(n)}")
        if roll < 0.2:
            if not quantifiers:
                return ast.Not(ast.EX(ast.TrueF()))
            # the random graphs have no table: quantifiers range over nothing
            return ast.Quantifier(rng.choice(("forall", "exists")), "r", place)
        return place
    unary = (ast.Not, ast.EX, ast.EG)
    binary = (ast.And, ast.Or, ast.EU, ast.AU)
    op = rng.choice(unary + binary)
    if op in unary:
        return op(random_formula(rng, n, depth - 1, quantifiers))
    return op(
        random_formula(rng, n, depth - 1, quantifiers), random_formula(rng, n, depth - 1, quantifiers)
    )


def test_random_formulas_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(150):
        srg = make_random_srg(rng, max_states=16)
        for _ in range(8):
            assert_agrees(srg, random_formula(rng, len(srg.states), 4))


def test_quantifier_free_formulas_on_graphs_with_shared_markings():
    # few markings, so bisimilar states merge and formulas are decided on
    # a quotient smaller than the graph
    rng = random.Random(2025)
    merged = 0
    for _ in range(150):
        srg = make_copied_srg(rng, max_states=16, markings=2)
        merged += len(classes(srg)) < len(srg.states)
        for _ in range(8):
            assert_agrees(srg, random_formula(rng, 2, 4, quantifiers=False))
    assert merged >= 120


def test_memo_is_per_graph():
    # the same formula objects, evaluated on two graphs in turn
    rng = random.Random(7)
    formulas = [random_formula(rng, 2, 3) for _ in range(30)]
    first, second = (make_random_srg(random.Random(seed), max_states=8) for seed in (1, 2))
    for graph in (first, second, first):
        for formula in formulas:
            assert sat(graph, formula) == bitset(Naive(graph).sat(formula))
    assert any(sat(first, f) != sat(second, f) for f in formulas)


def test_a_copied_graph_drops_its_memo():
    srg = make_random_srg(random.Random(3), max_states=6)
    ex_q0 = ast.EX(ast.PlaceAtom("q0"))
    for pred in (2, 1):
        srg.edges = arcs_of(srg.net, [(pred, "t", 0)])
        srg = copy.copy(srg)
        assert srg.evaluation is None and sat(srg, ex_q0) == 1 << pred


# ---------------------------------------------------------------------------
# quantified formulas over hand-built tables

ATTRIBUTES = ("Id", "License", "Copy")
# per column: numeric-suffix tokens that order differently as text, and UNDEF
CELLS = (("id1", "id2", "id10", None), ("license2", "license10", None), ("copy1", None))
TOKENS = ("id1", "id10", "license2", "license10", "copy1", "zz")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
# literal variables name key tokens, and one token found only outside the key column
RECORD_VARIABLES, LITERAL_VARIABLES = ("r", "s", "u"), ("id1", "id10", "license2")


def make_table_srg(rng, max_states=10, tables=None):
    """A random graph whose states carry the canonical forms of ``tables``
    of ``R(Id, License, Copy)`` or else random ones: empty and one-row
    tables, repeated column values and UNDEF cells. Each state marks
    three places at random."""
    net = WftcNet(
        places=[f"q{i}" for i in range(3)],
        transitions=["t"],
        schema=TableSchema("R", ATTRIBUTES),
        start="q0",
        end="q2",
    )
    if tables is None:
        sizes = (rng.choice((0, 1, 1, 2, 3, 4, 6)) for _ in range(rng.randint(2, max_states)))
        tables = [[tuple(map(rng.choice, CELLS)) for _ in range(k)] for k in sizes]
    n = len(tables)
    states = [StateC(tuple(rng.randrange(2) for _ in range(3)), (), canonical_table(rows), ()) for rows in tables]
    arcs = arcs_of(net, [(i, "t", j) for i in range(n) for j in range(n) if rng.random() < 2 / n])
    return Srg(net, CONSTRAINED, states, arcs, rng.randrange(n), [False] * n)


def random_term(rng, bound):
    roll, var = rng.random(), rng.choice(bound) if bound else None
    if var is None or roll < 0.2:
        return ("const", rng.choice(TOKENS))
    if roll < 0.3:
        return ("empty",)
    if roll < 0.5 or var in LITERAL_VARIABLES and roll < 0.7:
        return ("var", var)
    # a literal variable's attribute outside the schema is a plain token
    return ("attr", var, rng.choice(("copy1",) if var in LITERAL_VARIABLES else ATTRIBUTES))


def random_comparison(rng, bound):
    lhs, rhs = random_term(rng, bound), random_term(rng, bound)
    records = [t for t in (lhs, rhs) if t[0] == "var" and t[1] in RECORD_VARIABLES]
    # an ordered comparison of whole records is an EvalError, pinned in test_dctl
    ordered = not records or "empty" in (lhs[0], rhs[0])
    return ast.DataAtom(lhs, rng.choice(OPERATORS if ordered else ("=", "!=")), rhs)


def random_block(rng):
    """Two or three directly nested record quantifiers, of one kind or
    mixed, over a matrix that compares the variables on one column or
    whole and, in half of the blocks, each against tokens."""
    names = rng.sample(RECORD_VARIABLES, rng.choice((2, 2, 3)))
    column = rng.choice(ATTRIBUTES)
    kind = rng.choice(("forall", "exists"))
    kinds = [kind if rng.random() < 0.5 else rng.choice(("forall", "exists")) for _ in names]
    filters = rng.random() < 0.5

    def matrix(depth):
        roll = rng.random()
        if depth and roll < 0.45:
            if roll < 0.1:
                return ast.Not(matrix(depth - 1))
            return rng.choice((ast.And, ast.Or))(matrix(depth - 1), matrix(depth - 1))
        a, b = rng.sample(names, 2)
        if roll < 0.65 or roll >= 0.8 and not filters:
            return ast.DataAtom(("attr", a, column), rng.choice(("=", "!=")), ("attr", b, column))
        if roll < 0.75:
            return ast.DataAtom(("var", a), rng.choice(("=", "!=")), ("var", b))
        if roll < 0.8:
            return ast.PlaceAtom(f"q{rng.randrange(3)}")
        return random_comparison(rng, [a])

    node = matrix(3)
    for name, kind in zip(reversed(names), reversed(kinds)):
        node = ast.Quantifier(kind, name, node)
    return node


def random_quantified(rng, bound=(), quantifiers=3, depth=3):
    """A state-local formula with up to ``quantifiers`` nested quantifiers
    over record variables (r, s, u) and literal ones (id1, id10, license2)."""
    roll = rng.random()
    if quantifiers and (not bound or roll < 0.3):
        var = rng.choice(RECORD_VARIABLES + LITERAL_VARIABLES)
        body = random_quantified(rng, bound + (var,), quantifiers - 1, depth)
        return ast.Quantifier(rng.choice(("forall", "exists")), var, body)
    if depth and roll < 0.6:
        if roll < 0.4:
            return ast.Not(random_quantified(rng, bound, quantifiers, depth - 1))
        op = rng.choice((ast.And, ast.Or))
        return op(*(random_quantified(rng, bound, quantifiers, depth - 1) for _ in range(2)))
    if roll < 0.7:
        return ast.PlaceAtom(f"q{rng.randrange(3)}")
    return random_comparison(rng, bound)


def test_quantified_formulas_on_hand_built_tables():
    rng = random.Random(2026)
    for _ in range(150):
        srg = make_table_srg(rng)
        for _ in range(8):
            local = random_block(rng) if rng.random() < 0.5 else random_quantified(rng)
            wrap = rng.choice((lambda f: f, ast.EX, ast.EG, lambda f: ast.EU(ast.PlaceAtom("q0"), f)))
            assert_agrees(srg, wrap(local))


def test_block_with_a_one_variable_atom_and_an_undefined_cell():
    # only the pair of the row without a Copy and the other row, which
    # fails `s.Id = id1`, falsifies the matrix
    srg = make_table_srg(random.Random(1), tables=[[("id1", None, None), ("id2", None, "copy1")]])
    text = "forall r in R, forall s in R, [r.Copy = s.Copy | r.Copy != s.Copy | s.Id = id1]"
    assert_agrees(srg, parse_dctl(text, srg.net))
    assert not verify(srg, parse_dctl(text, srg.net)).holds


def test_blocks_the_witness_pairs_would_misjudge():
    # the rows (id1, copy1) and (id2, copy2) are the witnesses of two
    # different ids; the third row falsifies the matrix with either, so
    # the record loops must decide a one-variable atom or a second column
    for third, text in (
        (("id3", None, None), "forall r in R, forall s in R, [r.Id = s.Id | r.Copy = copy1]"),
        (("id3", None, "copy1"), "forall r in R, forall s in R, [r = s | r.Id = s.Id | r.Copy != s.Copy]"),
    ):
        rows = [("id1", None, "copy1"), ("id2", None, "copy2"), third]
        srg = make_table_srg(random.Random(1), tables=[rows])
        assert_agrees(srg, parse_dctl(text, srg.net))
        assert not verify(srg, parse_dctl(text, srg.net)).holds


# ---------------------------------------------------------------------------
# table-8: the motivating net with an eight-row User table


TABLE_FORMULAS = [
    "forall r in R, [r.License != empty]",
    "exists r in R, [r.License = empty]",
    "exists r in R, [r.Id = id9]",
    "forall r in R, [r.Copy = empty | r.License < license5]",
    "AG(forall r1 in R, forall r2 in R, [r1 != r2 -> r1.License != r2.License])",
    "EF(exists r in R, [r.Id >= id9 & r.License = empty])",
    "A(p1 | p2 | p0 U exists r in R, [r.Copy != empty])",
    "E((forall id3 in R), [id3 != empty U id3.license3 = empty])",
    "EG((forall id10 in R), [id10.copy = true])",
    "AX((exists id1 in R), [id1.copy1 != empty])",
    "p7 -> EX(forall r in R, [p8 | r.Id != id2])",
    "exists r in R, [forall s in R, [r = s | r.Id < s.Id]]",
    "!(exists r in R, [r.License > license8]) & EG !p13",
    "exists r in R, [p2 & r.Id = id1]",
    "p0 | (exists id9 in R, [id9 != empty])",
]


def test_table8_metrics_and_quantified_formulas():
    net = parse_model(table_model(8))
    srg = build_srg(net, CONSTRAINED)
    assert len(srg.states) == 324
    formulas = [build(net) for build in ast._PM_BUILDERS.values()] + [parse_dctl(text, net) for text in TABLE_FORMULAS]
    for formula in formulas:
        assert_agrees(srg, formula)


def test_table8_metric_sat_counts(tmp_path, capsys):
    model = tmp_path / "table-8.wftc"
    model.write_text(table_model(8), encoding="utf-8")
    code = main(["metrics", str(model), "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (report["stateCount"], report["arcCount"]) == (324, 439)
    assert [(f["name"], f["verdict"], f["satCount"]) for f in report["formulas"]] == [
        ("PM1", "TRUE", 323),
        ("PM2", "TRUE", 324),
        ("PM3", "TRUE", 13),
        ("PM4", "TRUE", 323),
        ("PM5", "FALSE", 0),
    ]
    assert report["formulas"][4]["evidence"] == ["c0"]
