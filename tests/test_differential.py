"""The evaluator against a naive per-state reference.

The reference below evaluates every subformula at every state and every
fixed point by plain iteration over the whole graph. It follows the
formula semantics of the README and shares no helper with ``wftc.dctl``:
it has its own atom comparison, token ordering and quantifier
classification.
"""

import json
import random
import re

from conftest import fixture_text, make_copied_srg, make_random_srg
from test_bisimulation import classes
from wftc import CONSTRAINED, build_srg, parse_dctl, parse_model, sat, verify
from wftc import dctl as ast
from wftc.cli import main
from wftc.dctl import metric_formulas

# ---------------------------------------------------------------------------
# reference evaluator


class Naive:
    def __init__(self, srg):
        self.srg = srg
        self.net = srg.net
        self.n = len(srg.states)
        self.succ = [set() for _ in range(self.n)]
        for src, _, dst in srg.edges:
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
            return state.marking[[p.name for p in self.net.places].index(node.place)] > 0
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
    assert verdict.pre_set == pre
    if pre:
        expected = naive.sat(formula)
        assert sat(srg, formula) == expected
        assert verdict.sat_set == expected
        assert verdict.holds == (srg.initial in expected)
    else:
        assert not verdict.holds and verdict.sat_set == set()


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
            assert sat(graph, formula) == Naive(graph).sat(formula)
    assert any(sat(first, f) != sat(second, f) for f in formulas)


def test_refinishing_a_graph_drops_its_memo():
    srg = make_random_srg(random.Random(3), max_states=6)
    ex_q0 = ast.EX(ast.PlaceAtom("q0"))
    for pred in (2, 1):
        srg.edges = [(pred, "t", 0)]
        srg.finish()
        assert sat(srg, ex_q0) == {pred}


# ---------------------------------------------------------------------------
# table-8: the motivating net with an eight-row User table


def table_model(rows: int) -> str:
    text = fixture_text("motivating.wftc")
    grown = "".join(f"  id{k}, license{k}, copy{k}\n" for k in range(1, rows + 1))
    return re.sub(r"(\[TABLE\] User\(Id, License, Copy\)\n)(  id\d+,.*\n)+", r"\g<1>" + grown, text)


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
    texts = list(metric_formulas(net).values()) + TABLE_FORMULAS
    for text in texts:
        assert_agrees(srg, parse_dctl(text, net))


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
