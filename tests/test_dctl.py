"""Formula evaluation: satisfaction sets, fixed points, verification."""

import pickle
import random
import tracemalloc

import pytest

from conftest import METRIC_TEXTS, bitset, fixture_text, make_random_srg, requirement_texts, table_model
from wftc import (
    CONSTRAINED,
    UNCONSTRAINED,
    build_srg,
    builtin_metrics,
    parse_dctl,
    parse_model,
    sat,
    sat_au,
    sat_eg,
    sat_eu,
    sat_ex,
    verify,
)
from wftc import dctl as ast
from wftc.dctl import EvalError, Verdict, _Compiler, _Evaluation
from wftc.srg import Srg, StateC


# ---------------------------------------------------------------------------
# bounded-path oracles (independent of the fixed-point implementations and
# of the graph's own adjacency: they read ``srg.edges`` alone)


def successor_sets(srg):
    succ = [set() for _ in srg.states]
    for src, _, dst in srg.edges:
        succ[src].add(dst)
    return succ


def oracle_ex(srg, target):
    succ = successor_sets(srg)
    return {i for i in range(len(srg.states)) if succ[i] & target}


def oracle_eg(srg, hold):
    # some maximal path stays in `hold`: a lasso inside it or a dead end
    succ = successor_sets(srg)

    def search(node, stack):
        if node not in hold:
            return False
        if node in stack:
            return True
        if not succ[node]:
            return True
        stack.add(node)
        ok = any(search(s, stack) for s in succ[node])
        stack.discard(node)
        return ok

    return {i for i in range(len(srg.states)) if search(i, set())}


def oracle_eu(srg, lhs, rhs):
    succ = successor_sets(srg)

    def search(node, seen):
        if node in rhs:
            return True
        if node not in lhs or node in seen:
            return False
        seen.add(node)
        return any(search(s, seen) for s in succ[node])

    return {i for i in range(len(srg.states)) if search(i, set())}


def oracle_au(srg, lhs, rhs):
    # every maximal path must reach `rhs` through `lhs`; a cycle or dead end
    # before `rhs` refutes it
    succ = successor_sets(srg)

    def search(node, stack):
        if node in rhs:
            return True
        if node not in lhs or node in stack:
            return False
        if not succ[node]:
            return False
        stack.add(node)
        ok = all(search(s, stack) for s in succ[node])
        stack.discard(node)
        return ok

    return {i for i in range(len(srg.states)) if search(i, set())}


def random_sets(rng, n):
    return (
        {i for i in range(n) if rng.random() < 0.6},
        {i for i in range(n) if rng.random() < 0.3},
    )


def test_fixed_points_agree_with_path_oracles():
    rng = random.Random(1234)
    for _ in range(120):
        srg = make_random_srg(rng)
        lhs, rhs = random_sets(rng, len(srg.states))
        a, b = bitset(lhs), bitset(rhs)
        assert sat_ex(srg, a) == bitset(oracle_ex(srg, lhs))
        assert sat_eg(srg, a) == bitset(oracle_eg(srg, lhs))
        assert sat_eu(srg, a, b) == bitset(oracle_eu(srg, lhs, rhs))
        assert sat_au(srg, a, b) == bitset(oracle_au(srg, lhs, rhs))


def test_fixed_points_agree_with_path_oracles_over_parallel_arcs():
    # two transitions between one pair of states are two arcs of the
    # adjacency but one successor of the oracles
    rng = random.Random(4321)
    for _ in range(60):
        srg = make_random_srg(rng)
        srg.edges += [(src, "u", dst) for src, _, dst in srg.edges if rng.random() < 0.5]
        srg.finish()
        lhs, rhs = random_sets(rng, len(srg.states))
        a, b = bitset(lhs), bitset(rhs)
        assert sat_ex(srg, a) == bitset(oracle_ex(srg, lhs))
        assert sat_eg(srg, a) == bitset(oracle_eg(srg, lhs))
        assert sat_eu(srg, a, b) == bitset(oracle_eu(srg, lhs, rhs))
        assert sat_au(srg, a, b) == bitset(oracle_au(srg, lhs, rhs))


def test_fixed_point_trivial_cases():
    rng = random.Random(5)
    srg = make_random_srg(rng, max_states=12)
    everything = (1 << len(srg.states)) - 1
    assert sat_ex(srg, 0) == 0
    assert sat_eg(srg, 0) == 0
    assert sat_eu(srg, everything, 0) == 0
    assert sat_au(srg, everything, 0) == 0
    assert sat_eu(srg, 0, everything) == everything
    assert sat_au(srg, 0, everything) == everything


def test_monotonicity():
    rng = random.Random(77)
    for _ in range(40):
        srg = make_random_srg(rng, max_states=14)
        small, extra = map(bitset, random_sets(rng, len(srg.states)))
        big = small | extra
        other = bitset(i for i in range(len(srg.states)) if rng.random() < 0.4)
        # a <= b as sets: no bit of a outside b
        for a, b in [
            (sat_ex(srg, small), sat_ex(srg, big)),
            (sat_eg(srg, small), sat_eg(srg, big)),
            (sat_eu(srg, small, other), sat_eu(srg, big, other)),
            (sat_au(srg, small, other), sat_au(srg, big, other)),
            (sat_eu(srg, other, small), sat_eu(srg, other, big)),
            (sat_au(srg, other, small), sat_au(srg, other, big)),
        ]:
            assert a & ~b == 0


def test_complement_and_duality_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        srg = make_random_srg(rng, max_states=15)
        n = len(srg.states)
        everything = (1 << n) - 1
        atom = ast.PlaceAtom(f"q{rng.randrange(n)}")
        phi = ast.Or(atom, ast.EX(ast.PlaceAtom(f"q{rng.randrange(n)}")))
        assert sat(srg, ast.Not(phi)) == everything ^ sat(srg, phi)
        # AG f == !E(true U !f)
        ag = ast.Not(ast.EU(ast.TrueF(), ast.Not(phi)))
        assert sat(srg, ag) == everything ^ sat(srg, ast.EU(ast.TrueF(), ast.Not(phi)))


# ---------------------------------------------------------------------------
# atoms and quantifiers on the motivating graph

ALL54 = (1 << 54) - 1  # every state of the motivating graph


def test_place_atom_at_initial(motivating_net, motivating_srg):
    assert sat(motivating_srg, ast.PlaceAtom("p0")) >> motivating_srg.initial & 1


def test_atom_reflexive_inequality_is_false(motivating_net, motivating_srg):
    formula = parse_dctl(
        "forall r1 in R, [r1.Id != r1.Id]", motivating_net
    )
    assert sat(motivating_srg, formula) == 0


def test_empty_comparison_selects_unset_cells(motivating_net, motivating_srg):
    formula = parse_dctl("exists r in R, [r.License = empty]", motivating_net)
    hits = sat(motivating_srg, formula)
    assert hits
    for i, state in enumerate(motivating_srg.states):
        if hits >> i & 1:
            assert any(rec[1] is None for rec in state.table)
    formula2 = parse_dctl("forall r in R, [r.License != empty]", motivating_net)
    assert sat(motivating_srg, formula2) == ALL54 ^ hits


def test_eval_atom_orders_by_numeric_suffix(motivating_net, motivating_srg):
    def holds(lhs, op, rhs) -> bool:
        return verify(motivating_srg, ast.DataAtom(("const", lhs), op, ("const", rhs))).holds

    assert holds("license1", "<", "license2")
    assert holds("license10", ">", "license2")
    assert not holds("license10", "<", "license2")


def test_eval_atom_unknown_attribute(motivating_net, motivating_srg):
    # ``r.Id`` makes ``r`` a record variable, so ``r.Nope`` names a column
    formula = parse_dctl("exists r in R, [r.Id != empty & r.Nope = x]", motivating_net)
    with pytest.raises(EvalError, match="unknown attribute Nope"):
        sat(motivating_srg, formula)


def test_sat_true_is_everything(motivating_srg, motivating_net):
    assert sat(motivating_srg, parse_dctl("true", motivating_net)) == ALL54


def test_sat_ex_example_count(motivating_net, motivating_srg):
    assert sat(motivating_srg, parse_dctl("EX(id1 != id2)", motivating_net)).bit_count() == 53


def test_sat_eg_example_count(motivating_net, motivating_srg):
    assert sat(motivating_srg, parse_dctl("EG(id1 != id2)", motivating_net)).bit_count() == 54


def test_until_examples_cover_everything(motivating_net, motivating_srg):
    eu = parse_dctl("E(id1 != id0 U license1 != license0)", motivating_net)
    au = parse_dctl("A(id1 != id0 U license1 != license0)", motivating_net)
    assert sat(motivating_srg, eu) == ALL54
    assert sat(motivating_srg, au) == ALL54


# ---------------------------------------------------------------------------
# verification driver


def test_phi1_holds(motivating_net, motivating_srg):
    phi1 = parse_dctl(
        "AG((forall id1 in R, forall id2 in R),"
        " [id1 != id2 -> id1.license1 != id2.license2])",
        motivating_net,
    )
    verdict = verify(motivating_srg, phi1)
    assert verdict.holds
    assert verdict.pre_bits == ALL54


def test_phi2_fails_through_empty_precondition(motivating_net, motivating_srg):
    phi2 = parse_dctl("EG((forall id10 in R), [id10.copy = true])", motivating_net)
    verdict = verify(motivating_srg, phi2)
    assert not verdict.holds
    assert verdict.pre_bits == 0


def test_verify_true_formula(motivating_net, motivating_srg):
    assert verify(motivating_srg, parse_dctl("true", motivating_net)).holds


def test_verify_reports_counterexample(motivating_net, motivating_srg):
    verdict = verify(motivating_srg, parse_dctl("AG !p13", motivating_net))
    assert not verdict.holds
    assert verdict.evidence
    assert verdict.evidence[0] == "c0"
    # the witness path ends in a state outside the satisfaction set
    last = int(verdict.evidence[-1][1:])
    assert not verdict.sat_bits >> last & 1


@pytest.mark.parametrize("mode", [CONSTRAINED, UNCONSTRAINED])
@pytest.mark.parametrize("name", ["motivating.wftc", "motivating-wfd.wftc"])
def test_false_verdicts_are_evidenced_by_the_initial_state(name, mode):
    # a verdict is the initial state's membership, so that state is the
    # evidence; a formula whose precondition holds nowhere has none
    net = parse_model(fixture_text(name))
    srg = build_srg(net, mode)
    verdicts = [verify(srg, parse_dctl(text, net)) for text in requirement_texts()]
    verdicts += [v for v in builtin_metrics(srg).values() if isinstance(v, Verdict)]
    false = [v for v in verdicts if not v.holds]
    assert false
    for verdict in false:
        assert verdict.evidence == (["c0"] if verdict.pre_bits else None)


def test_record_inequality_claim_fails_on_flaw_state(motivating_net, motivating_srg):
    # the literal-free record reading of the license-uniqueness claim is
    # refuted by the reachable state where two rows share a license value
    phi = parse_dctl(
        "AG(forall r1 in R, forall r2 in R, [r1 != r2 -> r1.License != r2.License])",
        motivating_net,
    )
    assert not verify(motivating_srg, phi).holds


# ---------------------------------------------------------------------------
# built-in metrics


def test_metrics_on_motivating_net(motivating_srg):
    results = builtin_metrics(motivating_srg)
    verdicts = {
        k: v.holds if isinstance(v, Verdict) else v for k, v in results.items()
    }
    assert verdicts == {
        "PM1": True,
        "PM2": True,
        "PM3": True,
        "PM4": True,
        "PM5": False,
    }


def test_metrics_without_table(tiny_net):
    results = builtin_metrics(build_srg(tiny_net))
    assert isinstance(results["PM3"], Verdict) and results["PM3"].holds
    for name in ("PM1", "PM2", "PM4", "PM5"):
        assert isinstance(results[name], str) and "not instantiable" in results[name]


def test_metrics_report_only_what_the_net_cannot_host(motivating_srg, monkeypatch):
    # an EvalError from a template is a reason; any other error is a fault
    # of the program and propagates
    def unhosted(net):
        raise EvalError("needs a fourth attribute")

    monkeypatch.setitem(ast._PM_BUILDERS, "PM3", unhosted)
    assert builtin_metrics(motivating_srg)["PM3"] == "not instantiable: needs a fourth attribute"

    def broken(net):
        raise TypeError("broken template")

    monkeypatch.setitem(ast._PM_BUILDERS, "PM3", broken)
    with pytest.raises(TypeError, match="broken template"):
        builtin_metrics(motivating_srg)


@pytest.mark.parametrize(
    "model, pm5",
    [
        (fixture_text("motivating.wftc"), METRIC_TEXTS["PM5"]),
        (table_model(8), "E((forall id9 in R), [id9 != empty U id9.license9 = empty])"),
    ],
    ids=["motivating", "table-8"],
)
def test_metric_trees_equal_their_parsed_texts(model, pm5):
    net = parse_model(model)
    texts = {**METRIC_TEXTS, "PM5": pm5}
    trees = {name: build(net) for name, build in ast._PM_BUILDERS.items()}
    assert trees == {name: parse_dctl(text, net) for name, text in texts.items()}


def test_pm2_matches_record_pair_scan(motivating_net, motivating_srg):
    # oracle: quadratic scan of record pairs for key-attribute collisions
    net = motivating_net
    key = net.schema.attr_index(net.schema.attributes[0])
    clean = True
    for s in motivating_srg.states:
        for a in s.table:
            for b in s.table:
                if a != b and a[key] == b[key]:
                    clean = False
    results = builtin_metrics(motivating_srg)
    assert results["PM2"].holds == clean


# ---------------------------------------------------------------------------
# compiled quantifier blocks: errors where evaluation reaches them


def with_rows(srg, rows: int):
    """The graph with every state's table cut to its first ``rows`` rows."""
    cut = Srg(net=srg.net, mode=srg.mode, initial=srg.initial)
    cut.states = [StateC(s.marking, s.data, s.table[:rows], s.sigma) for s in srg.states]
    cut.pseudo, cut.edges = list(srg.pseudo), list(srg.edges)
    return cut.finish()


def test_ordered_record_comparison_raises_where_reached(motivating_net, motivating_srg):
    formula = parse_dctl("forall r in R, [r.Id = empty | r < r]", motivating_net)
    with pytest.raises(EvalError, match="ordered comparison of whole records"):
        verify(motivating_srg, formula)
    # no record to compare: every table empty
    assert not verify(with_rows(motivating_srg, 0), formula).holds
    # never reached: the first row already satisfies the left operand
    reached = parse_dctl("exists r in R, [r.Id = r.Id | r < r]", motivating_net)
    assert verify(motivating_srg, reached).sat_bits == ALL54


def test_temporal_operator_below_quantifier_raises_where_reached(motivating_net, motivating_srg):
    formula = parse_dctl("forall r in R, [EX r.Id = id1]", motivating_net)
    with pytest.raises(EvalError, match="temporal operator nested below a quantifier"):
        verify(motivating_srg, formula)
    assert sat(with_rows(motivating_srg, 0), formula) == ALL54


def test_unknown_attribute_in_a_block_raises_where_reached(motivating_net, motivating_srg):
    # the join plan refuses a block that can raise; the record loops raise
    # at the first pair of rows with different ids
    block = ast.Quantifier(
        "forall",
        "r",
        ast.Quantifier(
            "forall",
            "s",
            ast.Or(
                ast.DataAtom(("attr", "r", "Id"), "=", ("attr", "s", "Id")),
                ast.DataAtom(("attr", "r", "Nope"), "=", ("const", "x")),
            ),
        ),
    )
    with pytest.raises(EvalError, match="unknown attribute Nope"):
        sat(motivating_srg, block)
    assert sat(with_rows(motivating_srg, 1), block) == ALL54


def test_join_plan_covers_two_variable_blocks(motivating_net):
    def planned(text):
        code = _Compiler(motivating_net).code(parse_dctl(text, motivating_net), {})
        return code.__name__ == "joined"

    assert planned("forall r1 in R, forall r2 in R, [r1 != r2 -> r1.Id != r2.Id]")
    assert planned("exists r in R, exists s in R, [r != s & r.Id = s.Id & p3]")
    assert planned("forall r in R, forall s in R, [r = s | r.License != s.License]")
    # mixed kinds, a one-variable atom, ordered, two columns, a whole-record
    # order, three variables: record loops
    assert not planned("forall r in R, exists s in R, [r.License = s.License]")
    assert not planned("forall r in R, forall s in R, [r.License = empty | s.License != r.License]")
    assert not planned("exists r in R, [exists s in R, [r = s | r.Id < s.Id]]")
    assert not planned("forall r in R, forall s in R, [r.Id = s.Id | r.Copy = s.Copy]")
    assert not planned("forall r in R, forall s in R, [r.Id = s.Id | r < s]")
    assert not planned("forall r in R, forall s in R, forall u in R, [r.Id != u.Id]")


def test_eval_atom_compares_whole_records_by_value(motivating_net, motivating_srg):
    # the one-variable atoms make both names record variables and keep the
    # join plan out, so the record loops compare each pair of rows: a copy
    # of a row equals it, another row does not
    same = parse_dctl("forall r in R, forall s in R, [r.Id != empty & s.Id != empty & r = s]", motivating_net)
    assert sat(motivating_srg, same) == 0
    doubled = with_rows(motivating_srg, 1)
    doubled.states = [StateC(s.marking, s.data, s.table + (tuple(list(s.table[0])),), s.sigma) for s in doubled.states]
    assert sat(doubled.finish(), same) == ALL54


def test_quantifier_free_operand_without_arcs_skips_the_quotient():
    # AG q is !E(true U !q): its `true` needs no walk, so no partition
    net = parse_model(table_model(8))
    srg = build_srg(net, CONSTRAINED)
    verdict = verify(srg, parse_dctl("AG((forall r in R), [r.Id != empty])", net))
    assert verdict.holds and verdict.sat_bits.bit_count() == 324
    assert "quotient" not in srg.evaluation.__dict__
    p3 = net.place_by_name["p3"].index
    assert sat(srg, parse_dctl("!p3", net)) == bitset(i for i, s in enumerate(srg.states) if not s.marking[p3])
    assert "quotient" not in srg.evaluation.__dict__


def test_state_groups_follow_values_in_order_of_first_state():
    # a build keeps one object per distinct table; copying every other
    # state's table makes equal tables that are distinct objects, and
    # groups are by value either way
    srg = build_srg(parse_model(table_model(8)), CONSTRAINED)
    assert len({id(s.table) for s in srg.states}) == len({s.table for s in srg.states})
    srg.states = [StateC(s.marking, s.data, tuple(list(s.table)) if i % 2 else s.table, s.sigma) for i, s in enumerate(srg.states)]
    states = srg.states
    assert len({id(s.table) for s in states}) > len({s.table for s in states})
    for marking in (False, True):
        for table in (False, True):
            members: dict = {}
            for i, s in enumerate(states):
                members.setdefault((s.marking if marking else None, s.table if table else None), set()).add(i)
            want = [(states[min(ids)].marking, states[min(ids)].table, ids) for ids in members.values()]
            groups, number = _Evaluation(srg.net, states, ()).partition(marking, table)
            assert len(number) == len(states)
            got = [(m, t, {i for i, g in enumerate(number) if g == k}) for k, (m, t) in enumerate(groups)]
            assert got == want


def test_evaluator_memory_grows_linearly_with_the_graph():
    # constrained table-64 has 3.7 times the states of table-32 (13 260 and
    # 3 564); what the metrics leave behind (adjacency, groups, quotient,
    # memoised bitsets) may grow at most 4.5 times, where one int of
    # predecessor bits per state or one full-width mask per group grew it
    # 7.5 times
    retained = []
    for n in (32, 64):
        srg = build_srg(parse_model(table_model(n)), CONSTRAINED)
        tracemalloc.start()
        try:
            builtin_metrics(srg)
            retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    assert retained[1] <= 4.5 * retained[0], retained


# ---------------------------------------------------------------------------
# verdicts pinned at the tree before the compiled blocks


def metric_counts(srg):
    return {name: (v.holds, v.sat_bits.bit_count()) for name, v in builtin_metrics(srg).items()}


def test_duplicate_id_variant_verdicts():
    text = table_model(8).replace("  id2, license2, copy2\n", "  id1, license2, copy2\n")
    net = parse_model(text)
    srg = build_srg(net, CONSTRAINED)
    assert (len(srg.states), len(srg.edges)) == (285, 386)
    assert metric_counts(srg) == {
        "PM1": (True, 285),
        "PM2": (False, 0),
        "PM3": (False, 0),
        "PM4": (True, 285),
        "PM5": (False, 0),
    }
    unique = verify(srg, parse_dctl("forall r1 in R, forall r2 in R, [r1 != r2 -> r1.Id != r2.Id]", net))
    assert (unique.holds, unique.sat_bits, unique.pre_bits.bit_count()) == (False, 0, 285)
    shared = verify(srg, parse_dctl("exists r in R, [exists s in R, [r != s & r.Id = s.Id]]", net))
    assert (shared.holds, shared.sat_bits.bit_count()) == (True, 285)


def test_table16_metric_verdicts():
    srg = build_srg(parse_model(table_model(16)), CONSTRAINED)
    assert (len(srg.states), len(srg.edges)) == (1020, 1375)
    assert metric_counts(srg) == {
        "PM1": (True, 1019),
        "PM2": (True, 1020),
        "PM3": (True, 13),
        "PM4": (True, 1019),
        "PM5": (False, 0),
    }


# ---------------------------------------------------------------------------
# value semantics of formula nodes and verdicts


P, Q = ast.PlaceAtom("p0"), ast.PlaceAtom("p1")
NODES = [
    ast.TrueF(),
    P,
    ast.DataAtom(("attr", "r", "Id"), "!=", ("empty",)),
    ast.Quantifier("forall", "r", P),
    ast.Not(P),
    ast.And(P, Q),
    ast.Or(P, Q),
    ast.EX(P),
    ast.EG(P),
    ast.EU(P, Q),
    ast.AU(P, Q),
]


def other_value(value):
    """A field value that differs from ``value``."""
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value + value[-1:]
    return ast.Not(value)


@pytest.mark.parametrize("node", NODES, ids=[type(node).__name__ for node in NODES])
def test_formula_nodes_compare_and_hash_by_type_and_fields(node):
    cls = type(node)
    fields = [getattr(node, name) for name in cls._fields]
    twin = cls(*fields)
    assert node == twin and not node != twin and hash(node) == hash(twin)
    assert isinstance(node, ast.Formula)
    for i in range(len(fields)):
        other = cls(*fields[:i], other_value(fields[i]), *fields[i + 1:])
        assert node != other, cls._fields[i]
    # nodes of other classes with the same fields are unequal
    for cls2 in ast.Formula:
        if cls2 is not cls and cls2._fields == cls._fields:
            assert cls2(*fields) != node
    back = pickle.loads(pickle.dumps(node))
    assert type(back) is cls and back == node and hash(back) == hash(node)


def test_pickled_formula_verifies_alike(motivating_net, motivating_srg):
    for text in (
        "AG((forall r1 in R, forall r2 in R), [r1 != r2 -> r1.Id != r2.Id])",
        "E((exists r in R), [r.Copy != empty U r.License = empty]) | EF p13",
    ):
        formula = parse_dctl(text, motivating_net)
        back = pickle.loads(pickle.dumps(formula))
        assert back == formula and hash(back) == hash(formula)
        assert verify(motivating_srg, back) == verify(motivating_srg, formula)


def test_verdicts_compare_by_fields_and_are_unhashable():
    verdict = Verdict(holds=False, sat_bits=0b101, pre_bits=0b111)
    assert verdict.evidence is None and not hasattr(verdict, "__dict__")
    assert verdict == Verdict(False, 0b101, 0b111) != Verdict(False, 0b101, 0b111, ["c0"])
    with pytest.raises(TypeError):
        hash(verdict)


def test_verdict_repr_prints_set_sizes_at_any_graph_size():
    # Python prints no int of more than 4 300 digits, about 14 300 bits
    every = (1 << 20_000) - 1
    verdict = Verdict(False, every ^ 1, every, ["c0"])
    assert repr(verdict) == "Verdict(holds=False, sat_count=19999, pre_count=20000, evidence=['c0'])"
    assert repr(Verdict(True, 0b101, 0b111)) == "Verdict(holds=True, sat_count=2, pre_count=3, evidence=None)"
