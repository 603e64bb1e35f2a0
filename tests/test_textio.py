"""Model format, formula grammar, and graph exports."""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wftc
from wftc import (
    ParseError,
    build_srg,
    export_dot,
    export_json,
    parse_dctl,
    parse_model,
    sat,
    serialize_model,
)
from wftc import dctl as ast
from conftest import PREFIX_SHAPES, TINY_CHAIN, deepest_prefix, fixture_text, formula_seeds, formula_text, on_fresh_stack
from wftc.model import (
    Guard,
    GuardRef,
    ModelError,
    Predicate,
    SelScope,
    TableSchema,
    WftcNet,
    canonical_table,
)
from wftc.srg import CONSTRAINED, UNCONSTRAINED, Arcs, Srg, StateC


def test_parse_motivating_counts(motivating_net):
    net = motivating_net
    assert len(net.transitions) == 19
    assert len(net.places) == 14
    assert len(net.arcs) == 38
    assert len(net.data_items) == 4
    assert len(net.guards) == 6
    assert net.schema.attributes == ("Id", "License", "Copy")
    assert len(net.initial_records) == 2


def test_wfd_projection_has_no_table(wfd_net):
    assert wfd_net.schema is None
    assert wfd_net.initial_records == ()
    assert not wfd_net.sel and not wfd_net.ins and not wfd_net.upd and not wfd_net.dele


def test_roundtrip_fixtures(motivating_net, wfd_net):
    for net in (motivating_net, wfd_net):
        assert parse_model(serialize_model(net)) == net


@pytest.mark.parametrize("mode", [CONSTRAINED, UNCONSTRAINED])
@pytest.mark.parametrize("name", ["motivating.wftc", "motivating-wfd.wftc"])
def test_roundtrip_keeps_the_export(name, mode):
    def digest(net):
        return hashlib.sha256(export_json(build_srg(net, mode)).encode("utf-8")).hexdigest()

    net = parse_model(fixture_text(name))
    assert digest(parse_model(serialize_model(net))) == digest(net)


def test_a_delete_survives_the_round_trip():
    text = fixture_text("motivating.wftc").replace("t2: ins(User: Id=id)", "t2: ins(User: Id=id) del(User where Id=id2)")
    net = parse_model(text)
    assert "t2: ins(User: Id=id) del(User where Id=id2)" in serialize_model(net)
    assert parse_model(serialize_model(net)) == net
    assert len(build_srg(net).states) == 51


def test_serialize_is_byte_stable(motivating_net):
    once = serialize_model(motivating_net)
    again = serialize_model(parse_model(once))
    assert once == again


@pytest.mark.parametrize(
    "guard, printed",
    [
        ("pi3 & (pi4 & pi5)", "pi3 & pi4 & pi5"),
        ("(pi3 & pi4) & pi5", "pi3 & pi4 & pi5"),
        ("pi3 | (pi4 | pi5)", "pi3 | pi4 | pi5"),
        ("!!pi3 & pi4", "pi3 & pi4"),
        ("pi3 & !(pi4 | !!!pi5)", "pi3 & !(pi4 | !pi5)"),
    ],
)
def test_guard_round_trips(guard, printed):
    # a bracketed chain of the same operator joins the chain around it
    net = parse_model(fixture_text("motivating.wftc").replace("g6 = pi3 & pi4 & pi5", f"g6 = {guard}"))
    text = serialize_model(net)
    assert f"  g6 = {printed}\n" in text
    assert parse_model(text) == net


def test_double_negation_in_a_constraint_is_the_guard(motivating_net):
    text = fixture_text("motivating.wftc").replace("(g1 & !g2) | (!g1 & g2)", "(!!g1 & !!!g2) | (!g1 & !!g2)")
    assert parse_model(text) == motivating_net


def test_long_guard_chains_round_trip():
    # the parser gives a chain one node over its operands, and the text of
    # the guard lists them in order
    conjuncts = " & ".join(["pi1", "(pi2 | pi3)"] * 1500)
    disjuncts = " | ".join(["pi2", "!pi3"] * 1500)
    text = fixture_text("motivating.wftc").replace("g1 = pi1 ;", f"g1 = {conjuncts} ;")
    text = serialize_model(parse_model(text.replace("g2 = !pi1", f"g2 = {disjuncts}")))
    assert f"  g1 = {conjuncts}\n" in text and f"  g2 = {disjuncts}\n" in text
    assert serialize_model(parse_model(text)) == text


def test_net_without_data_items_has_no_data_section(tiny_net):
    assert "[DATA]" not in serialize_model(tiny_net)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("junk before", "content before any section"),
        # a misspelt header is no section, and its records are no data items
        pytest.param(
            "[PLACES] p0 p1\n[TRANSITIONS] t0\n[ARCS] p0->t0 t0->p1\n[DATA] id\n"
            "[TABEL] User(Id, License)\n  id1, l1\n[INITIAL] p0\n[FINAL] p1",
            "unknown section [TABEL] at line 5",
            id="unknown-section",
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert fragment in str(err.value)


def test_empty_definitions_are_skipped(motivating_net):
    text = fixture_text("motivating.wftc")
    text = text.replace("pi5 = eq(license, license1)", "pi5 = eq(license, license1) ;;")
    text = text.replace("g1 = pi1 ;", "; g1 = pi1 ; ;")
    text = text.replace("(g1 & !g2) | (!g1 & g2)", "; (g1 & !g2) | (!g1 & g2) ;")
    assert parse_model(text) == motivating_net


def test_parse_model_constructs_the_net_once(monkeypatch):
    # the parser reads every section before it makes the net, and never
    # changes the net afterwards
    made, init = [], WftcNet.__init__

    def counted(net, *args, **kwargs):
        made.append(net)
        init(net, *args, **kwargs)

    monkeypatch.setattr(WftcNet, "__init__", counted)
    for text in (fixture_text("motivating.wftc"), fixture_text("motivating-wfd.wftc"), TINY_CHAIN):
        net = parse_model(text)
        assert len(made) == 1 and made.pop() is net
        assert net.compiled is None and net.place_index == {p: i for i, p in enumerate(net.places)}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[PLACES] p0 p0\n[TRANSITIONS] t\n[INITIAL] p0\n[FINAL] p0", "duplicate place"),
        ("[PLACES] p0 p1\n[TRANSITIONS] t\n[ARCS] p0->p1\n[INITIAL] p0\n[FINAL] p1", "does not connect"),
        ("[PLACES] p0 p1\n[TRANSITIONS] t\n[ARCS] p0->t t->p1\n[OPS] t: wt(x)\n[INITIAL] p0\n[FINAL] p1", "unknown data item"),
    ],
    ids=["duplicate-place", "arc-between-places", "undeclared-item"],
)
def test_reference_errors_parse_and_stop_the_build(text, fragment):
    # what a well-formed text references but does not declare is found
    # when the net is first built, not by the parser
    net = parse_model(text)
    with pytest.raises(ModelError) as err:
        build_srg(net)
    assert fragment in str(err.value)


def test_record_arity_mismatch():
    with pytest.raises(ParseError) as err:
        parse_model(
            "[PLACES] p0 p1\n[TRANSITIONS] t\n[ARCS] p0->t t->p1\n"
            "[TABLE] T(A, B)\n  x\n[INITIAL] p0\n[FINAL] p1"
        )
    assert "expected 2" in str(err.value)
    assert err.value.line == 5


def test_duplicate_section_rejected():
    with pytest.raises(ParseError) as err:
        parse_model("[PLACES] p0\n[PLACES] p1")
    assert "duplicate section" in str(err.value)


# ---------------------------------------------------------------------------
# random-net round trips


def random_net(rng: random.Random) -> WftcNet:
    n_places = rng.randint(2, 6)
    n_trans = rng.randint(1, 5)
    places = [f"p{i}" for i in range(n_places)]
    transitions = [f"t{i}" for i in range(n_trans)]
    arcs = set()
    for t in transitions:
        arcs.add((rng.choice(places), t))
        arcs.add((t, rng.choice(places)))
    items = [f"d{i}" for i in range(rng.randint(0, 3))]
    net = WftcNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        data_items=items,
        start="p0",
        end=f"p{n_places - 1}",
    )
    if items and rng.random() < 0.7:
        net.schema = TableSchema("T", ("A", "B"))
        net.initial_records = canonical_table(
            [(f"a{i}", f"b{i}" if rng.random() < 0.8 else None) for i in range(rng.randint(0, 3))]
        )
        if rng.random() < 0.7:
            t = rng.choice(transitions)
            net.wt[t] = (items[0],)
            net.sel[t] = net.sel.get(t, ()) + (SelScope("T", "A"),)
        net.predicates["pi1"] = Predicate("pi1", "in", items[0], table="T", column="A")
        net.guards["g1"] = Guard("g1", ("pi", "pi1"))
        net.guards["g2"] = Guard("g2", ("not", ("pi", "pi1")))
        net.guard_of[transitions[0]] = GuardRef("g1", positive=rng.random() < 0.8)
        net.constraints = (((("g1", True), ("g2", False)), (("g1", False), ("g2", True))),)
    for t in transitions:
        if items and rng.random() < 0.4:
            net.dt[t] = (rng.choice(items),)
        if items and rng.random() < 0.3:
            net.rd[t] = (rng.choice(items),)
    return copy.copy(net)


def test_random_net_roundtrip():
    rng = random.Random(2024)
    for _ in range(100):
        net = random_net(rng)
        text = serialize_model(net)
        assert parse_model(text) == net, text


# ---------------------------------------------------------------------------
# formula parsing


def test_phi1_expands_to_negated_until(motivating_net):
    phi1 = parse_dctl(
        "AG(forall r1 in R, forall r2 in R, [r1 != r2 -> r1.License != r2.License])",
        motivating_net,
    )
    body = ast.Quantifier(
        "forall",
        "r1",
        ast.Quantifier(
            "forall",
            "r2",
            ast.Or(
                ast.Not(ast.DataAtom(("var", "r1"), "!=", ("var", "r2"))),
                ast.DataAtom(("attr", "r1", "License"), "!=", ("attr", "r2", "License")),
            ),
        ),
    )
    assert phi1 == ast.Not(ast.EU(ast.TrueF(), ast.Not(body)))


def test_ag_equals_its_expansion(motivating_net):
    assert parse_dctl("AG p13", motivating_net) == parse_dctl(
        "!EF !p13", motivating_net
    )


def test_three_way_expansion_agreement(motivating_net, motivating_srg):
    rng = random.Random(31)
    places = motivating_net.places
    for _ in range(25):
        inner = rng.choice(places)
        variants = [
            parse_dctl(f"AG {inner}", motivating_net),
            parse_dctl(f"!EF !{inner}", motivating_net),
            ast.Not(ast.EU(ast.TrueF(), ast.Not(ast.PlaceAtom(inner)))),
        ]
        sets = [sat(motivating_srg, v) for v in variants]
        assert sets[0] == sets[1] == sets[2]


def test_ef_is_true_until(motivating_net):
    assert parse_dctl("EF p13", motivating_net) == ast.EU(
        ast.TrueF(), ast.PlaceAtom("p13")
    )


def test_true_literal(motivating_net):
    assert parse_dctl("true", motivating_net) == ast.TrueF()


def test_deadlock_expansion(motivating_net):
    assert parse_dctl("deadlock", motivating_net) == ast.Not(ast.EX(ast.TrueF()))


def test_ax_expansion(motivating_net):
    assert parse_dctl("AX p1", motivating_net) == ast.And(
        ast.Not(ast.EX(ast.Not(ast.PlaceAtom("p1")))), ast.EX(ast.TrueF())
    )


def test_precedence_not_and_or_implies(motivating_net):
    formula = parse_dctl("!p1 & p2 | p3 -> p4", motivating_net)
    lhs = ast.Or(
        ast.And(ast.Not(ast.PlaceAtom("p1")), ast.PlaceAtom("p2")), ast.PlaceAtom("p3")
    )
    assert formula == ast.Or(ast.Not(lhs), ast.PlaceAtom("p4"))


def test_nested_quantifier_parens(motivating_net):
    a = parse_dctl(
        "EX((forall a in R, forall b in R), [a != b -> a.x1 < b.x2])", motivating_net
    )
    b = parse_dctl(
        "EX(forall a in R, forall b in R, [a != b -> a.x1 < b.x2])", motivating_net
    )
    assert a == b


def test_until_with_quantifier_prefix(motivating_net):
    phi = parse_dctl(
        "E((forall k in R), [k != empty U k.v = empty])", motivating_net
    )
    assert isinstance(phi, ast.EU)
    assert isinstance(phi.lhs, ast.Quantifier)
    assert isinstance(phi.rhs, ast.Quantifier)


def test_unbound_record_variable_rejected(motivating_net):
    with pytest.raises(ParseError) as err:
        parse_dctl("r1.License != r2.License", motivating_net)
    assert "unbound" in str(err.value)


def test_unknown_atom_rejected(motivating_net):
    with pytest.raises(ParseError):
        parse_dctl("nonsense_atom", motivating_net)


def test_trailing_input_rejected(motivating_net):
    with pytest.raises(ParseError):
        parse_dctl("p1 p2", motivating_net)


def test_error_carries_position(motivating_net):
    with pytest.raises(ParseError) as err:
        parse_dctl("EX (p1 &)", motivating_net)
    assert err.value.column


@pytest.mark.parametrize(
    "text, column",
    [
        ("(" * 200 + "p0" + ")" * 200, 161),  # six parser frames per group
        ("AG " * 400 + "p0", 1202),  # each AG expands to three levels
        (" & ".join(["p0"] * 1000), 4997),  # a flat chain is a deep tree
    ],
)
def test_nesting_bound_reports_a_column(motivating_net, text, column):
    with pytest.raises(ParseError, match="nested deeper than 960 levels") as err:
        parse_dctl(text, motivating_net)
    assert err.value.column == column


@pytest.mark.parametrize(
    "text, message, token",
    [
        ("p1 &   )", "unexpected token ')'", ")"),
        ("p1   p2", "trailing input 'p2'", "p2"),
        ("p1 # p2", "unexpected character '#'", "#"),
        ("forall r in R, [r.Id]", "comparison expected", "]"),
        ("EF  nonsense_atom", "unknown atom 'nonsense_atom'", "nonsense_atom"),
        ("AG((forall r in R), [r.Id = empty &])", "unexpected token ']'", "]"),
        ('EF  "nowhere"', "unknown place 'nowhere'", '"'),
        ('EF "p13', "unexpected character '\"'", '"'),
        ('EF "p13" "p0"', "trailing input '\"p0\"'", '"p0"'),
    ],
)
def test_error_names_the_column_of_the_offending_token(motivating_net, text, message, token):
    with pytest.raises(ParseError) as err:
        parse_dctl(text, motivating_net)
    assert str(err.value) == f"{message}, column {text.index(token) + 1}"


@pytest.mark.parametrize("name", ["AG", "EX", "E", "U", "forall", "in", "true", "empty", "p13"])
def test_quoted_name_is_the_place_whatever_it_spells(name):
    net = parse_model(fixture_text("motivating.wftc").replace("p13", name))
    assert parse_dctl(f'EF "{name}" & !"p0"', net) == ast.And(ast.EF(ast.PlaceAtom(name)), ast.Not(ast.PlaceAtom("p0")))
    # without a net, a quoted name is a place all the same
    assert parse_dctl(f'"{name}"') == ast.PlaceAtom(name)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of formula"),
        ("EF", "unexpected end of formula"),
        ("EF ", "unexpected end of formula"),
        ("forall r in  ", "unexpected end of formula"),
        ("forall r in R, [r.Id  ", "comparison expected"),
        ("!" * 955 + " \t", "formula nested deeper than 960 levels"),
    ],
    ids=["empty", "EF", "EF-blank", "quantifier", "comparison", "nesting"],
)
def test_end_of_formula_names_the_column_after_its_last_character(motivating_net, text, message):
    with pytest.raises(ParseError) as err:
        on_fresh_stack(parse_dctl, text, motivating_net)
    assert str(err.value) == f"{message}, column {len(text.rstrip()) + 1}"


def random_formula(rng: random.Random, net, depth=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return ast.TrueF()
        if kind == 1:
            return ast.PlaceAtom(rng.choice(net.places))
        if kind == 2:
            return ast.DataAtom(
                ("const", rng.choice(["id1", "id2", "license9"])),
                rng.choice(["<", "<=", "=", "!=", ">=", ">"]),
                ("const", rng.choice(["id3", "copy1"])),
            )
        var = f"v{rng.randrange(3)}"
        return ast.Quantifier(
            rng.choice(["forall", "exists"]),
            var,
            ast.DataAtom(
                ("attr", var, rng.choice(["Id", "License", "Copy"])),
                rng.choice(["=", "!="]),
                ("empty",),
            ),
        )
    kind = rng.randrange(6)
    if kind == 0:
        return ast.Not(random_formula(rng, net, depth - 1))
    if kind == 1:
        return ast.And(
            random_formula(rng, net, depth - 1), random_formula(rng, net, depth - 1)
        )
    if kind == 2:
        return ast.Or(
            random_formula(rng, net, depth - 1), random_formula(rng, net, depth - 1)
        )
    if kind == 3:
        return ast.EX(random_formula(rng, net, depth - 1))
    if kind == 4:
        return ast.EG(random_formula(rng, net, depth - 1))
    return ast.EU(
        random_formula(rng, net, depth - 1), random_formula(rng, net, depth - 1)
    )


def test_random_formula_roundtrip(motivating_net):
    rng = random.Random(404)
    for _ in range(100):
        formula = random_formula(rng, motivating_net)
        assert parse_dctl(formula_text(formula), motivating_net) == formula


def random_prefixed(rng: random.Random, net, bound=(), depth=3):
    """Like random_formula, with quantifiers over whole subformulas and
    untils whose two operands share a quantifier prefix."""
    if depth == 0 or rng.random() < 0.25:
        if bound and rng.random() < 0.6:
            return ast.DataAtom(
                ("attr", rng.choice(bound), rng.choice(["Id", "License", "Copy"])),
                rng.choice(["=", "!="]),
                rng.choice([("empty",), ("var", rng.choice(bound))]),
            )
        return random_formula(rng, net, depth=0)
    kind = rng.randrange(9)
    if kind < 3:
        prefix = [
            (rng.choice(["forall", "exists"]), f"v{rng.randrange(3)}")
            for _ in range(rng.randint(1, 2))
        ]
        inner = bound + tuple(var for _, var in prefix)
        if kind == 0:
            return quantify(prefix, random_prefixed(rng, net, inner, depth - 1))
        until = ast.EU if kind == 1 else ast.AU
        return until(
            quantify(prefix, random_prefixed(rng, net, inner, depth - 1)),
            quantify(prefix, random_prefixed(rng, net, inner, depth - 1)),
        )
    if kind == 3:
        return ast.Not(random_prefixed(rng, net, bound, depth - 1))
    if kind == 4:
        return rng.choice([ast.EX, ast.EG])(random_prefixed(rng, net, bound, depth - 1))
    binary = [ast.And, ast.Or, ast.EU, ast.AU][kind - 5]
    return binary(
        random_prefixed(rng, net, bound, depth - 1),
        random_prefixed(rng, net, bound, depth - 1),
    )


def quantify(prefix, body):
    for kind, var in reversed(prefix):
        body = ast.Quantifier(kind, var, body)
    return body


def leading_prefix(rng: random.Random, node):
    """A random nonempty part of the quantifier prefix the node starts
    with, and the rest of the node."""
    prefix = []
    while isinstance(node, ast.Quantifier) and (not prefix or rng.random() < 0.6):
        prefix.append((node.kind, node.var))
        node = node.body
    return prefix, node


def without_prefix(prefix, node):
    """The node below the given quantifier prefix, or None when it does
    not start with that prefix."""
    for kind, var in prefix:
        if not (isinstance(node, ast.Quantifier) and (node.kind, node.var) == (kind, var)):
            return None
        node = node.body
    return node


def variant_text(rng: random.Random, node) -> str:
    """formula_text, with each quantifier prefix written in a randomly
    chosen one of its equivalent syntaxes."""
    text = lambda sub: variant_text(rng, sub)
    listing = lambda prefix: ", ".join(f"{kind} {var} in R" for kind, var in prefix)
    inlined = lambda sub: (
        isinstance(sub, (ast.And, ast.Or))
        and isinstance(sub.lhs, ast.Quantifier)
        and rng.random() < 0.5
    )

    def inline(sub):
        # Q..., [a] & b: the expression goes on after the matrix
        prefix, lhs = leading_prefix(rng, sub.lhs)
        op = "&" if isinstance(sub, ast.And) else "|"
        return f"{listing(prefix)}, [{text(lhs)}] {op} ({text(sub.rhs)})"

    if isinstance(node, ast.Quantifier):
        prefix, body = leading_prefix(rng, node)
        quantifiers = listing(prefix)
        return rng.choice(
            [
                f"{quantifiers}, [{text(body)}]",
                f"{quantifiers} [{text(body)}]",
                f"({quantifiers}, [{text(body)}])",
                f"({quantifiers}, {text(body)})",
                f"(({quantifiers}), [{text(body)}])",
                f"(({quantifiers},), [{text(body)}])",
                f"(({quantifiers}), {text(body)})",
            ]
        )
    if isinstance(node, (ast.EU, ast.AU)):
        until = "E" if isinstance(node, ast.EU) else "A"
        if isinstance(node.lhs, ast.Quantifier) and rng.random() < 0.7:
            prefix, lhs = leading_prefix(rng, node.lhs)
            rhs = without_prefix(prefix, node.rhs)
            if rhs is not None and rng.random() < 0.7:
                # E((Q...), [a U b]) and E(Q..., [a U b]) quantify both operands
                trail = rng.choice(["", ","])
                quantifiers = rng.choice([f"({listing(prefix)}{trail}),", f"{listing(prefix)},"])
                return f"{until}({quantifiers} [{text(lhs)} U {text(rhs)}])"
            # E(Q..., [a] U b) quantifies the left operand only
            return f"{until}({listing(prefix)}, [{text(lhs)}] U ({text(node.rhs)}))"
        lhs = inline(node.lhs) if inlined(node.lhs) else f"({text(node.lhs)})"
        return f"{until}({lhs} U ({text(node.rhs)}))"
    if isinstance(node, (ast.And, ast.Or)):
        if inlined(node):
            return f"({inline(node)})"
        op = "&" if isinstance(node, ast.And) else "|"
        return f"({text(node.lhs)} {op} {text(node.rhs)})"
    if isinstance(node, (ast.Not, ast.EX, ast.EG)):
        op = {ast.Not: "!", ast.EX: "EX ", ast.EG: "EG "}[type(node)]
        return f"{op}({text(node.inner)})"
    return formula_text(node)


def test_random_formula_roundtrip_in_every_prefix_syntax(motivating_net):
    rng = random.Random(405)
    for _ in range(400):
        formula = random_prefixed(rng, motivating_net)
        text = variant_text(rng, formula)
        assert parse_dctl(text, motivating_net) == formula, text


# texts whose opening tokens read as a whole quantified group or until, up
# to a token after the matrix that makes the quantified formula an operand
R_ID_EMPTY = ast.Quantifier("forall", "r", ast.DataAtom(("attr", "r", "Id"), "=", ("empty",)))
V_LICENSE = ast.Quantifier("forall", "v", ast.DataAtom(("attr", "v", "License"), "!=", ("empty",)))
P1, P2, P13 = ast.PlaceAtom("p1"), ast.PlaceAtom("p2"), ast.PlaceAtom("p13")


@pytest.mark.parametrize(
    "text, tree",
    [
        ("(forall r in R, [r.Id = empty] & p1)", ast.And(R_ID_EMPTY, P1)),
        ("((forall r in R, [r.Id = empty]) & p1)", ast.And(R_ID_EMPTY, P1)),
        ("E(forall v in R, [v.License != empty] U p13)", ast.EU(V_LICENSE, P13)),
        ("E(forall v in R, [v.License != empty] & p1 U p13)", ast.EU(ast.And(V_LICENSE, P1), P13)),
        (
            "A(forall r in R, [r.Id = empty] | p1 -> p2 U p13)",
            ast.AU(ast.Or(ast.Not(ast.Or(R_ID_EMPTY, P1)), P2), P13),
        ),
    ],
)
def test_inline_prefix_trees(motivating_net, text, tree):
    assert parse_dctl(text, motivating_net) == tree


@pytest.mark.parametrize(
    "shape", ["(forall v in R, [{}] & p1)", "E(forall v in R, [{}] U p2)"]
)
def test_nested_inline_prefixes_parse_in_linear_time(shape):
    # a parser that read each level twice would take about 2**40 steps
    text = "p1"
    for _ in range(40):
        text = shape.format(text)
    subprocess.run(
        [sys.executable, "-c", "import sys, wftc; wftc.parse_dctl(sys.argv[1])", text],
        check=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(wftc.__file__).resolve().parents[1])},
    )


@pytest.mark.parametrize("shape", PREFIX_SHAPES)
def test_prefix_forms_nest_to_the_bound(motivating_net, shape):
    deepest = deepest_prefix(shape)
    on_fresh_stack(parse_dctl, deepest, motivating_net)
    with pytest.raises(ParseError, match="nested deeper than 960 levels"):
        on_fresh_stack(parse_dctl, shape.format(deepest), motivating_net)


def test_the_net_resolves_places_only(motivating_net):
    # the evaluator alone decides whether v.attr reads a column or is the
    # token attr, so the tree is the same with and without the net
    for text in formula_seeds():
        assert on_fresh_stack(parse_dctl, text, motivating_net) == on_fresh_stack(parse_dctl, text), text
    licence = parse_dctl("(forall r in R, [r.Licence != empty])", motivating_net)
    assert licence == ast.Quantifier("forall", "r", ast.DataAtom(("attr", "r", "Licence"), "!=", ("empty",)))


# ---------------------------------------------------------------------------
# exports


def test_dot_export(motivating_srg):
    dot = export_dot(motivating_srg)
    assert dot.count("label=\"c") == 54
    assert 'c0 -> c1 [label="t0"]' in dot
    assert "style=dashed" not in dot


def test_dot_marks_pseudo_states(wfd_srg):
    assert export_dot(wfd_srg).count("style=dashed") == 113


def test_dot_labels_escape_quotes_and_backslashes():
    # a transition name is any non-space token, so it may hold the two
    # characters a DOT string escapes
    name = 't"a\\'
    net = parse_model(f"[PLACES] p0 p1\n[TRANSITIONS] {name} u\n[ARCS] p0->{name} {name}->p1 p0->u u->p1\n"
                      "[INITIAL] p0\n[FINAL] p1")
    srg = build_srg(net)
    assert 'c0 -> c1 [label="t\\"a\\\\"];\n  c0 -> c1 [label="u"];' in export_dot(srg)
    assert json.loads(export_json(srg))["edges"][0]["transition"] == name


def test_empty_exploration_exports_one_node():
    net = parse_model(
        "[PLACES] p0 p1\n[TRANSITIONS] t\n[ARCS] p0->t t->p1\n[DATA] d\n"
        "[OPS] t: rd(d)\n[INITIAL] p0\n[FINAL] p1"
    )
    srg = build_srg(net)
    dot = export_dot(srg)
    assert dot.count("label=\"c") == 1
    assert "->" not in dot.replace("digraph", "")


def import_json(text: str):
    """Reload an exported graph as plain data: (states, edges, initial),
    states as comparable tuples, so that a re-imported export can be
    checked against the original graph state for state and edge for edge."""
    payload = json.loads(text)
    states = [
        (
            tuple(sorted(entry["marking"].items())),
            tuple(sorted(entry["data"].items())),
            tuple(tuple(rec) for rec in entry["table"]),
            tuple(sorted(entry["guards"].items())),
            entry["pseudo"],
        )
        for entry in payload["states"]
    ]
    edges = [(e["from"], e["transition"], e["to"]) for e in payload["edges"]]
    return states, edges, payload["initial"]


def test_json_roundtrip(motivating_net, motivating_srg):
    states, edges, initial = import_json(export_json(motivating_srg))
    assert len(states) == 54
    assert initial == "c0"
    assert sorted(edges) == sorted(
        (
            motivating_srg.state_id(a),
            t,
            motivating_srg.state_id(b),
        )
        for a, t, b in motivating_srg.edges
    )
    # re-exporting the same graph is byte-identical
    assert export_json(motivating_srg) == export_json(motivating_srg)


def json_module_export(srg) -> str:
    """What ``export_json`` must print: the payload through the ``json``
    module's indenting encoder."""
    net = srg.net
    payload = {
        "mode": srg.mode,
        "initial": srg.state_id(srg.initial),
        "states": [
            {
                "id": srg.state_id(i),
                "marking": {p: tokens for p, tokens in zip(net.places, s.marking) if tokens},
                "data": dict(zip(net.data_items, s.data)),
                "table": [list(rec) for rec in s.table],
                "guards": dict(zip(net.guards, s.sigma)),
                "pseudo": srg.pseudo[i],
            }
            for i, s in enumerate(srg.states)
        ],
        "edges": [
            {"from": srg.state_id(a), "transition": t, "to": srg.state_id(b)}
            for a, t, b in srg.edges
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_export_matches_the_json_module(motivating_srg, wfd_srg):
    for srg in (motivating_srg, wfd_srg, build_srg(parse_model(TINY_CHAIN))):
        assert export_json(srg) == json_module_export(srg)


def test_json_export_escapes_like_the_json_module():
    net = WftcNet(
        places=["zz", "aé", 'q"'],
        transitions=["t\\1"],
        data_items=["d ", "b"],
        schema=TableSchema("T", ("A", "B")),
        guards={"gÿ": Guard("gÿ", ("pi", "pi"))},
        start="zz",
        end='q"',
    )
    states = [
        StateC((1, 0, 0), (None, "x\ty"), (), ("U",)),
        StateC((0, 2, 1), ("\U0001f600", None), ((None, "bé"), ("a1", "</>")), ("T",)),
    ]
    # one arc from c0 to c1, then none
    for edges in (Arcs(net.transitions, [0], [1], [0]), Arcs(net.transitions)):
        srg = Srg(net, UNCONSTRAINED, states, edges, 0, [False, True])
        assert export_json(srg) == json_module_export(srg)
