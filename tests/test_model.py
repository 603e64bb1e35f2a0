"""Net declarations, validation, constraint evaluation, copies and round trips."""

import copy
import itertools
import pickle
import random

import pytest

from conftest import fixture_text
from wftc import constraint_consistent, parse_model, serialize_model, validate_workflow_structure
from wftc.dctl import _evaluation
from wftc.model import (
    BOT,
    FALSE,
    TRUE,
    DeleteOp,
    Guard,
    InsertOp,
    ModelError,
    Predicate,
    SelScope,
    TableSchema,
    UpdateOp,
    WftcNet,
)
from wftc.srg import StateC, build_srg


def test_motivating_net_is_valid(motivating_net):
    assert validate_workflow_structure(motivating_net) == []


def test_labels_reference_declared_items(motivating_net):
    items = set(motivating_net.data_items)
    for mapping in (motivating_net.rd, motivating_net.wt, motivating_net.dt):
        for names in mapping.values():
            assert set(names) <= items


def renamed(expr, old, new):
    """A guard expression with predicate ``old`` renamed ``new``."""
    if expr[0] == "pi":
        return ("pi", new) if expr[1] == old else expr
    return (expr[0], *[renamed(operand, old, new) for operand in expr[1:]])


def test_a_guard_and_a_predicate_are_named_by_their_keys():
    net = parse_model(fixture_text("motivating.wftc"))
    # g1 moves to the key g9 and pi1 to pi7, each keeping its place in order
    net.guards = {("g9" if g == "g1" else g): Guard(renamed(guard.expr, "pi1", "pi7")) for g, guard in net.guards.items()}
    net.predicates = {("pi7" if pi == "pi1" else pi): predicate for pi, predicate in net.predicates.items()}
    net.guard_of = {t: ("g9" if g == "g1" else g, positive) for t, (g, positive) in net.guard_of.items()}
    net.constraints = tuple(
        tuple(tuple(("g9" if g == "g1" else g, positive) for g, positive in disjunct) for disjunct in constraint)
        for constraint in net.constraints
    )
    net = copy.copy(net)
    text = serialize_model(net)
    assert "  g9 = pi7" in text and "t1:g9" in text and "(g9 & !g2)" in text
    assert "g1" not in text and "pi1" not in text
    assert parse_model(text) == net
    assert len(build_srg(net).states) == 54
    net.predicates["pi7"] = Predicate("in", "idx", "User", "Id")
    net.guards["g9"] = Guard(("and", ("pi", "pi7"), ("pi", "pi8")))
    assert validate_workflow_structure(net) == [
        "guard g9 references unknown predicate pi8",
        "predicate pi7 references unknown data item idx",
    ]


# ---------------------------------------------------------------------------
# constraint evaluation


def xor(a, b):
    return (((a, True), (b, False)), ((a, False), (b, True)))


RES = (xor("g1", "g2"), xor("g3", "g4"), xor("g5", "g6"))
GUARDS = ["g1", "g2", "g3", "g4", "g5", "g6"]


def valuation(**kw):
    v = {g: BOT for g in GUARDS}
    v.update(kw)
    return v


def test_determined_consistent_pair():
    assert constraint_consistent(valuation(g1=TRUE, g2=FALSE), RES)


def test_equal_pair_is_inconsistent():
    assert not constraint_consistent(valuation(g1=TRUE, g2=TRUE), RES)
    assert not constraint_consistent(valuation(g1=FALSE, g2=FALSE), RES)


def test_all_undetermined_is_consistent():
    assert constraint_consistent(valuation(), RES)


def test_unknown_guard_in_constraint():
    with pytest.raises(ModelError):
        constraint_consistent({"g1": TRUE}, (((("g9", True),),),))


def test_refinement_never_rescues_a_violation():
    # once a valuation is violated, deciding further guards keeps it violated
    rng = random.Random(7)
    guards = ["a", "b", "c", "d"]
    for _ in range(60):
        constraints = []
        for _ in range(rng.randint(1, 3)):
            disjuncts = tuple(
                tuple(
                    (rng.choice(guards), rng.random() < 0.5)
                    for _ in range(rng.randint(1, 2))
                )
                for _ in range(rng.randint(1, 2))
            )
            constraints.append(disjuncts)
        for values in itertools.product((TRUE, FALSE, BOT), repeat=len(guards)):
            v = dict(zip(guards, values))
            if constraint_consistent(v, constraints):
                continue
            for g in guards:
                if v[g] == BOT:
                    for refined in (TRUE, FALSE):
                        v2 = dict(v)
                        v2[g] = refined
                        assert not constraint_consistent(v2, constraints)


# ---------------------------------------------------------------------------
# value semantics of the plain classes


def changed(value):
    """A value of the same kind that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return ("const", "x")
    return value + value[-1:] if value else ("x",)


FROZEN = [
    (TableSchema, ("User", ("Id", "License"))),
    (Predicate, ("in", "id", "User", "Id", "")),
    (Guard, (("not", ("pi", "pi1")),)),
    (SelScope, ("User", "License", "Id", ("item", "id"), "license")),
    (InsertOp, ("User", (("Id", ("item", "id")),))),
    (DeleteOp, ("User", "Id", ("item", "id"))),
    (UpdateOp, ("User", (("License", ("item", "license")),), "Id", ("item", "id"))),
    (StateC, ((1, 0), ("id1", None), (("id1", "license1"),), (BOT, TRUE))),
]


@pytest.mark.parametrize("cls, args", FROZEN, ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_classes_compare_and_hash_by_fields(cls, args):
    value = cls(*args)
    twin = cls(*copy.deepcopy(args))
    assert value == twin and not value != twin and hash(value) == hash(twin)
    # a value of another class, even the tuple of its fields, is unequal
    assert value != args and args != value
    assert len(args) == len(cls._fields)
    for i in range(len(args)):
        other = cls(*args[:i], changed(args[i]), *args[i + 1:])
        assert value != other, cls._fields[i]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and hash(back) == hash(value)


def test_classes_of_one_shape_are_unequal():
    assert TableSchema("T", ("A",)) != InsertOp("T", ("A",))
    assert TableSchema("T", ("A",)) != ("T", ("A",))


def test_cached_fields_are_left_out():
    guard = Guard(("and", ("pi", "a"), ("pi", "b")))
    assert guard.predicates() == {"a", "b"}
    assert repr(guard) == "Guard(expr=('and', ('pi', 'a'), ('pi', 'b')))"
    state = StateC((1,), (None,), (("id1",),), (BOT,))
    assert repr(state) == "StateC(marking=(1,), data=(None,), table=(('id1',),), sigma=('U',))"
    # equal to a state whose table is another tuple of the same records
    assert state == StateC((1,), (None,), tuple([("id1",)]), (BOT,))


def test_guard_of_3000_conjuncts_prints_compares_and_hashes():
    # the parser gives a chain one node over all its operands
    text = fixture_text("motivating.wftc").replace("g1 = pi1 ;", "g1 = " + " & ".join(["pi1"] * 3000) + " ;")
    net = parse_model(text)
    guard = net.guards["g1"]
    expr = "('and', " + ", ".join(["('pi', 'pi1')"] * 3000) + ")"
    assert repr(guard) == f"Guard(expr={expr})"
    again = parse_model(serialize_model(net))
    assert again == net and again.guards["g1"] == guard and hash(again.guards["g1"]) == hash(guard)
    assert guard != Guard(("and", ("pi", "pi1"), guard.expr))
    assert Guard(("pi", "and")) != Guard(("and", ("pi", "a"), ("pi", "b")))


def test_net_with_a_guard_of_3000_conjuncts_pickles_and_deep_copies():
    text = fixture_text("motivating.wftc").replace("g1 = pi1 ;", "g1 = " + " & ".join(["pi1"] * 3000) + " ;")
    net = parse_model(text)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(net, protocol))
        assert back == net and repr(back.guards["g1"]) == repr(net.guards["g1"])
    twin = copy.deepcopy(net)
    assert twin == net and repr(twin.guards["g1"]) == repr(net.guards["g1"])


def test_net_pickles_before_and_after_a_build():
    net = parse_model(fixture_text("motivating.wftc"))
    for built in (False, True):
        if built:
            build_srg(net)  # compiles plans that hold closures
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(net, protocol))
            assert back == net and back.compiled is None, (built, protocol)
            srg = build_srg(back)
            assert (len(srg.states), len(srg.edges)) == (54, 73), (built, protocol)
            _evaluation(srg)  # made on first use, and left out of the pickle
            again = pickle.loads(pickle.dumps(srg, protocol))
            assert again == srg and again.evaluation is None, (built, protocol)
            assert _evaluation(again).post == _evaluation(srg).post, (built, protocol)


def test_mutable_classes_are_unhashable(motivating_srg):
    for value in (
        WftcNet(),
        motivating_srg,
    ):
        with pytest.raises(TypeError):
            hash(value)


def test_net_equality_covers_every_constructor_field(motivating_net):
    net = motivating_net
    fields = {name: getattr(net, name) for name in WftcNet._fields}
    assert len(fields) == 19
    assert WftcNet(**fields) == net
    for name, value in fields.items():
        if isinstance(value, (list, tuple)):
            other = value[:-1] if value else ((),)
        elif isinstance(value, set):
            other = set(list(value)[1:])
        elif isinstance(value, dict):
            other = dict(list(value.items())[1:]) if value else {"t0": ()}
        elif isinstance(value, TableSchema):
            other = TableSchema(value.name + "x", value.attributes)
        else:
            other = changed(value)
        assert WftcNet(**{**fields, name: other}) != net, name
