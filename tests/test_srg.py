"""States, refinement, firing, and graph construction."""

import copy
import gc
import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import wftc
from conftest import arc_lists, arc_triples, arcs_of, fixture_text, marked_places, parallel_model, retained_bytes, sigma_map, table_model
from wftc import (
    CONSTRAINED,
    UNCONSTRAINED,
    ResourceLimitError,
    build_srg,
    constraint_consistent,
    enabled,
    export_json,
    fire,
    initial_state,
    parse_model,
    refine,
)
from wftc.model import (
    BOT,
    FALSE,
    TRUE,
    UNDEF,
    DeleteOp,
    Guard,
    InsertOp,
    ModelError,
    Predicate,
    SelScope,
    TableSchema,
    UpdateOp,
    column_of,
)
from wftc.srg import Arcs, FiringError, Srg, StateC, fresh_token

TABLE0 = (("id1", "license1", "copy1"), ("id2", "license2", "copy2"))


def find_state(net, srg, place, data):
    for s in srg.states:
        if marked_places(s, net) == [place] and s.data == data:
            yield s


def test_initial_state_of_motivating_net(motivating_net):
    c0 = initial_state(motivating_net)
    assert marked_places(c0, motivating_net) == ["p0"]
    assert c0.data == (UNDEF, UNDEF, UNDEF, UNDEF)
    assert c0.table == TABLE0
    assert c0.sigma == (BOT,) * 6


def test_initial_state_with_empty_table(tiny_net):
    assert initial_state(tiny_net).table == ()


def test_refine_id_at_initial_state(motivating_net):
    c0 = initial_state(motivating_net)
    assert sorted(refine(motivating_net, c0, "id")) == ["id1", "id2", "id3"]


def test_refine_empty_column_yields_fresh_only():
    net = parse_model(
        """
[PLACES] p0 p1
[TRANSITIONS] t0
[ARCS] p0->t0 t0->p1
[DATA] item
[TABLE] T(Col)
[OPS] t0: wt(item) sel(T.Col)
[PREDICATES] pi = in(item, T.Col)
[GUARDS] g = pi
[INITIAL] p0
[FINAL] p1
"""
    )
    assert refine(net, initial_state(net), "item") == ["item1"]


def test_refine_after_insert_extends_suffix(motivating_net, motivating_srg):
    # a state whose table already holds the fresh id3 refines to id4
    grown = [s for s in motivating_srg.states if len(s.table) == 3]
    assert grown
    assert sorted(refine(motivating_net, grown[0], "id")) == ["id1", "id2", "id3", "id4"]


def test_fresh_token_ignores_foreign_values():
    assert fresh_token("id", ["alice", "id2", "idx"]) == "id3"
    assert fresh_token("id", []) == "id1"
    # a superscript is a digit to ``str.isdigit`` but no number to ``int``
    assert fresh_token("license", ["license²", "license1"]) == "license2"


def test_t0_enabled_initially(motivating_net):
    assert enabled(motivating_net, initial_state(motivating_net), "t0")


def test_guarded_transition_blocked_on_false(motivating_net):
    c0 = initial_state(motivating_net)
    c3 = [s for s in fire(motivating_net, c0, "t0") if s.data[0] == "id3"][0]
    assert sigma_map(c3, motivating_net)["g1"] == FALSE
    assert not enabled(motivating_net, c3, "t1")
    assert enabled(motivating_net, c3, "t2")


def test_unmarked_input_place_disables(motivating_net):
    c0 = initial_state(motivating_net)
    assert not enabled(motivating_net, c0, "t4")


def test_fire_disabled_raises(motivating_net):
    with pytest.raises(FiringError):
        fire(motivating_net, initial_state(motivating_net), "t4")


def test_unknown_transition_raises(motivating_net):
    from wftc.model import ModelError

    with pytest.raises(ModelError):
        enabled(motivating_net, initial_state(motivating_net), "t99")
    with pytest.raises(ModelError, match="unknown transition t99"):
        fire(motivating_net, initial_state(motivating_net), "t99")


def test_refine_unknown_item_raises(motivating_net):
    from wftc.model import ModelError

    with pytest.raises(ModelError):
        refine(motivating_net, initial_state(motivating_net), "nope")


def test_fire_t0_constrained_three_successors(motivating_net):
    succ = fire(motivating_net, initial_state(motivating_net), "t0", CONSTRAINED)
    assert len(succ) == 3
    assert {s.data[0] for s in succ} == {"id1", "id2", "id3"}
    assert all(s.data[1] == "password" for s in succ)
    sigmas = sorted(tuple(s.sigma[:2]) for s in succ)
    assert sigmas == [(FALSE, TRUE), (TRUE, FALSE), (TRUE, FALSE)]


def test_constrained_plain_firing_from_a_violating_state_has_no_successor(motivating_net):
    c0 = initial_state(motivating_net)
    c1 = next(s for s in fire(motivating_net, c0, "t0") if s.sigma[:2] == (TRUE, FALSE))
    # g1 and g2 both true break the first constraint; t1 has no data ops
    violating = StateC(c1.marking, c1.data, c1.table, (TRUE, TRUE, *c1.sigma[2:]))
    assert enabled(motivating_net, violating, "t1")
    assert fire(motivating_net, violating, "t1", CONSTRAINED) == []
    (succ,) = fire(motivating_net, violating, "t1", UNCONSTRAINED)
    assert marked_places(succ, motivating_net) == ["p2"] and succ.sigma == violating.sigma


def test_fire_t2_inserts_fresh_row(motivating_net):
    c0 = initial_state(motivating_net)
    c3 = [s for s in fire(motivating_net, c0, "t0") if s.data[0] == "id3"][0]
    (c35,) = fire(motivating_net, c3, "t2")
    assert marked_places(c35, motivating_net) == ["p3"]
    assert c35.table == TABLE0 + (("id3", UNDEF, UNDEF),)
    assert c35.sigma == (FALSE, TRUE, BOT, BOT, BOT, BOT)


def test_fire_t0_unconstrained_on_wfd(wfd_net):
    succ = fire(wfd_net, initial_state(wfd_net), "t0", UNCONSTRAINED)
    assert len(succ) == 4
    pseudo = [
        not constraint_consistent(sigma_map(s, wfd_net), wfd_net.constraints)
        for s in succ
    ]
    assert sum(pseudo) == 2



def naive_holds(node, values: dict) -> bool:
    """Guard expression ``node`` over true/false predicate ``values``."""
    if node[0] == "pi":
        return values[node[1]]
    if node[0] == "not":
        return not naive_holds(node[1], values)
    operands = [naive_holds(operand, values) for operand in node[1:]]
    return any(operands) if node[0] == "or" else all(operands)


def test_bound_guard_agrees_with_a_naive_evaluation(motivating_net):
    # each predicate reads its own value from the "data" argument, so every
    # true/false combination can be fed to the bound guard
    bound = {name: (lambda data, table, rows, name=name: data[name]) for name in motivating_net.predicates}
    nested = ("or", ("not", ("and", ("pi", "pi1"), ("or", ("pi", "pi2"), ("not", ("pi", "pi3"))))), ("pi", "pi4"))
    for name, guard in [*motivating_net.guards.items(), ("nested", Guard(nested))]:
        holds = guard.bind(bound)
        names = sorted(guard.predicates())
        combos = [dict(zip(names, values)) for values in itertools.product((True, False), repeat=len(names))]
        assert len(combos) == 2 ** len(names) >= 2
        for values in combos:
            assert holds(values, (), None) is naive_holds(guard.expr, values), (name, values)


def test_unconstrained_build_never_settles_a_guard(monkeypatch):
    # an unconstrained firing branches each guard it settles over TRUE and
    # FALSE, so it has no use for the guard's value
    calls = []
    bind = Guard.bind

    def counted_bind(guard, bound):
        holds = bind(guard, bound)

        def counted(*args):
            calls.append(guard.expr)
            return holds(*args)

        return counted

    monkeypatch.setattr(Guard, "bind", counted_bind)
    for name, states in (("motivating.wftc", 1481), ("motivating-wfd.wftc", 147)):
        assert len(build_srg(parse_model(fixture_text(name)), UNCONSTRAINED).states) == states
    assert calls == []
    # the same nets built constrained do call the wrapped guards
    for name in ("motivating.wftc", "motivating-wfd.wftc"):
        build_srg(parse_model(fixture_text(name)), CONSTRAINED)
    assert calls


# hand-built edits of ``motivating.wftc`` that leave a net which cannot be
# built, each with the one ``ModelError`` message that names its problems
NO_TABLE = "; ".join(
    [
        "initial record ('id1', 'license1', 'copy1') has 3 values, expected 0",
        "initial record ('id2', 'license2', 'copy2') has 3 values, expected 0",
        *(f"operation on {t} references unknown table User" for t in ("t0", "t10", "t11", "t13", "t14", "t2")),
        *(f"predicate {pi} needs table User which is not declared" for pi in ("pi1", "pi2", "pi3")),
    ]
)
INVALID_NETS = {
    "guard-over-undeclared-predicate": (
        lambda net: net.guards.update(g1=Guard(("and", ("pi", "pi1"), ("pi", "pi9")))),
        "guard g1 references unknown predicate pi9",
    ),
    "membership-without-table": (lambda net: setattr(net, "schema", None), NO_TABLE),
    "eq-over-undeclared-item": (
        lambda net: net.predicates.update(pi4=Predicate("eq", "idx", const="id2")),
        "predicate pi4 references unknown data item idx",
    ),
    "undeclared-guard": (
        lambda net: net.guard_of.update(t1=("g9", True)),
        "transition t1 references unknown guard g9",
    ),
    # the model text has no such kind or node: a ``member`` predicate would
    # be bound as membership but refined as if unbound, an ``xor`` guard
    # evaluated as ``and`` but written as ``|``, and a two-operand ``not``
    # undetermined over both predicates but evaluated and written over one
    "unknown-predicate-kind": (
        lambda net: net.predicates.update(pi1=Predicate("member", "id", "User", "Id")),
        "predicate pi1 has unknown kind 'member'",
    ),
    "unknown-guard-operator": (
        lambda net: net.guards.update(g1=Guard(("xor", ("pi", "pi1"), ("pi", "pi2")))),
        "guard g1 has unknown operator 'xor'",
    ),
    # the model text writes the two chains as one, which reads back as one node
    "and-directly-inside-and": (
        lambda net: net.guards.update(g1=Guard(("and", ("pi", "pi1"), ("and", ("pi", "pi2"), ("pi", "pi3"))))),
        "guard g1 has 'and' directly inside 'and'",
    ),
    "or-directly-inside-or": (
        lambda net: net.guards.update(g2=Guard(("not", ("or", ("or", ("pi", "pi1"), ("pi", "pi2")), ("pi", "pi3"))))),
        "guard g2 has 'or' directly inside 'or'",
    ),
    "negation-of-two-operands": (
        lambda net: net.guards.update(g1=Guard(("not", ("pi", "pi1"), ("pi", "pi2")))),
        "guard g1 has 'not' of 2 operands",
    ),
    # the model text writes each kind with its own fields only
    "field-the-kind-does-not-read": (
        lambda net: net.predicates.update(pi4=Predicate("eq", "id", column="Id", const="id2")),
        "predicate pi4 of kind 'eq' has a column",
    ),
    "write-undeclared-item": (
        lambda net: net.wt.update(t1=("idx",)),
        "wt(t1) references unknown data item idx",
    ),
    "short-initial-record": (
        lambda net: setattr(net, "initial_records", (("id1", "license1"), ("id2", "license2", "copy2"))),
        "initial record ('id1', 'license1') has 2 values, expected 3",
    ),
    "arc-to-undeclared-node": (lambda net: net.arcs.add(("p1", "tq")), "arc endpoint tq not declared"),
    "second-place": (lambda net: net.places.append("p3"), "duplicate place p3"),
    "place-is-transition": (
        lambda net: net.transitions.append("p3"),
        "names used as both place and transition: ['p3']",
    ),
    "duplicate-data-item": (lambda net: net.data_items.append("id"), "duplicate data item id"),
    "ops-on-undeclared-transition": (
        lambda net: (
            net.sel.update(t97=(SelScope("User", "Id"),)),
            net.ins.update(t99=(InsertOp("User", (("Id", ("item", "id")),)),)),
            net.dele.update(t98=(DeleteOp("User", "Id", ("item", "id")),)),
            net.upd.update(t96=(UpdateOp("User", (("Copy", ("const", "c")),), "Id", ("item", "id")),)),
        ),
        "; ".join(f"{op} label on unknown transition {t}" for op, t in (("sel", "t97"), ("ins", "t99"), ("del", "t98"), ("upd", "t96"))),
    ),
    "del-over-undeclared-item": (
        lambda net: net.dele.update(t2=(DeleteOp("User", "Id", ("item", "idx")),)),
        "del where on t2 references unknown data item idx",
    ),
    "sel-where-without-source": (
        lambda net: net.sel.update(t10=(SelScope("User", "License", where_attr="Id", assign_item="license"),)),
        "sel where on t10 has no value source",
    ),
    # ``attr_index`` would read only the first of the two columns
    "duplicate-attribute": (
        lambda net: (
            setattr(net, "schema", TableSchema("User", ("Id", "License", "Copy", "Id"))),
            setattr(net, "initial_records", tuple(record + record[:1] for record in net.initial_records)),
        ),
        "duplicate attribute User.Id",
    ),
}


@pytest.mark.parametrize("edit, message", INVALID_NETS.values(), ids=INVALID_NETS)
def test_invalid_hand_built_net_is_one_model_error(edit, message):
    net = parse_model(fixture_text("motivating.wftc"))
    build_srg(net)  # compiles the plans of the unedited net, which it keeps after the edit
    edit(net)
    # a copy is a new net: its place index derived anew, without the plans
    net = copy.copy(net)
    assert net.compiled is None and net.place_index == {p: i for i, p in enumerate(net.places)}
    c0 = initial_state(net)
    calls = (
        lambda: build_srg(net),
        lambda: enabled(net, c0, "t0"),
        lambda: fire(net, c0, "t0"),
        lambda: refine(net, c0, "id"),
    )
    for call in calls:
        # a ``ValueError`` or ``IndexError`` escapes ``pytest.raises``
        with pytest.raises(ModelError) as err:
            call()
        assert str(err.value) == message


def test_a_net_is_validated_once(monkeypatch):
    # the parser does not validate; the first use does, and a copy is a new
    # net, without that verdict or the plans
    validate, calls = wftc.srg.validate_workflow_structure, []

    def counted(net):
        calls.append(net)
        return validate(net)

    for module in (wftc.model, wftc.srg):
        monkeypatch.setattr(module, "validate_workflow_structure", counted)
    net = parse_model(fixture_text("motivating.wftc"))
    assert calls == []
    build_srg(net)
    fire(net, initial_state(net), "t0")
    assert len(calls) == 1
    net = copy.copy(net)
    build_srg(net)
    fire(net, initial_state(net), "t0")
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["Constrained", "", None])
def test_unknown_mode_is_a_model_error(motivating_net, mode):
    # a misspelt mode would settle guards as in constrained mode but skip
    # the constraint filter
    c0 = initial_state(motivating_net)
    for call in (lambda: fire(motivating_net, c0, "t0", mode), lambda: build_srg(motivating_net, mode)):
        with pytest.raises(ModelError, match=f"^unknown mode {mode!r}$"):
            call()


def test_build_motivating_counts(motivating_srg):
    assert (len(motivating_srg.states), sum(motivating_srg.pseudo)) == (54, 0)


def test_build_wfd_counts(wfd_srg):
    assert (len(wfd_srg.states), sum(wfd_srg.pseudo)) == (147, 113)


# SHA-256 of export_json: counts alone would miss renumbered states,
# reordered edges or changed data, tables and guard values
PINNED_GRAPHS = [
    ("motivating.wftc", CONSTRAINED, "a32af85afc401100aed9530704bacf349ae91d3f978cd8413ca4b5edd97adc24"),
    ("motivating.wftc", UNCONSTRAINED, "ccfdf0995243453cfa8e174771f23c162330f6291f95aa07414676a772042d8f"),
    ("motivating-wfd.wftc", UNCONSTRAINED, "1df116436241396577ff3b3c55568dd905f51079958b9d11d083b3069dc2419e"),
    # ``table_model(4)``: 4 341 states, 3 630 of them pseudo, and 7 226 arcs
    ("table-4", UNCONSTRAINED, "a2eb2f069c6b3c1a4afaaa5fa62ee58a82de1b00fb92a3f7ca1447f19fbe312f"),
    # ``parallel_model(2)``: 3 424 states and 9 094 arcs
    ("net-2", CONSTRAINED, "7ed7dcae7da72707d540adbd36c87017b0ce3cd3698d842446ba2cdfc8d909e8"),
]


def model_text(name: str) -> str:
    if name.startswith("table-"):
        return table_model(int(name.removeprefix("table-")))
    if name.startswith("net-"):
        return parallel_model(int(name.removeprefix("net-")))
    return fixture_text(name)


@pytest.mark.parametrize("name, mode, digest", PINNED_GRAPHS)
def test_exported_graph_is_pinned(name, mode, digest):
    srg = build_srg(parse_model(model_text(name)), mode)
    assert hashlib.sha256(export_json(srg).encode("utf-8")).hexdigest() == digest


def test_unconstrained_net_2_stops_at_the_ceiling():
    # unconstrained, the copies' guards branch freely: the graph passes 10^6
    # states, so a small ceiling must stop it
    with pytest.raises(ResourceLimitError, match="^state ceiling of 5000 states exceeded$"):
        build_srg(parse_model(parallel_model(2)), UNCONSTRAINED, limit=5000)


def test_twelve_row_table_graph_is_pinned():
    # with ten rows or more, string order (id10 < id2) differs from the
    # numeric-suffix order of canonical tables
    srg = build_srg(parse_model(table_model(12)), CONSTRAINED)
    assert len(srg.states) == 624
    digest = hashlib.sha256(export_json(srg).encode("utf-8")).hexdigest()
    assert digest == "7e1ccfc20c1dbb35b4bc74f8f087a52652c60fd9f07067c3efc08c6b1e20fe64"


def test_two_place_chain(tiny_net):
    srg = build_srg(tiny_net)
    assert len(srg.states) == 2
    assert arc_triples(srg) == [(0, "t0", 1)]


def test_stats_on_initial_only():
    net = parse_model(
        """
[PLACES] p0 p1
[TRANSITIONS] t0
[ARCS] p0->t0 t0->p1
[GUARDMAP] t0:g
[PREDICATES] pi = def(item)
[DATA] item
[GUARDS] g = pi
[INITIAL] p0
[FINAL] p1
"""
    )
    srg = build_srg(net)
    assert (len(srg.states), len(srg.edges)) == (1, 0)


def test_state_ceiling(motivating_net):
    with pytest.raises(ResourceLimitError):
        build_srg(motivating_net, CONSTRAINED, limit=10)


def test_constrained_states_satisfy_constraints(motivating_net, motivating_srg):
    for s in motivating_srg.states:
        assert constraint_consistent(sigma_map(s, motivating_net), motivating_net.constraints)


def test_build_is_deterministic(motivating_net, motivating_srg):
    again = build_srg(motivating_net, CONSTRAINED)
    assert again.states == motivating_srg.states
    assert again.edges == motivating_srg.edges


def test_built_state_equals_a_state_with_a_copied_table(motivating_srg):
    # a build passes each state the hash of its one kept copy of the
    # table; a state made outside a build hashes its own table
    tables = {id(state.table) for state in motivating_srg.states}
    assert len(tables) == len({state.table for state in motivating_srg.states})
    for state in motivating_srg.states:
        table = tuple(list(state.table))
        assert table is not state.table or not table
        copy = StateC(state.marking, state.data, table, state.sigma)
        assert copy == state and state == copy
        assert hash(copy) == hash(state)


@pytest.mark.parametrize("mode", [CONSTRAINED, UNCONSTRAINED])
@pytest.mark.parametrize("name", ["motivating.wftc", "motivating-wfd.wftc", "table-4", "table-8"])
def test_a_build_keeps_one_object_per_distinct_table(name, mode):
    # the evaluator groups states by table object, so equal tables must be
    # one object
    srg = build_srg(parse_model(model_text(name)), mode)
    assert len({id(state.table) for state in srg.states}) == len({state.table for state in srg.states})


def test_a_written_item_scope_is_derived_once_per_plan(monkeypatch):
    # unconstrained ``motivating-wfd`` writes 7 items over all its
    # transitions; each firing takes its items' scopes from the plan
    calls = []
    item_scope = wftc.srg._item_scope

    def counted(net, item, scopes=()):
        calls.append(item)
        return item_scope(net, item, scopes)

    monkeypatch.setattr(wftc.srg, "_item_scope", counted)
    net = parse_model(fixture_text("motivating-wfd.wftc"))
    assert len(build_srg(net, UNCONSTRAINED).states) == 147
    assert len(calls) == sum(map(len, net.wt.values())) == 7
    # ``refine`` called without a scope derives it
    assert refine(net, initial_state(net), "id") == ["id"]
    assert len(calls) == 8


def test_unpickled_state_hashes_in_its_new_process(motivating_srg):
    # a state caches its hash, and string hashes differ between processes
    state = motivating_srg.states[-1]
    check = (
        "import pickle, sys; from wftc.srg import StateC; "
        "state = pickle.loads(sys.stdin.buffer.read()); "
        "assert hash(state) == hash(StateC(state.marking, state.data, state.table, state.sigma))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": str(Path(wftc.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", check], input=pickle.dumps(state), env=env, timeout=120, check=True)


def test_mode_relationship(wfd_net, wfd_srg):
    # constrained state set sits inside the unconstrained one restricted to
    # plain states reachable through plain states
    post, _ = arc_lists(wfd_srg)
    reachable = set()
    frontier = [wfd_srg.initial]
    while frontier:
        i = frontier.pop()
        if wfd_srg.pseudo[i] or i in reachable:
            continue
        reachable.add(i)
        frontier.extend(post[i])
    plain = {wfd_srg.states[i] for i in reachable}
    constrained = build_srg(wfd_net, CONSTRAINED)
    assert set(constrained.states) <= plain


def test_token_conservation(motivating_net, motivating_srg):
    net = motivating_net
    for src, t, dst in arc_triples(motivating_srg):
        before = motivating_srg.states[src].marking
        after = motivating_srg.states[dst].marking
        pre = {p for p, q in net.arcs if q == t}
        post = {q for p, q in net.arcs if p == t}
        for i, place in enumerate(net.places):
            delta = after[i] - before[i]
            expected = (place in post) - (place in pre)
            assert delta == expected


@pytest.mark.parametrize(
    "text, mode",
    [
        (fixture_text("motivating.wftc"), CONSTRAINED),
        (fixture_text("motivating-wfd.wftc"), UNCONSTRAINED),
        (table_model(8), CONSTRAINED),
    ],
    ids=["motivating", "motivating-wfd", "table-8"],
)
def test_random_walks_stay_inside_the_graph(text, mode):
    # ``enabled`` and ``fire`` called without a store, one state at a time,
    # reach only states of the graph the build made, along its arcs
    net = parse_model(text)
    srg = build_srg(net, mode)
    index = {state: i for i, state in enumerate(srg.states)}
    arcs = set(arc_triples(srg))
    rng = random.Random(7)
    for _ in range(20):
        state = initial_state(net)
        assert index.get(state) == srg.initial
        for _ in range(40):
            ts = [t for t in net.transitions if enabled(net, state, t)]
            successors = [(t, after) for t in ts for after in fire(net, state, t, mode)]
            for t, after in successors:
                assert (index.get(state), t, index.get(after)) in arcs
            if not successors:
                break
            _, state = rng.choice(successors)


def test_update_preserves_record_count(motivating_srg):
    for src, t, dst in arc_triples(motivating_srg):
        if t == "t13":  # update only
            assert len(motivating_srg.states[src].table) == len(
                motivating_srg.states[dst].table
            )


def test_insert_then_delete_restores_table():
    net = parse_model(
        """
[PLACES] p0 p1 p2
[TRANSITIONS] tin tdel
[ARCS] p0->tin tin->p1 p1->tdel tdel->p2
[DATA] k
[TABLE] T(K)
  v1
[OPS]
  tin: wt(k) sel(T.K) ins(T: K=k)
  tdel: del(T where K=k)
[PREDICATES] pi = in(k, T.K)
[GUARDS] g = pi
[INITIAL] p0
[FINAL] p2
"""
    )
    srg = build_srg(net)
    c0 = srg.states[srg.initial]
    # the fresh-token branch inserts a new row, the delete removes it again
    fresh_mid = [
        s for s in srg.states if s.data == ("k1",) and marked_places(s, net) == ["p1"]
    ]
    assert fresh_mid[0].table == (("k1",), ("v1",))
    fresh_final = [
        s for s in srg.states if s.data == ("k1",) and marked_places(s, net) == ["p2"]
    ]
    assert fresh_final[0].table == c0.table


def test_fresh_token_never_collides(motivating_net, motivating_srg):
    net = motivating_net
    for s in motivating_srg.states:
        for item, column in (("id", "Id"), ("license", "License"), ("copy", "Copy")):
            col = column_of(s.table, net.schema.attr_index(column))
            fresh = fresh_token(item, col)
            assert fresh not in col


def test_state_space_grows_with_table_size():
    # no golden numbers for larger tables; the build must stay finite,
    # deterministic and grow monotonically with the row count
    base = fixture_text("motivating.wftc")
    counts = []
    for rows in (2, 4, 8):
        records = "\n".join(f"  id{i}, license{i}, copy{i}" for i in range(1, rows + 1))
        text = base.replace("  id1, license1, copy1\n  id2, license2, copy2", records)
        srg = build_srg(parse_model(text))
        counts.append(len(srg.states))
    assert counts[0] == 54
    assert counts[0] < counts[1] < counts[2]


def test_unconstrained_mode_on_table_backed_net(motivating_net):
    # constraint-unaware construction keeps the violating states around
    srg = build_srg(motivating_net, UNCONSTRAINED)
    assert len(srg.states) > 54
    assert sum(srg.pseudo) > 0
    retained = {s for i, s in enumerate(srg.states) if not srg.pseudo[i]}
    assert retained >= set(build_srg(motivating_net, CONSTRAINED).states)


# ---------------------------------------------------------------------------
# the evaluator's adjacency lists, built on first use


@pytest.mark.parametrize("name", ["motivating.wftc", "motivating-wfd.wftc"])
@pytest.mark.parametrize("mode", [CONSTRAINED, UNCONSTRAINED])
def test_adjacency_is_built_on_first_use(name, mode):
    from wftc.dctl import _evaluation

    srg = build_srg(parse_model(fixture_text(name)), mode)
    # a build that checks no formula holds no evaluator, so no lists
    assert srg.evaluation is None
    evaluation = _evaluation(srg)
    assert (evaluation.post, evaluation.pre) == arc_lists(srg)
    quotient = evaluation.quotient
    assert len(quotient.states) < len(srg.states)
    # a block's arcs are those of its first state; a build lists the arcs
    # of each state after those of the states before it
    block = list(evaluation.block)
    first = [block.index(b) for b in range(len(quotient.states))]
    arcs = [(block[src], t, block[dst]) for src, t, dst in arc_triples(srg) if first[block[src]] == src]
    blocks = Srg(srg.net, srg.mode, quotient.states, arcs_of(srg.net, arcs), 0, [False] * len(quotient.states))
    assert (quotient.post, quotient.pre) == arc_lists(blocks)


def test_a_copied_graph_drops_stale_adjacency(motivating_net):
    from wftc.dctl import _evaluation

    def lists():
        evaluation = _evaluation(srg)
        return evaluation.post, evaluation.pre

    srg = build_srg(motivating_net, CONSTRAINED)
    assert lists()[0][0] and 0 not in lists()[0][0]
    srg.edges = arcs_of(srg.net, [*arc_triples(srg), (0, "t0", 0)])
    srg = copy.copy(srg)
    assert srg.evaluation is None
    assert 0 in lists()[0][0] and 0 in lists()[1][0]
    assert lists() == arc_lists(srg)
    srg.edges = arcs_of(srg.net, arc_triples(srg)[:-1])
    srg = copy.copy(srg)
    assert 0 not in lists()[0][0]
    assert lists() == arc_lists(srg)
    # a second transition between the same two states is a second arc
    src, _, dst = arc_triples(srg)[0]
    srg.edges = arcs_of(srg.net, [*arc_triples(srg), (src, "t9", dst)])
    srg = copy.copy(srg)
    assert lists()[0][src].count(dst) == 2
    assert lists() == arc_lists(srg)


# ---------------------------------------------------------------------------
# the arc store and what a build keeps


def test_arcs_are_three_int_columns(motivating_net, motivating_srg):
    arcs = motivating_srg.edges
    assert type(arcs) is Arcs and Arcs._fields == ("src", "dst", "label")
    assert [column.typecode for column in (arcs.src, arcs.dst, arcs.label)] == ["i", "i", "i"]
    assert len(arcs) == len(arcs.src) == len(arcs.dst) == len(arcs.label) == 73
    # the build numbers transitions by their place in the net's list, which
    # alone names them
    assert set(arcs.label) == set(range(len(motivating_net.transitions)))
    assert not hasattr(arcs, "names") and not hasattr(arcs, "append") and not hasattr(arcs, "__iter__")
    # the states are numbered breadth first, so the sources never fall
    assert list(arcs.src) == sorted(arcs.src)


def test_arcs_compare_and_pickle(motivating_net):
    # hand-built arcs keep the order they are given in
    arcs = arcs_of(motivating_net, [(3, "t1", 0), (0, "t18", 2), (3, "t0", 3)])
    assert arcs == Arcs([3, 0, 3], [0, 2, 3], [1, 18, 0])
    with pytest.raises(ValueError):
        arcs_of(motivating_net, [(0, "t99", 1)])  # no such transition
    assert len(arcs) == 3 and len(Arcs()) == 0 and not Arcs()
    assert arcs != Arcs([3, 0], [0, 2], [1, 18])
    assert arcs != Arcs([3, 0, 3], [0, 2, 3], [1, 18, 1])
    assert arcs != [(3, "t1", 0), (0, "t18", 2), (3, "t0", 3)]  # a store equals a store, not a list
    with pytest.raises(TypeError):
        hash(arcs)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(arcs, protocol))
        assert back == arcs
        assert (back.src, back.dst, back.label) == (array("i", [3, 0, 3]), array("i", [0, 2, 3]), array("i", [1, 18, 0]))


def test_a_pickled_graph_keeps_its_arcs_on_its_net(motivating_srg):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(motivating_srg, protocol))
        assert back == motivating_srg and back.edges == motivating_srg.edges
        # the transitions are named by the unpickled net alone
        assert arc_triples(back) == arc_triples(motivating_srg)


def test_evaluator_lists_share_one_int_per_state():
    from wftc.dctl import _evaluation

    # past 256 states, where ints are no longer shared by the interpreter
    srg = build_srg(parse_model(table_model(8)), CONSTRAINED)
    evaluation = _evaluation(srg)
    objects = {}
    for lists in (evaluation.post, evaluation.pre):
        for entries in lists:
            for i in entries:
                assert objects.setdefault(i, id(i)) == id(i), i
    assert max(objects) > 256


def test_graph_keeps_at_most_200_bytes_per_state():
    # each arc is three C ints; the states share their markings, data
    # tuples and tables (309 B per state with a tuple per arc)
    kept, srg = retained_bytes(table_model(6), UNCONSTRAINED)
    assert (len(srg.states), len(srg.edges)) == (8673, 14514)
    assert kept / len(srg.states) <= 200, kept


def test_a_dropped_build_leaves_at_most_64_kib():
    # the build's memos, the record sort keys and fresh tokens included, go
    # with its store; what stays is the process-wide memo of token sort
    # keys, about 30 KiB for the 141 tokens of a first table-32 build (the
    # record key memo alone held 0.36 MB when it was process-wide)
    text = table_model(32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        srg = build_srg(parse_model(text), CONSTRAINED)
        assert len(srg.states) == 3564
        del srg
        gc.collect()
        residue = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert residue <= 64 * 1024, residue
    # and the only memo a module keeps is that one
    memos = {
        getattr(value, "__qualname__", name)
        for module in list(sys.modules.values())
        if module.__name__.startswith("wftc")
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert memos == {"token_key"}
