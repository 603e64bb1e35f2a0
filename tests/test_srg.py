"""States, refinement, firing, and graph construction."""

import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wftc
from conftest import arc_lists, fixture_text, marked_places, sigma_map, table_model
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
    GuardRef,
    InsertOp,
    ModelError,
    Place,
    Predicate,
    SelScope,
    TableSchema,
    Transition,
    UpdateOp,
    column_of,
)
from wftc.srg import FiringError, Srg, StateC, fresh_token

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
    for guard in [*motivating_net.guards.values(), Guard("nested", nested)]:
        holds = guard.bind(bound)
        names = sorted(guard.predicates())
        combos = [dict(zip(names, values)) for values in itertools.product((True, False), repeat=len(names))]
        assert len(combos) == 2 ** len(names) >= 2
        for values in combos:
            assert holds(values, (), None) is naive_holds(guard.expr, values), (guard.name, values)


def test_unconstrained_build_never_settles_a_guard(monkeypatch):
    # an unconstrained firing branches each guard it settles over TRUE and
    # FALSE, so it has no use for the guard's value
    calls = []
    bind = Guard.bind

    def counted_bind(guard, bound):
        holds = bind(guard, bound)

        def counted(*args):
            calls.append(guard.name)
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
        lambda net: net.guards.update(g1=Guard("g1", ("and", ("pi", "pi1"), ("pi", "pi9")))),
        "guard g1 references unknown predicate pi9",
    ),
    "membership-without-table": (lambda net: setattr(net, "schema", None), NO_TABLE),
    "eq-over-undeclared-item": (
        lambda net: net.predicates.update(pi4=Predicate("pi4", "eq", "idx", const="id2")),
        "predicate pi4 references unknown data item idx",
    ),
    "undeclared-guard": (
        lambda net: net.guard_of.update(t1=GuardRef("g9")),
        "transition t1 references unknown guard g9",
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
    "second-place": (lambda net: net.places.append(Place("p3", 14)), "duplicate place p3"),
    "place-is-transition": (
        lambda net: net.transitions.append(Transition("p3", 19)),
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
    build_srg(net)  # built once before the edit: re-indexing drops the plans and the verdict
    edit(net)
    net._index()
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
    # the parser does not validate; the first use does, and re-indexing
    # drops that verdict with the plans
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
    net._index()
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
]


@pytest.mark.parametrize("name, mode, digest", PINNED_GRAPHS)
def test_exported_graph_is_pinned(name, mode, digest):
    text = table_model(int(name.removeprefix("table-"))) if name.startswith("table-") else fixture_text(name)
    srg = build_srg(parse_model(text), mode)
    assert hashlib.sha256(export_json(srg).encode("utf-8")).hexdigest() == digest


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
    assert srg.edges == [(0, "t0", 1)]


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
    for src, t, dst in motivating_srg.edges:
        before = motivating_srg.states[src].marking
        after = motivating_srg.states[dst].marking
        pre = {p for p, q in net.arcs if q == t}
        post = {q for p, q in net.arcs if p == t}
        for place in net.places:
            delta = after[place.index] - before[place.index]
            expected = (place.name in post) - (place.name in pre)
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
    arcs = set(srg.edges)
    rng = random.Random(7)
    for _ in range(20):
        state = initial_state(net)
        assert index.get(state) == srg.initial
        for _ in range(40):
            ts = [t.name for t in net.transitions if enabled(net, state, t.name)]
            successors = [(t, after) for t in ts for after in fire(net, state, t, mode)]
            for t, after in successors:
                assert (index.get(state), t, index.get(after)) in arcs
            if not successors:
                break
            _, state = rng.choice(successors)


def test_update_preserves_record_count(motivating_srg):
    for src, t, dst in motivating_srg.edges:
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
    arcs = [(block[src], t, block[dst]) for src, t, dst in srg.edges if first[block[src]] == src]
    blocks = Srg(net=srg.net, mode=srg.mode, states=quotient.states, edges=arcs)
    assert (quotient.post, quotient.pre) == arc_lists(blocks)


def test_finish_drops_stale_adjacency(motivating_net):
    from wftc.dctl import _evaluation

    def lists():
        evaluation = _evaluation(srg)
        return evaluation.post, evaluation.pre

    srg = build_srg(motivating_net, CONSTRAINED)
    assert lists()[0][0] and 0 not in lists()[0][0]
    srg.edges = srg.edges + [(0, "t0", 0)]
    srg.finish()
    assert srg.evaluation is None
    assert 0 in lists()[0][0] and 0 in lists()[1][0]
    assert lists() == arc_lists(srg)
    srg.edges = srg.edges[:-1]
    srg.finish()
    assert 0 not in lists()[0][0]
    assert lists() == arc_lists(srg)
    # a second transition between the same two states is a second arc
    src, _, dst = srg.edges[0]
    srg.edges = srg.edges + [(src, "t9", dst)]
    srg.finish()
    assert lists()[0][src].count(dst) == 2
    assert lists() == arc_lists(srg)
