"""State space construction by constraint-aware data refinement.

A configuration couples a marking with the data-item valuation, the
current table instance, and a three-valued guard valuation. Firing a
transition branches over the finite refinement domain of each written
item (scoped column values plus one fresh token) and re-derives exactly
the guards whose predicates depend on an item the firing wrote or
deleted; every other guard keeps its previous value.

What firing needs from the net is compiled once per net into a plan per
transition (``_Plan``), and ``build_srg`` tries at each state only the
transitions whose preset its marking covers, listed once per marking.
What firing asks of a table is answered once per build (``_Store``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
import time
from array import array
from operator import itemgetter

from .model import (
    BOT,
    FALSE,
    TRUE,
    UNDEF,
    Frozen,
    ModelError,
    SelScope,
    Struct,
    WftcNet,
    canonical_table,
    column_of,
    constraint_consistent,
    record_key,
    validate_workflow_structure,
)

CONSTRAINED = "constrained"
UNCONSTRAINED = "unconstrained"

DEFAULT_STATE_LIMIT = 10**6
STATE_LIMIT_ENV = "WFTC_STATE_LIMIT"


class ResourceLimitError(Exception):
    """The exploration hit the configured state ceiling."""


class FiringError(Exception):
    """A transition was fired although it is not enabled."""


class StateC(Frozen):
    """One configuration: marking, data valuation, table, guard values.

    Built and compared once per successor while the graph is built, so
    its methods are written out field by field."""

    __slots__ = ("marking", "data", "table", "sigma", "_hash")
    _fields = ("marking", "data", "table", "sigma")

    def __init__(self, marking: tuple[int, ...], data: tuple, table: tuple, sigma: tuple[str, ...], table_hash=None):
        self.marking = marking
        self.data = data  # value token or UNDEF per data item, in declaration order
        self.table = table  # canonically sorted records
        self.sigma = sigma  # guard values in declaration order
        # hashing the table is the costly part; a build passes the hash its
        # store computed once per distinct table
        self._hash = hash((marking, data, hash(table) if table_hash is None else table_hash, sigma))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # within one build equal tables are one object
        return (
            self.marking == other.marking
            and self.data == other.data
            and (self.table is other.table or self.table == other.table)
            and self.sigma == other.sigma
        )


def initial_state(net: WftcNet) -> StateC:
    """One token on start, all items unwritten, the declared table, and
    every guard undetermined."""
    marking = tuple(1 if p == net.start else 0 for p in net.places)
    data = tuple(UNDEF for _ in net.data_items)
    table = canonical_table(net.initial_records)
    sigma = tuple(BOT for _ in net.guards)
    return StateC(marking, data, table, sigma)


# ---------------------------------------------------------------------------
# the compiled net


def _item_scope(net: WftcNet, item: str, scopes=()):
    """The scope a written item refines over, compiled by ``_scope``: the
    first of ``scopes`` on the column its membership predicate is bound to,
    else that whole column; ``None`` for an item without a membership binding."""
    binding = next(
        ((pi.table, pi.column) for pi in net.predicates.values() if pi.kind == "in" and pi.item == item),
        None,
    )
    if binding is None:
        return None
    for scope in scopes:
        if not scope.assign_item and (scope.table, scope.column) == binding:
            return _scope(net, scope)
    return _scope(net, SelScope(*binding))


def _source(net: WftcNet, source):
    """A value source as a function of a data tuple."""
    kind, name = source
    if kind == "const":
        return lambda data: name
    return itemgetter(net.data_items.index(name))


def _where(net: WftcNet, attr: str, source):
    """The row filter ``attr = source`` as (column index, source)."""
    return net.schema.attr_index(attr), _source(net, source)


def _scope(net: WftcNet, scope: SelScope):
    """A ``sel`` scope as (column index, row filter or ``None``)."""
    where = _where(net, scope.where_attr, scope.where_source) if scope.where_attr else None
    return net.schema.attr_index(scope.column), where


def _values_at(positions: tuple):
    """A function giving the tuple of a data tuple's values at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


class _Plan:
    """What firing one transition needs from the net, resolved once:
    place, item and column positions, scopes, value sources, the guard
    value it requires and the guards it settles."""

    def __init__(self, net: WftcNet, t: str, guards: dict, pre: list, post: list):
        item = net.data_items.index
        self.pre, self.post = tuple(sorted(pre)), tuple(sorted(post))  # place indices
        self.moves: dict[tuple, tuple] = {}  # marking -> marking after firing
        self.rd = tuple(map(item, net.rd.get(t, ())))
        self.dt = tuple(map(item, net.dt.get(t, ())))
        written = net.wt.get(t, ())
        self.wt = tuple(map(item, written))
        scopes = net.sel.get(t, ())
        # each written item with the scope ``refine`` branches it over
        self.refined = tuple((d, _item_scope(net, d, scopes)) for d in written)
        self.assigns = tuple((item(s.assign_item), _scope(net, s)) for s in scopes if s.assign_item)
        self.ins = tuple(
            tuple((net.schema.attr_index(attr), _source(net, source)) for attr, source in op.values)
            for op in net.ins.get(t, ())
        )
        # each ``del`` and then each ``upd`` as (row filter, ``None`` or the
        # cells it sets)
        self.edits = tuple((_where(net, op.where_attr, op.where_source), None) for op in net.dele.get(t, ()))
        self.edits += tuple(
            (
                _where(net, op.where_attr, op.where_source),
                tuple((net.schema.attr_index(attr), _source(net, source)) for attr, source in op.sets),
            )
            for op in net.upd.get(t, ())
        )
        # the items whose values the table ops read
        sources = [s for op in net.ins.get(t, ()) for _, s in op.values]
        sources += [op.where_source for op in net.dele.get(t, ()) + net.upd.get(t, ())]
        sources += [s for op in net.upd.get(t, ()) for _, s in op.sets]
        self.reads = _values_at(sorted({item(name) for kind, name in sources if kind == "item"}))
        # a transition that writes, assigns and changes nothing has one
        # successor: its parent's table and data, the deleted items cleared
        self.plain = not (written or self.assigns or self.ins or self.edits)
        # whether enabling asks more of a state than its marking and guards
        self.tests_data = bool(self.rd or self.assigns or self.edits)
        self.width = len(net.schema.attributes) if net.schema is not None else 0
        ref = net.guard_of.get(t)
        self.guard = None
        if ref is not None:
            self.guard = (guards[ref.guard][0], TRUE if ref.positive else FALSE)
        # the guards the firing settles (those over an item it writes or
        # deletes; items filled by a select assignment do not count), with
        # the positions of the items their predicates read and their bound
        # functions; every other guard keeps its value, which is
        # undetermined while one of its items is unwritten
        moved = set(written) | set(net.dt.get(t, ()))
        self.settle = tuple(
            (gi, _values_at(tuple(map(item, items))), settle)
            for gi, settle, items in guards.values()
            if items & moved
        )
        # each guard a plain firing settles reads an item it deleted, so the
        # firing leaves it undetermined
        self.cleared = tuple(gi for gi, _, _ in self.settle) if self.plain else ()


class _Compiled:
    """A valid net's firing plans, kept on the net until it is re-indexed; per
    distinct marking the transitions whose preset it marks, and per
    distinct guard valuation its constraint verdict."""

    def __init__(self, net: WftcNet):
        if errors := validate_workflow_structure(net):
            raise ModelError("; ".join(errors))
        bound = {name: pi.bind(net) for name, pi in net.predicates.items()}
        # per guard name, its position in a guard valuation (its place in
        # ``net.guards``), its function and its predicates' items
        guards = {
            name: (gi, g.bind(bound), frozenset(net.predicates[p].item for p in g.predicates()))
            for gi, (name, g) in enumerate(net.guards.items())
        }
        # each transition's input and output place indices; validation
        # made every arc join a declared place and transition
        pre = {t: [] for t in net.transitions}
        post = {t: [] for t in net.transitions}
        place = net.place_index
        for src, dst in net.arcs:
            if src in place:
                pre[dst].append(place[src])
            else:
                post[src].append(place[dst])
        self.plans = {t: _Plan(net, t, guards, pre[t], post[t]) for t in net.transitions}
        self.guard_names = tuple(net.guards)
        self.constraints = net.constraints
        self._candidates: dict[tuple, list[tuple[int, str]]] = {}
        self._verdicts: dict[tuple, bool] = {}

    def candidates(self, marking: tuple) -> list[tuple[int, str]]:
        """Number and name, in declaration order, of each transition whose every input place holds a token."""
        found = self._candidates.get(marking)
        if found is None:
            found = self._candidates[marking] = [
                (k, t) for k, (t, plan) in enumerate(self.plans.items()) if all(marking[i] >= 1 for i in plan.pre)
            ]
        return found

    def consistent(self, sigma: tuple) -> bool:
        """Whether ``sigma`` satisfies the constraints, decided once per
        distinct valuation; the filter and the pseudo flag both ask."""
        verdict = self._verdicts.get(sigma)
        if verdict is None:
            named = dict(zip(self.guard_names, sigma))
            verdict = self._verdicts[sigma] = constraint_consistent(named, self.constraints)
        return verdict


def _compiled(net: WftcNet) -> _Compiled:
    if net.compiled is None:
        net.compiled = _Compiled(net)
    return net.compiled


# ---------------------------------------------------------------------------
# data refinement


def fresh_token(item: str, used) -> str:
    """Deterministic new token: the item name suffixed just past the
    largest numeric suffix already in use for it."""
    top = 0
    for value in used:
        if value is UNDEF or not value.startswith(item):
            continue
        rest = value[len(item):]
        if rest.isdecimal():
            top = max(top, int(rest))
    return f"{item}{top + 1}"


class _Store:
    """One build's tables, each kept once with its hash, and the answers
    firing needs from them, each computed once. Answers name a table by
    ``id``, which stays its own while ``tables`` keeps it."""

    __slots__ = ("tables", "hashes", "found", "columns", "derived", "record_key", "fresh_token")

    def __init__(self):
        self.tables: dict[tuple, tuple] = {}  # also keeps one copy of each guard valuation
        self.hashes: dict[int, int] = {}  # id of each kept table -> its hash
        self.found: dict[tuple, tuple] = {}  # (table, column, value) -> the rows holding it
        self.columns: dict[tuple, list] = {}  # (table, column) -> its values
        self.derived: dict[tuple, tuple] = {}  # (table, plan, values the ops read) -> table
        # most sorted-in rows and refined columns recur; memoised for the build only
        self.record_key = functools.lru_cache(maxsize=1 << 16)(record_key)
        self.fresh_token = functools.lru_cache(maxsize=1 << 12)(fresh_token)

    def intern(self, table: tuple) -> tuple:
        """The kept copy of ``table``, hashed when it is first kept."""
        if id(table) not in self.hashes:
            kept = self.tables.setdefault(table, table)
            if kept is not table:
                return kept
            self.hashes[id(table)] = hash(table)
        return table

    def rows(self, table: tuple, col: int, value) -> tuple:
        key = (id(table), col, value)
        found = self.found.get(key)
        if found is None:
            found = self.found[key] = tuple([rec for rec in table if rec[col] == value])
        return found

    def values(self, scope, data: tuple, table: tuple) -> list[str]:
        """The values of a ``sel`` scope compiled by ``_scope``."""
        col, where = scope
        if where is not None:
            return column_of(self.rows(table, where[0], where[1](data)), col)
        values = self.columns.get((id(table), col))
        if values is None:
            values = self.columns[id(table), col] = column_of(table, col)
        return values


def refine(net: WftcNet, state: StateC, item: str, scope=None, *, store=None) -> list[str]:
    """Candidate values for writing ``item`` at ``state``.

    The domain is the scoped column content plus one fresh token. Without
    any column binding the item has no comparable peers and the written
    value is just the item name itself. ``scope`` is compiled by
    ``_scope`` and defaults to the item's ``_item_scope``.
    """
    if scope is None:
        # a plan's items were validated with its net; a caller's are checked here
        if item not in net.data_items:
            raise ModelError(f"unknown data item {item}")
        _compiled(net)  # a net that cannot be built is a ``ModelError``
        scope = _item_scope(net, item)
    if scope is None:
        return [item]
    store = _Store() if store is None else store
    table = store.intern(state.table)
    column = store.values((scope[0], None), (), table)
    return [*store.values(scope, state.data, table), store.fresh_token(item, tuple(column))]


# ---------------------------------------------------------------------------
# enabling and firing


def _check_mode(mode: str):
    if mode not in (CONSTRAINED, UNCONSTRAINED):
        raise ModelError(f"unknown mode {mode!r}")


def enabled(net: WftcNet, state: StateC, t: str, *, store=None) -> bool:
    plan = (net.compiled or _compiled(net)).plans.get(t)
    if plan is None:
        raise ModelError(f"unknown transition {t}")
    return _enabled(plan, state, _Store() if store is None else store)


def _enabled(plan: _Plan, state: StateC, store: _Store) -> bool:
    marking = state.marking
    for i in plan.pre:
        if marking[i] < 1:
            return False
    if plan.tests_data:
        data, table = state.data, store.intern(state.table)
        for i in plan.rd:
            if data[i] is UNDEF:
                return False
        for _, scope in plan.assigns:
            if not store.values(scope, data, table):
                return False
        for (col, source), _ in plan.edits:  # the rows a ``del`` or ``upd`` must find
            if not store.rows(table, col, source(data)):
                return False
    guard = plan.guard
    return guard is None or state.sigma[guard[0]] == guard[1]


def _apply_table_ops(plan: _Plan, table: tuple, data: tuple, store: _Store) -> tuple:
    """The table after ``plan``'s ins, del and upd ops, derived once per
    table and values the ops read: the rows that stay keep their order,
    and only the rows the ops add are sorted in."""
    if not (plan.ins or plan.edits):
        return table
    key = (id(table), plan) + plan.reads(data)
    derived = store.derived.get(key)
    if derived is not None:
        return derived
    kept, added = list(table), []
    for cells in plan.ins:
        rec = [UNDEF] * plan.width
        for col, source in cells:
            rec[col] = source(data)
        added.append(tuple(rec))
    for (col, source), sets in plan.edits:
        needle = source(data)
        hit = [list(rec) for part in (kept, added) for rec in part if rec[col] == needle]
        kept = [rec for rec in kept if rec[col] != needle]
        added = [rec for rec in added if rec[col] != needle]
        if sets is not None:  # an ``upd`` puts the rows it found back, changed
            for rec in hit:
                for set_col, value in sets:
                    rec[set_col] = value(data)
                added.append(tuple(rec))
    for rec in canonical_table(added, store.record_key):
        if rec not in kept:
            bisect.insort(kept, rec, key=store.record_key)
    derived = store.derived[key] = store.intern(tuple(kept))
    return derived


def _sigma_after(plan: _Plan, parent_sigma, data: tuple, table: tuple, mode, store: _Store) -> list[tuple]:
    """Successor guard valuations: each guard ``plan`` settles is
    undetermined over an unwritten item, else branches over both values
    unevaluated (unconstrained) or takes its value (constrained)."""
    if not plan.settle:
        return [parent_sigma]
    sigma = list(parent_sigma)
    choices = []
    for gi, deps, settle in plan.settle:
        values = deps(data)
        if UNDEF in values:
            sigma[gi] = BOT
        elif mode == UNCONSTRAINED:
            choices.append(gi)
        else:
            sigma[gi] = TRUE if settle(data, table, store.rows) else FALSE
    out = []
    # one combination, the empty one, when no guard branches
    for combo in itertools.product((TRUE, FALSE), repeat=len(choices)):
        for i, value in zip(choices, combo):
            sigma[i] = value
        valuation = tuple(sigma)
        out.append(store.tables.setdefault(valuation, valuation))
    return out


def fire(net: WftcNet, state: StateC, t: str, mode: str = CONSTRAINED, *, store=None) -> list[StateC]:
    """All successor configurations of firing ``t``, after constraint
    filtering in constrained mode."""
    if mode is not CONSTRAINED and mode is not UNCONSTRAINED:
        _check_mode(mode)
    compiled = net.compiled or _compiled(net)
    plan = compiled.plans.get(t)
    if plan is None:
        raise ModelError(f"unknown transition {t}")
    store = _Store() if store is None else store
    if not _enabled(plan, state, store):
        raise FiringError(f"transition {t} is not enabled")
    table = store.intern(state.table)
    marking = plan.moves.get(state.marking)
    if marking is None:
        marking = list(state.marking)
        for i in plan.pre:
            marking[i] -= 1
        for i in plan.post:
            marking[i] += 1
        marking = plan.moves[state.marking] = tuple(marking)

    data = state.data
    if plan.dt:
        data = list(data)
        for i in plan.dt:
            data[i] = UNDEF
        data = tuple(data)
    if plan.plain:  # the parent's table carries over
        sigma = state.sigma
        if plan.cleared:
            sigma = list(sigma)
            for gi in plan.cleared:
                sigma[gi] = BOT
            sigma = tuple(sigma)
            sigma = store.tables.setdefault(sigma, sigma)
        if mode == CONSTRAINED and not compiled.consistent(sigma):
            return []
        return [StateC(marking, data, table, sigma, store.hashes[id(table)])]
    # (data, table) after each write combination that selects something
    written = []
    base = list(data)
    domains = [refine(net, state, d, scope, store=store) for d, scope in plan.refined]
    for combo in itertools.product(*domains):
        data = base.copy()
        for i, value in zip(plan.wt, combo):
            data[i] = value
        probe = tuple(data)
        for i, scope in plan.assigns:
            values = store.values(scope, probe, table)
            if not values:
                break  # this write combination selects nothing
            data[i] = values[0]
        else:
            data = tuple(data)
            written.append((data, _apply_table_ops(plan, table, data, store)))

    successors = []
    for data, after in written:
        after_hash = store.hashes[id(after)]
        for sigma in _sigma_after(plan, state.sigma, data, after, mode, store):
            if mode != CONSTRAINED or compiled.consistent(sigma):
                successors.append(StateC(marking, data, after, sigma, after_hash))
    return successors if len(successors) < 2 else list(dict.fromkeys(successors))


# ---------------------------------------------------------------------------
# graph construction


class Arcs(Struct):
    """A graph's arcs as three int columns, in arc order: source state,
    target state and transition number, the transition's position in
    ``names``, the net's ``transitions``. Iterating and ``append`` take
    ``(src, name, dst)``; the build appends to the columns."""

    _fields = __slots__ = ("names", "src", "dst", "label")

    def __init__(self, names: list[str], src=(), dst=(), label=()):
        self.names = names
        self.src, self.dst, self.label = array("i", src), array("i", dst), array("i", label)

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self):
        return zip(self.src, map(self.names.__getitem__, self.label), self.dst)

    def append(self, arc: tuple[int, str, int]):
        src, name, dst = arc
        self.label.append(self.names.index(name))  # first: an unknown name adds no arc
        self.src.append(src)
        self.dst.append(dst)


class Srg(Struct):
    """Reachability graph: canonical state store plus labeled arcs."""

    _fields = ("net", "mode", "states", "edges", "initial", "pseudo", "build_millis")
    __slots__ = _fields + ("evaluation",)

    def __init__(
        self,
        net: WftcNet,
        mode: str,
        states: list[StateC] | None = None,
        edges: Arcs | None = None,
        initial: int = 0,
        pseudo: list[bool] | None = None,
        build_millis: float = 0.0,
    ):
        self.net = net
        self.mode = mode
        self.states = [] if states is None else states
        self.edges = Arcs(net.transitions) if edges is None else edges
        self.initial = initial
        self.pseudo = [] if pseudo is None else pseudo
        self.build_millis = build_millis
        self.finish()

    def state_id(self, index: int) -> str:
        return f"c{index}"

    def finish(self):
        # the evaluator (adjacency lists, groups, memoised sat sets) is made
        # when a formula first needs it; stale once states or edges change
        self.evaluation = None
        return self


def state_limit() -> int:
    raw = os.environ.get(STATE_LIMIT_ENV)
    if not raw:
        return DEFAULT_STATE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ModelError(f"{STATE_LIMIT_ENV} must be a positive integer, got {raw!r}")
    return limit


def build_srg(net: WftcNet, mode: str = CONSTRAINED, limit: int | None = None) -> Srg:
    """Breadth-first exploration with canonical-state deduplication.

    In constrained mode the successors violating the constraint set were
    already dropped by ``fire``; in unconstrained mode they are kept and
    flagged pseudo. The build's ``_Store`` goes when it returns.
    """
    _check_mode(mode)
    ceiling = state_limit() if limit is None else limit
    started = time.perf_counter()

    srg = Srg(net=net, mode=mode)
    root = initial_state(net)
    index = {root: 0}
    srg.states.append(root)
    compiled = _compiled(net)
    srg.pseudo.append(not compiled.consistent(root.sigma))
    candidates = compiled.candidates
    store = _Store()
    states, pseudo = srg.states, srg.pseudo
    add_src, add_dst, add_label = srg.edges.src.append, srg.edges.dst.append, srg.edges.label.append

    # the states not yet expanded are always the end of ``states``, in the
    # order they were found; a list's iterator also yields what is appended
    # while it runs, so it is the breadth-first queue
    for sid, state in enumerate(states):
        for k, t in candidates(state.marking):
            if not enabled(net, state, t, store=store):
                continue
            for succ in fire(net, state, t, mode, store=store):
                dst = index.setdefault(succ, len(states))
                if dst == len(states):
                    if dst >= ceiling:
                        raise ResourceLimitError(f"state ceiling of {ceiling} states exceeded")
                    states.append(succ)
                    pseudo.append(mode == UNCONSTRAINED and not compiled.consistent(succ.sigma))
                # each (state, transition) pair is fired once and ``fire``
                # returns distinct successors, so no arc repeats
                add_src(sid)
                add_dst(dst)
                add_label(k)

    srg.build_millis = (time.perf_counter() - started) * 1000.0
    return srg.finish()

