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
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from collections import deque
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

    def __init__(self, marking: tuple[int, ...], data: tuple, table: tuple, sigma: tuple[str, ...]):
        self.marking = marking
        self.data = data  # value token or UNDEF per data item, in declaration order
        self.table = table  # canonically sorted records
        self.sigma = sigma  # guard values in declaration order
        # a state is looked up several times while the graph is built, and
        # hashing its table is the costly part
        self._hash = hash((marking, data, table, sigma))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # successors over arcs without table operations share their
        # parent's table
        return (
            self.marking == other.marking
            and self.data == other.data
            and (self.table is other.table or self.table == other.table)
            and self.sigma == other.sigma
        )

    def marked_places(self, net: WftcNet) -> list[str]:
        return [p.name for p in net.places if self.marking[p.index] > 0]

    def sigma_map(self, net: WftcNet) -> dict:
        return dict(zip(net.guard_order, self.sigma))


def initial_state(net: WftcNet) -> StateC:
    """One token on start, all items unwritten, the declared table, and
    every guard undetermined."""
    marking = tuple(1 if p.name == net.start else 0 for p in net.places)
    data = tuple(UNDEF for _ in net.data_items)
    table = canonical_table(net.initial_records)
    sigma = tuple(BOT for _ in net.guard_order)
    return StateC(marking, data, table, sigma)


# ---------------------------------------------------------------------------
# the compiled net


def _item_scope(net: WftcNet, item: str, scopes=()):
    """The scope a written item refines over: the first of ``scopes``
    on the column its membership predicate is bound to, else that whole
    column; ``None`` for an item without a membership binding."""
    binding = next(
        ((pi.table, pi.column) for pi in net.predicates.values() if pi.kind == "in" and pi.item == item),
        None,
    )
    if binding is None:
        return None
    for scope in scopes:
        if not scope.assign_item and (scope.table, scope.column) == binding:
            return scope
    return SelScope(*binding)


def _source(net: WftcNet, source):
    """A value source as a function of a data tuple."""
    kind, name = source
    if kind == "const":
        return lambda data: name
    return itemgetter(net.data_items.index(name))


def _where(net: WftcNet, attr: str, source):
    """The row filter ``attr = source`` as (column index, source)."""
    return net.schema.attr_index(attr), _source(net, source)


def _rows(table, where, data: tuple) -> list:
    """The rows whose ``where`` column holds the value of its source."""
    col, source = where
    needle = source(data)
    return [rec for rec in table if rec[col] == needle]


def _scope(net: WftcNet, scope: SelScope):
    """A ``sel`` scope as (column index, row filter or ``None``)."""
    where = _where(net, scope.where_attr, scope.where_source) if scope.where_attr else None
    return net.schema.attr_index(scope.column), where


def _scope_values(scope, data: tuple, table) -> list[str]:
    col, where = scope
    return column_of(table if where is None else _rows(table, where, data), col)


class _Plan:
    """What firing one transition needs from the net, resolved once:
    place, item and column positions, scopes, value sources, the guard
    value it requires and the guards it settles."""

    def __init__(self, net: WftcNet, t: str, settlers: dict):
        item = net.data_items.index
        self.pre = tuple(net.place_by_name[p].index for p in net.preset(t))
        self.post = tuple(net.place_by_name[p].index for p in net.postset(t))
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
        self.dele = tuple(_where(net, op.where_attr, op.where_source) for op in net.dele.get(t, ()))
        self.upd = tuple(
            (
                _where(net, op.where_attr, op.where_source),
                tuple((net.schema.attr_index(attr), _source(net, source)) for attr, source in op.sets),
            )
            for op in net.upd.get(t, ())
        )
        # the rows a ``del`` or ``upd`` must find to be enabled
        self.matches = self.dele + tuple(where for where, _ in self.upd)
        self.width = len(net.schema.attributes) if net.schema is not None else 0
        ref = net.guard_of.get(t)
        self.guard = None
        if ref is not None:
            self.guard = (net.guard_order.index(ref.guard), TRUE if ref.positive else FALSE)
        # every guard with the positions of the items it depends on; the
        # guards the firing settles (those over an item it writes or
        # deletes; items filled by a select assignment do not count) also
        # carry the function that evaluates them
        moved = set(written) | set(net.dt.get(t, ()))
        self.settle = tuple(
            (gi, tuple(map(item, deps)), settlers[name] if deps & moved else None)
            for gi, (name, deps) in enumerate(net.guard_deps.items())
        )


def _settler(guard, bound: dict):
    """``guard`` as a function of a data tuple and a table, with
    ``Guard.evaluate`` memoised on the tuple of its predicate values."""
    names = tuple(guard.predicates())
    preds = tuple(bound[name] for name in names)
    memo = {}

    def settle(data: tuple, table) -> str:
        key = tuple([pi(data, table) for pi in preds])
        value = memo.get(key)
        if value is None:
            value = memo[key] = guard.evaluate(dict(zip(names, key)))
        return value

    return settle


class _Compiled:
    """A net's firing plans, kept on the net until it is re-indexed; per
    distinct marking the transitions whose preset it marks, and per
    distinct guard valuation its values by guard name."""

    def __init__(self, net: WftcNet):
        bound = {name: pi.bind(net) for name, pi in net.predicates.items()}
        # none for a guard naming an undeclared predicate; validation reports it
        settlers = {
            name: _settler(g, bound) for name, g in net.guards.items() if g.predicates() <= bound.keys()
        }
        self.plans = {t.name: _Plan(net, t.name, settlers) for t in net.transitions}
        self.guard_order = tuple(net.guard_order)
        self._candidates: dict[tuple, list[str]] = {}
        self._valuations: dict[tuple, dict] = {}

    def candidates(self, marking: tuple) -> list[str]:
        """Transitions in declaration order whose every input place holds a token."""
        names = self._candidates.get(marking)
        if names is None:
            names = self._candidates[marking] = [
                t for t, plan in self.plans.items() if all(marking[i] >= 1 for i in plan.pre)
            ]
        return names

    def valuation(self, sigma: tuple) -> dict:
        """The guard values ``sigma`` by guard name, one dict per distinct
        ``sigma``; callers only read it."""
        named = self._valuations.get(sigma)
        if named is None:
            named = self._valuations[sigma] = dict(zip(self.guard_order, sigma))
        return named


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
        if rest.isdigit():
            top = max(top, int(rest))
    return f"{item}{top + 1}"


# most firings see a column they have seen before
_fresh_token = functools.lru_cache(maxsize=1 << 12)(fresh_token)


def refine(net: WftcNet, state: StateC, item: str, scope=None) -> list[str]:
    """Candidate values for writing ``item`` at ``state``.

    The domain is the scoped column content plus one fresh token. Without
    any column binding the item has no comparable peers and the written
    value is just the item name itself.
    """
    if item not in net.data_items:
        raise ModelError(f"unknown data item {item}")
    if scope is None:
        scope = _item_scope(net, item)
    if scope is None or net.schema is None:
        return [item]
    values = _scope_values(_scope(net, scope), state.data, state.table)
    values.append(_fresh_token(item, tuple(net.column_values(scope.column, state.table))))
    return values


# ---------------------------------------------------------------------------
# enabling and firing


def enabled(net: WftcNet, state: StateC, t: str) -> bool:
    plan = _compiled(net).plans.get(t)
    if plan is None:
        raise ModelError(f"unknown transition {t}")
    marking, data, table = state.marking, state.data, state.table
    for i in plan.pre:
        if marking[i] < 1:
            return False
    for i in plan.rd:
        if data[i] is UNDEF:
            return False
    for _, scope in plan.assigns:
        if not _scope_values(scope, data, table):
            return False
    for where in plan.matches:
        if not _rows(table, where, data):
            return False
    if plan.guard is not None:
        gi, value = plan.guard
        if state.sigma[gi] != value:
            return False
    return True


def _apply_table_ops(plan: _Plan, table, data: tuple):
    if not (plan.ins or plan.dele or plan.upd):
        return table  # states hold canonical tables already
    records = list(table)
    for cells in plan.ins:
        rec = [UNDEF] * plan.width
        for col, source in cells:
            rec[col] = source(data)
        records.append(tuple(rec))
    for where in plan.dele:
        gone = _rows(records, where, data)
        records = [rec for rec in records if rec not in gone]
    for where, sets in plan.upd:
        hit = _rows(records, where, data)
        records = [rec for rec in records if rec not in hit]
        for rec in map(list, hit):
            for col, source in sets:
                rec[col] = source(data)
            records.append(tuple(rec))
    return canonical_table(records)


def _sigma_after(plan: _Plan, parent_sigma, data: tuple, table, mode):
    """Yield successor guard valuations.

    Untouched guards keep their previous value; guards over now-unwritten
    items fall back to undetermined; touched guards take their evaluated
    value (constrained) or branch over both truth values (unconstrained,
    and constrained when the net has no table to decide a membership).
    """
    sigma = list(parent_sigma)
    choices = []
    for gi, deps, settle in plan.settle:
        for i in deps:
            if data[i] is UNDEF:
                sigma[gi] = BOT
                break
        else:
            if settle is not None:
                value = settle(data, table)
                if mode == UNCONSTRAINED or value == BOT:
                    choices.append(gi)
                    value = BOT
                sigma[gi] = value
    for combo in itertools.product((TRUE, FALSE), repeat=len(choices)):
        for i, value in zip(choices, combo):
            sigma[i] = value
        yield tuple(sigma)


def fire(net: WftcNet, state: StateC, t: str, mode: str = CONSTRAINED) -> list[StateC]:
    """All successor configurations of firing ``t``, after constraint
    filtering in constrained mode."""
    if not enabled(net, state, t):
        raise FiringError(f"transition {t} is not enabled")
    compiled = _compiled(net)
    plan = compiled.plans[t]
    marking = list(state.marking)
    for i in plan.pre:
        marking[i] -= 1
    for i in plan.post:
        marking[i] += 1
    marking = tuple(marking)

    base = list(state.data)
    for i in plan.dt:
        base[i] = UNDEF
    domains = [refine(net, state, d, scope) for d, scope in plan.refined]

    successors = []
    for combo in itertools.product(*domains):
        data = base.copy()
        for i, value in zip(plan.wt, combo):
            data[i] = value
        probe = tuple(data)
        for i, scope in plan.assigns:
            values = _scope_values(scope, probe, state.table)
            if not values:
                break  # this write combination selects nothing
            data[i] = values[0]
        else:
            data = tuple(data)
            table = _apply_table_ops(plan, state.table, data)
            for sigma in _sigma_after(plan, state.sigma, data, table, mode):
                if mode != CONSTRAINED or constraint_consistent(
                    compiled.valuation(sigma), net.constraints
                ):
                    successors.append(StateC(marking, data, table, sigma))
    return list(dict.fromkeys(successors))


# ---------------------------------------------------------------------------
# graph construction


class Srg(Struct):
    """Reachability graph: canonical state store plus labeled edges."""

    _fields = ("net", "mode", "states", "edges", "initial", "pseudo", "build_millis")
    __slots__ = _fields + ("_post", "_pre", "evaluation")

    def __init__(
        self,
        net: WftcNet,
        mode: str,
        states: list[StateC] | None = None,
        edges: list[tuple[int, str, int]] | None = None,
        initial: int = 0,
        pseudo: list[bool] | None = None,
        build_millis: float = 0.0,
    ):
        self.net = net
        self.mode = mode
        self.states = [] if states is None else states
        self.edges = [] if edges is None else edges
        self.initial = initial
        self.pseudo = [] if pseudo is None else pseudo
        self.build_millis = build_millis

    def state_id(self, index: int) -> str:
        return f"c{index}"

    def successors(self, index: int) -> set[int]:
        if self._post is None:
            self._link()
        return self._post[index]

    def predecessors(self, index: int) -> set[int]:
        if self._pre is None:
            self._link()
        return self._pre[index]

    def _link(self):
        self._post = [set() for _ in self.states]
        self._pre = [set() for _ in self.states]
        for src, _, dst in self.edges:
            self._post[src].add(dst)
            self._pre[dst].add(src)

    def finish(self):
        # adjacency and formula-evaluation state (groups, memoised sat sets)
        # are built when a formula first needs them; stale once edges change
        self._post = self._pre = self.evaluation = None
        return self


def state_limit() -> int:
    raw = os.environ.get(STATE_LIMIT_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ModelError(f"{STATE_LIMIT_ENV} must be an integer, got {raw!r}")
    return DEFAULT_STATE_LIMIT


def build_srg(net: WftcNet, mode: str = CONSTRAINED, limit: int | None = None) -> Srg:
    """Breadth-first exploration with canonical-state deduplication.

    In constrained mode the successors violating the constraint set were
    already dropped by ``fire``; in unconstrained mode they are kept and
    flagged pseudo.
    """
    if mode not in (CONSTRAINED, UNCONSTRAINED):
        raise ModelError(f"unknown mode {mode!r}")
    ceiling = state_limit() if limit is None else limit
    started = time.perf_counter()

    srg = Srg(net=net, mode=mode)
    root = initial_state(net)
    index = {root: 0}
    srg.states.append(root)
    compiled = _compiled(net)
    srg.pseudo.append(not constraint_consistent(compiled.valuation(root.sigma), net.constraints))
    queue = deque([root])
    candidates = compiled.candidates

    while queue:
        state = queue.popleft()
        sid = index[state]
        for t in candidates(state.marking):
            if not enabled(net, state, t):
                continue
            for succ in fire(net, state, t, mode):
                dst = index.get(succ)
                if dst is None:
                    if len(srg.states) >= ceiling:
                        raise ResourceLimitError(
                            f"state ceiling of {ceiling} states exceeded"
                        )
                    dst = index[succ] = len(srg.states)
                    srg.states.append(succ)
                    srg.pseudo.append(
                        mode == UNCONSTRAINED
                        and not constraint_consistent(compiled.valuation(succ.sigma), net.constraints)
                    )
                    queue.append(succ)
                # each (state, transition) pair is fired once and ``fire``
                # returns distinct successors, so no edge repeats
                srg.edges.append((sid, t, dst))

    srg.build_millis = (time.perf_counter() - started) * 1000.0
    return srg.finish()


class SrgStats(Struct):
    __slots__ = _fields = ("state_count", "arc_count", "pseudo_count", "build_millis")

    def __init__(self, state_count: int, arc_count: int, pseudo_count: int, build_millis: float):
        self.state_count = state_count
        self.arc_count = arc_count
        self.pseudo_count = pseudo_count
        self.build_millis = build_millis


def srg_stats(srg: Srg) -> SrgStats:
    return SrgStats(
        state_count=len(srg.states),
        arc_count=len(srg.edges),
        pseudo_count=sum(srg.pseudo),
        build_millis=srg.build_millis,
    )
