"""State space construction by constraint-aware data refinement.

A configuration couples a marking with the data-item valuation, the
current table instance, and a three-valued guard valuation. Firing a
transition branches over the finite refinement domain of each written
item (scoped column values plus one fresh token) and re-derives exactly
the guards whose predicates depend on an item the firing wrote or
deleted; every other guard keeps its previous value.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field

from .model import (
    BOT,
    FALSE,
    TRUE,
    UNDEF,
    ModelError,
    SelScope,
    WftcNet,
    canonical_table,
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


@dataclass(frozen=True)
class StateC:
    """One configuration: marking, data valuation, table, guard values."""

    marking: tuple[int, ...]
    data: tuple  # value token or UNDEF per data item, in declaration order
    table: tuple  # canonically sorted records
    sigma: tuple[str, ...]  # guard values in declaration order

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


def _value(net: WftcNet, data: tuple, source):
    kind, name = source
    return name if kind == "const" else data[net.data_items.index(name)]


def _rows(net: WftcNet, data: tuple, rows, attr: str, source) -> list:
    """The rows whose ``attr`` cell holds the value of ``source``."""
    col = net.schema.attr_index(attr)
    needle = _value(net, data, source)
    return [rec for rec in rows if rec[col] == needle]


def _scope_values(net: WftcNet, data: tuple, table, scope) -> list[str]:
    if scope.where_attr:
        table = _rows(net, data, table, scope.where_attr, scope.where_source)
    return net.column_values(scope.column, table)


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
    values = _scope_values(net, state.data, state.table, scope)
    column = net.column_values(scope.column, state.table)
    values.append(fresh_token(item, column))
    return values


# ---------------------------------------------------------------------------
# enabling and firing


def enabled(net: WftcNet, state: StateC, t: str) -> bool:
    if t not in net.transition_by_name:
        raise ModelError(f"unknown transition {t}")
    for p in net.preset(t):
        if state.marking[net.place_by_name[p].index] < 1:
            return False
    for d in net.rd.get(t, ()):
        if state.data[net.data_items.index(d)] is UNDEF:
            return False
    for scope in net.sel.get(t, ()):
        if scope.assign_item and not _scope_values(net, state.data, state.table, scope):
            return False
    for op in net.dele.get(t, ()) + net.upd.get(t, ()):
        if not _rows(net, state.data, state.table, op.where_attr, op.where_source):
            return False
    ref = net.guard_of.get(t)
    if ref is not None:
        value = state.sigma[net.guard_order.index(ref.guard)]
        if value != (TRUE if ref.positive else FALSE):
            return False
    return True


def _apply_table_ops(net: WftcNet, t: str, table, data: tuple):
    if t not in net.ins and t not in net.dele and t not in net.upd:
        return table  # states hold canonical tables already
    records = list(table)
    for op in net.ins.get(t, ()):
        rec = [UNDEF] * len(net.schema.attributes)
        for attr, source in op.values:
            rec[net.schema.attr_index(attr)] = _value(net, data, source)
        records.append(tuple(rec))
    for op in net.dele.get(t, ()):
        gone = _rows(net, data, records, op.where_attr, op.where_source)
        records = [rec for rec in records if rec not in gone]
    for op in net.upd.get(t, ()):
        hit = _rows(net, data, records, op.where_attr, op.where_source)
        records = [rec for rec in records if rec not in hit]
        for rec in map(list, hit):
            for attr, source in op.sets:
                rec[net.schema.attr_index(attr)] = _value(net, data, source)
            records.append(tuple(rec))
    return canonical_table(records)


def _sigma_after(net: WftcNet, parent_sigma, data: dict, table, touched, mode):
    """Yield successor guard valuations.

    Untouched guards keep their previous value; guards over now-unwritten
    items fall back to undetermined; touched guards take their evaluated
    value (constrained) or branch over both truth values (unconstrained,
    and constrained when the net has no table to decide a membership).
    """
    sigma = []
    choices = []
    for name, value in zip(net.guard_order, parent_sigma):
        if any(data[d] is UNDEF for d in net.guard_deps[name]):
            value = BOT
        elif name in touched:
            guard = net.guards[name]
            value = guard.evaluate(
                {p: net.predicates[p].evaluate(data, table, net.schema) for p in guard.predicates()}
            )
            if mode == UNCONSTRAINED or value == BOT:
                choices.append(len(sigma))
                value = BOT
        sigma.append(value)
    for combo in itertools.product((TRUE, FALSE), repeat=len(choices)):
        for i, value in zip(choices, combo):
            sigma[i] = value
        yield tuple(sigma)


def fire(net: WftcNet, state: StateC, t: str, mode: str = CONSTRAINED) -> list[StateC]:
    """All successor configurations of firing ``t``, after constraint
    filtering in constrained mode."""
    if not enabled(net, state, t):
        raise FiringError(f"transition {t} is not enabled")
    marking = list(state.marking)
    for p in net.preset(t):
        marking[net.place_by_name[p].index] -= 1
    for p in net.postset(t):
        marking[net.place_by_name[p].index] += 1
    marking = tuple(marking)

    base = dict(zip(net.data_items, state.data))
    for d in net.dt.get(t, ()):
        base[d] = UNDEF
    written = net.wt.get(t, ())
    scopes = net.sel.get(t, ())
    domains = [refine(net, state, d, _item_scope(net, d, scopes)) for d in written]
    # guards settled by the firing: those depending on an item it writes
    # or deletes; items filled by a select assignment do not count
    moved = set(written) | set(net.dt.get(t, ()))
    touched = {g for g in net.guard_order if net.guard_deps[g] & moved}

    successors = []
    for combo in itertools.product(*domains):
        data = dict(base)
        data.update(zip(written, combo))
        # the keys of ``data`` stay in declaration order
        probe = tuple(data.values())
        for scope in scopes:
            if scope.assign_item:
                values = _scope_values(net, probe, state.table, scope)
                if not values:
                    break  # this write combination selects nothing
                data[scope.assign_item] = values[0]
        else:
            snapshot = tuple(data.values())
            table = _apply_table_ops(net, t, state.table, snapshot)
            for sigma in _sigma_after(net, state.sigma, data, table, touched, mode):
                if mode != CONSTRAINED or constraint_consistent(
                    dict(zip(net.guard_order, sigma)), net.constraints
                ):
                    successors.append(StateC(marking, snapshot, table, sigma))
    return list(dict.fromkeys(successors))


# ---------------------------------------------------------------------------
# graph construction


@dataclass
class Srg:
    """Reachability graph: canonical state store plus labeled edges."""

    net: WftcNet
    mode: str
    states: list[StateC] = field(default_factory=list)
    edges: list[tuple[int, str, int]] = field(default_factory=list)
    initial: int = 0
    pseudo: list[bool] = field(default_factory=list)
    build_millis: float = 0.0

    def state_id(self, index: int) -> str:
        return f"c{index}"

    def successors(self, index: int) -> set[int]:
        return self._post[index]

    def predecessors(self, index: int) -> set[int]:
        return self._pre[index]

    def finish(self):
        self._post = {i: set() for i in range(len(self.states))}
        self._pre = {i: set() for i in range(len(self.states))}
        for src, _, dst in self.edges:
            self._post[src].add(dst)
            self._pre[dst].add(src)
        # formula-evaluation state (groups, memoised sat sets) that
        # ``dctl`` builds on first use; stale once the graph changes
        self.evaluation = None
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
    srg.pseudo.append(not constraint_consistent(root.sigma_map(net), net.constraints))
    queue = deque([root])

    while queue:
        state = queue.popleft()
        sid = index[state]
        for t in net.transitions:
            if not enabled(net, state, t.name):
                continue
            for succ in fire(net, state, t.name, mode):
                if succ not in index:
                    if len(srg.states) >= ceiling:
                        raise ResourceLimitError(
                            f"state ceiling of {ceiling} states exceeded"
                        )
                    index[succ] = len(srg.states)
                    srg.states.append(succ)
                    srg.pseudo.append(
                        mode == UNCONSTRAINED
                        and not constraint_consistent(succ.sigma_map(net), net.constraints)
                    )
                    queue.append(succ)
                # each (state, transition) pair is fired once and ``fire``
                # returns distinct successors, so no edge repeats
                srg.edges.append((sid, t.name, index[succ]))

    srg.build_millis = (time.perf_counter() - started) * 1000.0
    return srg.finish()


@dataclass
class SrgStats:
    state_count: int
    arc_count: int
    pseudo_count: int
    build_millis: float


def srg_stats(srg: Srg) -> SrgStats:
    return SrgStats(
        state_count=len(srg.states),
        arc_count=len(srg.edges),
        pseudo_count=sum(srg.pseudo),
        build_millis=srg.build_millis,
    )
