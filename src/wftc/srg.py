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

    def data_map(self, net: WftcNet) -> dict:
        return dict(zip(net.data_items, self.data))

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


def _scope_values(net: WftcNet, state: StateC, scope) -> list[str]:
    col = net.schema.attr_index(scope.column)
    rows = state.table
    if scope.where_attr:
        wcol = net.schema.attr_index(scope.where_attr)
        needle = _resolve_source(state, net, scope.where_source)
        rows = [rec for rec in rows if rec[wcol] == needle]
    seen = []
    for rec in rows:
        v = rec[col]
        if v is not UNDEF and v not in seen:
            seen.append(v)
    return seen


def _resolve_source(state: StateC, net: WftcNet, source):
    kind, name = source
    if kind == "const":
        return name
    return state.data[net.data_items.index(name)]


def refine(net: WftcNet, state: StateC, item: str, scope=None) -> list[str]:
    """Candidate values for writing ``item`` at ``state``.

    The domain is the scoped column content plus one fresh token. Without
    any column binding the item has no comparable peers and the written
    value is just the item name itself.
    """
    if item not in net.data_items:
        raise ModelError(f"unknown data item {item}")
    if scope is None:
        scope = _default_scope(net, item)
    if scope is None or net.schema is None:
        return [item]
    values = _scope_values(net, state, scope)
    column = net.column_values(scope.column, state.table)
    values.append(fresh_token(item, column))
    return values


def _default_scope(net: WftcNet, item: str):
    # fall back to the membership predicate binding of the item
    from .model import SelScope

    for pi in net.predicates.values():
        if pi.kind == "in" and pi.item == item:
            return SelScope(table=pi.table, column=pi.column)
    return None


def _wt_scope(net: WftcNet, t: str, item: str):
    for scope in net.sel.get(t, ()):
        if not scope.assign_item and _scope_item_match(net, scope, item):
            return scope
    return _default_scope(net, item)


def _scope_item_match(net: WftcNet, scope, item: str) -> bool:
    # a sel scope feeds the written items whose membership predicate is
    # bound to the same column; unbound items never pick up a scope
    binding = _default_scope(net, item)
    return binding is not None and (binding.table, binding.column) == (
        scope.table,
        scope.column,
    )


# ---------------------------------------------------------------------------
# enabling and firing


def enabled(net: WftcNet, state: StateC, t: str, mode: str = CONSTRAINED) -> bool:
    if t not in net.transition_by_name:
        raise ModelError(f"unknown transition {t}")
    for p in net.preset(t):
        if state.marking[net.place_by_name[p].index] < 1:
            return False
    data = state.data_map(net)
    for d in net.rd.get(t, ()):
        if data.get(d, UNDEF) is UNDEF:
            return False
    for scope in net.sel.get(t, ()):
        if scope.assign_item and not _scope_values(net, state, scope):
            return False
    for op in net.dele.get(t, ()):
        if not _rows_matching(net, state.table, op.where_attr, op.where_source, state):
            return False
    for op in net.upd.get(t, ()):
        if not _rows_matching(net, state.table, op.where_attr, op.where_source, state):
            return False
    ref = net.guard_of.get(t)
    if ref is not None:
        value = state.sigma_map(net)[ref.guard]
        if value != (TRUE if ref.positive else FALSE):
            return False
    return True


def _rows_matching(net, table, attr, source, state):
    col = net.schema.attr_index(attr)
    needle = _resolve_source(state, net, source)
    return [rec for rec in table if rec[col] == needle]


def _move_tokens(net: WftcNet, marking, t: str):
    out = list(marking)
    for p in net.preset(t):
        out[net.place_by_name[p].index] -= 1
        if out[net.place_by_name[p].index] < 0:
            raise FiringError(f"firing {t} underflows place {p}")
    for p in net.postset(t):
        out[net.place_by_name[p].index] += 1
    return tuple(out)


def _apply_table_ops(net: WftcNet, t: str, table, state_after):
    records = [list(rec) for rec in table]
    for op in net.ins.get(t, ()):
        rec = [UNDEF] * len(net.schema.attributes)
        for attr, source in op.values:
            rec[net.schema.attr_index(attr)] = _resolve_source(state_after, net, source)
        if tuple(rec) not in {tuple(r) for r in records}:
            records.append(rec)
    for op in net.dele.get(t, ()):
        col = net.schema.attr_index(op.where_attr)
        needle = _resolve_source(state_after, net, op.where_source)
        records = [r for r in records if r[col] != needle]
    for op in net.upd.get(t, ()):
        col = net.schema.attr_index(op.where_attr)
        needle = _resolve_source(state_after, net, op.where_source)
        for rec in records:
            if rec[col] == needle:
                for attr, source in op.sets:
                    rec[net.schema.attr_index(attr)] = _resolve_source(state_after, net, source)
    return canonical_table(records)


def _touched_guards(net: WftcNet, t: str) -> list[str]:
    """Guards settled by firing ``t``: those depending on an item the
    transition writes or deletes. Items filled by a select assignment do
    not count as written; every other guard keeps its previous value."""
    moved = set(net.wt.get(t, ())) | set(net.dt.get(t, ()))
    return [g for g in net.guard_order if net.guard_deps[g] & moved]


def _sigma_after(net: WftcNet, parent_sigma, data, table, touched, mode):
    """Yield successor guard valuations.

    Untouched guards keep their previous value; guards over now-unwritten
    items fall back to undetermined; touched guards take their evaluated
    value (constrained) or branch over both truth values (unconstrained,
    and constrained when the net has no table to decide a membership).
    """
    pi_values = {
        name: pi.evaluate(data, table, net.schema)
        for name, pi in net.predicates.items()
    }
    base = {}
    choice_guards = []
    for name, prev in zip(net.guard_order, parent_sigma):
        guard = net.guards[name]
        value = guard.evaluate(pi_values)
        if any(data.get(d, UNDEF) is UNDEF for d in net.guard_deps[name]):
            base[name] = BOT
        elif name in touched:
            if mode == UNCONSTRAINED or value == BOT:
                choice_guards.append(name)
                base[name] = BOT
            else:
                base[name] = value
        else:
            base[name] = prev
    if not choice_guards:
        yield tuple(base[g] for g in net.guard_order)
        return
    for combo in itertools.product((TRUE, FALSE), repeat=len(choice_guards)):
        valuation = dict(base)
        valuation.update(zip(choice_guards, combo))
        yield tuple(valuation[g] for g in net.guard_order)


def fire(net: WftcNet, state: StateC, t: str, mode: str = CONSTRAINED) -> list[StateC]:
    """All successor configurations of firing ``t``, after constraint
    filtering in constrained mode."""
    if not enabled(net, state, t, mode):
        raise FiringError(f"transition {t} is not enabled")
    marking = _move_tokens(net, state.marking, t)

    base = dict(state.data_map(net))
    for d in net.dt.get(t, ()):
        base[d] = UNDEF

    written = list(net.wt.get(t, ()))
    domains = [refine(net, state, d, _wt_scope(net, t, d)) for d in written]

    touched = _touched_guards(net, t)
    successors = []
    for combo in itertools.product(*domains) if domains else [()]:
        data = dict(base)
        data.update(zip(written, combo))
        probe = StateC(marking, tuple(data[d] for d in net.data_items), state.table, state.sigma)
        stuck = False
        for scope in net.sel.get(t, ()):
            if scope.assign_item:
                values = _scope_values(net, probe, scope)
                if not values:
                    stuck = True  # this write combination selects nothing
                    break
                data[scope.assign_item] = values[0]
        if stuck:
            continue
        snapshot = StateC(marking, tuple(data[d] for d in net.data_items), state.table, state.sigma)
        table = _apply_table_ops(net, t, state.table, snapshot)
        for sigma in _sigma_after(net, state.sigma, data, table, touched, mode):
            if mode == CONSTRAINED and not constraint_consistent(
                dict(zip(net.guard_order, sigma)), net.constraints
            ):
                continue
            successors.append(StateC(marking, snapshot.data, table, sigma))
    seen = set()
    unique = []
    for s in successors:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


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
    edge_seen = set()

    while queue:
        state = queue.popleft()
        sid = index[state]
        for t in net.transitions:
            if not enabled(net, state, t.name, mode):
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
                        not constraint_consistent(succ.sigma_map(net), net.constraints)
                    )
                    queue.append(succ)
                key = (sid, t.name, index[succ])
                if key not in edge_seen:
                    edge_seen.add(key)
                    srg.edges.append(key)

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
