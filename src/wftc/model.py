"""Static structure of workflow nets with tables and guard constraints.

A net couples a classic workflow net (places, transitions, flow relation
with one source and one sink place) with a relational table, abstract data
items, per-transition read/write/delete labels, table operation
descriptors, three-valued predicates, guards and a constraint set over
guard values.
"""

from __future__ import annotations

import functools
import re

UNDEF = None  # bottom: an unwritten data item / empty table cell

TRUE = "T"
FALSE = "F"
BOT = "U"  # undetermined guard / predicate value


class ModelError(Exception):
    """Structural problem in a net definition."""


class EvalError(Exception):
    """Formula references something the model does not provide."""


# ---------------------------------------------------------------------------
# plain value classes


class Struct:
    """Base of the package's plain classes: an instance equals another of
    the same class whose ``_fields`` are equal. Subclasses list their
    fields in ``__slots__`` and write their own ``__init__``, which keeps
    start-up cheap (README, "Start-up")."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = []
        for name in self._fields:  # a loop, not a generator: one frame per nested node
            fields.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__name__}({', '.join(fields)})"


class Frozen(Struct):
    """A ``Struct`` whose fields never change after ``__init__``, so it
    hashes by them; ``Struct`` itself is unhashable. ``__init__`` takes
    the fields in ``_fields`` order."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        # unpickled through ``__init__``, which recomputes what a subclass
        # caches: string hashes differ between processes
        return type(self), self._astuple()


# ---------------------------------------------------------------------------
# basic net elements


class Place(Frozen):
    __slots__ = _fields = ("name", "index")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index


class Transition(Frozen):
    __slots__ = _fields = ("name", "index")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index


class TableSchema(Frozen):
    __slots__ = _fields = ("name", "attributes")

    def __init__(self, name: str, attributes: tuple[str, ...]):
        self.name = name
        self.attributes = attributes

    def attr_index(self, attr: str) -> int:
        try:
            return self.attributes.index(attr)
        except ValueError:
            raise ModelError(f"unknown attribute {self.name}.{attr}") from None


# A record is a tuple of value tokens (or UNDEF), one per schema attribute.
# A table instance is a canonically sorted tuple of records.


# Sort keys are memoised per token and per record: canonical tables are
# re-sorted on every firing with table operations, and ordered
# comparisons in formulas compare the same few tokens over and over.


@functools.lru_cache(maxsize=1 << 16)
def record_key(record):
    # UNDEF cells sort first; tokens sort by (prefix, numeric suffix, text)
    return tuple((0, "", 0, "") if v is None else (1,) + token_key(v) for v in record)


_SUFFIX_RE = re.compile(r"^(.*?)(\d+)$")


@functools.lru_cache(maxsize=1 << 16)
def token_key(token: str):
    m = _SUFFIX_RE.match(token)
    if m:
        return (m.group(1), int(m.group(2)), token)
    return (token, -1, token)


def canonical_table(records) -> tuple[tuple, ...]:
    return tuple(sorted(set(map(tuple, records)), key=record_key))


def column_of(table, col: int) -> list[str]:
    """Non-bottom values of column ``col`` in table order."""
    return [v for v in dict.fromkeys([rec[col] for rec in table]) if v is not UNDEF]


# ---------------------------------------------------------------------------
# predicates and guards


class Predicate(Frozen):
    """Three-valued condition over data items and the table.

    kinds:
      in   -- item value occurs in a table column      in(id, User.Id)
      eq   -- item value equals a constant token       eq(copy, yes)
      def  -- item carries a value                     def(id)
    """

    __slots__ = _fields = ("name", "kind", "item", "table", "column", "const")

    def __init__(
        self, name: str, kind: str, item: str, table: str = "", column: str = "", const: str = ""
    ):
        self.name = name
        self.kind = kind  # "in" | "eq" | "def"
        self.item = item
        self.table = table
        self.column = column
        self.const = const

    def depends_on(self) -> frozenset[str]:
        return frozenset((self.item,))

    def bind(self, net: WftcNet):
        """This predicate as a function of a data tuple (declaration
        order), a table and ``rows(table, column index, value)``, which
        gives the table's rows holding the value in that column; the item
        position and the membership column are resolved once."""
        pos = net.data_items.index(self.item)
        if self.kind == "def":
            return lambda data, table, rows: BOT if data[pos] is UNDEF else TRUE
        if self.kind == "eq":
            const = self.const
            return lambda data, table, rows: (
                BOT if data[pos] is UNDEF else TRUE if data[pos] == const else FALSE
            )
        # membership; a net without the referenced table cannot decide it
        schema = net.schema
        if schema is None or schema.name != self.table:
            return lambda data, table, rows: BOT
        col = schema.attr_index(self.column)

        def member(data, table, rows) -> str:
            value = data[pos]
            if value is UNDEF:
                return BOT
            return TRUE if rows(table, col, value) else FALSE

        return member


# Guard expressions are trees over predicate names:
#   ("pi", name) | ("not", e) | ("and", e, e) | ("or", e, e)


class Guard(Frozen):
    __slots__ = ("name", "expr", "_predicates", "_postfix")
    _fields = ("name", "expr")

    def __init__(self, name: str, expr: tuple):
        self.name = name
        self.expr = expr
        # every operand before its operator, each operator as ``(op,)``, so
        # that a long ``&`` or ``|`` chain evaluates, compares, hashes and
        # prints without recursion
        postfix = []
        stack = [expr]
        while stack:
            node = stack.pop()
            postfix.append(node if node[0] == "pi" else node[:1])
            if node[0] != "pi":
                stack.extend(node[1:])
        self._postfix = tuple(reversed(postfix))
        self._predicates = frozenset(node[1] for node in postfix if node[0] == "pi")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self._postfix) == (other.name, other._postfix)

    def __hash__(self):
        return hash((self.name, self._postfix))

    def __repr__(self) -> str:
        # ``expr`` as Python prints it: a node stacks ``(op``, its children between ``, `` and ``)``
        pieces, stack = [], [self.expr]
        while stack:
            node = stack.pop()
            if isinstance(node, str) or node[0] == "pi":
                pieces.append(node if isinstance(node, str) else repr(node))
            else:
                stack += [")", *(x for child in reversed(node[1:]) for x in (child, ", ")), f"({node[0]!r}"]
        return f"Guard(name={self.name!r}, expr={''.join(pieces)})"

    def predicates(self) -> frozenset[str]:
        return self._predicates

    def evaluate(self, pi_values: dict) -> str:
        # strict three-valued logic: any undetermined predicate makes the
        # whole guard undetermined, regardless of absorption
        if any(pi_values[p] == BOT for p in self._predicates):
            return BOT
        values = []
        for node in self._postfix:
            op = node[0]
            if op == "pi":
                values.append(pi_values[node[1]] == TRUE)
            elif op == "not":
                values[-1] = not values[-1]
            else:
                right = values.pop()
                values[-1] = (values[-1] and right) if op == "and" else (values[-1] or right)
        return TRUE if values[0] else FALSE


# A constraint is a disjunction of conjunctions of guard literals,
# stored as a tuple of disjuncts, each a tuple of (guard_name, positive).
Constraint = tuple[tuple[tuple[str, bool], ...], ...]


def constraint_consistent(valuation: dict, constraints) -> bool:
    """3-valued check of a guard valuation against the constraint set.

    A constraint is violated only when every disjunct is determinately
    false; disjuncts still containing undetermined guards keep it alive,
    so the all-undetermined initial valuation is always consistent.
    """
    for constraint in constraints:
        all_false = True
        for disjunct in constraint:
            value = TRUE
            for guard_name, positive in disjunct:
                if guard_name not in valuation:
                    raise ModelError(f"constraint references unknown guard {guard_name}")
                gv = valuation[guard_name]
                if gv == BOT:
                    if value == TRUE:
                        value = BOT
                elif (gv == TRUE) != positive:
                    value = FALSE
                    break
            if value != FALSE:
                all_false = False
                break
        if all_false and constraint:
            return False
    return True


# ---------------------------------------------------------------------------
# table operation descriptors

# A value source is ("item", name) or ("const", token).
Source = tuple[str, str]


class SelScope(Frozen):
    """Refinement scope for a written item: a column, optionally filtered.

    ``sel(User.Id)`` scopes over the full Id column; ``sel(User.License
    where Id=id)`` restricts to rows whose Id matches the current value of
    data item ``id``. With ``-> item`` the scope acts as an assignment
    instead (the item takes the single scoped value, no branching).
    """

    __slots__ = _fields = ("table", "column", "where_attr", "where_source", "assign_item")

    def __init__(
        self,
        table: str,
        column: str,
        where_attr: str = "",
        where_source: Source | None = None,
        assign_item: str = "",
    ):
        self.table = table
        self.column = column
        self.where_attr = where_attr
        self.where_source = where_source
        self.assign_item = assign_item


class InsertOp(Frozen):
    __slots__ = _fields = ("table", "values")

    def __init__(self, table: str, values: tuple[tuple[str, Source], ...]):
        self.table = table
        self.values = values  # (attribute, source)


class DeleteOp(Frozen):
    __slots__ = _fields = ("table", "where_attr", "where_source")

    def __init__(self, table: str, where_attr: str, where_source: Source):
        self.table = table
        self.where_attr = where_attr
        self.where_source = where_source


class UpdateOp(Frozen):
    __slots__ = _fields = ("table", "sets", "where_attr", "where_source")

    def __init__(
        self, table: str, sets: tuple[tuple[str, Source], ...], where_attr: str, where_source: Source
    ):
        self.table = table
        self.sets = sets
        self.where_attr = where_attr
        self.where_source = where_source


class GuardRef(Frozen):
    """Guard literal attached to a transition; negated refs require the
    guard to be determinately false."""

    __slots__ = _fields = ("guard", "positive")

    def __init__(self, guard: str, positive: bool = True):
        self.guard = guard
        self.positive = positive


# ---------------------------------------------------------------------------
# the net


class WftcNet(Struct):
    """The full net. Built once by the parser and treated as read-only
    afterwards; safe to share across threads. Two nets are equal when
    their constructor fields are."""

    _fields = (
        "places", "transitions", "arcs", "data_items", "schema", "initial_records",
        "rd", "wt", "dt", "sel", "ins", "dele", "upd",
        "guard_of", "predicates", "guards", "constraints", "start", "end",
    )
    # the lookup tables that ``_index`` derives from the fields
    __slots__ = _fields + (
        "place_by_name", "transition_by_name", "guard_order", "_pre", "_post", "guard_deps",
        "compiled",
    )

    def __init__(
        self,
        places: list[Place] | None = None,
        transitions: list[Transition] | None = None,
        arcs: set[tuple[str, str]] | None = None,
        data_items: list[str] | None = None,
        schema: TableSchema | None = None,
        initial_records: tuple[tuple, ...] = (),
        rd: dict[str, tuple[str, ...]] | None = None,
        wt: dict[str, tuple[str, ...]] | None = None,
        dt: dict[str, tuple[str, ...]] | None = None,
        sel: dict[str, tuple[SelScope, ...]] | None = None,
        ins: dict[str, tuple[InsertOp, ...]] | None = None,
        dele: dict[str, tuple[DeleteOp, ...]] | None = None,
        upd: dict[str, tuple[UpdateOp, ...]] | None = None,
        guard_of: dict[str, GuardRef] | None = None,
        predicates: dict[str, Predicate] | None = None,
        guards: dict[str, Guard] | None = None,
        constraints: tuple[Constraint, ...] = (),
        start: str = "",
        end: str = "",
    ):
        # each omitted list, set or dict is a new empty one
        self.places = [] if places is None else places
        self.transitions = [] if transitions is None else transitions
        self.arcs = set() if arcs is None else arcs
        self.data_items = [] if data_items is None else data_items
        self.schema = schema
        self.initial_records = initial_records
        self.rd = {} if rd is None else rd
        self.wt = {} if wt is None else wt
        self.dt = {} if dt is None else dt
        self.sel = {} if sel is None else sel
        self.ins = {} if ins is None else ins
        self.dele = {} if dele is None else dele
        self.upd = {} if upd is None else upd
        self.guard_of = {} if guard_of is None else guard_of
        self.predicates = {} if predicates is None else predicates
        self.guards = {} if guards is None else guards
        self.constraints = constraints
        self.start = start
        self.end = end
        self._index()

    # -- lookup helpers ----------------------------------------------------

    def _index(self):
        self.place_by_name = {p.name: p for p in self.places}
        self.transition_by_name = {t.name: t for t in self.transitions}
        self.guard_order = list(self.guards)
        pre: dict[str, set[str]] = {n: set() for n in self._node_names()}
        post: dict[str, set[str]] = {n: set() for n in self._node_names()}
        for src, dst in self.arcs:
            # arcs may name undeclared nodes; validation reports them
            post.setdefault(src, set()).add(dst)
            pre.setdefault(dst, set()).add(src)
        self._pre = {n: frozenset(nodes) for n, nodes in pre.items()}
        self._post = {n: frozenset(nodes) for n, nodes in post.items()}
        # data items each guard's predicates depend on; drives both the
        # undefined fallback and which guards a firing settles. Guards may
        # name undeclared predicates; validation reports them
        self.guard_deps = {
            g.name: frozenset().union(
                *(self.predicates[p].depends_on() for p in g.predicates() if p in self.predicates),
            )
            for g in self.guards.values()
        }
        # per-transition firing plans, compiled by ``srg`` on first use;
        # a net changed after indexing is re-indexed, which drops them
        self.compiled = None

    def _node_names(self):
        return [p.name for p in self.places] + [t.name for t in self.transitions]

    def is_place(self, name: str) -> bool:
        return name in self.place_by_name

    def preset(self, node: str) -> frozenset[str]:
        if node not in self._pre:
            raise ModelError(f"unknown node {node}")
        return self._pre[node]

    def postset(self, node: str) -> frozenset[str]:
        if node not in self._post:
            raise ModelError(f"unknown node {node}")
        return self._post[node]

    def column_values(self, column: str, table) -> list[str]:
        """Non-bottom values of a column in canonical order."""
        return column_of(table, self.schema.attr_index(column))

    def key_column_values(self, table) -> list[str]:
        if self.schema is None:
            return []
        return self.column_values(self.schema.attributes[0], table)


# ---------------------------------------------------------------------------
# structural validation


class ValidationReport(Struct):
    """``errors`` name what the net references but does not declare, or
    arcs that do not join a place and a transition; such a net cannot be
    built. ``violations`` are findings on the workflow shape."""

    __slots__ = _fields = ("violations", "errors")

    def __init__(self, violations: list[str] | None = None, errors: list[str] | None = None):
        self.violations = [] if violations is None else violations
        self.errors = [] if errors is None else errors

    @property
    def valid(self) -> bool:
        return not self.violations and not self.errors


def _closure(seeds, step):
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        node = frontier.pop()
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def validate_workflow_structure(net: WftcNet) -> ValidationReport:
    """Check the workflow shape: unique source/sink, every node on a
    source-to-sink path, and no dangling label references."""
    report = ValidationReport()
    shape, error = report.violations.append, report.errors.append

    place_names = {p.name for p in net.places}
    transition_names = {t.name for t in net.transitions}
    if net.start == net.end:
        shape("start and end must be two distinct places")
    if net.start not in place_names:
        error(f"start place {net.start!r} not declared")
    if net.end not in place_names:
        error(f"end place {net.end!r} not declared")

    for src, dst in sorted(net.arcs):
        if (src in place_names) == (dst in place_names):
            error(f"arc {src}->{dst} does not connect a place and a transition")
        for node in (src, dst):
            if node not in place_names and node not in transition_names:
                error(f"arc endpoint {node} not declared")

    sources = [p for p in sorted(place_names) if not net._pre.get(p)]
    sinks = [p for p in sorted(place_names) if not net._post.get(p)]
    if net.start in place_names and sources != [net.start]:
        extra = [p for p in sources if p != net.start]
        if net.start not in sources:
            shape(f"start place {net.start} has incoming arcs")
        for p in extra:
            shape(f"extra source place {p}")
    if net.end in place_names and sinks != [net.end]:
        extra = [p for p in sinks if p != net.end]
        if net.end not in sinks:
            shape(f"end place {net.end} has outgoing arcs")
        for p in extra:
            shape(f"extra sink place {p}")

    if net.start in place_names and net.end in place_names:
        forward = _closure({net.start}, lambda n: net._post.get(n, ()))
        backward = _closure({net.end}, lambda n: net._pre.get(n, ()))
        for node in sorted(place_names | transition_names):
            if node not in forward or node not in backward:
                shape(f"node {node} is not on a path from {net.start} to {net.end}")

    items = set(net.data_items)
    for label, mapping in (("rd", net.rd), ("wt", net.wt), ("dt", net.dt)):
        for t, names in mapping.items():
            if t not in transition_names:
                error(f"{label} label on unknown transition {t}")
            for d in names:
                if d not in items:
                    error(f"{label}({t}) references unknown data item {d}")

    def check_source(t, source, where):
        if source and source[0] == "item" and source[1] not in items:
            error(f"{where} on {t} references unknown data item {source[1]}")

    for t, scopes in net.sel.items():
        for scope in scopes:
            _check_column(net, report, t, scope.table, scope.column)
            if scope.where_attr:
                _check_column(net, report, t, scope.table, scope.where_attr)
                check_source(t, scope.where_source, "sel where")
            if scope.assign_item and scope.assign_item not in items:
                error(f"sel on {t} assigns unknown data item {scope.assign_item}")
    for t, ops in net.ins.items():
        for op in ops:
            for attr, source in op.values:
                _check_column(net, report, t, op.table, attr)
                check_source(t, source, "ins value")
    for t, ops in net.dele.items():
        for op in ops:
            _check_column(net, report, t, op.table, op.where_attr)
            check_source(t, op.where_source, "del where")
    for t, ops in net.upd.items():
        for op in ops:
            _check_column(net, report, t, op.table, op.where_attr)
            check_source(t, op.where_source, "upd where")
            for attr, source in op.sets:
                _check_column(net, report, t, op.table, attr)
                check_source(t, source, "upd value")

    for t, ref in net.guard_of.items():
        if t not in transition_names:
            error(f"guard attached to unknown transition {t}")
        if ref.guard not in net.guards:
            error(f"transition {t} references unknown guard {ref.guard}")
    for guard in net.guards.values():
        for pi in guard.predicates():
            if pi not in net.predicates:
                error(f"guard {guard.name} references unknown predicate {pi}")
    for pi in net.predicates.values():
        if pi.item not in items:
            error(f"predicate {pi.name} references unknown data item {pi.item}")
        if pi.kind == "in":
            if net.schema is None:
                error(f"predicate {pi.name} needs table {pi.table} which is not declared")
            elif net.schema.name != pi.table or pi.column not in net.schema.attributes:
                error(f"predicate {pi.name} references unknown column {pi.table}.{pi.column}")
    for constraint in net.constraints:
        for disjunct in constraint:
            for guard_name, _ in disjunct:
                if guard_name not in net.guards:
                    error(f"constraint references unknown guard {guard_name}")

    return report


def _check_column(net, report, t, table, column):
    if net.schema is None or net.schema.name != table:
        report.errors.append(f"operation on {t} references unknown table {table}")
    elif column and column not in net.schema.attributes:
        report.errors.append(f"operation on {t} references unknown column {table}.{column}")
