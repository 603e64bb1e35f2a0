"""Static structure of workflow nets with tables and guard constraints.

A net couples a classic workflow net (places, transitions, flow relation
with one source and one sink place) with a relational table, abstract data
items, per-transition read/write/delete labels, table operation
descriptors, predicates, guards and a constraint set over guard values.
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


def deferred(module: str, homes: dict[str, str]):
    """A module-level ``__getattr__`` (PEP 562) for ``module`` that reads
    each name of ``homes`` from the module of this package it maps to,
    imported on first access, so that a command compiles only the code it
    runs (README, "Start-up")."""

    def __getattr__(name):
        if name not in homes:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        # ``__import__`` rather than ``importlib``, so ``-X importtime`` lists it
        return getattr(__import__(f"{__package__}.{homes[name]}", fromlist=[name]), name)

    return __getattr__


# ---------------------------------------------------------------------------
# plain value classes


class Struct:
    """Base of the package's plain classes: an instance equals another of
    the same class whose ``_fields`` are equal. Subclasses list their
    fields in ``__slots__`` and write their own ``__init__``, which takes
    the fields in ``_fields`` order and keeps start-up cheap (README,
    "Start-up")."""

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

    def __reduce__(self):
        # pickled and copied through ``__init__``, which derives anew what
        # a subclass caches or indexes: string hashes differ between
        # processes, and a net's compiled plans hold closures
        return type(self), self._astuple()


class Frozen(Struct):
    """A ``Struct`` whose fields never change after ``__init__``, so it
    hashes by them; ``Struct`` itself is unhashable."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())


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
    """Condition over a data item and the table, true or false once the
    item is written; a guard over an unwritten item is undetermined
    (``srg._sigma_after``).

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

    def bind(self, net: WftcNet):
        """This predicate, true or false, as a function of a data tuple
        (declaration order) that holds its item, a table and ``rows(table,
        column index, value)``, the table's rows holding the value in that
        column; item position and membership column are resolved once."""
        pos = net.data_items.index(self.item)
        if self.kind == "def":
            return lambda data, table, rows: True
        if self.kind == "eq":
            const = self.const
            return lambda data, table, rows: data[pos] == const
        col = net.schema.attr_index(self.column)
        return lambda data, table, rows: bool(rows(table, col, data[pos]))


# Guard expressions are trees over predicate names:
#   ("pi", name) | ("not", e) | ("and", e, e, ...) | ("or", e, e, ...)
# The parser gives a chain of one operator one node, so an expression nests
# only as deep as its text's brackets. A hand-built "and"/"or" chain must not
# sit directly inside a chain of the same operator: ``serialize_model`` writes
# the two as one chain, which parses back as one node.


class Guard(Frozen):
    __slots__ = ("name", "expr", "_predicates")
    _fields = ("name", "expr")

    def __init__(self, name: str, expr: tuple):
        self.name = name
        self.expr = expr
        predicates, stack = set(), [expr]
        while stack:
            node = stack.pop()
            if node[0] == "pi":
                predicates.add(node[1])
            else:
                stack.extend(node[1:])
        self._predicates = frozenset(predicates)

    def predicates(self) -> frozenset[str]:
        return self._predicates

    def bind(self, bound: dict):
        """``expr`` as one function of a data tuple, a table and a row
        lookup, true or false, over the ``Predicate.bind`` functions in
        ``bound``; ``srg`` calls it once the predicates' items are written."""
        return _bind(self.expr, bound)


def _bind(node: tuple, bound: dict):
    """``Guard.bind`` of one expression node; a module-level function, so
    that no compiled guard holds a closure over its own compiler (a
    reference cycle per guard that only the cyclic collector frees)."""
    op = node[0]
    if op == "pi":
        return bound[node[1]]
    if op == "not":
        inner = _bind(node[1], bound)
        return lambda data, table, rows: not inner(data, table, rows)
    operands = []
    for operand in node[1:]:  # a loop, not a comprehension: one frame per level
        operands.append(_bind(operand, bound))
    decisive = op == "or"  # the operand value that decides the chain

    def chain(data, table, rows) -> bool:
        for operand in operands:  # a loop, not ``all``: one frame per level
            if operand(data, table, rows) == decisive:
                return decisive
        return not decisive

    return chain


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
    __slots__ = _fields + ("place_by_name", "guard_order", "compiled")

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
        self.guard_order = list(self.guards)
        # per-transition firing plans, compiled and validated by ``srg`` on
        # first use; re-indexing drops them
        self.compiled = None


# ---------------------------------------------------------------------------
# structural validation


def validate_workflow_structure(net: WftcNet) -> list[str]:
    """What stops ``net`` from being built, each error once and in a fixed
    order: names declared twice or referenced but not declared, initial
    records of the wrong width, arcs that do not join a place and a
    transition. ``srg`` asks it once per net, at first use."""
    errors = []
    error = errors.append

    schema = net.schema
    for kind, names in (
        ("place", [p.name for p in net.places]),
        ("transition", [t.name for t in net.transitions]),
        ("attribute", [f"{schema.name}.{a}" for a in schema.attributes] if schema is not None else []),
        ("data item", net.data_items),
    ):
        names = sorted(names)
        for name in [name for name, after in zip(names, names[1:]) if name == after]:
            error(f"duplicate {kind} {name}")
    place_names = {p.name for p in net.places}
    transition_names = {t.name for t in net.transitions}
    if overlap := place_names & transition_names:
        error(f"names used as both place and transition: {sorted(overlap)}")
    width = len(schema.attributes) if schema is not None else 0
    for record in [record for record in net.initial_records if len(record) != width]:
        error(f"initial record {record} has {len(record)} values, expected {width}")
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

    items = set(net.data_items)
    for label, mapping in (("rd", net.rd), ("wt", net.wt), ("dt", net.dt)):
        for t, names in mapping.items():
            if t not in transition_names:
                error(f"{label} label on unknown transition {t}")
            for d in names:
                if d not in items:
                    error(f"{label}({t}) references unknown data item {d}")
    for label, mapping in (("sel", net.sel), ("ins", net.ins), ("del", net.dele), ("upd", net.upd)):
        for t in mapping:
            if t not in transition_names:
                error(f"{label} label on unknown transition {t}")

    def check_column(t, table, column):
        if net.schema is None or net.schema.name != table:
            error(f"operation on {t} references unknown table {table}")
        elif column and column not in net.schema.attributes:
            error(f"operation on {t} references unknown column {table}.{column}")

    def check_source(t, source, where):
        if source is None:
            error(f"{where} on {t} has no value source")
        elif source[0] == "item" and source[1] not in items:
            error(f"{where} on {t} references unknown data item {source[1]}")

    for t, scopes in net.sel.items():
        for scope in scopes:
            check_column(t, scope.table, scope.column)
            if scope.where_attr:
                check_column(t, scope.table, scope.where_attr)
                check_source(t, scope.where_source, "sel where")
            if scope.assign_item and scope.assign_item not in items:
                error(f"sel on {t} assigns unknown data item {scope.assign_item}")
    for t, ops in net.ins.items():
        for op in ops:
            for attr, source in op.values:
                check_column(t, op.table, attr)
                check_source(t, source, "ins value")
    for t, ops in net.dele.items():
        for op in ops:
            check_column(t, op.table, op.where_attr)
            check_source(t, op.where_source, "del where")
    for t, ops in net.upd.items():
        for op in ops:
            check_column(t, op.table, op.where_attr)
            check_source(t, op.where_source, "upd where")
            for attr, source in op.sets:
                check_column(t, op.table, attr)
                check_source(t, source, "upd value")

    for t, ref in net.guard_of.items():
        if t not in transition_names:
            error(f"guard attached to unknown transition {t}")
        if ref.guard not in net.guards:
            error(f"transition {t} references unknown guard {ref.guard}")
    for guard in net.guards.values():
        for pi in sorted(guard.predicates()):
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

    return list(dict.fromkeys(errors))
