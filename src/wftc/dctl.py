"""Formula representation and evaluation over a built reachability graph.

Satisfaction sets are int bitsets over state ids, memoised per graph on
the structure of the formula node, so formulas that share a subformula
compute it once. Boolean structure is bitwise algebra; the temporal
operators run the usual fixed-point algorithms (one-step predecessor
image for EX, counter-based greatest fixed point for EG, least fixed
points for the until forms). Quantifiers range over the records of each
state's own table instance; a quantifier whose variable never accesses
a schema attribute degenerates to a membership test of that name in the
table's key column. State-local subformulas read only the marking and
the table, never the data items or guard values, so each is evaluated
once per distinct marking, table or (marking, table) pair, whichever it
reads. A subformula without a quantifier reads only markings, so it is
evaluated on the graph's quotient by bisimulation, which is far smaller
than the graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from typing import Union

from .model import UNDEF, token_key
from .srg import Srg, StateC


class EvalError(Exception):
    """Formula references something the model does not provide."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class PlaceAtom:
    place: str


@dataclass(frozen=True)
class DataAtom:
    # terms: ("const", token) | ("attr", var, attribute) | ("var", var) | ("empty",)
    lhs: tuple
    op: str
    rhs: tuple


@dataclass(frozen=True)
class Quantifier:
    kind: str  # "forall" | "exists"
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Not:
    inner: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class EX:
    inner: "Formula"


@dataclass(frozen=True)
class EG:
    inner: "Formula"


@dataclass(frozen=True)
class EU:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class AU:
    lhs: "Formula"
    rhs: "Formula"


Formula = Union[TrueF, PlaceAtom, DataAtom, Quantifier, Not, And, Or, EX, EG, EU, AU]
_NODE_TYPES = Formula.__args__


def formula_text(node: Formula) -> str:
    if isinstance(node, TrueF):
        return "true"
    if isinstance(node, PlaceAtom):
        return node.place
    if isinstance(node, DataAtom):
        return f"{_term_text(node.lhs)} {node.op} {_term_text(node.rhs)}"
    if isinstance(node, Quantifier):
        return f"{node.kind} {node.var} in R, [{formula_text(node.body)}]"
    if isinstance(node, Not):
        return f"!({formula_text(node.inner)})"
    if isinstance(node, And):
        return f"({formula_text(node.lhs)} & {formula_text(node.rhs)})"
    if isinstance(node, Or):
        return f"({formula_text(node.lhs)} | {formula_text(node.rhs)})"
    if isinstance(node, EX):
        return f"EX ({formula_text(node.inner)})"
    if isinstance(node, EG):
        return f"EG ({formula_text(node.inner)})"
    if isinstance(node, EU):
        return f"E(({formula_text(node.lhs)}) U ({formula_text(node.rhs)}))"
    return f"A(({formula_text(node.lhs)}) U ({formula_text(node.rhs)}))"


def _term_text(term) -> str:
    if term[0] == "empty":
        return "empty"
    if term[0] == "attr":
        return f"{term[1]}.{term[2]}"
    return term[1]


# ---------------------------------------------------------------------------
# state-local subformulas, compiled once per node


def _record_variable(net, node: Quantifier) -> bool:
    """True when the quantified name is used with a schema attribute; a
    name that never touches the schema is a plain value literal and the
    quantifier reduces to a key-column membership precondition."""
    if net.schema is None:
        return True
    attrs = set(net.schema.attributes)

    def walk(sub) -> bool:
        if isinstance(sub, DataAtom):
            for term in (sub.lhs, sub.rhs):
                if term[0] == "attr" and term[1] == node.var and term[2] in attrs:
                    return True
            return False
        if isinstance(sub, Quantifier):
            return sub.var != node.var and walk(sub.body)
        if isinstance(sub, (Not, EX, EG)):
            return walk(sub.inner)
        if isinstance(sub, (And, Or, EU, AU)):
            return walk(sub.lhs) or walk(sub.rhs)
        return False

    return walk(node.body)


def _term(term, net):
    """A comparison operand as a function of the variable binding."""
    kind = term[0]
    if kind == "empty":
        return lambda binding: UNDEF
    if kind == "const":
        value = term[1]
        return lambda binding: value
    name = term[1]
    if kind == "var":

        def variable(binding):
            value = binding.get(name)
            if value is None:
                raise EvalError(f"unbound record variable {name}")
            return value

        return variable
    attr = term[2]
    schema = net.schema
    index = schema.attr_index(attr) if schema and attr in schema.attributes else None

    def attribute(binding):
        record = binding.get(name)
        if record is None:
            raise EvalError(f"unbound record variable {name}")
        if isinstance(record, str):
            # degenerate literal variable: attribute tokens are plain values
            return attr
        if index is None:
            raise EvalError(f"unknown attribute {attr}")
        return record[index]

    return attribute


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _atom(atom: DataAtom, net):
    """A comparison atom as a predicate over the variable binding.

    ``term = empty`` and ``term != empty`` test definedness; every other
    comparison with an unwritten operand is false. Ordering falls back to
    the numeric suffix of tokens sharing a prefix, plain text otherwise.
    """
    lhs, rhs, op = _term(atom.lhs, net), _term(atom.rhs, net), atom.op
    if atom.lhs[0] == "empty" or atom.rhs[0] == "empty":
        other = rhs if atom.lhs[0] == "empty" else lhs
        if op == "=":
            return lambda binding: other(binding) is UNDEF
        if op == "!=":
            return lambda binding: other(binding) is not UNDEF

        def never(binding):
            other(binding)
            return False

        return never
    order = _ORDER.get(op)

    def holds(binding) -> bool:
        a, b = lhs(binding), rhs(binding)
        if isinstance(a, tuple) or isinstance(b, tuple):
            # whole-record comparison between two bound record variables
            if op == "=":
                return a == b
            if op == "!=":
                return a != b
            raise EvalError("ordered comparison of whole records")
        if a is UNDEF or b is UNDEF:
            return False
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if order is None:
            raise EvalError(f"unknown comparison {op}")
        return order(token_key(a), token_key(b))

    return holds


def eval_atom(state: StateC, atom: DataAtom, net, binding: dict | None = None) -> bool:
    """Truth of a comparison atom at one state under a variable binding."""
    return _atom(atom, net)(binding or {})


def _local(node: Formula, net):
    """A temporal-free subformula as a predicate over a state's marking,
    its table and a variable binding. Quantifier classification and
    attribute indices are settled here, once per node."""
    if isinstance(node, TrueF):
        return lambda marking, table, binding: True
    if isinstance(node, PlaceAtom):
        place = net.place_by_name.get(node.place)
        if place is None:

            def unknown(marking, table, binding):
                raise EvalError(f"unknown place {node.place}")

            return unknown
        index = place.index
        return lambda marking, table, binding: marking[index] > 0
    if isinstance(node, DataAtom):
        atom = _atom(node, net)
        return lambda marking, table, binding: atom(binding)
    if isinstance(node, Not):
        inner = _local(node.inner, net)
        return lambda marking, table, binding: not inner(marking, table, binding)
    if isinstance(node, (And, Or)):
        lhs, rhs = _local(node.lhs, net), _local(node.rhs, net)
        if isinstance(node, And):
            return lambda m, t, b: lhs(m, t, b) and rhs(m, t, b)
        return lambda m, t, b: lhs(m, t, b) or rhs(m, t, b)
    if isinstance(node, Quantifier):
        body, var = _local(node.body, net), node.var
        if not _record_variable(net, node):

            def literal(m, t, b):
                # degenerate: the name must occur in the key column of this state
                return var in net.key_column_values(t) and body(m, t, {**b, var: var})

            return literal
        # explicit loops, not all()/any() over a generator: one frame per
        # nesting level keeps deep formulas within the recursion limit
        if node.kind == "forall":

            def forall(m, t, b):
                for rec in t:
                    if not body(m, t, {**b, var: rec}):
                        return False
                return True

            return forall

        def exists(m, t, b):
            for rec in t:
                if body(m, t, {**b, var: rec}):
                    return True
            return False

        return exists

    def temporal(marking, table, binding):
        raise EvalError("temporal operator nested below a quantifier")

    return temporal


def _reads(node: Formula) -> tuple[bool, bool]:
    """Whether a state-local subformula reads the marking and whether it
    reads the table. Nothing state-local reads the data items or the guard
    values: comparisons only see constants and quantifier bindings."""
    if isinstance(node, PlaceAtom):
        return True, False
    if isinstance(node, Quantifier):
        return _reads(node.body)[0], True
    if isinstance(node, Not):
        return _reads(node.inner)
    if isinstance(node, (And, Or)):
        (m1, t1), (m2, t2) = _reads(node.lhs), _reads(node.rhs)
        return m1 or m2, t1 or t2
    return False, False


# ---------------------------------------------------------------------------
# satisfaction sets
#
# A satisfaction set is an int bitset: bit i stands for state i.


_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _flags(bits: int, n: int = 0) -> bytearray:
    """One byte per state, 1 for a member, state 0 first; at least ``n``
    bytes long."""
    digits = bin(bits)[:1:-1].encode("ascii")  # least significant bit first
    return bytearray(digits.translate(_TO_FLAGS).ljust(n, b"\x00"))


def _from_flags(flags: bytearray) -> int:
    return int(flags.translate(_TO_DIGITS)[::-1] or b"0", 2)


def _members(bits: int) -> list[int]:
    return list(compress(range(bits.bit_length()), _flags(bits)))


def _bits(states, n: int) -> int:
    flags = bytearray(n)
    for i in states:
        flags[i] = 1
    return _from_flags(flags)


class _Shapes:
    """Structural ids of formula nodes, shared by a graph and its quotient.

    A node's shape is its class, its own fields and the ids of its
    subformulas, so equal subformulas of any two formulas get one id;
    nothing hashes or compares a whole subtree, which keeps deep formulas
    clear of the recursion limit. ``quantified`` holds the ids of the
    nodes with a quantifier in them."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.fresh = count()  # atomic, unlike len(ids), for threads sharing a graph
        self.quantified: set[int] = set()
        # ``verify`` identifies a formula to route it, then ``sat`` again
        self.last: tuple = (None, {})

    def identify(self, root: Formula) -> dict[int, int]:
        """Structural ids of every node under ``root``, keyed by ``id(node)``."""
        last_root, ids = self.last
        if last_root is root:
            return ids
        ids, shapes, quantified = {}, self.ids, self.quantified
        stack = [root]
        while stack:
            node = stack[-1]
            subs = subformulas(node)
            pending = [sub for sub in subs if id(sub) not in ids]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            shape = (type(node),) + tuple(
                ids[id(v)] if isinstance(v, _NODE_TYPES) else v for v in vars(node).values()
            )
            sid = shapes.get(shape)
            if sid is None:
                sid = next(self.fresh)
                # flagged before it is published, for threads sharing a graph
                if isinstance(node, Quantifier) or any(ids[id(sub)] in quantified for sub in subs):
                    quantified.add(sid)
                sid = shapes.setdefault(shape, sid)
            ids[id(node)] = sid
        self.last = (root, ids)
        return ids


class _Evaluation:
    """Evaluation state of one finished graph: state groups, the
    satisfaction bitset of every formula node evaluated so far, keyed on
    the node's structure so that equal subformulas of different formulas
    are computed once, and the graph's bisimulation quotient, which
    decides every subformula without a quantifier."""

    def __init__(self, srg: Srg, shapes: _Shapes | None = None):
        self.srg, self.states, self.net = srg, srg.states, srg.net
        self.size = n = len(srg.states)
        self.everything = (1 << n) - 1
        self.groups: dict[tuple[bool, bool], list] = {}
        self.shapes = shapes or _Shapes()
        self.memo: dict[int, int] = {}  # structural id -> satisfaction bitset

    # the fixed points' view of the graph, built when one first runs here

    @cached_property
    def preds(self) -> list[set[int]]:
        return [self.srg.predecessors(i) for i in range(self.size)]

    @cached_property
    def pred_masks(self) -> list[int]:
        return [sum(1 << p for p in pre) for pre in self.preds]

    @cached_property
    def outdegree(self) -> list[int]:
        return [len(self.srg.successors(i)) for i in range(self.size)]

    @cached_property
    def quotient(self) -> _Evaluation:
        """The evaluator of the quotient graph by the coarsest bisimulation
        that keeps states with different markings apart; itself when no
        two states are bisimilar.

        Without a quantifier a subformula reads nothing of a state but its
        marking, and bisimilar states satisfy the same such formulas,
        deadlocks included (Browne, Clarke and Grumberg, TCS 1988), so a
        quantifier-free subformula holds exactly at the states of the
        blocks satisfying it in the quotient. A block's arcs are those of
        its first state."""
        block, blocks = _bisimulation(self.srg)
        if blocks == self.size:
            return self
        members: list[list[int]] = [[] for _ in range(blocks)]
        for i, b in enumerate(block):
            members[b].append(i)
        first = [group[0] for group in members]
        graph = Srg(net=self.net, mode=self.srg.mode, initial=block[self.srg.initial])
        graph.states = [self.states[i] for i in first]
        graph.edges = [
            (block[src], t, block[dst]) for src, t, dst in self.srg.edges if first[block[src]] == src
        ]
        graph.finish()
        quotient = graph.evaluation = _Evaluation(graph, self.shapes)
        quotient.quotient = quotient
        self.block_masks = [_bits(ids, self.size) for ids in members]
        return quotient

    def decider(self, sid: int) -> _Evaluation:
        """The evaluator of a node: the quotient unless a quantifier in
        the node reads tables, which barely merges any states."""
        return self if sid in self.shapes.quantified else self.quotient

    def lift(self, bits: int) -> int:
        """The states of the quotient blocks in ``bits``."""
        result = 0
        for b in _members(bits):
            result |= self.block_masks[b]
        return result

    def partition(self, marking: bool, table: bool) -> list[tuple]:
        """States grouped by marking, table, both or neither, as
        ``(marking, table, mask)`` with the marking and table of the
        group's first state."""
        key = (marking, table)
        if key not in self.groups:
            members: dict[tuple, list[int]] = {}
            for i, state in enumerate(self.states):
                members.setdefault(
                    (state.marking if marking else None, state.table if table else None), []
                ).append(i)
            self.groups[key] = [
                (self.states[ids[0]].marking, self.states[ids[0]].table, _bits(ids, self.size))
                for ids in members.values()
            ]
        return self.groups[key]

    def select(self, reads: tuple[bool, bool], holds) -> int:
        """States whose group satisfies ``holds(marking, table)``."""
        result = 0
        for marking, table, mask in self.partition(*reads):
            if holds(marking, table):
                result |= mask
        return result

    def sat(self, root: Formula) -> int:
        return self.evaluate(root, self.shapes.identify(root))

    def evaluate(self, root: Formula, ids: dict[int, int]) -> int:
        """Bottom-up over the formula without recursion, reusing every
        memoised subformula and handing each quantifier-free one to the
        quotient; operands are evaluated left to right."""
        memo = self.memo
        stack = [root]
        while stack:
            node = stack[-1]
            sid = ids[id(node)]
            if sid in memo:
                stack.pop()
                continue
            decider = self.decider(sid)
            if decider is not self:
                stack.pop()
                memo[sid] = self.lift(decider.evaluate(node, ids))
                continue
            operands = _operands(node)
            missing = [sub for sub in operands if ids[id(sub)] not in memo]
            if missing:
                stack.extend(reversed(missing))
                continue
            stack.pop()
            memo[sid] = self.apply(node, [memo[ids[id(sub)]] for sub in operands])
        return memo[ids[id(root)]]

    def apply(self, node: Formula, args: list[int]) -> int:
        if isinstance(node, TrueF):
            return self.everything
        if isinstance(node, Not):
            return self.everything ^ args[0]
        if isinstance(node, And):
            return args[0] & args[1]
        if isinstance(node, Or):
            return args[0] | args[1]
        if isinstance(node, EX):
            return self.ex(*args)
        if isinstance(node, EG):
            return self.eg(*args)
        if isinstance(node, EU):
            return self.eu(*args)
        if isinstance(node, AU):
            return self.au(*args)
        # state-local: place atoms, comparisons, quantifiers
        holds = _local(node, self.net)
        return self.select(_reads(node), lambda marking, table: holds(marking, table, {}))

    def ex(self, target: int) -> int:
        """States with at least one successor inside ``target``."""
        result = 0
        for i in _members(target):
            result |= self.pred_masks[i]
        return result

    def eg(self, hold: int) -> int:
        """Greatest fixed point by successor counting.

        A state stays while it either has a successor that stays or has no
        successors at all (a maximal run that never leaves ``hold``).
        """
        alive = _flags(hold, self.size)
        count = list(self.outdegree)
        dead = _members(self.everything ^ hold)
        while dead:
            for pred in self.preds[dead.pop()]:
                if alive[pred]:
                    count[pred] -= 1
                    if count[pred] == 0:
                        alive[pred] = 0
                        dead.append(pred)
        return _from_flags(alive)

    def eu(self, lhs: int, rhs: int) -> int:
        """Least fixed point of  Q = rhs | (lhs & EX Q)  via backward walk."""
        result = frontier = rhs
        while frontier:
            frontier = self.ex(frontier) & lhs & ~result
            result |= frontier
        return result

    def au(self, lhs: int, rhs: int) -> int:
        """Least fixed point of  Q = rhs | (lhs & AX Q & not deadlock)."""
        result = _flags(rhs, self.size)
        allowed = _flags(lhs, self.size)
        remaining = list(self.outdegree)
        frontier = _members(rhs)
        while frontier:
            for pred in self.preds[frontier.pop()]:
                remaining[pred] -= 1
                if remaining[pred] == 0 and allowed[pred] and not result[pred]:
                    result[pred] = 1
                    frontier.append(pred)
        return _from_flags(result)


def _operands(node: Formula) -> tuple:
    """Subformulas evaluated as satisfaction sets of their own."""
    if isinstance(node, (Not, EX, EG)):
        return (node.inner,)
    if isinstance(node, (And, Or, EU, AU)):
        return (node.lhs, node.rhs)
    return ()


def subformulas(node: Formula) -> tuple:
    """Direct subformulas, including a quantifier's body."""
    return (node.body,) if isinstance(node, Quantifier) else _operands(node)


def _numbered(keys: list) -> tuple[list[int], int]:
    """Each key's number in order of first occurrence, and how many distinct keys there are."""
    numbers: dict = {}
    return [numbers.setdefault(key, len(numbers)) for key in keys], len(numbers)


def _bisimulation(srg: Srg) -> tuple[list[int], int]:
    """The block of each state in the coarsest partition that keeps states
    with different markings apart and in which the states of a block have
    successors in the same blocks, and the number of blocks.

    Blocks start as the sets of states with one marking. A block splits
    by the set of blocks its states step into, and a split sends the
    blocks holding predecessors of its states back for another look, until
    no block splits. Blocks are then numbered by their first state, so the
    numbering does not depend on the hash seed."""
    successors = [tuple(srg.successors(i)) for i in range(len(srg.states))]
    block, blocks = _numbered([state.marking for state in srg.states])
    members: list[list[int]] = [[] for _ in range(blocks)]
    for i, b in enumerate(block):
        members[b].append(i)
    get = block.__getitem__
    todo = set(range(blocks))
    while todo:
        moved: list[int] = []
        for b in todo:
            parts: dict[frozenset, list[int]] = {}
            for i in members[b]:
                parts.setdefault(frozenset(map(get, successors[i])), []).append(i)
            if len(parts) > 1:
                moved += members[b]
                members[b], *rest = parts.values()
                for part in rest:
                    for i in part:
                        block[i] = len(members)
                    members.append(part)
        todo = {block[p] for i in moved for p in srg.predecessors(i)}
    return _numbered(block)


def _evaluation(srg: Srg) -> _Evaluation:
    if srg.evaluation is None:
        srg.evaluation = _Evaluation(srg)
    return srg.evaluation


def sat(srg: Srg, node: Formula) -> set[int]:
    """The states satisfying ``node``, memoised per graph."""
    return set(_members(_evaluation(srg).sat(node)))


def _on_sets(srg: Srg, method, *sets: set[int]) -> set[int]:
    ev = _evaluation(srg)
    return set(_members(method(ev, *(_bits(s, ev.size) for s in sets))))


def sat_ex(srg: Srg, target: set[int]) -> set[int]:
    """States with at least one successor inside ``target``."""
    return _on_sets(srg, _Evaluation.ex, target)


def sat_eg(srg: Srg, hold: set[int]) -> set[int]:
    """States with a maximal run that never leaves ``hold``."""
    return _on_sets(srg, _Evaluation.eg, hold)


def sat_eu(srg: Srg, lhs: set[int], rhs: set[int]) -> set[int]:
    """States with a run through ``lhs`` that reaches ``rhs``."""
    return _on_sets(srg, _Evaluation.eu, lhs, rhs)


def sat_au(srg: Srg, lhs: set[int], rhs: set[int]) -> set[int]:
    """States whose every maximal run goes through ``lhs`` to ``rhs``."""
    return _on_sets(srg, _Evaluation.au, lhs, rhs)


# ---------------------------------------------------------------------------
# verification driver


@dataclass
class Verdict:
    """A formula's verdict with its satisfaction and precondition sets as
    bitsets over state ids (bit i for state ``ci``); ``sat_set`` and
    ``pre_set`` list them as sets, built on first access."""

    holds: bool
    sat_bits: int
    pre_bits: int
    evidence: list[str] | None = None

    @cached_property
    def sat_set(self) -> set[int]:
        return set(_members(self.sat_bits))

    @cached_property
    def pre_set(self) -> set[int]:
        return set(_members(self.pre_bits))

    def __bool__(self):
        return self.holds


def _quantifier_prefix(node: Formula) -> list[Quantifier]:
    """The leading quantifier chain of a formula, found by descending
    through the temporal/boolean skeleton."""
    chain = []
    while True:
        if isinstance(node, Quantifier):
            chain.append(node)
            node = node.body
        elif isinstance(node, (EX, EG, Not)):
            node = node.inner
        elif isinstance(node, (EU, AU)):
            node = node.rhs
        else:
            return chain


def precondition_set(srg: Srg, node: Formula) -> set[int]:
    """States satisfying the quantifier preconditions of the formula: the
    quantified record domains exist (non-empty table), and degenerate
    literal variables occur in the key column."""
    chain = _quantifier_prefix(node)
    net = srg.net
    if not chain:
        return set(range(len(srg.states)))
    literals = [q.var for q in chain if not _record_variable(net, q)]
    records = len(literals) < len(chain)

    def holds(marking, table) -> bool:
        if records and not table:
            return False
        keys = net.key_column_values(table)
        return all(var in keys for var in literals)

    return set(_members(_evaluation(srg).select((False, True), holds)))


def verify(srg: Srg, node: Formula) -> Verdict:
    """Full check: empty quantifier precondition refutes the formula
    outright, otherwise the verdict is membership of the initial state in
    the satisfaction set. A quantifier-free formula is decided on the
    graph's quotient, whose blocks ``sat`` returns."""
    ev = _evaluation(srg)
    pre = ev.everything
    if _quantifier_prefix(node):
        pre = _bits(precondition_set(srg, node), ev.size)
    if not pre:
        return Verdict(holds=False, sat_bits=0, pre_bits=pre)
    decider = ev.decider(ev.shapes.identify(node)[id(node)])
    satisfied = _bits(sat(decider.srg, node), decider.size)
    if decider is not ev:
        satisfied = ev.lift(satisfied)
    holds = bool(satisfied >> srg.initial & 1)
    verdict = Verdict(holds=holds, sat_bits=satisfied, pre_bits=pre)
    if not holds:
        verdict.evidence = _counterexample(srg, satisfied)
    return verdict


def _counterexample(srg: Srg, satisfied: int) -> list[str]:
    """Best-effort witness: a shortest path from the initial state to a
    state outside the satisfaction set (the initial state itself when it
    already fails)."""
    from collections import deque

    inside = _flags(satisfied, len(srg.states))
    target = None
    parent = {srg.initial: None}
    queue = deque([srg.initial])
    while queue:
        node = queue.popleft()
        if not inside[node]:
            target = node
            break
        for succ in sorted(srg.successors(node)):
            if succ not in parent:
                parent[succ] = node
                queue.append(succ)
    if target is None:
        return []
    path = []
    while target is not None:
        path.append(srg.state_id(target))
        target = parent[target]
    return list(reversed(path))


# ---------------------------------------------------------------------------
# built-in behavioural metrics


PM_NAMES = ("PM1", "PM2", "PM3", "PM4", "PM5")


def _fresh(net, column: str, item: str) -> str:
    from .srg import fresh_token

    return fresh_token(item, net.column_values(column, net.initial_records))


def _two_keys(net):
    if net.schema is None or not net.initial_records:
        raise EvalError("needs a table with records")
    keys = net.key_column_values(net.initial_records)
    if len(keys) < 2:
        raise EvalError("needs two records")
    return keys[0], keys[1]


def _pm1(net) -> str:
    first, second = _two_keys(net)
    if len(net.schema.attributes) < 2:
        raise EvalError("needs a second attribute")
    col = net.column_values(net.schema.attributes[1], net.initial_records)
    if len(col) < 2:
        raise EvalError("needs two values in the second column")
    return (
        f"EX((forall {first} in R, forall {second} in R), "
        f"[{first} != {second} -> {first}.{col[0]} < {second}.{col[1]}])"
    )


def _pm2(net) -> str:
    _two_keys(net)
    key = net.schema.attributes[0]
    return f"AG((forall r1 in R, forall r2 in R), [r1 != r2 -> r1.{key} != r2.{key}])"


def _pm3(net) -> str:
    return f"EF {net.end}"


def _pm4(net) -> str:
    first, _ = _two_keys(net)
    if len(net.schema.attributes) < 3:
        raise EvalError("needs a third attribute")
    third = net.column_values(net.schema.attributes[2], net.initial_records)
    if not third:
        raise EvalError("needs a value in the third column")
    return f"AX((exists {first} in R), [{first}.{third[0]} != empty])"


def _pm5(net) -> str:
    # a row key and an attribute value that never occur initially
    _two_keys(net)
    if len(net.schema.attributes) < 2:
        raise EvalError("needs a second attribute")
    key, second = net.schema.attributes[0], net.schema.attributes[1]
    fresh_key = _fresh(net, key, _bound_item(net, key))
    fresh_val = _fresh(net, second, _bound_item(net, second))
    return (
        f"E((forall {fresh_key} in R), "
        f"[{fresh_key} != empty U {fresh_key}.{fresh_val} = empty])"
    )


_PM_BUILDERS = {"PM1": _pm1, "PM2": _pm2, "PM3": _pm3, "PM4": _pm4, "PM5": _pm5}


def metric_formulas(net) -> dict[str, str]:
    """Instantiate the five metric templates against the loaded net;
    raises EvalError for templates the net cannot express."""
    return {name: _PM_BUILDERS[name](net) for name in PM_NAMES}


def _bound_item(net, column: str) -> str:
    for pi in net.predicates.values():
        if pi.kind == "in" and pi.column == column:
            return pi.item
    # fall back to the lowercase column name
    return column.lower()


def builtin_metrics(srg: Srg) -> dict[str, "Verdict | str"]:
    """Evaluate every metric template; templates the net cannot host
    report the reason per metric instead of a verdict."""
    from .textio import parse_dctl

    net = srg.net
    results: dict[str, Verdict | str] = {}
    for name in PM_NAMES:
        try:
            formula = _PM_BUILDERS[name](net)
            results[name] = verify(srg, parse_dctl(formula, net))
        except Exception as exc:  # reported per metric, never fatal
            results[name] = f"not instantiable: {exc}"
    return results
