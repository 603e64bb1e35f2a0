"""Formula evaluation over a built reachability graph.

Satisfaction sets are int bitsets over state ids, memoised per graph on
the structure of the formula node, so formulas that share a subformula
compute it once. Boolean structure is bitwise algebra; the temporal
operators walk the arcs backwards in time linear in the graph (the
predecessors for EX, least fixed points by arc counting for the until
forms, and EG h as !AF !h). A state-local subformula, compiled by
``compiler``, runs once per distinct marking, table or (marking, table)
pair, whichever it reads. A temporal subformula without a quantifier reads
only markings, so it is evaluated on the graph's quotient by bisimulation,
which is far smaller than the graph.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count

from .compiler import _compile, _has_key, _record_variable

# the formula nodes and constructors, imported so that ``dctl.Not`` and the
# other names keep resolving here
from .formula import AF, AG, AU, AX, EF, EG, EU, EX, And, DataAtom, Formula, Not, Or, PlaceAtom, Quantifier, TrueF
from .formula import _operands, implies, subformulas
from .model import EvalError, Struct, column_of
from .srg import Srg, fresh_token


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


def _spread(verdicts: bytes, number: bytes | list[int]) -> int:
    """The states whose group has a 1 in ``verdicts``, given the group
    number of each state."""
    if not any(verdicts):
        return 0
    digits = verdicts.translate(_TO_DIGITS).ljust(256, b"0")  # group number -> digit
    text = number.translate(digits) if isinstance(number, bytes) else bytes(map(digits.__getitem__, number))
    return int(text[::-1], 2)


def _groups(number: list[int], count: int) -> tuple[list[int], bytes | list[int]]:
    """The first state of each of ``count`` groups numbered in order of
    first state, and the group numbers, as bytes when they fit, which
    ``_spread`` translates at C speed."""
    firsts: list[int] = []
    for i, group in enumerate(number):
        if group == len(firsts):
            firsts.append(i)
    return firsts, bytes(number) if count <= 256 else number


class _Shapes:
    """Structural ids of formula nodes, shared by a graph and its quotient.

    A node's shape is its class and its fields in ``_fields`` order, each
    subformula replaced by its id, so equal subformulas of any two
    formulas get one id; nothing hashes or compares a whole subtree, which
    keeps deep formulas clear of the recursion limit. ``quantified`` and
    ``temporal`` hold the ids of the nodes with a quantifier and with a
    temporal operator in them."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.fresh = count()  # atomic, unlike len(ids), for threads sharing a graph
        self.quantified: set[int] = set()
        self.temporal: set[int] = set()

    def identify(self, root: Formula) -> dict[int, int]:
        """Structural ids of every node under ``root``, keyed by ``id(node)``."""
        ids, shapes, quantified, temporal = {}, self.ids, self.quantified, self.temporal
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
                ids[id(v)] if isinstance(v, Formula) else v for v in node._astuple()
            )
            sid = shapes.get(shape)
            if sid is None:
                sid = next(self.fresh)
                # flagged before it is published, for threads sharing a graph
                if isinstance(node, Quantifier) or any(ids[id(sub)] in quantified for sub in subs):
                    quantified.add(sid)
                if isinstance(node, (EX, EG, EU, AU)) or any(ids[id(sub)] in temporal for sub in subs):
                    temporal.add(sid)
                sid = shapes.setdefault(shape, sid)
            ids[id(node)] = sid
        return ids


class _Evaluation:
    """Evaluation state of one finished graph: its adjacency lists, state
    groups, the satisfaction bitset of every formula node evaluated so
    far, keyed on the node's structure so that equal subformulas of
    different formulas are computed once, and the graph's bisimulation
    quotient, which decides every subformula without a quantifier."""

    def __init__(self, net, states: list, arcs, shapes: _Shapes | None = None):
        self.states, self.net = states, net
        self.size = n = len(states)
        self.everything = (1 << n) - 1
        # per state, its arcs' targets and the sources of arcs into it, one
        # entry per ``(src, dst)`` in ``arcs`` order, each state one int object
        post: list[list[int]] = [[] for _ in states]
        pre: list[list[int]] = [[] for _ in states]
        ids = list(range(n))
        for src, dst in arcs:
            post[src].append(ids[dst])
            pre[dst].append(ids[src])
        self.post, self.pre = post, pre
        self.groups: dict[tuple[bool, bool], tuple] = {}  # see ``partition``
        self.shapes = shapes or _Shapes()
        self.memo: dict[int, int] = {}  # structural id -> satisfaction bitset

    @cached_property
    def quotient(self) -> _Evaluation | None:
        """The evaluator of the quotient graph by the coarsest bisimulation
        that keeps states with different markings apart; None when no two
        states are bisimilar, and None on a quotient, so that no evaluator
        refers to itself and a dropped graph is freed by reference counting.

        Without a quantifier a subformula reads nothing of a state but its
        marking, and bisimilar states satisfy the same such formulas,
        deadlocks included (Browne, Clarke and Grumberg, TCS 1988), so a
        quantifier-free subformula holds exactly at the states of the
        blocks satisfying it in the quotient. A block's arcs are those of
        its first state."""
        block, blocks = _bisimulation([state.marking for state in self.states], self.post, self.pre)
        if blocks == self.size:
            return None
        first, self.block = _groups(block, blocks)  # the block number of each state
        self.lifted: dict[int, int] = {}  # quotient bitset -> its states; a few recur often
        arcs = ((b, block[dst]) for b, src in enumerate(first) for dst in self.post[src])
        quotient = _Evaluation(self.net, [self.states[i] for i in first], arcs, self.shapes)
        quotient.quotient = None  # already minimal
        return quotient

    def decider(self, sid: int) -> _Evaluation:
        """The evaluator of a node: the quotient, if smaller, for a
        temporal node without a quantifier; the graph itself for a node
        with a quantifier, which reads tables (they barely merge any
        states), and for a state-local one, which walks no arcs and so
        gains nothing from the quotient that would pay for computing it."""
        shapes = self.shapes
        quotient = self.quotient if sid in shapes.temporal and sid not in shapes.quantified else None
        return self if quotient is None else quotient

    def lift(self, bits: int) -> int:
        """The states of the quotient blocks in ``bits``."""
        lifted = self.lifted.get(bits)
        if lifted is None:
            lifted = self.lifted[bits] = _spread(_flags(bits, self.quotient.size), self.block)
        return lifted

    def partition(self, marking: bool, table: bool) -> tuple[list[tuple], bytes | list[int]]:
        """States grouped by marking, table, both or neither: the marking
        and table of each group's first state, groups in order of first
        state, and the group number of each state."""
        key = (marking, table)
        if key not in self.groups:
            # states reached over arcs without table operations share their
            # parent's table object, so tables are numbered by value once
            # per object, not hashed once per state
            numbers: dict[int, int] = {}  # id of a table -> number of its value
            values: dict[tuple, int] = {}
            keys = []
            for state in self.states:
                number = None
                if table:
                    number = numbers.get(id(state.table))
                    if number is None:
                        number = numbers[id(state.table)] = values.setdefault(state.table, len(values))
                keys.append((state.marking if marking else None, number))
            firsts, group = _groups(*_numbered(keys))
            self.groups[key] = [(self.states[i].marking, self.states[i].table) for i in firsts], group
        return self.groups[key]

    def select(self, reads: tuple[bool, bool], holds) -> int:
        """States whose group satisfies ``holds(marking, table)``."""
        groups, group = self.partition(*reads)
        return _spread(bytes([holds(marking, table) for marking, table in groups]), group)

    def sat(self, root: Formula) -> int:
        return self.evaluate(root, self.shapes.identify(root))

    def evaluate(self, root: Formula, ids: dict[int, int]) -> int:
        """Bottom-up over the formula without recursion, reusing every
        memoised subformula and handing each node that ``decider`` routes
        there to the quotient; operands are evaluated left to right."""
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
        return self.select(*_compile(node, self.net))

    def ex(self, target: int) -> int:
        """States with at least one successor inside ``target``."""
        pre = self.pre
        found = bytearray(self.size)
        for i in compress(range(target.bit_length()), _flags(target)):
            for pred in pre[i]:
                found[pred] = 1
        return _from_flags(found)

    def eg(self, hold: int) -> int:
        """States with a maximal run that never leaves ``hold``: those
        where not every maximal run reaches a state outside it."""
        return self.everything ^ self.au(self.everything, self.everything ^ hold)

    def eu(self, lhs: int, rhs: int) -> int:
        """Least fixed point of  Q = rhs | (lhs & EX Q)."""
        return self.backward(lhs, rhs, [1] * self.size)

    def au(self, lhs: int, rhs: int) -> int:
        """Least fixed point of  Q = rhs | (lhs & AX Q & not deadlock)."""
        return self.backward(lhs, rhs, list(map(len, self.post)))

    def backward(self, lhs: int, rhs: int, remaining: list[int]) -> int:
        """The states of ``rhs``, and by a backward walk from them each
        state ``i`` of ``lhs`` once ``remaining[i]`` of its arcs lead into
        the result: one for EU, all of them for AU. A deadlock is a
        predecessor of nothing, so it joins only from ``rhs``."""
        pre = self.pre
        result = _flags(rhs, self.size)
        allowed = _flags(lhs, self.size)
        frontier = list(compress(range(self.size), result))
        while frontier:
            for pred in pre[frontier.pop()]:
                remaining[pred] -= 1
                if remaining[pred] == 0 and allowed[pred] and not result[pred]:
                    result[pred] = 1
                    frontier.append(pred)
        return _from_flags(result)


def _numbered(keys: list) -> tuple[list[int], int]:
    """Each key's number in order of first occurrence, and how many distinct keys there are."""
    numbers: dict = {}
    return [numbers.setdefault(key, len(numbers)) for key in keys], len(numbers)


def _bisimulation(markings: list, post: list[list[int]], pre: list[list[int]]) -> tuple[list[int], int]:
    """The block of each state in the coarsest partition that keeps states
    with different ``markings`` apart and in which the states of a block
    have successors in the same blocks, and the number of blocks; ``post``
    and ``pre`` list each state's arc targets and arc sources.

    Blocks start as the sets of states with one marking. A block splits
    by the set of blocks its states step into, and a split sends the
    blocks holding predecessors of its states back for another look, until
    no block splits. Blocks are then numbered by their first state, so the
    numbering does not depend on the hash seed."""
    block, blocks = _numbered(markings)
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
                parts.setdefault(frozenset(map(get, post[i])), []).append(i)
            if len(parts) > 1:
                moved += members[b]
                members[b], *rest = parts.values()
                for part in rest:
                    for i in part:
                        block[i] = len(members)
                    members.append(part)
        todo = {block[p] for i in moved for p in pre[i]}
    return _numbered(block)


def _evaluation(srg: Srg) -> _Evaluation:
    if srg.evaluation is None:
        srg.evaluation = _Evaluation(srg.net, srg.states, zip(srg.edges.src, srg.edges.dst))
    return srg.evaluation


def sat(srg: Srg, node: Formula) -> int:
    """The states satisfying ``node``, memoised per graph."""
    return _evaluation(srg).sat(node)


def sat_ex(srg: Srg, target: int) -> int:
    """States with at least one successor inside ``target``."""
    return _evaluation(srg).ex(target)


def sat_eg(srg: Srg, hold: int) -> int:
    """States with a maximal run that never leaves ``hold``."""
    return _evaluation(srg).eg(hold)


def sat_eu(srg: Srg, lhs: int, rhs: int) -> int:
    """States with a run through ``lhs`` that reaches ``rhs``."""
    return _evaluation(srg).eu(lhs, rhs)


def sat_au(srg: Srg, lhs: int, rhs: int) -> int:
    """States whose every maximal run goes through ``lhs`` to ``rhs``."""
    return _evaluation(srg).au(lhs, rhs)


# ---------------------------------------------------------------------------
# verification driver


class Verdict(Struct):
    """A formula's verdict with its satisfaction and precondition sets as
    bitsets over state ids (bit i for state ``ci``)."""

    __slots__ = _fields = ("holds", "sat_bits", "pre_bits", "evidence")

    def __init__(self, holds: bool, sat_bits: int, pre_bits: int, evidence: list[str] | None = None):
        self.holds = holds
        self.sat_bits = sat_bits
        self.pre_bits = pre_bits
        self.evidence = evidence

    def __bool__(self):
        return self.holds

    def __repr__(self) -> str:  # set sizes: Python prints no int of more than 4 300 digits
        sizes = f"sat_count={self.sat_bits.bit_count()}, pre_count={self.pre_bits.bit_count()}"
        return f"Verdict(holds={self.holds}, {sizes}, evidence={self.evidence!r})"


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


def precondition_set(srg: Srg, node: Formula) -> int:
    """States satisfying the quantifier preconditions of the formula: the
    quantified record domains exist (non-empty table), and degenerate
    literal variables occur in the key column."""
    chain, net, ev = _quantifier_prefix(node), srg.net, _evaluation(srg)
    if not chain:
        return ev.everything
    literals = [q.var for q in chain if not _record_variable(net, q)]
    records = len(literals) < len(chain)

    def holds(marking, table) -> bool:
        return (bool(table) or not records) and all(_has_key(table, var) for var in literals)

    return ev.select((False, True), holds)


def verify(srg: Srg, node: Formula) -> Verdict:
    """Full check: empty quantifier precondition refutes the formula
    outright, otherwise the verdict is membership of the initial state in
    the satisfaction set."""
    pre = precondition_set(srg, node)
    if not pre:
        return Verdict(holds=False, sat_bits=0, pre_bits=pre)
    satisfied = sat(srg, node)
    holds = bool(satisfied >> srg.initial & 1)
    # a verdict is membership of the initial state, so a failure is
    # evidenced by that state alone
    evidence = None if holds else [srg.state_id(srg.initial)]
    return Verdict(holds=holds, sat_bits=satisfied, pre_bits=pre, evidence=evidence)


# ---------------------------------------------------------------------------
# built-in behavioural metrics


def _fresh(net, col: int) -> str:
    """A token that no initial record holds in column ``col``, named after
    the item an ``in`` predicate binds to the column, or else after the column."""
    column = net.schema.attributes[col]
    bound = (pi.item for pi in net.predicates.values() if pi.kind == "in" and pi.column == column)
    return fresh_token(next(bound, column.lower()), column_of(net.initial_records, col))


def _two_keys(net):
    if net.schema is None or not net.initial_records:
        raise EvalError("needs a table with records")
    keys = column_of(net.initial_records, 0)
    if len(keys) < 2:
        raise EvalError("needs two records")
    return keys[0], keys[1]


def _pm1(net) -> Formula:
    # EX((forall k1 in R, forall k2 in R), [k1 != k2 -> k1.v1 < k2.v2])
    first, second = _two_keys(net)
    if len(net.schema.attributes) < 2:
        raise EvalError("needs a second attribute")
    col = column_of(net.initial_records, 1)
    if len(col) < 2:
        raise EvalError("needs two values in the second column")
    differ = DataAtom(("var", first), "!=", ("var", second))
    ordered = DataAtom(("attr", first, col[0]), "<", ("attr", second, col[1]))
    return EX(Quantifier("forall", first, Quantifier("forall", second, implies(differ, ordered))))


def _pm2(net) -> Formula:
    # AG((forall r1 in R, forall r2 in R), [r1 != r2 -> r1.Key != r2.Key])
    _two_keys(net)
    key = net.schema.attributes[0]
    differ = DataAtom(("var", "r1"), "!=", ("var", "r2"))
    apart = DataAtom(("attr", "r1", key), "!=", ("attr", "r2", key))
    return AG(Quantifier("forall", "r1", Quantifier("forall", "r2", implies(differ, apart))))


def _pm3(net) -> Formula:
    return EF(PlaceAtom(net.end))


def _pm4(net) -> Formula:
    # AX((exists k1 in R), [k1.v3 != empty])
    first, _ = _two_keys(net)
    if len(net.schema.attributes) < 3:
        raise EvalError("needs a third attribute")
    third = column_of(net.initial_records, 2)
    if not third:
        raise EvalError("needs a value in the third column")
    return AX(Quantifier("exists", first, DataAtom(("attr", first, third[0]), "!=", ("empty",))))


def _pm5(net) -> Formula:
    # E((forall k in R), [k != empty U k.v = empty]) for a row key k and an
    # attribute value v that never occur initially
    _two_keys(net)
    if len(net.schema.attributes) < 2:
        raise EvalError("needs a second attribute")
    key, value = _fresh(net, 0), _fresh(net, 1)
    defined = Quantifier("forall", key, DataAtom(("var", key), "!=", ("empty",)))
    cleared = Quantifier("forall", key, DataAtom(("attr", key, value), "=", ("empty",)))
    return EU(defined, cleared)


# the five metric templates in report order, each instantiated against the
# loaded net as a formula tree, so that any token of its table, a key named
# ``EX`` or a cell ``license²``, fits; raises EvalError for a template the
# net cannot express
_PM_BUILDERS = {"PM1": _pm1, "PM2": _pm2, "PM3": _pm3, "PM4": _pm4, "PM5": _pm5}


def builtin_metrics(srg: Srg) -> dict[str, "Verdict | str"]:
    """Evaluate every metric template; templates the net cannot host
    report the reason per metric instead of a verdict."""
    results: dict[str, Verdict | str] = {}
    for name, build in _PM_BUILDERS.items():
        try:
            results[name] = verify(srg, build(srg.net))
        except EvalError as exc:  # reported per metric, never fatal
            results[name] = f"not instantiable: {exc}"
    return results
