"""Formula representation and evaluation over a built reachability graph.

Satisfaction sets are int bitsets over state ids, memoised per graph on
the structure of the formula node, so formulas that share a subformula
compute it once. Boolean structure is bitwise algebra; the temporal
operators walk the arcs backwards in time linear in the graph (the
predecessors for EX, least fixed points by arc counting for the until
forms, and EG h as !AF !h). Quantifiers range over the records of each
state's own table instance; a quantifier whose variable never accesses
a schema attribute degenerates to a membership test of that name in the
table's key column. State-local subformulas read only the marking and
the table, never the data items or guard values, so each is compiled
once to a function of the two and run once per distinct marking, table
or (marking, table) pair, whichever it reads. A pair of record
quantifiers of one kind whose matrix only relates the two records on
one column is decided from a few witness pairs of rows, not from every
pair of rows. A temporal subformula without a quantifier reads only markings, so
it is evaluated on the graph's quotient by bisimulation, which is far
smaller than the graph.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import compress, count, islice

from .model import UNDEF, EvalError, Frozen, Struct, column_of, token_key
from .srg import Srg, fresh_token


# ---------------------------------------------------------------------------
# AST


# Nodes of different classes never compare equal, even with equal fields:
# Not(p) != EX(p).


class TrueF(Frozen):
    __slots__ = ()


class PlaceAtom(Frozen):
    __slots__ = _fields = ("place",)

    def __init__(self, place: str):
        self.place = place


class DataAtom(Frozen):
    __slots__ = _fields = ("lhs", "op", "rhs")

    def __init__(self, lhs: tuple, op: str, rhs: tuple):
        # terms: ("const", token) | ("attr", var, attribute) | ("var", var) | ("empty",)
        self.lhs = lhs
        self.op = op
        self.rhs = rhs


class Quantifier(Frozen):
    __slots__ = _fields = ("kind", "var", "body")

    def __init__(self, kind: str, var: str, body: Formula):
        self.kind = kind  # "forall" | "exists"
        self.var = var
        self.body = body


class _Unary(Frozen):
    __slots__ = _fields = ("inner",)

    def __init__(self, inner: Formula):
        self.inner = inner


class _Binary(Frozen):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        self.lhs = lhs
        self.rhs = rhs


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class EX(_Unary):
    __slots__ = ()


class EG(_Unary):
    __slots__ = ()


class EU(_Binary):
    __slots__ = ()


class AU(_Binary):
    __slots__ = ()


# the node classes; a ``Formula`` annotation names an instance of one
Formula = (TrueF, PlaceAtom, DataAtom, Quantifier, Not, And, Or, EX, EG, EU, AU)


# derived operators, expanded into the nodes above wherever a formula is built
def implies(lhs: Formula, rhs: Formula) -> Formula:
    return Or(Not(lhs), rhs)


def AX(inner: Formula) -> Formula:
    # all successors satisfy it and there is a successor
    return And(Not(EX(Not(inner))), EX(TrueF()))


def EF(inner: Formula) -> Formula:
    return EU(TrueF(), inner)


def AF(inner: Formula) -> Formula:
    return AU(TrueF(), inner)


def AG(inner: Formula) -> Formula:
    return Not(EF(Not(inner)))


# ---------------------------------------------------------------------------
# state-local subformulas, compiled once per node


def _record_variable(net, node: Quantifier) -> bool:
    """True when the quantified name is used with a schema attribute; a
    name that never touches the schema is a plain value literal and the
    quantifier reduces to a key-column membership precondition."""
    if net.schema is None:
        return True
    attrs, stack = set(net.schema.attributes), [node.body]
    while stack:
        sub = stack.pop()
        if isinstance(sub, DataAtom):
            if any(term[0] == "attr" and term[1] == node.var and term[2] in attrs for term in (sub.lhs, sub.rhs)):
                return True
        # a quantifier over the same name hides its body
        elif not (isinstance(sub, Quantifier) and sub.var == node.var):
            stack.extend(subformulas(sub))
    return False


# comparisons of two defined tokens: tokens sharing a prefix order by
# their numeric suffix, other tokens as text
_TESTS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": lambda a, b: token_key(a) < token_key(b),
    "<=": lambda a, b: token_key(a) <= token_key(b),
    ">": lambda a, b: token_key(a) > token_key(b),
    ">=": lambda a, b: token_key(a) >= token_key(b),
}
# the comparison with its operands swapped
_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_KEY = operator.itemgetter(0)


def _has_key(table, name: str) -> bool:
    """Whether ``name`` occurs in the key column of ``table``."""
    return name in map(_KEY, table)


def _test(op: str):
    """The comparison of two defined tokens under ``op``."""
    if op in _TESTS:
        return _TESTS[op]

    def unknown(a, b):
        raise EvalError(f"unknown comparison {op}")

    return unknown


def _const(value):
    return lambda marking, table, env: value


def _raise(message: str):
    def fail(marking, table, env):
        raise EvalError(message)

    return fail


def _safe(atom: DataAtom, terms) -> bool:
    """Whether a comparison whose operands compile to ``terms`` never raises."""
    if atom.op not in _TESTS or any(term[0] == "error" for term in terms):
        return False
    ordered = atom.op not in ("=", "!=") and "empty" not in (atom.lhs[0], atom.rhs[0])
    return not (ordered and any(term[0] == "record" for term in terms))


class _Compiler:
    """Compiles the state-local subformulas of one net to functions of
    ``(marking, table, env)``.

    ``env`` has one position per record quantifier: the quantifier puts
    its current record there and every term that reads the variable
    indexes it directly, so no binding is built per record. A scope maps a
    record variable to its position and a literal variable to the token
    it stands for. Literal variables, attribute indices, the token test
    of each operator and comparisons between constants are settled here.
    Every ``EvalError`` (unbound variable, unknown attribute or place,
    ordered comparison of whole records, temporal operator below a
    quantifier) is still raised only when evaluation reaches it, so an
    error on a path that no table reaches changes no verdict. ``marking``
    and ``table`` record whether the compiled code reads either; nothing
    state-local reads the data items or the guard values."""

    def __init__(self, net):
        self.net = net
        self.width = 0  # positions handed out
        self.marking = self.table = False

    def position(self) -> int:
        self.width += 1
        return self.width - 1

    def term(self, term, scope: dict) -> tuple:
        """An operand as ``("value", token)``, ``("record", position)``,
        ``("cell", position, index)`` or ``("error", message)``."""
        kind = term[0]
        if kind == "empty":
            return "value", UNDEF
        if kind == "const":
            return "value", term[1]
        bound = scope.get(term[1])
        if bound is None:
            return "error", f"unbound record variable {term[1]}"
        if isinstance(bound, str):
            # literal variable: its attribute tokens are plain values
            return "value", bound if kind == "var" else term[2]
        if kind == "var":
            return "record", bound
        schema = self.net.schema
        if schema is None or term[2] not in schema.attributes:
            return "error", f"unknown attribute {term[2]}"
        return "cell", bound, schema.attr_index(term[2])

    def atom(self, atom: DataAtom, scope: dict):
        """A comparison. ``term = empty`` and ``term != empty`` test
        definedness; every other comparison with an undefined operand is
        false. Whole records compare by value; in a canonical table, which
        holds each record once, that is the same row."""
        lhs, rhs, op = self.term(atom.lhs, scope), self.term(atom.rhs, scope), atom.op
        for side in (lhs, rhs):
            if side[0] == "error":
                return _raise(side[1])
        if "empty" in (atom.lhs[0], atom.rhs[0]):
            other = rhs if atom.lhs[0] == "empty" else lhs
            if op not in ("=", "!="):
                return _const(False)
            if other[0] == "cell":
                pos, index = other[1:]
                if op == "=":
                    return lambda marking, table, env: env[pos][index] is UNDEF
                return lambda marking, table, env: env[pos][index] is not UNDEF
            return _const((other == ("value", UNDEF)) == (op == "="))
        if "record" in (lhs[0], rhs[0]):
            if op not in ("=", "!="):
                return _raise("ordered comparison of whole records")
            if lhs[0] != rhs[0]:
                return _const(op == "!=")  # a record never equals a token
            a, b = lhs[1], rhs[1]
            if op == "=":
                return lambda marking, table, env: env[a] == env[b]
            return lambda marking, table, env: env[a] != env[b]
        if lhs[0] == "value":
            if rhs[0] != "value":
                lhs, rhs, op = rhs, lhs, _FLIP.get(op, op)
            elif lhs[1] is UNDEF or rhs[1] is UNDEF:
                return _const(False)
            else:
                try:
                    return _const(_test(op)(lhs[1], rhs[1]))
                except EvalError as exc:
                    return _raise(str(exc))
        test, (pos, index) = _test(op), lhs[1:]  # a cell from here on
        if rhs[0] == "value":
            value = rhs[1]
            if value is UNDEF:
                return _const(False)
            return lambda marking, table, env: (a := env[pos][index]) is not UNDEF and test(a, value)
        pos2, index2 = rhs[1:]
        return lambda marking, table, env: (
            (a := env[pos][index]) is not UNDEF and (b := env[pos2][index2]) is not UNDEF and test(a, b)
        )

    def code(self, node: Formula, scope: dict):
        """A subformula under ``scope``; one frame per nesting level, here
        and when the result runs, keeps deep formulas within the recursion
        limit."""
        if isinstance(node, TrueF):
            return _const(True)
        if isinstance(node, PlaceAtom):
            self.marking = True
            place = self.net.place_by_name.get(node.place)
            if place is None:
                return _raise(f"unknown place {node.place}")
            index = place.index
            return lambda marking, table, env: marking[index] > 0
        if isinstance(node, DataAtom):
            return self.atom(node, scope)
        if isinstance(node, Not):
            inner = self.code(node.inner, scope)
            return lambda marking, table, env: not inner(marking, table, env)
        if isinstance(node, (And, Or)):
            lhs, rhs = self.code(node.lhs, scope), self.code(node.rhs, scope)
            if isinstance(node, And):
                return lambda m, t, env: lhs(m, t, env) and rhs(m, t, env)
            return lambda m, t, env: lhs(m, t, env) or rhs(m, t, env)
        if not isinstance(node, Quantifier):
            return _raise("temporal operator nested below a quantifier")
        self.table = True
        var = node.var
        if not _record_variable(self.net, node):
            body = self.code(node.body, {**scope, var: var})
            # degenerate: the name must occur in the key column of this state
            return lambda m, t, env: _has_key(t, var) and body(m, t, env)
        pos = self.position()
        joined = self.join(node, scope, pos)
        if joined is not None:
            return joined
        body = self.code(node.body, {**scope, var: pos})
        # explicit loops over the records, left to right with short circuit
        if node.kind == "forall":

            def forall(m, t, env):
                for record in t:
                    env[pos] = record
                    if not body(m, t, env):
                        return False
                return True

            return forall

        def exists(m, t, env):
            for record in t:
                env[pos] = record
                if body(m, t, env):
                    return True
            return False

        return exists

    def join(self, node: Quantifier, scope: dict, first: int):
        """The join plan of a block ``Q v1, Q v2, [matrix]``, or None.

        It applies when both quantifiers are of one kind over records, the
        matrix is a boolean combination of atoms that cannot raise, and
        every atom reading either variable reads both, comparing them
        whole or on one shared column with ``=`` or ``!=``. The matrix
        then holds of a pair of rows according to how the two relate: the
        same row, or two rows with equal, different or undefined column
        values. So the block is decided on one witness pair for each
        relation that the table realises. Every other block runs the
        record loops."""
        inner = node.body
        if not (
            isinstance(inner, Quantifier)
            and inner.kind == node.kind
            and inner.var != node.var
            and _record_variable(self.net, inner)
        ):
            return None
        second = self.position()
        scope = {**scope, node.var: first, inner.var: second}
        column, stack = None, [inner.body]
        while stack:
            sub = stack.pop()
            if isinstance(sub, (Not, And, Or)):
                stack.extend(_operands(sub))
            elif isinstance(sub, PlaceAtom):
                if sub.place not in self.net.place_by_name:
                    return None
            elif isinstance(sub, DataAtom):
                terms = [self.term(term, scope) for term in (sub.lhs, sub.rhs)]
                if not _safe(sub, terms):
                    return None
                reads = [term[1] for term in terms if term[0] in ("record", "cell")]
                if not {first, second} & set(reads):
                    continue
                if sorted(reads) != [first, second] or sub.op not in ("=", "!="):
                    return None
                (kind, _, *index), (kind2, _, *index2) = terms
                if kind != kind2 or index != index2 or index and column not in (None, index[0]):
                    return None
                column = index[0] if index else column
            elif not isinstance(sub, TrueF):
                return None
        matrix = self.code(inner.body, scope)
        # without a compared column, every row has the same value
        key = (lambda record: True) if column is None else operator.itemgetter(column)
        decide = all if node.kind == "forall" else any

        def joined(m, t, env):
            def holds(pair) -> bool:
                env[first], env[second] = pair
                return matrix(m, t, env)

            return decide(map(holds, _pairs(t, key)))

        return joined


def _pairs(rows: tuple, key):
    """One pair of ``rows`` for each relation of their ``key`` values
    that the rows hold: one row, defined or undefined; two rows with
    equal, different or undefined values. Two undefined values compare
    like one, since every comparison with an undefined cell is false."""
    values = list(map(key, rows))
    distinct = dict.fromkeys(values)  # in table order
    # UNDEF is one value, so three distinct values hold two defined ones
    defined = [v for v in islice(distinct, 3) if v is not UNDEF][:2]
    if defined:
        row = rows[values.index(defined[0])]
        yield row, row
    if UNDEF in distinct:
        undefined = rows[values.index(UNDEF)]
        yield undefined, undefined
        if len(rows) > 1:
            yield undefined, rows[1] if rows[0] is undefined else rows[0]
    if len(defined) > 1:
        yield rows[values.index(defined[0])], rows[values.index(defined[1])]
    if len(values) - values.count(UNDEF) > len(distinct) - (UNDEF in distinct):
        seen: dict = {}
        for row, value in zip(rows, values):
            if value in seen and value is not UNDEF:
                yield seen[value], row
                break
            seen[value] = row


def _compile(node: Formula, net):
    """Whether a state-local subformula reads the marking and the table,
    and the subformula as a function of ``(marking, table)``."""
    compiler = _Compiler(net)
    code, width = compiler.code(node, {}), compiler.width
    return (compiler.marking, compiler.table), lambda marking, table: code(marking, table, [None] * width)


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
        # per state, the targets of its arcs and the sources of the arcs
        # into it, one entry per ``(src, dst)`` arc in ``arcs`` order
        post: list[list[int]] = [[] for _ in states]
        pre: list[list[int]] = [[] for _ in states]
        for src, dst in arcs:
            post[src].append(dst)
            pre[dst].append(src)
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
        for i in _members(target):
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


def _operands(node: Formula) -> tuple:
    """Subformulas evaluated as satisfaction sets of their own."""
    if isinstance(node, _Unary):
        return (node.inner,)
    if isinstance(node, _Binary):
        return (node.lhs, node.rhs)
    return ()


def subformulas(node: Formula) -> tuple:
    """Direct subformulas, including a quantifier's body."""
    return (node.body,) if isinstance(node, Quantifier) else _operands(node)


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
        srg.evaluation = _Evaluation(srg.net, srg.states, ((src, dst) for src, _, dst in srg.edges))
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
