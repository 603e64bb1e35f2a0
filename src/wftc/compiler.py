"""State-local DCTL subformulas compiled to functions of a state's marking
and table.

A subformula without a temporal operator reads only the marking and the
table, never the data items or guard values, so each is compiled once to
a function of the two. Quantifiers range over the records of each state's
own table instance; a quantifier whose variable never accesses a schema
attribute degenerates to a membership test of that name in the table's
key column. A pair of record quantifiers of one kind whose matrix only
relates the two records on one column is decided from a few witness
pairs of rows, not from every pair of rows."""

from __future__ import annotations

import operator
from itertools import islice

from .formula import And, DataAtom, Formula, Not, Or, PlaceAtom, Quantifier, TrueF, _operands, subformulas
from .model import UNDEF, EvalError, token_key


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


def _const(value):
    return lambda marking, table, env: value


def _raise(message: str):
    def fail(marking, table, env):
        raise EvalError(message)

    return fail


def _failure(atom: DataAtom, terms) -> str | None:
    """The error that a comparison whose operands compile to ``terms``
    raises wherever evaluation reaches it, or None if it never raises."""
    for term in terms:
        if term[0] == "error":
            return term[1]
    if "empty" in (atom.lhs[0], atom.rhs[0]):
        return None  # a definedness test, or false for any other operator
    if "record" in (terms[0][0], terms[1][0]):
        return None if atom.op in ("=", "!=") else "ordered comparison of whole records"
    return None if atom.op in _TESTS else f"unknown comparison {atom.op}"


class _Compiler:
    """Compiles the state-local subformulas of one net to functions of
    ``(marking, table, env)``.

    ``env`` has one position per record quantifier: the quantifier puts
    its current record there and every term that reads the variable
    indexes it directly, so no binding is built per record. A scope maps a
    record variable to its position and a literal variable to the token
    it stands for. Literal variables, attribute indices, the token test
    of each operator and comparisons between constants are settled here.
    Every ``EvalError`` (unbound variable, unknown attribute, place or
    operator, ordered comparison of whole records, temporal operator
    below a quantifier) is raised only when evaluation reaches it, so an
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
        failure = _failure(atom, (lhs, rhs))
        if failure is not None:
            return _raise(failure)
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
            if lhs[0] != rhs[0]:
                return _const(op == "!=")  # a record never equals a token
            a, b = lhs[1], rhs[1]
            if op == "=":
                return lambda marking, table, env: env[a] == env[b]
            return lambda marking, table, env: env[a] != env[b]
        # only ``empty`` compiles to an undefined value, so values are defined
        test = _TESTS[op]
        if lhs[0] == "value":
            if rhs[0] == "value":
                return _const(test(lhs[1], rhs[1]))
            lhs, rhs, test = rhs, lhs, _TESTS[_FLIP[op]]
        pos, index = lhs[1:]  # a cell from here on
        if rhs[0] == "value":
            value = rhs[1]
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
            index = self.net.place_index.get(node.place)
            if index is None:
                return _raise(f"unknown place {node.place}")
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
                if sub.place not in self.net.place_index:
                    return None
            elif isinstance(sub, DataAtom):
                terms = [self.term(term, scope) for term in (sub.lhs, sub.rhs)]
                if _failure(sub, terms) is not None:
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
