"""Parsing and serialization of the model format, the formula language,
and graph exports.

The model format is line oriented with bracketed section headers; ``#``
starts a comment. The formula grammar is a small CTL dialect with
quantifiers over table records and comparisons over record attributes.
"""

from __future__ import annotations

import functools
import json
import re
from json.encoder import encode_basestring_ascii

from .model import (
    UNDEF,
    DeleteOp,
    Guard,
    GuardRef,
    InsertOp,
    ModelError,
    Place,
    Predicate,
    SelScope,
    Struct,
    TableSchema,
    Transition,
    UpdateOp,
    WftcNet,
    canonical_table,
    validate_workflow_structure,
)
from .srg import Srg

SECTIONS = (
    "PLACES",
    "TRANSITIONS",
    "ARCS",
    "DATA",
    "TABLE",
    "OPS",
    "PREDICATES",
    "GUARDS",
    "GUARDMAP",
    "CONSTRAINTS",
    "INITIAL",
    "FINAL",
)

BOT_TOKEN = "-"


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        where = f" at line {line}" if line else ""
        where += f", column {column}" if column else ""
        super().__init__(message + where)


# ---------------------------------------------------------------------------
# model parsing


def _split_sections(text: str):
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = re.match(r"^\[(\w+)\]\s*(.*)$", line.strip())
        if m and m.group(1) in SECTIONS:
            name = m.group(1)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            if m.group(2):
                sections[name].append((lineno, m.group(2)))
        elif current is None:
            raise ParseError(f"content before any section: {line.strip()!r}", lineno)
        else:
            sections[current].append((lineno, line.strip()))
    return sections


def _section_tokens(sections, name):
    return [
        tok
        for _, line in sections.get(name, [])
        for tok in line.replace(",", " ").split()
    ]


_NAME = r"[A-Za-z_][A-Za-z0-9_']*"


def parse_model(text: str) -> WftcNet:
    """Parse the model format into a net; raises ParseError with a line
    number on malformed input."""
    sections = _split_sections(text)

    place_names = _section_tokens(sections, "PLACES")
    transition_names = _section_tokens(sections, "TRANSITIONS")
    if not place_names:
        raise ParseError("missing [PLACES] section")
    if not transition_names:
        raise ParseError("missing [TRANSITIONS] section")
    for pool, kind in ((place_names, "place"), (transition_names, "transition")):
        seen = set()
        for name in pool:
            if name in seen:
                raise ParseError(f"duplicate {kind} {name}")
            seen.add(name)
    overlap = set(place_names) & set(transition_names)
    if overlap:
        raise ParseError(f"names used as both place and transition: {sorted(overlap)}")

    places = [Place(n, i) for i, n in enumerate(place_names)]
    transitions = [Transition(n, i) for i, n in enumerate(transition_names)]

    arcs = set()
    for lineno, line in sections.get("ARCS", []):
        for chunk in line.split():
            if "->" not in chunk:
                raise ParseError(f"malformed arc {chunk!r}", lineno)
            src, dst = chunk.split("->", 1)
            if (src, dst) in arcs:
                raise ParseError(f"duplicate arc {chunk!r}", lineno)
            arcs.add((src, dst))

    data_items = _section_tokens(sections, "DATA")
    if len(set(data_items)) != len(data_items):
        raise ParseError("duplicate data item")

    schema = None
    initial_records = ()
    table_lines = sections.get("TABLE", [])
    if table_lines:
        lineno, header = table_lines[0]
        m = re.match(rf"^({_NAME})\s*\(([^)]*)\)$", header)
        if not m:
            raise ParseError(f"malformed table header {header!r}", lineno)
        attrs = tuple(a.strip() for a in m.group(2).split(",") if a.strip())
        if not attrs:
            raise ParseError("table needs at least one attribute", lineno)
        schema = TableSchema(m.group(1), attrs)
        records = []
        for lineno, line in table_lines[1:]:
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != len(attrs):
                raise ParseError(
                    f"record has {len(cells)} values, expected {len(attrs)}", lineno
                )
            records.append(tuple(UNDEF if c == BOT_TOKEN else c for c in cells))
        initial_records = canonical_table(records)

    net = WftcNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        data_items=list(data_items),
        schema=schema,
        initial_records=initial_records,
    )

    _parse_ops(net, sections.get("OPS", []))
    _parse_predicates(net, sections.get("PREDICATES", []))
    _parse_guards(net, sections.get("GUARDS", []))
    _parse_guardmap(net, sections.get("GUARDMAP", []))
    _parse_constraints(net, sections.get("CONSTRAINTS", []))

    initial = _section_tokens(sections, "INITIAL")
    final = _section_tokens(sections, "FINAL")
    if len(initial) != 1 or len(final) != 1:
        raise ParseError("[INITIAL] and [FINAL] must each name exactly one place")
    net.start, net.end = initial[0], final[0]

    net._index()
    # a net of the wrong workflow shape still parses; dangling references
    # do not
    errors = validate_workflow_structure(net).errors
    if errors:
        raise ParseError("; ".join(errors))
    return net


def _source(net: WftcNet, token: str):
    token = token.strip()
    return ("item", token) if token in net.data_items else ("const", token)


_OP_RE = re.compile(r"(\w+)\s*\(([^()]*)\)")


def _parse_ops(net: WftcNet, lines):
    current = None
    for lineno, line in lines:
        m = re.match(rf"^({_NAME})\s*:\s*(.*)$", line)
        if m:
            current = m.group(1)
            body = m.group(2)
        else:
            if current is None:
                raise ParseError(f"operation line without a transition: {line!r}", lineno)
            body = line
        consumed = _OP_RE.sub("", body).strip()
        if consumed:
            raise ParseError(f"malformed operations {body!r}", lineno)
        for op, args in _OP_RE.findall(body):
            _add_op(net, current, op, args.strip(), lineno)


def _assignments(net: WftcNet, text: str, op: str, lineno: int):
    pairs = []
    for pair in text.split(","):
        if "=" not in pair:
            raise ParseError(f"{op}: expected attribute=value, got {pair.strip()!r}", lineno)
        attr, value = pair.split("=", 1)
        pairs.append((attr.strip(), _source(net, value)))
    return tuple(pairs)


def _add_op(net: WftcNet, t: str, op: str, args: str, lineno: int):
    if op in ("rd", "wt", "dt"):
        items = tuple(a.strip() for a in args.split(",") if a.strip())
        mapping = getattr(net, op)
        mapping[t] = mapping.get(t, ()) + items
        return
    if op == "sel":
        m = re.match(
            rf"^({_NAME})\.({_NAME})"
            rf"(?:\s+where\s+({_NAME})\s*=\s*({_NAME}))?"
            rf"(?:\s*->\s*({_NAME}))?$",
            args,
        )
        if not m:
            raise ParseError(f"malformed sel({args})", lineno)
        table, column, wattr, wsrc, assign = m.groups()
        scope = SelScope(
            table=table,
            column=column,
            where_attr=wattr or "",
            where_source=_source(net, wsrc) if wsrc else None,
            assign_item=assign or "",
        )
        net.sel[t] = net.sel.get(t, ()) + (scope,)
        return
    if op == "ins":
        m = re.match(rf"^({_NAME})\s*:\s*(.+)$", args)
        if not m:
            raise ParseError(f"malformed ins({args})", lineno)
        values = _assignments(net, m.group(2), op, lineno)
        net.ins[t] = net.ins.get(t, ()) + (InsertOp(m.group(1), values),)
        return
    if op == "del":
        m = re.match(rf"^({_NAME})\s+where\s+({_NAME})\s*=\s*({_NAME})$", args)
        if not m:
            raise ParseError(f"malformed del({args})", lineno)
        net.dele[t] = net.dele.get(t, ()) + (
            DeleteOp(m.group(1), m.group(2), _source(net, m.group(3))),
        )
        return
    if op == "upd":
        m = re.match(
            rf"^({_NAME})\s*:\s*(.+?)\s+where\s+({_NAME})\s*=\s*({_NAME})$", args
        )
        if not m:
            raise ParseError(f"malformed upd({args})", lineno)
        sets = _assignments(net, m.group(2), op, lineno)
        net.upd[t] = net.upd.get(t, ()) + (
            UpdateOp(m.group(1), sets, m.group(3), _source(net, m.group(4))),
        )
        return
    raise ParseError(f"unknown operation {op!r}", lineno)


def _iter_defs(lines, what):
    for lineno, line in lines:
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ParseError(f"malformed {what} definition {chunk!r}", lineno)
            name, body = chunk.split("=", 1)
            yield lineno, name.strip(), body.strip()


def _parse_predicates(net: WftcNet, lines):
    for lineno, name, body in _iter_defs(lines, "predicate"):
        if name in net.predicates:
            raise ParseError(f"duplicate predicate {name}", lineno)
        m = re.match(rf"^in\s*\(\s*({_NAME})\s*,\s*({_NAME})\.({_NAME})\s*\)$", body)
        if m:
            net.predicates[name] = Predicate(
                name, "in", m.group(1), table=m.group(2), column=m.group(3)
            )
            continue
        m = re.match(rf"^eq\s*\(\s*({_NAME})\s*,\s*({_NAME})\s*\)$", body)
        if m:
            net.predicates[name] = Predicate(name, "eq", m.group(1), const=m.group(2))
            continue
        m = re.match(rf"^def\s*\(\s*({_NAME})\s*\)$", body)
        if m:
            net.predicates[name] = Predicate(name, "def", m.group(1))
            continue
        raise ParseError(f"malformed predicate {body!r}", lineno)


class _BoolParser:
    """Precedence parser for ! & | expressions over named literals."""

    def __init__(self, text: str, lineno: int):
        self.tokens = re.findall(rf"{_NAME}|[!&|()]", text)
        if "".join(self.tokens).replace(" ", "") != re.sub(r"\s+", "", text):
            raise ParseError(f"malformed boolean expression {text!r}", lineno)
        self.pos = 0
        self.lineno = lineno

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def eat(self, tok=None):
        got = self.peek()
        if got is None or (tok is not None and got != tok):
            raise ParseError(f"expected {tok!r} in expression", self.lineno)
        self.pos += 1
        return got

    def parse(self):
        node = self.parse_or()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens in expression", self.lineno)
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == "|":
            self.eat()
            node = ("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek() == "&":
            self.eat()
            node = ("and", node, self.parse_unary())
        return node

    def parse_unary(self):
        tok = self.peek()
        if tok == "!":
            self.eat()
            return ("not", self.parse_unary())
        if tok == "(":
            self.eat()
            node = self.parse_or()
            self.eat(")")
            return node
        if tok is None or tok in "&|)":
            raise ParseError("dangling operator in expression", self.lineno)
        self.eat()
        return ("pi", tok)


def _parse_guards(net: WftcNet, lines):
    for lineno, name, body in _iter_defs(lines, "guard"):
        if name in net.guards:
            raise ParseError(f"duplicate guard {name}", lineno)
        net.guards[name] = Guard(name, _BoolParser(body, lineno).parse())


def _parse_guardmap(net: WftcNet, lines):
    for lineno, line in lines:
        for chunk in line.split():
            m = re.match(rf"^({_NAME})\s*:\s*(!?)({_NAME})$", chunk)
            if not m:
                raise ParseError(f"malformed guard mapping {chunk!r}", lineno)
            t, neg, g = m.groups()
            if t in net.guard_of:
                raise ParseError(f"transition {t} mapped to two guards", lineno)
            net.guard_of[t] = GuardRef(g, positive=not neg)


def _parse_constraints(net: WftcNet, lines):
    constraints = []
    for lineno, line in lines:
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            expr = _BoolParser(chunk, lineno).parse()
            constraints.append(_to_dnf(expr, lineno))
    net.constraints = tuple(constraints)


def _to_dnf(expr, lineno) -> tuple:
    # constraints must already be shaped as a disjunction of conjunctions
    # of guard literals
    def literal(node):
        if node[0] == "pi":
            return (node[1], True)
        if node[0] == "not" and node[1][0] == "pi":
            return (node[1][1], False)
        raise ParseError("constraint literals must be a guard or its negation", lineno)

    def conj(node):
        if node[0] == "and":
            return conj(node[1]) + conj(node[2])
        return (literal(node),)

    def disj(node):
        if node[0] == "or":
            return disj(node[1]) + disj(node[2])
        return (conj(node),)

    return disj(expr)


# ---------------------------------------------------------------------------
# model serialization


def serialize_model(net: WftcNet) -> str:
    """Canonical text form; parse(serialize(net)) reproduces the net."""
    out = []
    out.append("[PLACES] " + " ".join(p.name for p in net.places))
    out.append("[TRANSITIONS] " + " ".join(t.name for t in net.transitions))
    arcs = sorted(net.arcs, key=lambda a: (_node_order(net, a[0]), _node_order(net, a[1])))
    out.append("[ARCS] " + " ".join(f"{s}->{d}" for s, d in arcs))
    if net.data_items:
        out.append("[DATA] " + " ".join(net.data_items))
    if net.schema is not None:
        out.append(f"[TABLE] {net.schema.name}({', '.join(net.schema.attributes)})")
        for rec in net.initial_records:
            out.append("  " + ", ".join(BOT_TOKEN if v is UNDEF else v for v in rec))
    op_lines = _serialize_ops(net)
    if op_lines:
        out.append("[OPS]")
        out.extend("  " + line for line in op_lines)
    if net.predicates:
        out.append("[PREDICATES]")
        for pi in net.predicates.values():
            out.append("  " + _serialize_predicate(pi))
    if net.guards:
        out.append("[GUARDS]")
        for g in net.guards.values():
            out.append(f"  {g.name} = {_expr_text(g.expr)}")
    if net.guard_of:
        out.append(
            "[GUARDMAP] "
            + " ".join(
                f"{t}:{'' if ref.positive else '!'}{ref.guard}"
                for t, ref in sorted(
                    net.guard_of.items(), key=lambda kv: _node_order(net, kv[0])
                )
            )
        )
    if net.constraints:
        out.append("[CONSTRAINTS]")
        for constraint in net.constraints:
            out.append("  " + _constraint_text(constraint))
    out.append("[INITIAL] " + net.start)
    out.append("[FINAL] " + net.end)
    return "\n".join(out) + "\n"


def _node_order(net: WftcNet, name: str):
    if name in net.place_by_name:
        return (0, net.place_by_name[name].index)
    if name in net.transition_by_name:
        return (1, net.transition_by_name[name].index)
    return (2, name)


def _src_text(source) -> str:
    return source[1]


def _serialize_ops(net: WftcNet):
    lines = []
    for t in net.transitions:
        parts = []
        for label in ("rd", "wt", "dt"):
            items = getattr(net, label).get(t.name)
            if items:
                parts.append(f"{label}({', '.join(items)})")
        for scope in net.sel.get(t.name, ()):
            text = f"{scope.table}.{scope.column}"
            if scope.where_attr:
                text += f" where {scope.where_attr}={_src_text(scope.where_source)}"
            if scope.assign_item:
                text += f" -> {scope.assign_item}"
            parts.append(f"sel({text})")
        for op in net.ins.get(t.name, ()):
            sets = ", ".join(f"{a}={_src_text(s)}" for a, s in op.values)
            parts.append(f"ins({op.table}: {sets})")
        for op in net.dele.get(t.name, ()):
            parts.append(
                f"del({op.table} where {op.where_attr}={_src_text(op.where_source)})"
            )
        for op in net.upd.get(t.name, ()):
            sets = ", ".join(f"{a}={_src_text(s)}" for a, s in op.sets)
            parts.append(
                f"upd({op.table}: {sets} where {op.where_attr}={_src_text(op.where_source)})"
            )
        if parts:
            lines.append(f"{t.name}: " + " ".join(parts))
    return lines


def _serialize_predicate(pi: Predicate) -> str:
    if pi.kind == "in":
        return f"{pi.name} = in({pi.item}, {pi.table}.{pi.column})"
    if pi.kind == "eq":
        return f"{pi.name} = eq({pi.item}, {pi.const})"
    return f"{pi.name} = def({pi.item})"


def _expr_text(expr) -> str:
    op = expr[0]
    if op == "pi":
        return expr[1]
    if op == "not":
        inner = _expr_text(expr[1])
        return f"!{inner}" if expr[1][0] == "pi" else f"!({inner})"
    sep = " & " if op == "and" else " | "
    parts = []
    for child in expr[1:]:
        text = _expr_text(child)
        if op == "and" and child[0] == "or":
            text = f"({text})"
        parts.append(text)
    return sep.join(parts)


def _constraint_text(constraint) -> str:
    return " | ".join(
        "(" + " & ".join(("" if pos else "!") + g for g, pos in disjunct) + ")"
        for disjunct in constraint
    )


# ---------------------------------------------------------------------------
# formula parsing


class _Token(Struct):
    __slots__ = _fields = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


_FORMULA_TOKENS = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<cmp><=|>=|!=|<|>|=)|(?P<punct>[()\[\],.!&|])"
    rf"|(?P<name>{_NAME}))"
)


def _tokenize_formula(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _FORMULA_TOKENS.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(
                    f"unexpected character {rest[0]!r}", column=len(text) - len(rest) + 1
                )
            break
        pos = m.end()
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
    return tokens


# Nesting bound of a formula, checked twice: in parser frames while parsing
# (a prefix operator costs one, a bracketed subformula up to six) and in
# levels of the finished formula tree. Parsing and evaluation recurse about
# this deep, within Python's default recursion limit of 1000.
MAX_FORMULA_DEPTH = 960


class DctlParser:
    """Recursive-descent parser for the formula language. It reads each
    formula once, left to right, and never backs up; an error names the
    column of the token where parsing stopped.

    Precedence: ! binds tightest, then &, then |, then ->. Temporal
    operators are prefix; E(a U b) / A(a U b) carry the until form.
    Derived operators are expanded at parse time.
    """

    TEMPORAL = {"EX", "AX", "EF", "AF", "EG", "AG"}

    def __init__(self, text: str, net: WftcNet | None = None):
        # the formula classes; imported by the first parse, not with this
        # module, so that building a graph never compiles the evaluator
        global dctl
        from . import dctl

        self.text = text
        self.tokens = _tokenize_formula(text)
        self.pos = 0
        self.net = net
        self.bound: list[str] = []
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def at(self, text, ahead=0):
        tok = self.peek(ahead)
        return tok is not None and tok.text == text

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", column=len(self.text))
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", column=tok.pos + 1)
        return tok

    def descend(self, frames: int):
        self.depth += frames
        if self.depth > MAX_FORMULA_DEPTH:
            tok = self.peek()
            raise ParseError(
                f"formula nested deeper than {MAX_FORMULA_DEPTH} levels",
                column=len(self.text) if tok is None else tok.pos + 1,
            )

    # -- grammar ----------------------------------------------------------

    def parse(self):
        node = self.parse_implies()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", column=tok.pos + 1)
        return node

    # parse_implies, parse_or and parse_and take an optional first operand:
    # a quantified formula that parse_quantified has read already and that
    # the expression goes on from, as in (forall v in R, [m] & q)

    def parse_implies(self, first=None):
        # entered once per bracketed level; with the parse_unary call that
        # opened the level, that is at most six frames
        self.descend(5)
        try:
            node = self.parse_or(first)
            if self.at("->"):
                self.next()
                return dctl.Or(dctl.Not(node), self.parse_implies())
            return node
        finally:
            self.depth -= 5

    def parse_or(self, first=None):
        node = self.parse_and(first)
        while self.at("|"):
            self.next()
            node = dctl.Or(node, self.parse_and())
        return node

    def parse_and(self, first=None):
        node = self.parse_unary() if first is None else first
        while self.at("&"):
            self.next()
            node = dctl.And(node, self.parse_unary())
        return node

    def parse_unary(self):
        self.descend(1)
        try:
            tok = self.peek()
            if tok is None:
                raise ParseError("unexpected end of formula", column=len(self.text))
            if tok.text == "!":
                self.next()
                return dctl.Not(self.parse_unary())
            if tok.kind == "name" and tok.text in self.TEMPORAL:
                self.next()
                return self._temporal(tok.text, self.parse_unary())
            if tok.kind == "name" and tok.text in ("E", "A"):
                return self.parse_until(tok.text)
            if tok.text == "(":
                return self.parse_group()
            if self._quantifier_ahead(0):
                return self.parse_quantified()[0]
            if tok.kind == "name":
                return self.parse_comparison_or_atom()
            raise ParseError(f"unexpected token {tok.text!r}", column=tok.pos + 1)
        finally:
            self.depth -= 1

    def _temporal(self, op, inner):
        if op == "EX":
            return dctl.EX(inner)
        if op == "AX":
            # all successors satisfy it and there is a successor
            return dctl.And(
                dctl.Not(dctl.EX(dctl.Not(inner))), dctl.EX(dctl.TrueF())
            )
        if op == "EF":
            return dctl.EU(dctl.TrueF(), inner)
        if op == "AF":
            return dctl.AU(dctl.TrueF(), inner)
        if op == "EG":
            return dctl.EG(inner)
        # AG f == !EF !f
        return dctl.Not(dctl.EU(dctl.TrueF(), dctl.Not(inner)))

    def parse_until(self, path_quantifier):
        # E(a U b). A quantifier prefix before a bracketed until quantifies
        # both operands, E((forall v in R), [a U b]); in E(forall v in R,
        # [a] U b) it quantifies the left operand only
        self.next()  # E or A
        self.expect("(")
        lhs = rhs = None
        listed = self._listed()
        if listed or self._quantifier_ahead(0):
            lhs, rhs = self.parse_quantified(listed, until=True)
        if rhs is None:
            lhs = self.parse_implies(lhs)
            self.expect("U")
            rhs = self.parse_implies()
        self.expect(")")
        return dctl.EU(lhs, rhs) if path_quantifier == "E" else dctl.AU(lhs, rhs)

    def parse_group(self):
        # a parenthesized group: a plain subformula, or a quantified formula
        # with its list in its own parens, ((forall v in R), [m]), or inline,
        # (forall v in R, [m] & q), where the expression may go on after it
        self.expect("(")
        node = None
        listed = self._listed()
        if listed or self._quantifier_ahead(0):
            node = self.parse_quantified(listed)[0]
        if not listed:
            node = self.parse_implies(node)
        self.expect(")")
        return node

    def _quantifier_ahead(self, ahead):
        tok = self.peek(ahead)
        return tok is not None and tok.kind == "name" and tok.text in ("forall", "exists")

    def _listed(self):
        """Whether a quantifier list in its own parens comes next: `(`,
        then `Q v in D` separated by commas (a last one may trail), then `)`."""
        if not self.at("("):
            return False
        ahead = 1
        while self._quantifier_ahead(ahead):
            var, kw, dom = (self.peek(ahead + k) for k in (1, 2, 3))
            if dom is None or var.kind != "name" or kw.text != "in" or dom.kind != "name":
                return False
            ahead += 4
            if not self.at(",", ahead):
                break
            ahead += 1
        return ahead > 1 and self.at(")", ahead)

    def parse_quantified(self, listed=False, until=False):
        """A quantifier list and its matrix, `Q v in D, ..., [m]` or `...,
        m`, or when listed `(Q v in D, ...), [m]`. With until, a bracketed
        `[a U b]` quantifies both operands. Returns the quantified formula
        and the quantified right operand, or None."""
        if listed:
            self.next()
        quantifiers = self.parse_quantifier_list()
        if listed:
            self.expect(")")
            self.expect(",")
        bracketed = (listed and until) or self.at("[")
        if bracketed:
            self.expect("[")
        saved = len(self.bound)
        self.bound.extend(var for _, var in quantifiers)
        body, rhs = self.parse_implies(), None
        if bracketed and until and (listed or self.at("U")):
            self.expect("U")
            rhs = self._wrap(quantifiers, self.parse_implies())
        del self.bound[saved:]
        if bracketed:
            self.expect("]")
        return self._wrap(quantifiers, body), rhs

    def parse_quantifier_list(self):
        quantifiers = []
        while True:
            tok = self.next()
            if tok.text not in ("forall", "exists"):
                raise ParseError(
                    f"expected quantifier, found {tok.text!r}", column=tok.pos + 1
                )
            var = self.next()
            if var.kind != "name":
                raise ParseError("expected variable name", column=var.pos + 1)
            kw = self.next()
            if kw.text != "in":
                raise ParseError("expected 'in'", column=kw.pos + 1)
            dom = self.next()
            if dom.kind != "name":
                raise ParseError("expected domain name", column=dom.pos + 1)
            quantifiers.append((tok.text, var.text))
            if self.at(","):
                self.next()  # separator before the next quantifier or matrix
                if self._quantifier_ahead(0):
                    continue
            break
        return quantifiers

    @staticmethod
    def _wrap(quantifiers, body):
        node = body
        for kind, var in reversed(quantifiers):
            node = dctl.Quantifier(kind, var, node)
        return node

    def parse_comparison_or_atom(self):
        start = self.peek()
        term = self.parse_term()
        tok = self.peek()
        if tok is not None and tok.kind == "cmp":
            self.next()
            rhs = self.parse_term()
            # bare names inside comparisons are constant tokens
            return dctl.DataAtom(_norm_term(term), tok.text, _norm_term(rhs))
        # bare name: constant / place / keyword
        if term[0] != "name":
            raise ParseError(
                "comparison expected", column=len(self.text) if tok is None else tok.pos + 1
            )
        name = term[1]
        if name == "true":
            return dctl.TrueF()
        if name == "false":
            return dctl.Not(dctl.TrueF())
        if name == "deadlock":
            return dctl.Not(dctl.EX(dctl.TrueF()))
        if self.net is None or self.net.is_place(name):
            return dctl.PlaceAtom(name)
        raise ParseError(f"unknown atom {name!r}", column=start.pos + 1)

    def parse_term(self):
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected a term, found {tok.text!r}", column=tok.pos + 1)
        name = tok.text
        if self.at("."):
            self.next()
            attr = self.next()
            if attr.kind != "name":
                raise ParseError("expected attribute name", column=attr.pos + 1)
            if name in self.bound:
                return ("attr", name, attr.text)
            raise ParseError(f"unbound record variable {name}", column=tok.pos + 1)
        if name == "empty":
            return ("empty",)
        if name in self.bound:
            return ("var", name)
        return ("name", name)


def parse_dctl(text: str, net: WftcNet | None = None):
    """Parse a formula; when a net is supplied, place atoms are resolved
    against it, and that is all the net changes. Whether a quantifier
    ranges over records or tests a literal against the key column, and so
    whether ``v.attr`` reads a column or is the token ``attr``, is decided
    by the evaluator, once per quantifier node."""
    node = DctlParser(text, net).parse()
    if _levels(node) > MAX_FORMULA_DEPTH:
        raise ParseError(
            f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", column=len(text)
        )
    return node


def _levels(root) -> int:
    """Depth of the formula tree, without recursion."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((sub, level + 1) for sub in dctl.subformulas(node))
    return deepest


def _norm_term(term):
    if term[0] == "name":
        return ("const", term[1])
    return term


# ---------------------------------------------------------------------------
# graph exports


def export_dot(srg: Srg) -> str:
    """Graphviz rendering: states as nodes, transition names as edge
    labels, pseudo states dashed."""
    ids = [srg.state_id(i) for i in range(len(srg.states))]
    lines = ["digraph srg {", "  rankdir=LR;"]
    for i, sid in enumerate(ids):
        style = ' style=dashed' if srg.pseudo[i] else ""
        shape = ' shape=doublecircle' if i == srg.initial else ""
        lines.append(f'  {sid} [label="{sid}"{style}{shape}];')
    # a transition name may hold any non-space character, so each name's
    # label is escaped once here, not once per edge
    label = {
        t.name: ' [label="{}"];'.format(t.name.replace("\\", "\\\\").replace('"', '\\"'))
        for t in srg.net.transitions
    }
    for src, t, dst in srg.edges:
        lines.append(f"  {ids[src]} -> {ids[dst]}{label[t]}")
    lines.append("}\n")
    return "\n".join(lines)


def export_json(srg: Srg) -> str:
    """Full state dump: marking, data valuation, table and guard values
    per state, plus the labeled edge list.

    The text is exactly what ``json.dumps(payload, indent=2,
    sort_keys=True)`` prints for that payload, written directly: the
    indenting ``json`` encoder is pure Python and builds the whole
    payload first, while states share markings, data, tables and guard
    values, which are rendered once each here. The document is one list
    of pieces pointing at those shared texts, joined once, so the only
    full copy of it is the returned string."""
    net = srg.net

    def scalar(value) -> str:
        if value is None:
            return "null"
        return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)

    def obj(pairs, pad: str) -> str:
        if not pairs:
            return "{}"
        inner = ",\n".join(f"{pad}  {encode_basestring_ascii(k)}: {v}" for k, v in sorted(pairs.items()))
        return f"{{\n{inner}\n{pad}}}"

    def arr(texts, pad: str) -> str:
        if not texts:
            return "[]"
        inner = ",\n".join(f"{pad}  {text}" for text in texts)
        return f"[\n{inner}\n{pad}]"

    pad = " " * 6
    marking = functools.cache(
        lambda m: obj({p.name: scalar(m[p.index]) for p in net.places if m[p.index]}, pad)
    )
    data = functools.cache(
        lambda d: obj({name: scalar(v) for name, v in zip(net.data_items, d)}, pad)
    )
    table = functools.cache(
        lambda t: arr([arr([scalar(v) for v in rec], pad + "  ") for rec in t], pad)
    )
    guards = functools.cache(
        lambda sigma: obj({name: scalar(v) for name, v in zip(net.guard_order, sigma)}, pad)
    )
    label = functools.cache(scalar)
    ids = [scalar(srg.state_id(i)) for i in range(len(srg.states))]
    flag = {False: "false", True: "true"}

    # the top level keys in sorted order; each array item opens with
    # ``first`` (the array's first) or ``sep`` and the array ends with
    # ``close``, or is ``[]`` when empty
    pieces = ['{\n  "edges": ']
    first, sep, close = '[\n    {\n      "from": ', '\n    },\n    {\n      "from": ', "\n    }\n  ]"
    for a, t, b in srg.edges:
        pieces += (first, ids[a], ',\n      "to": ', ids[b], ',\n      "transition": ', label(t))
        first = sep
    pieces.append(close if srg.edges else "[]")
    pieces += (',\n  "initial": ', scalar(srg.state_id(srg.initial)))
    pieces += (',\n  "mode": ', scalar(srg.mode), ',\n  "states": ')
    first, sep = '[\n    {\n      "data": ', '\n    },\n    {\n      "data": '
    for i, s in enumerate(srg.states):
        pieces += (
            first, data(s.data), ',\n      "guards": ', guards(s.sigma), ',\n      "id": ', ids[i],
            ',\n      "marking": ', marking(s.marking), ',\n      "pseudo": ', flag[srg.pseudo[i]],
            ',\n      "table": ', table(s.table),
        )
        first = sep
    pieces += (close if srg.states else "[]", "\n}\n")
    return "".join(pieces)


def import_json(text: str):
    """Reload an exported graph as plain data: (states, edges, initial).

    States come back as comparable tuples so a re-imported export can be
    checked against the original graph state-for-state and edge-for-edge.
    """
    payload = json.loads(text)
    states = []
    for entry in payload["states"]:
        states.append(
            (
                tuple(sorted(entry["marking"].items())),
                tuple(sorted(entry["data"].items())),
                tuple(tuple(rec) for rec in entry["table"]),
                tuple(sorted(entry["guards"].items())),
                entry["pseudo"],
            )
        )
    edges = [(e["from"], e["transition"], e["to"]) for e in payload["edges"]]
    return states, edges, payload["initial"]
