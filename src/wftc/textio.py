"""The model reader. The format is line oriented with bracketed section
headers; ``#`` starts a comment. The formula parser (``dctlparse``) and the
writers (``export`` for graphs, ``modeltext`` for the model text) load only
with the calls that run them."""

from __future__ import annotations

import re

from .model import (
    UNDEF,
    DeleteOp,
    Guard,
    GuardRef,
    InsertOp,
    Predicate,
    SelScope,
    TableSchema,
    UpdateOp,
    WftcNet,
    canonical_table,
    deferred,
)

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
        if m:
            name = m.group(1)
            if name not in SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
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

    places = _section_tokens(sections, "PLACES")
    transitions = _section_tokens(sections, "TRANSITIONS")
    if not places:
        raise ParseError("missing [PLACES] section")
    if not transitions:
        raise ParseError("missing [TRANSITIONS] section")

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

    ops = _parse_ops(data_items, sections.get("OPS", []))
    predicates = _parse_predicates(sections.get("PREDICATES", []))
    guards = _parse_guards(sections.get("GUARDS", []))
    guard_of = _parse_guardmap(sections.get("GUARDMAP", []))
    constraints = _parse_constraints(sections.get("CONSTRAINTS", []))

    initial = _section_tokens(sections, "INITIAL")
    final = _section_tokens(sections, "FINAL")
    if len(initial) != 1 or len(final) != 1:
        raise ParseError("[INITIAL] and [FINAL] must each name exactly one place")
    # what the net references but does not declare is no text problem: its
    # first use reports it (``srg._Compiled``)
    return WftcNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        data_items=data_items,
        schema=schema,
        initial_records=initial_records,
        **ops,
        guard_of=guard_of,
        predicates=predicates,
        guards=guards,
        constraints=constraints,
        start=initial[0],
        end=final[0],
    )


def _source(items: list, token: str):
    token = token.strip()
    return ("item", token) if token in items else ("const", token)


_OP_RE = re.compile(r"(\w+)\s*\(([^()]*)\)")


def _parse_ops(items: list, lines) -> dict:
    """The ``[OPS]`` lines as the net's op fields: per field name, the ops of
    each transition in text order."""
    ops = {field: {} for field in ("rd", "wt", "dt", "sel", "ins", "dele", "upd")}
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
            field, added = _parse_op(items, op, args.strip(), lineno)
            ops[field][current] = ops[field].get(current, ()) + added
    return ops


def _assignments(items: list, text: str, op: str, lineno: int):
    pairs = []
    for pair in text.split(","):
        if "=" not in pair:
            raise ParseError(f"{op}: expected attribute=value, got {pair.strip()!r}", lineno)
        attr, value = pair.split("=", 1)
        pairs.append((attr.strip(), _source(items, value)))
    return tuple(pairs)


def _parse_op(items: list, op: str, args: str, lineno: int) -> tuple[str, tuple]:
    """One op as the net field it goes to and the tuple it adds there."""
    if op in ("rd", "wt", "dt"):
        return op, tuple(a.strip() for a in args.split(",") if a.strip())
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
            where_source=_source(items, wsrc) if wsrc else None,
            assign_item=assign or "",
        )
        return "sel", (scope,)
    if op == "ins":
        m = re.match(rf"^({_NAME})\s*:\s*(.+)$", args)
        if not m:
            raise ParseError(f"malformed ins({args})", lineno)
        return "ins", (InsertOp(m.group(1), _assignments(items, m.group(2), op, lineno)),)
    if op == "del":
        m = re.match(rf"^({_NAME})\s+where\s+({_NAME})\s*=\s*({_NAME})$", args)
        if not m:
            raise ParseError(f"malformed del({args})", lineno)
        return "dele", (DeleteOp(m.group(1), m.group(2), _source(items, m.group(3))),)
    if op == "upd":
        m = re.match(
            rf"^({_NAME})\s*:\s*(.+?)\s+where\s+({_NAME})\s*=\s*({_NAME})$", args
        )
        if not m:
            raise ParseError(f"malformed upd({args})", lineno)
        sets = _assignments(items, m.group(2), op, lineno)
        return "upd", (UpdateOp(m.group(1), sets, m.group(3), _source(items, m.group(4))),)
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


def _parse_predicates(lines) -> dict:
    predicates = {}
    for lineno, name, body in _iter_defs(lines, "predicate"):
        if name in predicates:
            raise ParseError(f"duplicate predicate {name}", lineno)
        m = re.match(rf"^in\s*\(\s*({_NAME})\s*,\s*({_NAME})\.({_NAME})\s*\)$", body)
        if m:
            predicates[name] = Predicate(name, "in", m.group(1), table=m.group(2), column=m.group(3))
            continue
        m = re.match(rf"^eq\s*\(\s*({_NAME})\s*,\s*({_NAME})\s*\)$", body)
        if m:
            predicates[name] = Predicate(name, "eq", m.group(1), const=m.group(2))
            continue
        m = re.match(rf"^def\s*\(\s*({_NAME})\s*\)$", body)
        if m:
            predicates[name] = Predicate(name, "def", m.group(1))
            continue
        raise ParseError(f"malformed predicate {body!r}", lineno)
    return predicates


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

    # a bracket level costs three frames, parse_or, parse_and and
    # parse_unary; each collects its operands in a loop
    def parse_or(self):
        operands = [self.parse_and()]
        while self.peek() == "|":
            self.eat()
            operands.append(self.parse_and())
        return _chain_node("or", operands)

    def parse_and(self):
        operands = [self.parse_unary()]
        while self.peek() == "&":
            self.eat()
            operands.append(self.parse_unary())
        return _chain_node("and", operands)

    def parse_unary(self):
        # a run of ``!`` is one negation or none: ``!!x`` is ``x``, as a
        # guard is undetermined whenever any of its predicates is
        negate = False
        while self.peek() == "!":
            self.eat()
            negate = not negate
        tok = self.peek()
        if tok == "(":
            self.eat()
            node = self.parse_or()
            self.eat(")")
        elif tok is None or tok in "&|)":
            raise ParseError("dangling operator in expression", self.lineno)
        else:
            self.eat()
            node = ("pi", tok)
        return ("not", node) if negate else node


def _chain_node(op: str, operands: list) -> tuple:
    """One ``op`` node over ``operands``, with the operands of a bracketed
    ``op`` chain spliced in; a lone operand as it is."""
    node = [op]
    for operand in operands:
        node += operand[1:] if operand[0] == op else (operand,)
    return tuple(node) if len(node) > 2 else node[1]


def _parse_guards(lines) -> dict:
    guards = {}
    for lineno, name, body in _iter_defs(lines, "guard"):
        if name in guards:
            raise ParseError(f"duplicate guard {name}", lineno)
        guards[name] = Guard(name, _BoolParser(body, lineno).parse())
    return guards


def _parse_guardmap(lines) -> dict:
    guard_of = {}
    for lineno, line in lines:
        for chunk in line.split():
            m = re.match(rf"^({_NAME})\s*:\s*(!?)({_NAME})$", chunk)
            if not m:
                raise ParseError(f"malformed guard mapping {chunk!r}", lineno)
            t, neg, g = m.groups()
            if t in guard_of:
                raise ParseError(f"transition {t} mapped to two guards", lineno)
            guard_of[t] = GuardRef(g, positive=not neg)
    return guard_of


def _parse_constraints(lines) -> tuple:
    constraints = []
    for lineno, line in lines:
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            expr = _BoolParser(chunk, lineno).parse()
            constraints.append(_to_dnf(expr, lineno))
    return tuple(constraints)


def _to_dnf(expr, lineno) -> tuple:
    # constraints must already be shaped as a disjunction of conjunctions
    # of guard literals
    def literal(node):
        if node[0] == "pi":
            return (node[1], True)
        if node[0] == "not" and node[1][0] == "pi":
            return (node[1][1], False)
        raise ParseError("constraint literals must be a guard or its negation", lineno)

    def operands(node, op):
        return node[1:] if node[0] == op else (node,)

    return tuple(tuple(map(literal, operands(d, "and"))) for d in operands(expr, "or"))


# ``parse_dctl`` moved to ``dctlparse``; ``perfbench/trace_child.py`` still wraps it here
__getattr__ = deferred(__name__, {"parse_dctl": "dctlparse"})
