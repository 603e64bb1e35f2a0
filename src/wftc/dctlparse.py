"""The formula language, a small CTL dialect with quantifiers over table
records and comparisons over record attributes; only ``verify`` loads it."""

from __future__ import annotations

import re

from . import formula
from .model import Struct, WftcNet
from .textio import _NAME, ParseError


class _Token(Struct):
    __slots__ = _fields = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


_FORMULA_TOKENS = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<cmp><=|>=|!=|<|>|=)|(?P<punct>[()\[\],.!&|])"
    rf'|(?P<name>{_NAME})|(?P<place>"{_NAME}"))'
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
    column of the token where parsing stopped, or the column just after the
    last non-blank character when the formula ends early.

    Precedence: ! binds tightest, then &, then |, then ->. Temporal
    operators are prefix; E(a U b) / A(a U b) carry the until form. A
    prefix operator is built by the ``formula`` constructor of its name
    and -> by ``formula.implies``, the one home of the derived ones.
    """

    TEMPORAL = {"EX", "AX", "EF", "AF", "EG", "AG"}

    def __init__(self, text: str, net: WftcNet | None = None):
        self.tokens = _tokenize_formula(text)
        self.end_column = len(text.rstrip()) + 1
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
            raise ParseError("unexpected end of formula", column=self.end_column)
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
                column=self.end_column if tok is None else tok.pos + 1,
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
                return formula.implies(node, self.parse_implies())
            return node
        finally:
            self.depth -= 5

    def parse_or(self, first=None):
        node = self.parse_and(first)
        while self.at("|"):
            self.next()
            node = formula.Or(node, self.parse_and())
        return node

    def parse_and(self, first=None):
        node = self.parse_unary() if first is None else first
        while self.at("&"):
            self.next()
            node = formula.And(node, self.parse_unary())
        return node

    def parse_unary(self):
        self.descend(1)
        try:
            tok = self.peek()
            if tok is None:
                raise ParseError("unexpected end of formula", column=self.end_column)
            if tok.text == "!":
                self.next()
                return formula.Not(self.parse_unary())
            if tok.kind == "name" and tok.text in self.TEMPORAL:
                self.next()
                return getattr(formula, tok.text)(self.parse_unary())
            if tok.kind == "name" and tok.text in ("E", "A"):
                return self.parse_until(tok.text)
            if tok.text == "(":
                return self.parse_group()
            if self._quantifier_ahead(0):
                return self.parse_quantified()[0]
            if tok.kind == "name":
                return self.parse_comparison_or_atom()
            if tok.kind == "place":
                return self.parse_quoted_place()
            raise ParseError(f"unexpected token {tok.text!r}", column=tok.pos + 1)
        finally:
            self.depth -= 1

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
        return formula.EU(lhs, rhs) if path_quantifier == "E" else formula.AU(lhs, rhs)

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
            tok = self.next()  # each caller has seen a quantifier ahead
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
            node = formula.Quantifier(kind, var, node)
        return node

    def parse_comparison_or_atom(self):
        start = self.peek()
        term = self.parse_term()
        tok = self.peek()
        if tok is not None and tok.kind == "cmp":
            self.next()
            rhs = self.parse_term()
            return formula.DataAtom(term, tok.text, rhs)
        # bare name: constant / place / keyword
        if term[0] != "const":
            raise ParseError(
                "comparison expected", column=self.end_column if tok is None else tok.pos + 1
            )
        name = term[1]
        if name in ("true", "false", "deadlock") and self.net is not None and name in self.net.place_index:
            raise ParseError(
                f'{name!r} is both a keyword and a place of the net; write "{name}" for the place',
                column=start.pos + 1,
            )
        if name == "true":
            return formula.TrueF()
        if name == "false":
            return formula.Not(formula.TrueF())
        if name == "deadlock":
            return formula.Not(formula.EX(formula.TrueF()))
        if self.net is None or name in self.net.place_index:
            return formula.PlaceAtom(name)
        raise ParseError(f"unknown atom {name!r}", column=start.pos + 1)

    def parse_quoted_place(self):
        # "AG" is the place AG, whatever keyword or operator it spells
        tok = self.next()
        name = tok.text[1:-1]
        if self.net is None or name in self.net.place_index:
            return formula.PlaceAtom(name)
        raise ParseError(f"unknown place {name!r}", column=tok.pos + 1)

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
        return ("const", name)  # an unbound bare name is a constant token


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
        stack.extend((sub, level + 1) for sub in formula.subformulas(node))
    return deepest

