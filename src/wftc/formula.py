"""DCTL formulas: trees of immutable nodes, and the derived operators,
which expand into those nodes wherever a formula is built, so the parser
and the metric templates share one definition of each."""

from __future__ import annotations

from .model import Frozen


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


# the derived operators
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
