"""The model text: the canonical form of a net, which ``parse_model`` reads
back to an equal net."""

from __future__ import annotations

import re

from .model import UNDEF, ModelError, Predicate, WftcNet
from .textio import BOT_TOKEN


def serialize_model(net: WftcNet) -> str:
    """Canonical text form; parse(serialize(net)) reproduces the net."""
    out = []
    out.append("[PLACES] " + " ".join(net.places))
    out.append("[TRANSITIONS] " + " ".join(net.transitions))
    # places, then transitions, each in declaration order, then undeclared names
    order = {t: (1, i) for i, t in enumerate(net.transitions)} | {p: (0, i) for i, p in enumerate(net.places)}
    arcs = sorted(net.arcs, key=lambda a: (order.get(a[0], (2, a[0])), order.get(a[1], (2, a[1]))))
    out.append("[ARCS] " + " ".join(f"{s}->{d}" for s, d in arcs))
    if net.data_items:
        out.append("[DATA] " + " ".join(net.data_items))
    if net.schema is not None:
        out.append(f"[TABLE] {net.schema.name}({', '.join(net.schema.attributes)})")
        out.extend(map(_record_text, net.initial_records))
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
                    net.guard_of.items(), key=lambda kv: order.get(kv[0], (2, kv[0]))
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


def _record_text(rec: tuple) -> str:
    """The line of a table record, which ``parse_model`` reads back as
    ``rec``; a cell it would read otherwise is a ``ModelError``."""
    for i, cell in enumerate(rec):
        if cell is not UNDEF and (
            cell == BOT_TOKEN  # read back as undefined
            or cell != cell.strip()  # the reader strips each cell
            or len(cell.splitlines()) > 1  # a line break ends the record
            or "#" in cell  # a comment
            or "," in cell  # the next cell
            or (i == 0 and re.match(r"\[\w+\]", cell))  # a section header
            or (not cell and len(rec) == 1)  # a blank line, which is skipped
        ):
            raise ModelError(f"table cell {cell!r} would not read back from the model text")
    return "  " + ", ".join(BOT_TOKEN if v is UNDEF else v for v in rec)


def _serialize_ops(net: WftcNet):
    lines = []
    for t in net.transitions:
        parts = []
        for label in ("rd", "wt", "dt"):
            items = getattr(net, label).get(t)
            if items:
                parts.append(f"{label}({', '.join(items)})")
        for scope in net.sel.get(t, ()):
            text = f"{scope.table}.{scope.column}"
            if scope.where_attr:
                text += f" where {scope.where_attr}={scope.where_source[1]}"
            if scope.assign_item:
                text += f" -> {scope.assign_item}"
            parts.append(f"sel({text})")
        for op in net.ins.get(t, ()):
            sets = ", ".join(f"{a}={s[1]}" for a, s in op.values)
            parts.append(f"ins({op.table}: {sets})")
        for op in net.dele.get(t, ()):
            parts.append(f"del({op.table} where {op.where_attr}={op.where_source[1]})")
        for op in net.upd.get(t, ()):
            sets = ", ".join(f"{a}={s[1]}" for a, s in op.sets)
            parts.append(f"upd({op.table}: {sets} where {op.where_attr}={op.where_source[1]})")
        if parts:
            lines.append(f"{t}: " + " ".join(parts))
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
    parts = []
    for child in expr[1:]:
        text = _expr_text(child)
        parts.append(f"({text})" if op == "and" and child[0] == "or" else text)
    return (" & " if op == "and" else " | ").join(parts)


def _constraint_text(constraint) -> str:
    return " | ".join(
        "(" + " & ".join(("" if pos else "!") + g for g, pos in disjunct) + ")"
        for disjunct in constraint
    )
