"""The text writers: the model text that ``parse_model`` reads back, and the
graph as JSON or as Graphviz; only ``build --json/--dot`` loads them."""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii

from .model import UNDEF, Predicate, WftcNet
from .srg import Srg
from .textio import BOT_TOKEN


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

