"""The graph writers: a built graph as JSON or as Graphviz; only
``build --json/--dot`` loads them."""

from __future__ import annotations

import functools
import itertools
import json
from json.encoder import encode_basestring_ascii

from .srg import Srg


# states, or arcs, per block of an export written to a stream: the
# smallest block that writes measurably faster than one join of the
# whole document. A smaller block pays a join, an encode and a write
# call per few kilobytes; a larger one adds its size to the peak, and
# one of several hundred kilobytes takes fresh pages each time and is
# slower again (README "Export" has the measurements)
BLOCK = 64


def _emit(blocks, out):
    """The document made of ``blocks``, each a list of pieces. Without
    ``out`` the pieces are joined once and the text is returned; with it,
    each block is joined and written to ``out`` as soon as it is made, and
    ``out`` is returned, so no full copy of the document ever exists."""
    if out is None:
        return "".join(itertools.chain.from_iterable(blocks))
    write = out.write
    for block in blocks:
        write("".join(block))
    return out


def export_dot(srg: Srg, out=None):
    """Graphviz rendering: states as nodes, transition names as edge
    labels, pseudo states dashed. Returns the text, or writes it to the
    stream ``out`` in blocks and returns ``out``."""
    return _emit(_dot_blocks(srg), out)


def _dot_blocks(srg: Srg):
    ids = [srg.state_id(i) for i in range(len(srg.states))]
    block = ["digraph srg {\n  rankdir=LR;\n"]
    for lo in range(0, len(ids), BLOCK):
        for i, sid in enumerate(ids[lo : lo + BLOCK], lo):
            style = ' style=dashed' if srg.pseudo[i] else ""
            shape = ' shape=doublecircle' if i == srg.initial else ""
            block.append(f'  {sid} [label="{sid}"{style}{shape}];\n')
        yield block
        block = []
    # a transition name may hold any non-space character, so each name's
    # label is escaped once here, not once per arc
    label = [' [label="{}"];\n'.format(t.replace("\\", "\\\\").replace('"', '\\"')) for t in srg.net.transitions]
    arcs = srg.edges
    numbered = zip(arcs.src, arcs.label, arcs.dst)
    for _ in range(0, len(arcs), BLOCK):
        block += [f"  {ids[src]} -> {ids[dst]}{label[t]}" for src, t, dst in itertools.islice(numbered, BLOCK)]
        yield block
        block = []
    block.append("}\n")
    yield block


def export_json(srg: Srg, out=None):
    """Full state dump: marking, data valuation, table and guard values
    per state, plus the labeled edge list. Returns the text, or writes it
    to the stream ``out`` in blocks and returns ``out``.

    The text is exactly what ``json.dumps(payload, indent=2,
    sort_keys=True)`` prints for that payload, written directly: the
    indenting ``json`` encoder is pure Python and builds the whole
    payload first, while states share markings, data, tables and guard
    values, which are rendered once each here. Each block is a list of
    pieces pointing at those shared texts."""
    return _emit(_json_blocks(srg), out)


def _json_blocks(srg: Srg):
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
        lambda m: obj({p: scalar(m[i]) for i, p in enumerate(net.places) if m[i]}, pad)
    )
    data = functools.cache(
        lambda d: obj({name: scalar(v) for name, v in zip(net.data_items, d)}, pad)
    )
    table = functools.cache(
        lambda t: arr([arr([scalar(v) for v in rec], pad + "  ") for rec in t], pad)
    )
    guards = functools.cache(
        lambda sigma: obj({name: scalar(v) for name, v in zip(net.guards, sigma)}, pad)
    )
    label = [scalar(t) for t in net.transitions]
    ids = [scalar(srg.state_id(i)) for i in range(len(srg.states))]
    flag = {False: "false", True: "true"}

    # the top level keys in sorted order; each array item opens with
    # ``first`` (the array's first) or ``sep`` and the array ends with
    # ``close``, or is ``[]`` when empty
    block = ['{\n  "edges": ']
    first, sep, close = '[\n    {\n      "from": ', '\n    },\n    {\n      "from": ', "\n    }\n  ]"
    arcs = srg.edges
    numbered = zip(arcs.src, arcs.label, arcs.dst)
    for _ in range(0, len(arcs), BLOCK):
        for a, t, b in itertools.islice(numbered, BLOCK):
            block += (first, ids[a], ',\n      "to": ', ids[b], ',\n      "transition": ', label[t])
            first = sep
        yield block
        block = []
    block.append(close if arcs else "[]")
    block += (',\n  "initial": ', scalar(srg.state_id(srg.initial)))
    block += (',\n  "mode": ', scalar(srg.mode), ',\n  "states": ')
    first, sep = '[\n    {\n      "data": ', '\n    },\n    {\n      "data": '
    states = srg.states
    for lo in range(0, len(states), BLOCK):
        for i, s in enumerate(states[lo : lo + BLOCK], lo):
            block += (
                first, data(s.data), ',\n      "guards": ', guards(s.sigma), ',\n      "id": ', ids[i],
                ',\n      "marking": ', marking(s.marking), ',\n      "pseudo": ', flag[srg.pseudo[i]],
                ',\n      "table": ', table(s.table),
            )
            first = sep
        yield block
        block = []
    block += (close if states else "[]", "\n}\n")
    yield block
