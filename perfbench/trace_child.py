"""Run one ``wftc`` CLI call with spans around the public functions of each
module, then append the spans to a file.

    python perfbench/trace_child.py SPANS JOB -- <wftc arguments>

Each wrapper replaces a module attribute at the place the caller looks it
up and is removed again after the call, so the program runs unchanged
apart from the wrapping. Spans stay in memory until the call returns.

Output, appended to SPANS (tab separated):

    #job  JOB  {"states": ..., "arcs": ..., ...}     one per built graph
    span  JOB  ID  PARENT  NAME  START  END  NOTE

``NOTE`` is a count recorded at the boundary: the boolean result of
``enabled``/``constraint_consistent``, the length of what ``fire``,
``refine``, ``canonical_table`` and the exports return, and for ``sat`` the
node kind and an id shared by equal subformulas.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import wftc.cli
import wftc.dctl
import wftc.srg
import wftc.textio


def _length(args, result):
    return len(result)


def _truth(args, result):
    return int(bool(result))


def _keep(args, result):
    return result


def _node(args, result):
    return args[1]


# (module, attribute, span name, note). Per-atom helpers such as
# ``eval_atom`` and ``token_key`` run millions of times and stay unwrapped.
WRAPPED = [
    (wftc.cli, "parse_model", "textio.parse_model", None),
    (wftc.cli, "parse_dctl", "textio.parse_dctl", None),
    (wftc.cli, "export_json", "textio.export_json", _length),
    (wftc.cli, "export_dot", "textio.export_dot", _length),
    (wftc.cli, "build_srg", "srg.build", _keep),
    (wftc.cli, "verify", "dctl.verify", None),
    (wftc.cli, "builtin_metrics", "dctl.builtin_metrics", None),
    (wftc.textio, "parse_dctl", "textio.parse_dctl", None),
    (wftc.srg, "enabled", "srg.enabled", _truth),
    (wftc.srg, "fire", "srg.fire", _length),
    (wftc.srg, "refine", "srg.refine", _length),
    (wftc.srg, "canonical_table", "model.canonical_table", _length),
    (wftc.srg, "constraint_consistent", "model.constraint_consistent", _truth),
    (wftc.dctl, "sat", "dctl.sat", _node),
    (wftc.dctl, "sat_ex", "dctl.sat_ex", None),
    (wftc.dctl, "sat_eg", "dctl.sat_eg", None),
    (wftc.dctl, "sat_eu", "dctl.sat_eu", None),
    (wftc.dctl, "sat_au", "dctl.sat_au", None),
    (wftc.dctl, "precondition_set", "dctl.precondition_set", None),
    (wftc.dctl, "verify", "dctl.verify", None),
]

LOCAL, BOOLEAN, TEMPORAL = "local", "bool", "temporal"
_KINDS = {
    "TrueF": BOOLEAN,
    "Not": BOOLEAN,
    "And": BOOLEAN,
    "Or": BOOLEAN,
    "EX": TEMPORAL,
    "EG": TEMPORAL,
    "EU": TEMPORAL,
    "AU": TEMPORAL,
}


class Tracer:
    """Spans of one process, appended as they end:
    ``(id, parent id, name, start, end, note)``. Finished spans are tuples
    so that the garbage collector, which the traced program also pays
    for, soon stops scanning them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack = [-1]
        self.ids = itertools.count()
        self.saved: list[tuple] = []

    def wrap(self, name, fn, note=None):
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter

        def traced(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), None))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end, None if note is None else note(args, result)))
            return result

        return traced

    def install(self):
        for module, attr, name, note in WRAPPED:
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def restore(self):
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)

    def run(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def write(self, path: str, job: str):
        """Append the spans; graphs and formula nodes kept as notes are
        reduced to counts and ids here, outside every span."""
        node_ids: dict = {}
        lines = []
        for sid, parent, name, start, end, note in self.spans:
            if name == "srg.build" and note is not None:
                lines.append(f"#job\t{job}\t{json.dumps(graph_properties(note))}\n")
                note = ""
            elif name == "dctl.sat" and note is not None:
                kind = _KINDS.get(type(note).__name__, LOCAL)
                note = f"{kind}:{node_ids.setdefault(note, len(node_ids))}"
            elif note is None:
                note = ""
            lines.append(f"span\t{job}\t{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t{note}\n")
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(lines)


def graph_properties(srg) -> dict:
    return {
        "states": len(srg.states),
        "arcs": len(srg.edges),
        "pseudo": sum(srg.pseudo),
        "distinct_tables": len({state.table for state in srg.states}),
        "distinct_markings": len({state.marking for state in srg.states}),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_child.py SPANS JOB -- <wftc arguments>", file=sys.stderr)
        return 2
    path, job, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run("cli.main", wftc.cli.main, cli_args)
    finally:
        tracer.restore()
    sys.stdout.flush()
    tracer.write(path, job)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
