"""Per-layer metrics from a span file written by ``trace_child.py``.

A span's self time is its duration minus the durations of its direct
children; spans of one process never overlap, so that difference is the
part of its interval no child covers.
"""

from __future__ import annotations

import json
from collections import defaultdict

SAT_OPERATORS = ("ex", "eg", "eu", "au")


class Span:
    __slots__ = ("name", "parent", "duration", "note", "child_time")

    def __init__(self, name, parent, duration, note):
        self.name = name
        self.parent = parent
        self.duration = duration
        self.note = note
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def read_spans(path: str):
    """Spans keyed by ``(job, id)`` and the graph properties of each job."""
    spans: dict[tuple, Span] = {}
    graphs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "#job":
                graphs[fields[1]].append(json.loads(fields[2]))
                continue
            _, job, sid, parent, name, start, end, note = fields
            spans[(job, int(sid))] = Span(
                name, (job, int(parent)), float(end) - float(start), note
            )
    for span in spans.values():
        parent = spans.get(span.parent)
        if parent is not None:
            parent.child_time += span.duration
    return spans, graphs


def layer_metrics(path: str) -> dict[str, float]:
    """Aggregate the spans of every job in the file."""
    spans, graphs = read_spans(path)
    total = defaultdict(float)  # summed durations
    own = defaultdict(float)  # summed self times
    calls = defaultdict(int)
    notes = defaultdict(int)
    sat_nodes = defaultdict(set)  # job -> distinct node ids
    local_nodes = defaultdict(int)  # job -> state-local sat calls
    dropped = 0
    for (job, _), span in spans.items():
        name = span.name
        if name == "dctl.sat":
            kind, _, node = span.note.partition(":")
            name = f"dctl.sat.{kind or 'raised'}"
            sat_nodes[job].add(node)
            if kind == "local":
                local_nodes[job] += 1
        elif span.note:
            notes[name] += int(span.note)
            if name == "model.constraint_consistent" and span.note == "0":
                parent = spans.get(span.parent)
                dropped += parent is not None and parent.name == "srg.fire"
        total[name] += span.duration
        own[name] += span.self_time
        calls[name] += 1

    def graph_sum(key):
        return sum(g[key] for gs in graphs.values() for g in gs)

    states = graph_sum("states")
    states_of = {job: sum(g["states"] for g in gs) for job, gs in graphs.items()}
    sat_calls = sum(calls[f"dctl.sat.{k}"] for k in ("local", "bool", "temporal"))
    distinct = sum(len(ids) for ids in sat_nodes.values())
    successors = notes["srg.fire"]
    main_s = total["cli.main"]
    metrics = {
        "textio.parse_model_s": total["textio.parse_model"],
        "textio.parse_dctl_s": total["textio.parse_dctl"],
        "textio.export_json_s": total["textio.export_json"],
        "textio.export_dot_s": total["textio.export_dot"],
        "textio.export_bytes": notes["textio.export_json"] + notes["textio.export_dot"],
        "srg.build_s": total["srg.build"],
        "srg.build_self_s": own["srg.build"],
        "srg.enabled_calls": calls["srg.enabled"],
        "srg.enabled_true_ratio": _ratio(notes["srg.enabled"], calls["srg.enabled"]),
        "srg.fire_calls": calls["srg.fire"],
        "srg.fire_self_s": own["srg.fire"],
        "srg.refine_candidates": notes["srg.refine"],
        "srg.successors": successors,
        "srg.new_state_ratio": _ratio(states - sum(len(gs) for gs in graphs.values()), successors),
        "srg.states": states,
        "srg.arcs": graph_sum("arcs"),
        "srg.pseudo": graph_sum("pseudo"),
        "srg.distinct_tables": graph_sum("distinct_tables"),
        "srg.distinct_markings": graph_sum("distinct_markings"),
        "srg.tables_per_state": _ratio(graph_sum("distinct_tables"), states),
        "srg.states_per_s": _ratio(states, total["srg.build"]),
        "model.canonical_table_calls": calls["model.canonical_table"],
        "model.canonical_table_rows": notes["model.canonical_table"],
        "model.canonical_table_s": total["model.canonical_table"],
        "model.constraint_consistent_calls": calls["model.constraint_consistent"],
        "model.constraint_consistent_s": total["model.constraint_consistent"],
        "model.constraint_dropped": dropped,
        "dctl.verify_calls": calls["dctl.verify"],
        "dctl.verify_self_s": own["dctl.verify"],
        "dctl.precondition_s": total["dctl.precondition_set"],
        "dctl.sat_nodes": sat_calls,
        "dctl.sat_distinct_nodes": distinct,
        "dctl.sat_distinct_ratio": _ratio(distinct, sat_calls),
        "dctl.sat_local_s": own["dctl.sat.local"],
        "dctl.local_evals": sum(n * states_of.get(job, 0) for job, n in local_nodes.items()),
        "dctl.sat_bool_s": own["dctl.sat.bool"],
        "dctl.builtin_metrics_s": total["dctl.builtin_metrics"],
        "cli.main_s": main_s,
        "cli.self_s": own["cli.main"],
        "cli.covered_ratio": _ratio(main_s - own["cli.main"], main_s),
    }
    for op in SAT_OPERATORS:
        metrics[f"dctl.sat_{op}_s"] = total[f"dctl.sat_{op}"]
        metrics[f"dctl.sat_{op}_calls"] = calls[f"dctl.sat_{op}"]
    return metrics


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
