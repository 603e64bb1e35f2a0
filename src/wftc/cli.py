"""Command line front end: build graphs, verify formulas, run metrics.

Exit codes: 0 all verdicts true, 1 some verdict false, 2 usage or parse
error, 3 state-ceiling exceeded, input nested too deeply for the stack or
memory exhausted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .model import EvalError, ModelError, deferred
from .srg import CONSTRAINED, DEFAULT_STATE_LIMIT, UNCONSTRAINED, ResourceLimitError, build_srg
from .textio import ParseError, parse_model

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# imported on first access, so that each command compiles only what it runs:
# ``build`` neither the evaluator nor the formula parser, nor the writers
# unless it exports; looked up when a command runs, so a name rebound here
# is the one called
__getattr__ = deferred(
    __name__,
    {"builtin_metrics": "dctl", "verify": "dctl", "parse_dctl": "dctlparse"}
    | dict.fromkeys(("export_dot", "export_json"), "export"),
)


def _bound(name: str):
    bound = globals()
    return bound[name] if name in bound else __getattr__(name)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a byte-order mark is no content
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _same_file(a: str, b: str) -> bool:
    both = os.path.exists(a) and os.path.exists(b)  # then also through a hard link
    return os.path.samefile(a, b) if both else os.path.realpath(a) == os.path.realpath(b)


class _Counted:
    # an export returns its stream, and perfbench/trace_child.py records len() of it: the characters written
    def __init__(self, handle):
        self.handle, self.chars = handle, 0

    def write(self, text: str):
        self.chars += len(text)
        self.handle.write(text)

    def __len__(self) -> int:
        return self.chars


def _state_limit() -> int:
    """The state ceiling of a build: ``WFTC_STATE_LIMIT`` when set."""
    raw = os.environ.get("WFTC_STATE_LIMIT")
    if not raw:
        return DEFAULT_STATE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ParseError(f"WFTC_STATE_LIMIT must be a positive integer, got {raw!r}")
    return limit


def _build(args):
    return build_srg(parse_model(_read(args.model)), args.mode, _state_limit())


def _report(args, srg, checked=()) -> int:
    """Print the size of ``srg`` and one entry per ``(name, Verdict or
    reason text, extra fields)`` in ``checked``, as JSON or aligned text.
    A reason is no verdict, so only a FALSE verdict makes the exit code
    EXIT_FALSE."""
    formulas, all_hold = [], True
    for name, verdict, extra in checked:
        if isinstance(verdict, str):
            entry = {"name": name, "verdict": verdict}
        else:
            all_hold &= verdict.holds
            entry = {
                "name": name,
                "verdict": "TRUE" if verdict.holds else "FALSE",
                "satCount": verdict.sat_bits.bit_count(),
            }
            if verdict.evidence:
                entry["evidence"] = verdict.evidence
        formulas.append(entry | extra)
    states, arcs, pseudo = len(srg.states), len(srg.edges), sum(srg.pseudo)
    if args.output == "json":
        payload = {
            "model": args.model,
            "mode": srg.mode,
            "stateCount": states,
            "arcCount": arcs,
            "pseudoCount": pseudo,
            "buildMillis": round(srg.build_millis, 3),
            "formulas": formulas,
        }
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        rows = [
            ("model", args.model),
            ("mode", srg.mode),
            ("states", states),
            ("arcs", arcs),
            ("pseudo states", pseudo),
            ("build millis", f"{srg.build_millis:.1f}"),
        ]
        width = max(len(key) for key, _ in rows)
        lines = [f"{key:{width}}  {value}" for key, value in rows]
        if formulas:
            width = max(len(entry["name"]) for entry in formulas)
            lines.append("")
            for entry in formulas:
                sat = f"  |Sat|={entry['satCount']}" if "satCount" in entry else ""
                evidence = f"  evidence: {' -> '.join(entry['evidence'])}" if "evidence" in entry else ""
                lines.append(f"{entry['name']:{width}}  {entry['verdict']}{sat}{evidence}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_hold else EXIT_FALSE


def cmd_build(args) -> int:
    # the writers are resolved before the build, as the evaluator is in
    # ``cmd_verify``, and no file is opened until the graph is built; each
    # writer streams its document to its file a block at a time
    wanted = (("--json", args.json_out, "export_json"), ("--dot", args.dot, "export_dot"))
    exports = [(flag, path, _bound(name)) for flag, path, name in wanted if path]
    # no export may overwrite the model or the other export
    taken = [("the model", args.model)]
    for flag, path, _ in exports:
        for what, other in taken:
            if _same_file(path, other):
                raise ParseError(f"{flag} {path} would overwrite {what} {other}")
        taken.append((flag, path))
    srg = _build(args)
    for _, path, export in exports:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                export(srg, _Counted(handle))
        except OSError as exc:
            exc.filename = path  # a failed write names its file, as a failed open does
            raise
    return _report(args, srg)


def cmd_verify(args) -> int:
    # resolved before the graph exists, so that compiling the evaluator and
    # the parser does not add its transient memory to the graph's
    verify, parse_dctl = _bound("verify"), _bound("parse_dctl")
    net = parse_model(_read(args.model))
    # the formula texts are read before the build, so that a missing file or
    # an empty list stops the command before any state is built
    texts = list(args.formula or [])
    for path in args.formula_file or []:
        lines = (line.strip() for line in _read(path).split("\n"))
        texts.extend(line for line in lines if line and not line.startswith("#"))
    if not texts:
        raise ParseError("no formula given (use --formula or --formula-file)")
    srg = build_srg(net, args.mode, _state_limit())
    # parsed and verified one at a time, as the report reads them
    checked = (
        (f"phi{i}", verify(srg, parse_dctl(text, srg.net)), {"text": text})
        for i, text in enumerate(texts, start=1)
    )
    return _report(args, srg, checked)


def cmd_metrics(args) -> int:
    builtin_metrics = _bound("builtin_metrics")  # before the build, as in ``cmd_verify``
    srg = _build(args)
    results = builtin_metrics(srg)
    return _report(args, srg, ((name, verdict, {}) for name, verdict in results.items()))


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wftc",
        description="model checker for workflow nets with tables and constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="model file")
        p.add_argument(
            "--mode",
            choices=(CONSTRAINED, UNCONSTRAINED),
            default=CONSTRAINED,
            help="constraint handling during state-space construction",
        )
        p.add_argument(
            "--output", choices=("text", "json"), default="text", help="report format"
        )

    p_build = sub.add_parser("build", help="construct the state reachability graph")
    common(p_build)
    p_build.add_argument("--dot", help="write a Graphviz rendering here")
    p_build.add_argument(
        "--json", dest="json_out", help="write the full graph as JSON here"
    )
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="check formulas over the graph")
    common(p_verify)
    p_verify.add_argument("--formula", action="append", help="formula text")
    p_verify.add_argument(
        "--formula-file", action="append", help="file with one formula per line"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_metrics = sub.add_parser("metrics", help="run the built-in metric suite")
    common(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ModelError, EvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("error: input nested too deeply for the stack", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> int:
    """``main`` as a process of its own: the ``wftc`` console script and
    ``python -m wftc.cli``. A run makes no reference cycles worth a pass
    of the cyclic collector, so the collector stays off while it runs,
    and the heap is frozen on the way out, however ``main`` ends, so that
    the collection at interpreter shutdown has nothing to walk. ``main``
    itself leaves the collector as its caller set it."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
