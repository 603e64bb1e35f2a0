"""Command line front end: build graphs, verify formulas, run metrics.

Exit codes: 0 all verdicts true, 1 some verdict false, 2 usage or parse
error, 3 state-ceiling exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .model import EvalError, ModelError, Struct
from .srg import CONSTRAINED, UNCONSTRAINED, ResourceLimitError, build_srg, srg_stats
from .textio import ParseError, export_dot, export_json, parse_dctl, parse_model

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# imported from ``dctl`` on first access, so that ``build`` never compiles the
# evaluator; looked up when a command runs, so a name rebound here is the one called
_DCTL_NAMES = ("PM_NAMES", "Verdict", "builtin_metrics", "verify")


def __getattr__(name):
    if name not in _DCTL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dctl

    return getattr(dctl, name)


def _dctl(name: str):
    bound = globals()
    return bound[name] if name in bound else __getattr__(name)


class RunReport(Struct):
    __slots__ = _fields = (
        "model", "mode", "state_count", "arc_count", "pseudo_count", "build_millis", "formulas"
    )

    def __init__(
        self,
        model: str,
        mode: str,
        state_count: int,
        arc_count: int,
        pseudo_count: int,
        build_millis: float,
        formulas: list[dict] | None = None,
    ):
        self.model = model
        self.mode = mode
        self.state_count = state_count
        self.arc_count = arc_count
        self.pseudo_count = pseudo_count
        self.build_millis = build_millis
        self.formulas = [] if formulas is None else formulas

    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "mode": self.mode,
            "stateCount": self.state_count,
            "arcCount": self.arc_count,
            "pseudoCount": self.pseudo_count,
            "buildMillis": round(self.build_millis, 3),
            "formulas": self.formulas,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        rows = [
            ("model", self.model),
            ("mode", self.mode),
            ("states", str(self.state_count)),
            ("arcs", str(self.arc_count)),
            ("pseudo states", str(self.pseudo_count)),
            ("build millis", f"{self.build_millis:.1f}"),
        ]
        width = max(len(k) for k, _ in rows)
        lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
        if self.formulas:
            name_width = max(len(f["name"]) for f in self.formulas)
            lines.append("")
            for entry in self.formulas:
                verdict = entry["verdict"]
                extra = ""
                if "satCount" in entry:
                    extra = f"  |Sat|={entry['satCount']}"
                if entry.get("evidence"):
                    extra += f"  evidence: {' -> '.join(entry['evidence'])}"
                lines.append(f"{entry['name'].ljust(name_width)}  {verdict}{extra}")
        return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


# characters per write: encoding a slice at a time keeps the bytes of a
# large export from being a second full copy of it in memory
_SLICE = 1 << 20


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, len(text), _SLICE):
            handle.write(text[start : start + _SLICE])


def _build(args):
    net = parse_model(_read(args.model))
    srg = build_srg(net, args.mode)
    return net, srg


def _report(args, srg) -> RunReport:
    stats = srg_stats(srg)
    return RunReport(
        model=args.model,
        mode=srg.mode,
        state_count=stats.state_count,
        arc_count=stats.arc_count,
        pseudo_count=stats.pseudo_count,
        build_millis=stats.build_millis,
    )


def _verdict_entry(name: str, verdict) -> dict:
    if isinstance(verdict, _dctl("Verdict")):
        entry = {
            "name": name,
            "verdict": "TRUE" if verdict.holds else "FALSE",
            "satCount": verdict.sat_bits.bit_count(),
        }
        if verdict.evidence:
            entry["evidence"] = verdict.evidence
        return entry
    return {"name": name, "verdict": str(verdict)}


def cmd_build(args) -> int:
    net, srg = _build(args)
    report = _report(args, srg)
    if args.dot:
        _write(args.dot, export_dot(srg))
    if args.json_out:
        _write(args.json_out, export_json(srg))
    _emit(args, report)
    return EXIT_OK


def cmd_verify(args) -> int:
    net, srg = _build(args)
    report = _report(args, srg)
    texts = list(args.formula or [])
    for path in args.formula_file or []:
        lines = (line.strip() for line in _read(path).split("\n"))
        texts.extend(line for line in lines if line and not line.startswith("#"))
    if not texts:
        raise ParseError("no formula given (use --formula or --formula-file)")
    all_hold = True
    for i, text in enumerate(texts, start=1):
        formula = parse_dctl(text, net)
        verdict = _dctl("verify")(srg, formula)
        all_hold &= verdict.holds
        report.formulas.append(_verdict_entry(f"phi{i}", verdict) | {"text": text})
    _emit(args, report)
    return EXIT_OK if all_hold else EXIT_FALSE


def cmd_metrics(args) -> int:
    net, srg = _build(args)
    report = _report(args, srg)
    results = _dctl("builtin_metrics")(srg)
    all_hold = True
    for name in _dctl("PM_NAMES"):
        verdict = results[name]
        if isinstance(verdict, _dctl("Verdict")):
            all_hold &= verdict.holds
        report.formulas.append(_verdict_entry(name, verdict))
    _emit(args, report)
    return EXIT_OK if all_hold else EXIT_FALSE


def _emit(args, report: RunReport):
    sys.stdout.write(report.to_json() if args.output == "json" else report.to_text())


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


if __name__ == "__main__":
    sys.exit(main())
