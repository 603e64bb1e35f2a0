"""Command line front end: build graphs, verify formulas, run metrics.

Exit codes: 0 all verdicts true, 1 some verdict false, 2 usage or parse
error, 3 state-ceiling exceeded, input nested too deeply for the stack or
memory exhausted.
"""

from __future__ import annotations

import gc
import os
import re
import sys

from .model import EvalError, ModelError, deferred
from .srg import CONSTRAINED, DEFAULT_STATE_LIMIT, UNCONSTRAINED, ResourceLimitError, build_srg
from .textio import ParseError, json_text, parse_model

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
        sys.stdout.write(json_text(payload) + "\n")
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


# each command's options: flag, destination, choices (the first is the
# default), whether it repeats, and its help; every command reads one MODEL
COMMON = (
    ("--mode", "mode", (CONSTRAINED, UNCONSTRAINED), False, "constraint handling during state-space construction"),
    ("--output", "output", ("text", "json"), False, "report format"),
)
COMMANDS = {
    "build": (cmd_build, "construct the state reachability graph", (
        *COMMON,
        ("--dot", "dot", None, False, "write a Graphviz rendering here"),
        ("--json", "json_out", None, False, "write the full graph as JSON here"),
    )),
    "verify": (cmd_verify, "check formulas over the graph", (
        *COMMON,
        ("--formula", "formula", None, True, "formula text"),
        ("--formula-file", "formula_file", None, True, "file with one formula per line"),
    )),
    "metrics": (cmd_metrics, "run the built-in metric suite", COMMON),
}
HELP = ("-h", "--help")
_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


class Args:
    """What ``read_args`` read: ``command``, ``model`` and one attribute
    per option destination of the command."""

    def __init__(self, values: dict):
        vars(self).update(values)


def _metavar(dest: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else dest.upper()


def _usage(command) -> str:
    if command is None:
        return "usage: wftc [-h] {" + ",".join(COMMANDS) + "} ..."
    options = "".join(f" [{flag} {_metavar(dest, choices)}]" for flag, dest, choices, _, _ in COMMANDS[command][2])
    return f"usage: wftc {command} [-h]{options} model"


def _help(command) -> str:
    if command is None:
        about = "model checker for workflow nets with tables and constraints"
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        about = COMMANDS[command][1]
        rows = [("model", "model file")]
        rows += [(f"{flag} {_metavar(dest, choices)}", text) for flag, dest, choices, _, text in COMMANDS[command][2]]
    rows.append((", ".join(HELP), "show this help message and exit"))
    width = max(len(name) for name, _ in rows)
    return "\n".join([_usage(command), "", about, "", *(f"  {name:{width}}  {text}" for name, text in rows)]) + "\n"


def _fail(command, message: str):
    """A usage error: the usage line and one error line, exit 2."""
    prog = "wftc" if command is None else f"wftc {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _option(arg: str, flags, command):
    """``arg`` read among ``flags``: ``None`` for a positional word, else
    ``(flag, attached value or None)``, with flag ``None`` for an unknown
    option. A long flag may be cut to a unique prefix and take its value
    after ``=``; ``-`` alone, a negative number and a word with a space
    that names no flag are positional."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return name, value
    if arg[:2] == "--":
        found = [(flag, value if eq else None) for flag in flags if flag.startswith(name)]
    else:  # a short flag with its value attached
        found = [(flag, arg[2:]) for flag in flags if flag == arg[:2]]
    if len(found) > 1:
        _fail(command, f"ambiguous option: {arg} could match {', '.join(flag for flag, _ in found)}")
    if found:
        return found[0]
    return None if _NUMBER.fullmatch(arg) or " " in arg else (None, None)


def _print_help(command, value):
    if value is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(EXIT_OK)


def read_args(argv) -> Args:
    """The command and values ``argv`` names, read left to right against
    ``COMMANDS``. A usage error prints the usage line and one error line
    and exits 2; ``-h``/``--help`` prints the help and exits 0. Before
    the command only ``-h`` is an option; after it, the command's options
    come before or after MODEL, a repeating option appends and any other
    keeps its last value, and ``--`` makes every later word positional.
    An unknown option and a second positional word are reported once the
    words have been read, so a later ``-h`` still prints the help."""
    unknown = []
    for i, arg in enumerate(argv):
        # ``--`` before the command is read as the command, an invalid one
        found = _option(arg, HELP, None) if arg != "--" else None
        if found is None:
            break
        flag, value = found
        if flag is None:
            unknown.append(arg)
        else:
            _print_help(None, value)
    else:
        _fail(None, "the following arguments are required: command")
    command, words = argv[i], argv[i + 1 :]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    options = {flag: (dest, choices, repeats) for flag, dest, choices, repeats, _ in COMMANDS[command][2]}
    flags = (*HELP, *options)
    values = {"command": command, "model": None}
    values |= {dest: choices[0] if choices else None for dest, choices, _ in options.values()}
    # every word is read before any is used, so an ambiguous prefix is an
    # error even after -h; the first ``--`` ends the options
    end = words.index("--") if "--" in words else len(words)
    kinds = [_option(arg, flags, command) for arg in words[:end]]
    positional = []
    i = 0
    while i < end:
        arg, found = words[i], kinds[i]
        i += 1
        if found is None:
            positional.append(arg)
            continue
        flag, value = found
        if flag is None:
            unknown.append(arg)
            continue
        if flag in HELP:
            _print_help(command, value)
        if value is None:
            if i == end or kinds[i] is not None:
                _fail(command, f"argument {flag}: expected one argument")
            value = words[i]
            i += 1
        dest, choices, repeats = options[flag]
        if choices and value not in choices:
            listed = ", ".join(map(repr, choices))
            _fail(command, f"argument {flag}: invalid choice: {value!r} (choose from {listed})")
        values[dest] = [*(values[dest] or ()), value] if repeats else value
    positional += words[end + 1 :]
    if not positional:
        _fail(command, "the following arguments are required: model")
    values["model"] = positional[0]
    unknown += positional[1:]
    if unknown:
        _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
    return Args(values)


def main(argv=None) -> int:
    args = read_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[args.command][0](args)
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
