"""The command line reader against the ``argparse`` parser it replaced.

``make_parser`` below is the parser ``wftc`` used before ``cli.read_args``;
over a seeded set of argument lists both must read the same values, or
both must exit with the same code."""

import argparse
import contextlib
import io
import random

import pytest

from wftc import cli
from wftc.cli import EXIT_OK, EXIT_USAGE, read_args
from wftc.srg import CONSTRAINED, UNCONSTRAINED


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
    p_build.set_defaults(func=cli.cmd_build)

    p_verify = sub.add_parser("verify", help="check formulas over the graph")
    common(p_verify)
    p_verify.add_argument("--formula", action="append", help="formula text")
    p_verify.add_argument(
        "--formula-file", action="append", help="file with one formula per line"
    )
    p_verify.set_defaults(func=cli.cmd_verify)

    p_metrics = sub.add_parser("metrics", help="run the built-in metric suite")
    common(p_metrics)
    p_metrics.set_defaults(func=cli.cmd_metrics)
    return parser


# flags as typed: full, cut to a unique prefix, ambiguous, another
# command's, unknown, and the help flag; per command
COMMON_SPELLINGS = ["--mode", "--mo", "--m", "--output", "--out", "--o", "--bogus", "-x", "-m"]
SPELLINGS = {
    "build": COMMON_SPELLINGS + ["--dot", "--d", "--json", "--js", "--j", "--formula"],
    "verify": COMMON_SPELLINGS + ["--formula", "--formula-file", "--formula-f", "--form", "--f", "--dot"],
    "metrics": COMMON_SPELLINGS + ["--json"],
}
HELPS = ["-h", "--help", "--he"]
# option values: choices, bad choices, paths, and words that start with
# "-": negative numbers and words with a space are values, the rest options
VALUES = [
    CONSTRAINED, UNCONSTRAINED, "text", "json", "sideways", "Text", "", "out.json", "EF p13",
    "-5", "-1.5", "-.5", "- x", "-", "-x", "--mode", "--bogus",
]
# positional words; after ``--`` any word is positional
MODELS = ["m.wftc", "other.wftc", "-5", "- x", "a b", ""]
AFTER_DASHES = MODELS + ["-m.wftc", "--mode", "-h"]


def random_argv(rng: random.Random) -> list[str]:
    command = rng.choice(["build", "verify", "metrics"] * 6 + ["bild", "BUILD", "metric", "-5"])
    options = []
    for _ in range(rng.randint(0, 4)):
        flag = rng.choice(SPELLINGS.get(command, COMMON_SPELLINGS) if rng.random() > 0.03 else HELPS)
        value = rng.choice(VALUES)
        form = rng.random()
        options.append([flag, value] if form < 0.6 else [f"{flag}={value}"] if form < 0.9 else [flag])
    positional = [[word] for word in rng.choices(MODELS, k=rng.choice([0, 1, 1, 1, 1, 2]))]
    if positional and rng.random() < 0.2:
        # ``--`` ends the options, so every word after it is positional
        words = [rng.choice(AFTER_DASHES) for _ in positional]
        units = options + [["--", *words]]
    else:
        units = options + positional
        rng.shuffle(units)
    before = [rng.choice(["--bogus", "-z", *HELPS])] if rng.random() < 0.05 else []
    argv = before + [command] + [word for unit in units for word in unit]
    return argv[: rng.randrange(len(argv) + 1)] if rng.random() < 0.05 else argv


def outcome(read, argv):
    """``("values", dict)`` or ``("exit", code)``, with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            values = dict(vars(read(argv)))
    except SystemExit as exc:
        return ("exit", exc.code), out.getvalue(), err.getvalue()
    return ("values", values), out.getvalue(), err.getvalue()


def reference_read(parser):
    def read(argv):
        namespace = parser.parse_args(argv)
        func = vars(namespace).pop("func")
        assert func is cli.COMMANDS[namespace.command][0]
        return namespace

    return read


@pytest.mark.parametrize("seed", range(4))
def test_reader_reads_what_argparse_read(seed):
    rng = random.Random(seed)
    reference = reference_read(make_parser())
    seen = set()
    for _ in range(600):
        argv = random_argv(rng)
        expected, _, _ = outcome(reference, argv)
        found, out, err = outcome(read_args, argv)
        assert found == expected, argv
        seen.add(found[0] if found[0] == "values" else found)
        if found == ("exit", EXIT_USAGE):
            usage, error = err.splitlines()
            assert usage.startswith("usage: wftc") and ": error: " in error, argv
            assert out == ""
        elif found == ("exit", EXIT_OK):
            assert out.startswith("usage: wftc") and err == ""
    assert seen == {"values", ("exit", EXIT_USAGE), ("exit", EXIT_OK)}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--formula", "a", "m", "--formula=b", "--formula-file", "f", "--formula-f=g"],
        ["build", "--mode", UNCONSTRAINED, "m", "--mode=constrained", "--mo", UNCONSTRAINED],
        ["build", "--output=json", "--j", "-5", "--d=", "--", "-m.wftc"],
        ["metrics", "--o", "json", "--", "--mode"],
        ["verify", "m", "--formula", "-1.5", "--formula", "- x"],
    ],
)
def test_reader_reads_the_documented_forms(argv):
    found = outcome(read_args, argv)
    assert found[0][0] == "values"
    assert found == outcome(reference_read(make_parser()), argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "wftc: error: the following arguments are required: command"),
        (["build"], "wftc build: error: the following arguments are required: model"),
        (["bild", "m"], "wftc: error: argument command: invalid choice: 'bild' (choose from 'build', 'verify', 'metrics')"),
        (
            ["build", "m", "--mode", "sideways"],
            "wftc build: error: argument --mode: invalid choice: 'sideways' (choose from 'constrained', 'unconstrained')",
        ),
        (["verify", "m", "--f", "x"], "wftc verify: error: ambiguous option: --f could match --formula, --formula-file"),
        (["verify", "m", "--formula"], "wftc verify: error: argument --formula: expected one argument"),
        (["verify", "m", "--formula", "-x"], "wftc verify: error: argument --formula: expected one argument"),
        (["build", "m", "n", "--bogus"], "wftc: error: unrecognized arguments: --bogus n"),
        (["build", "-h=x"], "wftc build: error: argument -h/--help: ignored explicit argument 'x'"),
    ],
)
def test_a_usage_error_is_the_usage_line_and_one_error_line(argv, message):
    (_, code), out, err = outcome(read_args, argv)
    prog = message.split(":")[0]  # "wftc" or "wftc COMMAND"
    usage = cli._usage(prog[5:] or None)
    assert (code, out, err) == (EXIT_USAGE, "", f"{usage}\n{message}\n")


@pytest.mark.parametrize("argv", [["-h"], ["--he"], ["build", "-h"], ["--bogus", "verify", "--bogus", "--help"]])
def test_help_lists_each_command_or_option_and_exits_ok(argv):
    (_, code), out, err = outcome(read_args, argv)
    assert (code, err) == (EXIT_OK, "")
    command = next((word for word in argv if word in cli.COMMANDS), None)
    assert out.splitlines()[0] == cli._usage(command)
    names = cli.COMMANDS if command is None else [flag for flag, *_ in cli.COMMANDS[command][2]]
    for name in [*names, "-h, --help"]:
        assert f"\n  {name}" in out
