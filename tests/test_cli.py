"""Command line behaviour and exit codes."""

import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import wftc
from conftest import (
    METRIC_TEXTS,
    PREFIX_SHAPES,
    RECORD_READS,
    TINY_CHAIN,
    deepest_prefix,
    fixture_path,
    fixture_text,
    formula_seeds,
    formula_text,
    on_fresh_stack,
    requirement_texts,
    table_model,
)
from wftc import CONSTRAINED, UNCONSTRAINED, build_srg, export_dot, export_json, parse_dctl, parse_model
from wftc import dctl as ast
from wftc.cli import EXIT_FALSE, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from wftc.export import BLOCK

MOTIVATING = str(fixture_path("motivating.wftc"))
WFD = str(fixture_path("motivating-wfd.wftc"))


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_constrained(capsys):
    code, out, _ = run(capsys, "build", MOTIVATING, "--mode", "constrained")
    assert code == EXIT_OK
    assert "states         54" in out
    assert "pseudo states  0" in out


def test_build_unconstrained_wfd(capsys):
    code, out, _ = run(capsys, "build", WFD, "--mode", "unconstrained")
    assert code == EXIT_OK
    assert "states         147" in out
    assert "pseudo states  113" in out


def test_build_writes_exports(capsys, tmp_path):
    dot = tmp_path / "srg.dot"
    data = tmp_path / "srg.json"
    code, _, _ = run(
        capsys, "build", MOTIVATING, "--dot", str(dot), "--json", str(data)
    )
    assert code == EXIT_OK
    assert dot.read_text().startswith("digraph")
    payload = json.loads(data.read_text())
    assert len(payload["states"]) == 54



def chain_model(states: int) -> str:
    """A net whose graph is one path through ``states`` states."""
    places = " ".join(f"p{k}" for k in range(states))
    transitions = " ".join(f"t{k}" for k in range(1, states))
    arcs = " ".join(f"p{k - 1}->t{k} t{k}->p{k}" for k in range(1, states))
    return f"[PLACES] {places}\n[TRANSITIONS] {transitions}\n[ARCS] {arcs}\n[INITIAL] p0\n[FINAL] p{states - 1}\n"


# a transition name may hold any non-space character: here a quote and a
# backslash, which a DOT label escapes, and characters of two and three
# UTF-8 bytes, which JSON writes as escapes and DOT as they are
ODD_NAME = 't\u00e9"\\\u20ac'
STREAMED = {
    # nothing fires: the edge list is ``[]``
    "no-edges": ("[PLACES] p0 p1\n[TRANSITIONS] t\n[ARCS] p0->t t->p1\n[DATA] d\n"
                 "[OPS] t: rd(d)\n[INITIAL] p0\n[FINAL] p1\n", CONSTRAINED),
    "under-one-block": (fixture_text("motivating.wftc"), CONSTRAINED),
    "one-block-of-states": (chain_model(BLOCK), CONSTRAINED),
    "one-block-of-arcs": (chain_model(BLOCK + 1), CONSTRAINED),
    "several-blocks": (fixture_text("motivating-wfd.wftc"), UNCONSTRAINED),
    "escaped-label": (f"[PLACES] p0 p1\n[TRANSITIONS] {ODD_NAME} u\n"
                      f"[ARCS] p0->{ODD_NAME} {ODD_NAME}->p1 p0->u u->p1\n[INITIAL] p0\n[FINAL] p1\n", CONSTRAINED),
}


@pytest.mark.parametrize("model, mode", STREAMED.values(), ids=list(STREAMED))
def test_streamed_exports_equal_the_exported_text(capsys, tmp_path, monkeypatch, model, mode):
    srg = build_srg(parse_model(model), mode)
    texts = {export: export(srg) for export in (export_json, export_dot)}
    # what the command's writers return, as a tracer wrapping them sees it
    returned = {}
    for export in texts:
        def recorded(*args, export=export):
            returned[export] = len(result := export(*args))
            return result
        monkeypatch.setattr(wftc.cli, export.__name__, recorded, raising=False)
    path, dot, data = tmp_path / "model.wftc", tmp_path / "srg.dot", tmp_path / "srg.json"
    path.write_text(model, encoding="utf-8")
    code, _, _ = run(capsys, "build", str(path), "--mode", mode, "--dot", str(dot), "--json", str(data))
    assert code == EXIT_OK
    assert data.read_bytes() == texts[export_json].encode("utf-8")
    assert dot.read_bytes() == texts[export_dot].encode("utf-8")
    assert returned == {export: len(text) for export, text in texts.items()}
    # one write per block of arcs, one per block of states, and the close
    blocks = -(-len(srg.edges) // BLOCK) + -(-len(srg.states) // BLOCK) + 1
    for export, text in texts.items():
        stream = io.StringIO()
        assert export(srg, stream) is stream
        assert stream.getvalue() == text
        writes = []
        export(srg, SimpleNamespace(write=writes.append))
        assert ("".join(writes), len(writes)) == (text, blocks)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flag", ["--json", "--dot"])
def test_failed_export_write_exits_usage(flag):
    proc = subprocess.run(
        [sys.executable, "-m", "wftc.cli", "build", WFD, "--mode", UNCONSTRAINED, flag, "/dev/full"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(wftc.__file__).resolve().parents[1])},
    )
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert re.fullmatch(r"error: \[Errno \d+\] .*: '/dev/full'\n", proc.stderr), proc.stderr


# A child's ``ru_maxrss`` starts at its parent's resident size when it
# forks, and a test process can be larger than the build it measures, so
# each build is started from a small launcher that reports it.
LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_exports_cost_at_most_a_quarter_of_the_json_size(tmp_path):
    # each export is written a block at a time, so neither document is
    # ever held whole
    model = tmp_path / "table6.wftc"
    model.write_text(table_model(6), encoding="utf-8")
    data = tmp_path / "srg.json"
    env = {**os.environ, "PYTHONPATH": str(Path(wftc.__file__).resolve().parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
    peaks = []
    for extra in ([], ["--json", str(data), "--dot", str(tmp_path / "srg.dot")]):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCHER, "-m", "wftc.cli", "build", str(model), "--mode", UNCONSTRAINED, *extra],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        code, peak = map(int, proc.stdout.split())
        assert (proc.returncode, code, proc.stderr) == (0, EXIT_OK, "")
        peaks.append(peak * (1 if sys.platform == "darwin" else 1024))  # bytes on macOS, KiB elsewhere
    rise = peaks[1] - peaks[0]
    assert rise <= data.stat().st_size / 4, (peaks, data.stat().st_size)

def test_verify_phi1_true(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        MOTIVATING,
        "--formula",
        "AG((forall id1 in R, forall id2 in R),"
        " [id1 != id2 -> id1.license1 != id2.license2])",
    )
    assert code == EXIT_OK
    assert "TRUE" in out


def test_verify_phi2_false(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        MOTIVATING,
        "--formula",
        "EG((forall id10 in R), [id10.copy = true])",
    )
    assert code == EXIT_FALSE
    assert "FALSE" in out


def test_verify_trivial_true(capsys):
    code, out, _ = run(capsys, "verify", MOTIVATING, "--formula", "true")
    assert code == EXIT_OK


def test_verify_false_literal(capsys):
    code, out, _ = run(capsys, "verify", MOTIVATING, "--formula", "false", "--output", "json")
    assert code == EXIT_FALSE
    (entry,) = json.loads(out)["formulas"]
    assert (entry["verdict"], entry["satCount"]) == ("FALSE", 0)


def test_verify_formula_file(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        MOTIVATING,
        "--formula-file",
        str(fixture_path("requirements.dctl")),
    )
    assert code == EXIT_FALSE  # second requirement fails
    assert out.count("TRUE") == 1
    assert out.count("FALSE") == 1


def test_verify_bad_formula_exits_usage(capsys):
    code, _, err = run(capsys, "verify", MOTIVATING, "--formula", "p1 &&& p2")
    assert code == EXIT_USAGE
    assert "error" in err


def test_verify_unevaluable_formula_exits_usage(capsys):
    # temporal operators cannot sit below a record quantifier
    code, _, err = run(
        capsys, "verify", MOTIVATING, "--formula", "forall id1 in R, [EX p1]"
    )
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize(
    "attribute, code, out, err",
    [
        ("Licence", EXIT_USAGE, "", "error: unknown attribute Licence\n"),
        ("License", EXIT_FALSE, "phi1  FALSE  |Sat|=44  evidence: c0\n", ""),
    ],
)
def test_record_variable_reads_only_schema_attributes(capsys, attribute, code, out, err):
    # a misspelt column is an error, not the constant token "Licence"
    formula = f"AG((forall r in R), [r.Id = empty | r.{attribute} != empty])"
    result = run(capsys, "verify", MOTIVATING, "--formula", formula)
    assert (result[0], result[2]) == (code, err)
    assert result[1].endswith(out)


def test_metrics_table(capsys):
    code, out, _ = run(capsys, "metrics", MOTIVATING)
    assert code == EXIT_FALSE  # PM5 is false
    lines = [line for line in out.splitlines() if line.startswith("PM")]
    verdicts = {line.split()[0]: line.split()[1] for line in lines}
    assert verdicts == {
        "PM1": "TRUE",
        "PM2": "TRUE",
        "PM3": "TRUE",
        "PM4": "TRUE",
        "PM5": "FALSE",
    }


def test_parse_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.wftc"
    bad.write_text("[PLACES] p0 p0\n")
    code, _, err = run(capsys, "build", str(bad))
    assert code == EXIT_USAGE
    assert "error" in err


def test_guard_with_undeclared_predicate_exits_usage(capsys, tmp_path):
    bad = tmp_path / "bad.wftc"
    text = fixture_path("motivating.wftc").read_text(encoding="utf-8")
    bad.write_text(text.replace("g6 = pi3 & pi4 & pi5", "g6 = pi3 & pi4 & pi9"))
    code, _, err = run(capsys, "build", str(bad))
    assert code == EXIT_USAGE
    assert "guard g6 references unknown predicate pi9" in err


@pytest.mark.parametrize(
    "good, bad, message",
    [
        ("t2: ins(User: Id=id)", "t2: ins(User: Id)", "ins: expected attribute=value, got 'Id'"),
        (
            "t13: upd(User: License=license",
            "t13: upd(User: License",
            "upd: expected attribute=value, got 'License'",
        ),
    ],
    ids=["ins", "upd"],
)
def test_operation_without_equals_exits_usage(capsys, tmp_path, good, bad, message):
    text = fixture_text("motivating.wftc")
    line = text[: text.index(good)].count("\n") + 1
    model = tmp_path / "bad.wftc"
    model.write_text(text.replace(good, bad), encoding="utf-8")
    code, _, err = run(capsys, "build", str(model))
    assert code == EXIT_USAGE
    assert err == f"error: {message} at line {line}\n"


@pytest.mark.parametrize("place", ["zz1", "unknown1"])
def test_isolated_place_is_no_parse_error(capsys, tmp_path, place):
    # a workflow-shape finding, whatever the place is called
    model = tmp_path / "extra.wftc"
    model.write_text(fixture_text("motivating.wftc").replace("[PLACES] p0", f"[PLACES] {place} p0"))
    code, out, _ = run(capsys, "build", str(model))
    assert code == EXIT_OK
    assert "states         54" in out


def test_unbuildable_model_writes_no_export(capsys, tmp_path):
    # the build, which finds the undeclared item, runs before the writers
    data = tmp_path / "srg.json"
    model = model_with(tmp_path, "t0: wt(id, password)", "t0: wt(idx, password)")
    code, out, err = run(capsys, "build", model, "--json", str(data))
    assert (code, out, err) == (EXIT_USAGE, "", "error: wt(t0) references unknown data item idx\n")
    assert not data.exists()


def test_export_onto_the_model_or_the_other_export_exits_usage(capsys, tmp_path):
    # the clash is found before anything is built or written
    model = tmp_path / "m.wftc"
    text = fixture_text("motivating.wftc")
    model.write_text(text, encoding="utf-8")
    os.link(model, tmp_path / "hard.wftc")
    (tmp_path / "sub").mkdir()
    out = tmp_path / "g.out"
    cases = [
        (["--json", str(model)], f"--json {model} would overwrite the model {model}"),
        (["--dot", str(tmp_path / "sub" / ".." / "m.wftc")], f"--dot {tmp_path}/sub/../m.wftc would overwrite the model {model}"),
        (["--dot", str(tmp_path / "hard.wftc")], f"--dot {tmp_path}/hard.wftc would overwrite the model {model}"),
        (["--json", str(out), "--dot", str(out)], f"--dot {out} would overwrite --json {out}"),
        (["--json", str(out), "--dot", f"{tmp_path}/./g.out"], f"--dot {tmp_path}/./g.out would overwrite --json {out}"),
    ]
    for extra, message in cases:
        code, stdout, err = run(capsys, "build", str(model), *extra)
        assert (code, stdout, err) == (EXIT_USAGE, "", f"error: {message}\n"), extra
        assert model.read_text(encoding="utf-8") == text
        assert not out.exists()
    # an export that names another, existing file is written as before
    out.write_text("old", encoding="utf-8")
    code, _, _ = run(capsys, "build", str(model), "--json", str(out), "--dot", str(tmp_path / "g.dot"))
    assert code == EXIT_OK and json.loads(out.read_text())["initial"] == "c0"


def test_arc_to_undeclared_place_exits_usage(capsys, tmp_path):
    model = tmp_path / "bad.wftc"
    model.write_text(fixture_text("motivating.wftc").replace("t18->p13", "t18->p13 t18->unknown1"))
    code, _, err = run(capsys, "build", str(model))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "arc endpoint unknown1 not declared" in err


@pytest.mark.parametrize("content", [None, b"\xff"], ids=["directory", "undecodable"])
@pytest.mark.parametrize("where", ["model", "formula-file"])
def test_unreadable_file_exits_usage(capsys, tmp_path, content, where):
    path = tmp_path
    if content is not None:
        path = tmp_path / "input"
        path.write_bytes(content)
    if where == "model":
        args = ["build", str(path)]
    else:
        args = ["verify", MOTIVATING, "--formula-file", str(path)]
    code, _, err = run(capsys, *args)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_undecodable_formula_file_is_named(capsys, tmp_path):
    good, bad = tmp_path / "ok.dctl", tmp_path / "bad.dctl"
    good.write_text("EF p13\n", encoding="utf-8")
    bad.write_bytes("EF p13 # \u0434".encode("utf-8")[:-1] + b"\n")
    code, out, err = run(capsys, "verify", MOTIVATING, "--formula-file", str(good), "--formula-file", str(bad))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xd0 ")
    assert err.count("\n") == 1


def run_cli(*args):
    """The command line in a fresh interpreter, where the recursion budget
    is that of a real invocation."""
    return subprocess.run(
        [sys.executable, "-m", "wftc.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(wftc.__file__).resolve().parents[1])},
    )


def test_deep_formula_within_the_bound_verifies():
    proc = run_cli("verify", MOTIVATING, "--formula", "!" * 950 + "p0")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert "TRUE" in proc.stdout


def test_formula_nested_too_deep_exits_usage():
    proc = run_cli("verify", MOTIVATING, "--formula", "!" * 2000 + "p0")
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == "error: formula nested deeper than 960 levels, column 956\n"


DEEP_ERROR = "error: input nested too deeply for the stack\n"


def below(frames, fn, *args):
    """``fn(*args)``, called ``frames`` stack frames further down."""
    return fn(*args) if frames == 0 else below(frames - 1, fn, *args)


def test_formula_too_deep_for_the_callers_stack_exits_resource(capsys):
    # each prefix form nested as deep as it may verifies from a fresh stack,
    # but its parse or evaluation overflows when the caller holds 400 frames
    for shape in PREFIX_SHAPES:
        argv = ["verify", MOTIVATING, f"--formula={deepest_prefix(shape)}"]
        assert on_fresh_stack(main, argv) == EXIT_FALSE, shape
        capsys.readouterr()
        assert on_fresh_stack(below, 400, main, argv) == EXIT_RESOURCE, shape
        assert capsys.readouterr() == ("", DEEP_ERROR), shape


def model_with(tmp_path, good, bad):
    """``motivating.wftc`` with the text ``good`` replaced by ``bad``."""
    text = fixture_text("motivating.wftc")
    assert good in text
    model = tmp_path / "changed.wftc"
    model.write_text(text.replace(good, bad), encoding="utf-8")
    return str(model)


# a guard that parses by recursion deeper than the stack, three parser
# frames per bracket: the model text it replaces, and its replacement
DEEP_MODELS = {"brackets": ("g2 = !pi1", "g2 = !" + "(" * 990 + "pi1" + ")" * 990)}


@pytest.mark.parametrize("good, bad", DEEP_MODELS.values(), ids=DEEP_MODELS)
def test_model_too_deep_for_the_stack_exits_resource(tmp_path, good, bad):
    proc = run_cli("build", model_with(tmp_path, good, bad))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_RESOURCE, "", DEEP_ERROR)


def nested_guard(depth: int) -> str:
    """``pi1`` under ``depth`` brackets, each joining ``pi1`` by ``&`` or
    ``|`` in turn, which absorbs to ``pi1``."""
    text = "pi1"
    for level in range(depth):
        text = f"(pi1 {'&|'[level % 2]} {text})"
    return text


# a guard or constraint of 3 000 operands in one flat chain, which the
# parser gives one node, a run of 991 ``!`` it reads as one, and a guard
# 320 brackets deep: the text it replaces, its replacement and the
# (states, arcs) of the graph
LONG_MODELS = {
    "guard-chain": ("g1 = pi1 ;", "g1 = " + " & ".join(["pi1"] * 3000) + " ;", (54, 73)),
    "constraint": ("  (g1 & !g2) | (!g1 & g2)\n", "  " + " | ".join(["(g1 & !g2)"] * 3000) + "\n", (41, 56)),
    "negations": ("g2 = !pi1", "g2 = " + "!" * 991 + "pi1", (54, 73)),
    "brackets-320": ("g1 = pi1 ;", f"g1 = {nested_guard(320)} ;", (54, 73)),
}


@pytest.mark.parametrize("good, bad, counts", LONG_MODELS.values(), ids=LONG_MODELS)
def test_long_flat_guard_or_constraint_builds(tmp_path, good, bad, counts):
    proc = run_cli("build", model_with(tmp_path, good, bad), "--output", "json")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    report = json.loads(proc.stdout)
    assert (report["stateCount"], report["arcCount"]) == counts


@pytest.mark.parametrize(
    "good, bad",
    [("id1,", "EX,"), ("id1,", "forall,"), ("id1,", "empty,"), ("license2", "license²"), ("p13", "AG")],
    ids=["key-EX", "key-forall", "key-empty", "cell-superscript", "end-AG"],
)
def test_metrics_do_not_depend_on_token_names(capsys, tmp_path, good, bad):
    # a key, a table cell or the end place renamed to a formula keyword, or
    # to a token the formula grammar cannot read, instantiates every
    # template as before; each renamed key still sorts first
    code, out, err = run(capsys, "metrics", model_with(tmp_path, good, bad), "--output", "json")
    assert (code, err) == (EXIT_FALSE, "")
    assert [(f["name"], f["verdict"], f.get("satCount")) for f in json.loads(out)["formulas"]] == [
        ("PM1", "TRUE", 53),
        ("PM2", "TRUE", 54),
        ("PM3", "TRUE", 13),
        ("PM4", "TRUE", 53),
        ("PM5", "FALSE", 0),
    ]


def test_superscript_table_cell_builds(tmp_path):
    # ``²`` is a digit to ``str.isdigit`` but no number to ``int``, so it is
    # no numeric suffix of a fresh token
    proc = run_cli("build", model_with(tmp_path, "license2, copy2", "license², copy2"), "--output", "json")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    report = json.loads(proc.stdout)
    assert (report["stateCount"], report["arcCount"]) == (54, 73)


# malformed variants of ``motivating.wftc``: the text replaced, its
# replacement and how the message ends, where ``{line}`` is the line of the
# replaced text
MALFORMED_MODELS = {
    "place-and-transition": ("[TRANSITIONS] t0", "[TRANSITIONS] p0 t0", "names used as both place and transition: ['p0']"),
    "duplicate-arc": ("p0->t0", "p0->t0 p0->t0", "duplicate arc 'p0->t0' at line {line}"),
    "duplicate-data-item": ("[DATA] id password license copy", "[DATA] id password license copy id", "duplicate data item id"),
    "table-header": ("User(Id, License, Copy)", "User Id, License, Copy", "malformed table header 'User Id, License, Copy' at line {line}"),
    "table-no-attributes": ("User(Id, License, Copy)", "User()", "table needs at least one attribute at line {line}"),
    "ops-before-transition": ("t0: wt(id", "wt(id", "operation line without a transition: 'wt(id, password) sel(User.Id)' at line {line}"),
    "malformed-ins": ("ins(User: Id=id)", "ins(User Id=id)", "malformed ins(User Id=id) at line {line}"),
    "malformed-del": ("t12: dt(license)", "t12: del(User License)", "malformed del(User License) at line {line}"),
    "duplicate-predicate": ("pi4 = eq(id, id2)", "pi1 = eq(id, id2)", "duplicate predicate pi1 at line {line}"),
    "duplicate-guard": ("g2 = !pi1", "g1 = !pi1", "duplicate guard g1 at line {line}"),
    "two-guards": ("t16:g6", "t16:g6 t16:g5", "transition t16 mapped to two guards at line {line}"),
    "guard-trailing-tokens": ("pi3 & pi4 & pi5", "pi3 & pi4 pi5", "trailing tokens in expression at line {line}"),
    "guard-dangling-and": ("pi3 & pi4 & pi5", "pi3 & pi4 &", "dangling operator in expression at line {line}"),
    "guard-undeclared-predicates": (
        "g1 = pi1 ;",
        "g1 = pi9 | pi7 | pi8 ;",
        "guard g1 references unknown predicate pi7; guard g1 references unknown predicate pi8; "
        "guard g1 references unknown predicate pi9",
    ),
    "constraint-literal": ("(g5 & !g6) |", "(g5 & !(g6 | g5)) |", "constraint literals must be a guard or its negation at line {line}"),
    "initial-undeclared": ("[INITIAL] p0", "[INITIAL] p99", "start place 'p99' not declared"),
    "final-undeclared": ("[FINAL] p13", "[FINAL] p99", "end place 'p99' not declared"),
    "membership-without-table": (
        "[TABLE] User(Id, License, Copy)\n  id1, license1, copy1\n  id2, license2, copy2\n",
        "",
        "predicate pi3 needs table User which is not declared",
    ),
    "duplicate-attribute": (
        "[TABLE] User(Id, License, Copy)\n  id1, license1, copy1\n  id2, license2, copy2\n",
        "[TABLE] User(Id, License, Copy, Id)\n  id1, license1, copy1, id1\n  id2, license2, copy2, id2\n",
        "duplicate attribute User.Id",
    ),
}


@pytest.mark.parametrize("good, bad, message", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
def test_malformed_model_exits_usage(capsys, tmp_path, good, bad, message):
    text = fixture_text("motivating.wftc")
    assert text.count(good) == 1
    message = message.format(line=text[: text.index(good)].count("\n") + 1)
    code, out, err = run(capsys, "build", model_with(tmp_path, good, bad))
    # one line naming the problem, and no escaped exception
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("keyword", ["true", "false", "deadlock"])
def test_keyword_named_place_is_a_parse_error(capsys, tmp_path, keyword):
    # the end place named like a keyword would silently be the keyword
    model = model_with(tmp_path, "p13", keyword)
    code, out, err = run(capsys, "verify", model, "--formula", f"EF {keyword}")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: {keyword!r} is both a keyword and a place of the net;"
        f' write "{keyword}" for the place, column 4\n'
    )
    # the quoted form the message suggests names the place
    code, _, err = run(capsys, "verify", model, "--formula", f'EF "{keyword}"')
    assert (code, err) == (EXIT_OK, "")


def test_quoted_place_named_like_an_operator(capsys, tmp_path):
    # the end place named AG can be named in a formula only when quoted
    model = model_with(tmp_path, "p13", "AG")

    def verdict(path, formula):
        code, out, err = run(capsys, "verify", path, "--formula", formula, "--output", "json")
        assert err == ""
        (entry,) = json.loads(out)["formulas"]
        return code, entry["verdict"], entry["satCount"]

    for quoted, plain, holds in (('EF "AG"', "EF p13", (EXIT_OK, "TRUE")), ('AG "AG"', "AG p13", (EXIT_FALSE, "FALSE"))):
        got = verdict(model, quoted)
        assert got == verdict(MOTIVATING, plain)
        assert got[:2] == holds
    code, out, err = run(capsys, "verify", model, "--formula", 'EF "p13"')
    assert (code, out, err) == (EXIT_USAGE, "", "error: unknown place 'p13', column 4\n")


def test_byte_order_mark_is_no_content(capsys, tmp_path):
    model = tmp_path / "bom.wftc"
    model.write_bytes(b"\xef\xbb\xbf" + fixture_text("motivating.wftc").encode("utf-8"))
    code, out, err = run(capsys, "build", str(model), "--output", "json")
    assert (code, err) == (EXIT_OK, "")
    assert (json.loads(out)["stateCount"], json.loads(out)["arcCount"]) == (54, 73)
    plain, bom = tmp_path / "plain.dctl", tmp_path / "bom.dctl"
    formulas = fixture_text("requirements.dctl").encode("utf-8")
    plain.write_bytes(formulas)
    bom.write_bytes(b"\xef\xbb\xbf" + formulas)
    reports = []
    for path in (plain, bom):
        code, out, err = run(capsys, "verify", MOTIVATING, "--formula-file", str(path), "--output", "json")
        report = json.loads(out)
        report.pop("buildMillis")
        reports.append((code, err, report))
    assert reports[0] == reports[1]
    assert reports[0][2]["formulas"]


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "build", "/nonexistent.wftc")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "formulas, message",
    [
        (["--formula-file", "/nonexistent.dctl"], "/nonexistent.dctl"),
        ([], "no formula given (use --formula or --formula-file)"),
    ],
    ids=["missing-file", "no-formula"],
)
def test_verify_reads_its_formulas_before_the_build(capsys, monkeypatch, tmp_path, formulas, message):
    # table-32 has more than 100 states: a build would stop at the ceiling
    # with exit 3 before any formula was looked at
    model = tmp_path / "table-32.wftc"
    model.write_text(table_model(32), encoding="utf-8")
    monkeypatch.setenv("WFTC_STATE_LIMIT", "100")
    code, out, err = run(capsys, "verify", str(model), *formulas)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("limit", ["abc", "1e3", "0", "-5"])
def test_bad_state_limit_exits_usage(capsys, monkeypatch, limit):
    monkeypatch.setenv("WFTC_STATE_LIMIT", limit)
    code, out, err = run(capsys, "build", MOTIVATING)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: WFTC_STATE_LIMIT must be a positive integer, got {limit!r}\n"


def test_state_ceiling_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("WFTC_STATE_LIMIT", "5")
    code, _, err = run(capsys, "build", MOTIVATING)
    assert code == EXIT_RESOURCE
    assert "ceiling" in err


def test_json_report_roundtrips(capsys):
    code, out, _ = run(capsys, "build", MOTIVATING, "--output", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_build_reports_match_modulo_time(capsys):
    _, first, _ = run(capsys, "build", MOTIVATING, "--output", "json")
    _, second, _ = run(capsys, "build", MOTIVATING, "--output", "json")
    a, b = json.loads(first), json.loads(second)
    a.pop("buildMillis"), b.pop("buildMillis")
    assert a == b


def _header(model, states, arcs):
    return (
        f"model          {model}\nmode           constrained\nstates         {states}\n"
        f"arcs           {arcs}\npseudo states  0\nbuild millis   -\n"
    )


def _payload(model, states, arcs, formulas):
    return {"arcCount": arcs, "buildMillis": None, "formulas": formulas, "mode": "constrained",
            "model": model, "pseudoCount": 0, "stateCount": states}


def _verdict(name, verdict, sat=None, **extra):
    return {"name": name, "verdict": verdict, **({} if sat is None else {"satCount": sat}), **extra}


NOT_INSTANTIABLE = "not instantiable: needs a table with records"
REQUIREMENTS = str(fixture_path("requirements.dctl"))
# every report kind: no formulas, formula verdicts with their text, metric
# verdicts with evidence, and metrics reported by a reason
PINNED_REPORTS = {
    "build": (["build"], EXIT_OK, "", []),
    "verify": (
        ["verify", "--formula-file", REQUIREMENTS, "--formula", "EF deadlock"],
        EXIT_FALSE,
        "\nphi1  TRUE  |Sat|=13\nphi2  TRUE  |Sat|=54\nphi3  FALSE  |Sat|=0\n",
        [
            _verdict("phi1", "TRUE", 13, text="EF deadlock"),
            _verdict("phi2", "TRUE", 54, text="AG((forall id1 in R, forall id2 in R), [id1 != id2 -> id1.license1 != id2.license2])"),
            _verdict("phi3", "FALSE", 0, text="EG((forall id10 in R), [id10.copy = true])"),
        ],
    ),
    "metrics": (
        ["metrics"],
        EXIT_FALSE,
        "\nPM1  TRUE  |Sat|=53\nPM2  TRUE  |Sat|=54\nPM3  TRUE  |Sat|=13\nPM4  TRUE  |Sat|=53\n"
        "PM5  FALSE  |Sat|=0  evidence: c0\n",
        [_verdict("PM1", "TRUE", 53), _verdict("PM2", "TRUE", 54), _verdict("PM3", "TRUE", 13),
         _verdict("PM4", "TRUE", 53), _verdict("PM5", "FALSE", 0, evidence=["c0"])],
    ),
    "metrics-tableless": (
        ["metrics"],
        EXIT_OK,
        f"\nPM1  {NOT_INSTANTIABLE}\nPM2  {NOT_INSTANTIABLE}\nPM3  TRUE  |Sat|=2\n"
        f"PM4  {NOT_INSTANTIABLE}\nPM5  {NOT_INSTANTIABLE}\n",
        [_verdict("PM1", NOT_INSTANTIABLE), _verdict("PM2", NOT_INSTANTIABLE), _verdict("PM3", "TRUE", 2),
         _verdict("PM4", NOT_INSTANTIABLE), _verdict("PM5", NOT_INSTANTIABLE)],
    ),
}


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("kind", PINNED_REPORTS)
def test_report_bytes_are_pinned(capsys, tmp_path, kind, output):
    (command, *extra), code, text, formulas = PINNED_REPORTS[kind]
    model, states, arcs = MOTIVATING, 54, 73
    if kind == "metrics-tableless":
        model, states, arcs = str(tmp_path / "tiny.wftc"), 2, 1
        Path(model).write_text(TINY_CHAIN, encoding="utf-8")
    result = run(capsys, command, model, *extra, "--output", output)
    if output == "text":
        masked = re.sub(r"(?m)^(build millis   )\S+$", r"\1-", result[1])
        expected = _header(model, states, arcs) + text
    else:
        masked = re.sub(r'("buildMillis": )[0-9.]+', r"\1null", result[1])
        expected = json.dumps(_payload(model, states, arcs, formulas), indent=2, sort_keys=True) + "\n"
    assert (result[0], masked, result[2]) == (code, expected, "")


# ---------------------------------------------------------------------------
# start-up and robustness


# the modules only some commands load: the formula nodes, the state-local
# compiler, the evaluator, the formula parser and the two writers
DEFERRED = {"wftc.formula", "wftc.compiler", "wftc.dctl", "wftc.dctlparse", "wftc.export", "wftc.modeltext"}
EVALUATOR = {"wftc.formula", "wftc.compiler", "wftc.dctl"}


def loaded_by(module: str) -> set[str]:
    """The modules that importing ``module`` loads in a fresh interpreter."""
    code = f"import sys; before = set(sys.modules); import {module}; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(wftc.__file__).resolve().parents[1])},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return set(proc.stdout.split())


# standard-library modules no call loads: argparse (with gettext) and json
# cost milliseconds of start-up, and the argument reader and the JSON writer
# of the package do their work
NOT_LOADED = {"argparse", "gettext", "json"}


def test_import_leaves_out_dataclasses_and_inspect():
    # these cost start-up time on every call; nothing in wftc needs them,
    # and the deferred modules are imported only by the commands that run them
    loaded = loaded_by("wftc.cli")
    assert "wftc.cli" in loaded
    assert {"dataclasses", "inspect", *NOT_LOADED, *DEFERRED} & loaded == set()


def test_formula_parser_loads_the_nodes_but_not_the_evaluator():
    assert DEFERRED & loaded_by("wftc.dctlparse") == {"wftc.formula", "wftc.dctlparse"}


def imported_modules(stderr: str) -> set[str]:
    """The modules named in ``-X importtime`` output."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize(
    "command, loads",
    [
        (["build", MOTIVATING], set()),
        (["build", MOTIVATING, "--json", "{tmp}/srg.json", "--dot", "{tmp}/srg.dot"], {"wftc.export"}),
        (["verify", MOTIVATING, "--formula", "EF p13"], EVALUATOR | {"wftc.dctlparse"}),
        (["metrics", MOTIVATING], EVALUATOR),
    ],
    ids=["build", "build-exports", "verify", "metrics"],
)
def test_only_formula_commands_load_the_evaluator(tmp_path, command, loads):
    # each command compiles only the deferred modules whose code it runs,
    # and none loads argparse or json, also to write its report as JSON
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "wftc.cli", *(arg.format(tmp=tmp_path) for arg in command)]
        + ["--output", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(wftc.__file__).resolve().parents[1])},
    )
    assert proc.returncode in (EXIT_OK, EXIT_FALSE), proc.stderr
    modules = imported_modules(proc.stderr)
    assert {"wftc.model", "wftc.srg", "wftc.textio"} <= modules
    assert modules & DEFERRED == loads
    assert modules & NOT_LOADED == set()
    assert '"stateCount": 54' in proc.stdout


def test_evaluation_error_exits_usage_without_a_traceback():
    # ``main`` catches EvalError from model.py, so it needs no evaluator
    # import of its own to report one
    proc = run_cli("verify", MOTIVATING, "--formula", "forall r in R, [EX r.Id = id1]")
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == "error: temporal operator nested below a quantifier\n"


# the names the package took from ``dctl`` before it deferred them
DCTL_NAMES = ["Verdict", "builtin_metrics", "sat", "sat_au", "sat_eg", "sat_eu", "sat_ex", "verify"]


# the names each module resolves on first access, by the module that defines them
DEFERRED_NAMES = {
    "wftc": {
        **dict.fromkeys(DCTL_NAMES, "dctl"),
        "parse_dctl": "dctlparse",
        "serialize_model": "modeltext",
        **dict.fromkeys(["export_dot", "export_json"], "export"),
    },
    "wftc.cli": {
        "builtin_metrics": "dctl",
        "verify": "dctl",
        "parse_dctl": "dctlparse",
        "export_dot": "export",
        "export_json": "export",
    },
    "wftc.textio": {"parse_dctl": "dctlparse"},
}


def test_package_names_resolve_to_their_modules():
    from wftc import dctl, model, srg, textio

    deferred = DEFERRED_NAMES["wftc"]
    assert set(deferred) <= set(wftc.__all__)
    for name in set(wftc.__all__) - set(deferred):
        home = next(m for m in (model, srg, textio) if name in vars(m))
        assert getattr(wftc, name) is vars(home)[name], name
    for module, names in DEFERRED_NAMES.items():
        for name, home in names.items():
            defined = vars(importlib.import_module(f"wftc.{home}"))
            assert getattr(sys.modules[module], name) is defined[name], (module, name)
    assert dctl.EvalError is model.EvalError
    namespace: dict = {}
    exec("from wftc import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(wftc.__all__)
    for module in (wftc, wftc.cli, textio):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            module.nonexistent


def test_commands_call_the_evaluator_bound_on_the_cli_module(capsys, monkeypatch):
    from wftc import cli, dctl

    assert (cli.verify, cli.builtin_metrics) == (dctl.verify, dctl.builtin_metrics)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(cli, "verify", counted("verify", dctl.verify))
    monkeypatch.setattr(cli, "builtin_metrics", counted("builtin_metrics", dctl.builtin_metrics))
    run(capsys, "verify", MOTIVATING, "--formula", "EF p13", "--formula", "p0")
    run(capsys, "metrics", MOTIVATING)
    assert calls == ["verify", "verify", "builtin_metrics"]


FUZZ_CHARS = "()[],.:;=!&|-># \n0123456789_ptgiUxTF"


def mutate(rng: random.Random, text: str) -> str:
    """One to three random edits: delete, duplicate or swap lines, or
    delete, insert or replace a character."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        kind = rng.randrange(6)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(j, lines[i])
        elif kind == 2:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            pos = rng.randrange(len(text) + 1)
            new = "" if kind == 3 else rng.choice(FUZZ_CHARS)
            text = text[:pos] + new + text[pos + (kind != 4):]
            continue
        text = "\n".join(lines)
    return text


FUZZ_COMMANDS = [
    ["build"],
    ["metrics"],
    ["verify", "--formula-file", str(fixture_path("requirements.dctl")), "--formula", "EF p13"],
]


@pytest.mark.parametrize("fixture", ["motivating.wftc", "motivating-wfd.wftc"])
def test_mutated_models_exit_cleanly(capsys, tmp_path, monkeypatch, fixture):
    """Seeded mutants of a fixture through every command in both modes:
    a verdict, a usage error or the state ceiling, never an escaped
    exception or a traceback."""
    monkeypatch.setenv("WFTC_STATE_LIMIT", "3000")
    rng = random.Random(1)
    text = fixture_text(fixture)
    model = tmp_path / "mutant.wftc"
    codes = set()
    for k in range(100):
        mutant = mutate(rng, text)
        model.write_text(mutant, encoding="utf-8")
        command, *extra = FUZZ_COMMANDS[k % 3]
        mode = (CONSTRAINED, UNCONSTRAINED)[k // 3 % 2]
        try:
            code, _, err = run(capsys, command, str(model), "--mode", mode, *extra)
        except Exception as exc:
            pytest.fail(f"mutant {k} ({command}, {mode}) raised {exc!r}:\n{mutant}")
        assert code in (EXIT_OK, EXIT_FALSE, EXIT_USAGE, EXIT_RESOURCE), (k, mutant)
        assert "Traceback" not in err
        if code in (EXIT_USAGE, EXIT_RESOURCE):
            assert err.startswith("error: ") and err.count("\n") == 1, (k, err)
        codes.add(code)
    # the mutants reach verdicts as well as errors
    assert {EXIT_OK, EXIT_USAGE} <= codes


# tokens of the formula language, a misspelt attribute and a character
# outside it among them
FORMULA_PIECES = "( ) [ ] , . ! & | -> < <= = != >= > U E A EX AX EF AF EG AG forall exists in R r v Id License Licence p2 p13 id1 license2 empty true deadlock %".split()


def mutate_formula(rng: random.Random, text: str) -> str:
    """One or two random edits of the formula's tokens: delete one,
    insert a piece, swap a name for another name or a symbol for another
    symbol, or repeat a run of up to twelve."""
    tokens = re.findall(r"[\w']+|->|[<>!]=|\S", text)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(tokens) + 1)
        kind = rng.randrange(4)
        if kind == 0:
            del tokens[i : i + 1]
        elif kind == 1 or i == len(tokens):
            tokens.insert(i, rng.choice(FORMULA_PIECES))
        elif kind == 2:
            name = tokens[i][0].isalnum()
            tokens[i] = rng.choice([tok for tok in tokens + FORMULA_PIECES if tok[0].isalnum() == name])
        else:
            j = rng.randint(i, min(len(tokens), i + 12))
            tokens[j:j] = tokens[i:j]
    return " ".join(tokens)


def test_mutated_formulas_exit_cleanly(capsys):
    """Seeded mutants of the requirements, the metrics and the deepest
    prefix forms: a verdict or a one-line usage error, never an escaped
    exception."""
    rng = random.Random(11)
    seeds = formula_seeds()
    codes = set()
    for k in range(500):
        mutant = mutate_formula(rng, seeds[k % len(seeds)])
        try:
            # --formula=TEXT, so that a mutant starting with "-" stays a value
            code = on_fresh_stack(main, ["verify", MOTIVATING, f"--formula={mutant}"])
        except Exception as exc:
            pytest.fail(f"mutant {k} raised {exc!r}:\n{mutant}")
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_FALSE, EXIT_USAGE, EXIT_RESOURCE), (k, mutant)
        if code in (EXIT_USAGE, EXIT_RESOURCE):
            assert err.startswith("error: ") and err.count("\n") == 1, (k, err)
        else:
            assert err == "", (k, err)
        codes.add(code)
    # the mutants reach both verdicts as well as errors
    assert {EXIT_OK, EXIT_FALSE, EXIT_USAGE} <= codes


# the attribute names, comparison operators and constant tokens that
# ``mutate_matrix`` puts into a matrix: the schema's attributes, a
# misspelt one and a lower-case one, which makes its variable a literal
MATRIX_ATTRIBUTES = ["Id", "License", "Copy", "Licence", "license1"]
MATRIX_OPERATORS = ["=", "!=", "<", "<=", ">", ">="]
MATRIX_TOKENS = ["id1", "id3", "license2", "copy1"]

# well-formed seeds whose matrices hold a temporal operator that no
# table reaches until an edit makes the comparison before it go the
# other way, or turns a literal variable into a record variable
GUARDED_TEMPORAL = [
    "EF((exists r in R), [r.Id = empty & EF p13])",
    "AG((forall id1 in R), [id1.license1 = empty -> AF p13])",
    "EF((exists r in R, exists s in R), [r = s & s.Copy != empty & EX p2])",
]


def mutate_matrix(rng: random.Random, node):
    """``node`` with one or two comparisons below a quantifier edited:
    a new operator, a new attribute name, or an operand of another kind
    (a variable bound there, an attribute of one, a token or ``empty``).
    Nothing else changes, so the text of the result parses."""
    atoms = []

    def count(atom, bound):
        atoms.append(atom)
        return atom

    edit_matrices(node, count)
    chosen = set(rng.sample(range(len(atoms)), min(len(atoms), rng.randint(1, 2))))
    numbers = iter(range(len(atoms)))

    def edit(atom, bound):
        if next(numbers) not in chosen:
            return atom
        sides = [atom.lhs, atom.rhs]
        attributes = [i for i, term in enumerate(sides) if term[0] == "attr"]
        kind = rng.randrange(3)
        if kind == 0:
            return ast.DataAtom(atom.lhs, rng.choice(MATRIX_OPERATORS), atom.rhs)
        if kind == 1 and attributes:
            i = rng.choice(attributes)
            sides[i] = ("attr", sides[i][1], rng.choice(MATRIX_ATTRIBUTES))
        else:
            var = rng.choice(bound)
            sides[rng.randrange(2)] = rng.choice(
                [("var", var), ("attr", var, rng.choice(MATRIX_ATTRIBUTES)), ("const", rng.choice(MATRIX_TOKENS)), ("empty",)]
            )
        return ast.DataAtom(sides[0], atom.op, sides[1])

    return edit_matrices(node, edit)


def edit_matrices(node, edit, bound: tuple = ()):
    """``node`` with each comparison below a quantifier replaced by
    ``edit(atom, the variables bound there)``, left to right."""
    if isinstance(node, ast.DataAtom):
        return edit(node, bound) if bound else node
    if isinstance(node, ast.Quantifier):
        return ast.Quantifier(node.kind, node.var, edit_matrices(node.body, edit, bound + (node.var,)))
    return type(node)(*[edit_matrices(v, edit, bound) if isinstance(v, ast.Formula) else v for v in node._astuple()])


# the errors the evaluator raises for a comparison or a matrix
MATRIX_ERRORS = (
    "unknown attribute ",
    "ordered comparison of whole records",
    "temporal operator nested below a quantifier",
)


def test_mutated_matrices_reach_the_evaluators_errors(capsys, motivating_net):
    """Seeded well-formed mutants of the quantified seeds: a verdict or
    one usage error line, and between them every error of
    ``MATRIX_ERRORS``."""
    rng = random.Random(5)
    seeds = requirement_texts() + list(METRIC_TEXTS.values()) + [RECORD_READS] + GUARDED_TEMPORAL
    trees = [parse_dctl(text, motivating_net) for text in seeds]
    reached = set()
    for k in range(300):
        mutant = formula_text(mutate_matrix(rng, trees[k % len(trees)]))
        parse_dctl(mutant, motivating_net)  # well-formed, so an exit 2 is the evaluator's
        code, _, err = run(capsys, "verify", MOTIVATING, f"--formula={mutant}")
        assert code in (EXIT_OK, EXIT_FALSE, EXIT_USAGE), (k, mutant)
        if code == EXIT_USAGE:
            assert err.startswith("error: ") and err.count("\n") == 1, (k, mutant, err)
            reached.update(error for error in MATRIX_ERRORS if err.startswith(f"error: {error}"))
        else:
            assert err == "", (k, err)
    assert reached == set(MATRIX_ERRORS)
