"""Workload generation: models, formula files and the job list of each
workload.

Every input is generated from the bundled fixtures under ``src/wftc/fixtures``
and, for the random CTL formulas of ``table-verify``, from the seed. Table-n is ``motivating.wftc``
with the ``User`` table grown to the rows ``idK, licenseK, copyK`` for
K = 1..n; it is a stand-in for the paper's table-size study, not a
reproduction of it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = Path("src") / "wftc" / "fixtures"

TABLE_VERIFY = "table-verify"
PSEUDO_BUILD = "pseudo-build"
WORKLOADS = (TABLE_VERIFY, PSEUDO_BUILD)

FORMULA_COUNT = 250
FORMULA_DEPTH = 4
# The operator trees come from this fixed seed and only the place atoms
# from the benchmark's seed, so every seed asks for about the same work.
SHAPE_SEED = 2307

_TABLE_ROWS = re.compile(r"(\[TABLE\] User\(Id, License, Copy\)\n)((?:  id\d+,.*\n)+)")
_PLACES = re.compile(r"^\[PLACES\]\s+(.*)$", re.MULTILINE)


@dataclass
class Job:
    """One CLI call. ``key`` names its entry in ``expected.json``;
    ``formulas`` holds the generated formula trees a verify job checks,
    whose verdicts come from the oracle instead of the expected file."""

    name: str
    key: str
    args: list[str]
    formulas: list[tuple] = field(default_factory=list)
    exports: dict[str, str] = field(default_factory=dict)


def table_model(n: int) -> str:
    """``motivating.wftc`` with an n-row ``User`` table."""
    text = (FIXTURES / "motivating.wftc").read_text(encoding="utf-8")
    rows = "".join(f"  id{k}, license{k}, copy{k}\n" for k in range(1, n + 1))
    grown, count = _TABLE_ROWS.subn(lambda m: m.group(1) + rows, text)
    if count != 1:
        raise ValueError("motivating.wftc has no User table to grow")
    return grown


def place_names(model_text: str) -> list[str]:
    match = _PLACES.search(model_text)
    if match is None:
        raise ValueError("model has no [PLACES] section")
    return match.group(1).split("#")[0].split()


# ---------------------------------------------------------------------------
# random CTL formulas over place atoms and deadlock

_UNARY = ("not", "EX", "AX", "EF", "AF", "EG", "AG")
_BINARY = ("and", "or", "imp", "EU", "AU")


def random_formula(shapes: random.Random, atoms: random.Random, places: list[str], depth: int) -> tuple:
    """A formula tree of at most ``depth`` levels whose operators are drawn
    from ``shapes`` and whose places from ``atoms``. Leaves are
    ``("ap", place)``, ``("deadlock",)`` or ``("true",)``."""
    if depth <= 1 or shapes.random() < 0.15:
        roll = shapes.random()
        if roll < 0.1:
            return ("deadlock",)
        if roll < 0.15:
            return ("true",)
        return ("ap", atoms.choice(places))
    op = shapes.choice(_UNARY + _BINARY)
    children = [random_formula(shapes, atoms, places, depth - 1) for _ in range(1 if op in _UNARY else 2)]
    return (op, *children)


def formula_text(node: tuple) -> str:
    """Fully parenthesised surface syntax of a formula tree."""
    op = node[0]
    if op == "ap":
        return node[1]
    if op in ("true", "deadlock"):
        return op
    if op == "not":
        return f"!({formula_text(node[1])})"
    if op in ("and", "or", "imp"):
        sym = {"and": "&", "or": "|", "imp": "->"}[op]
        return f"({formula_text(node[1])} {sym} {formula_text(node[2])})"
    if op in ("EU", "AU"):
        return f"{op[0]}(({formula_text(node[1])}) U ({formula_text(node[2])}))"
    return f"{op} ({formula_text(node[1])})"


def formula_file(seed: int, places: list[str], count: int) -> tuple[list[tuple], str]:
    shapes, atoms = random.Random(SHAPE_SEED), random.Random(seed)
    trees = [random_formula(shapes, atoms, places, FORMULA_DEPTH) for _ in range(count)]
    lines = [f"# {count} random CTL formulas, seed {seed}"]
    lines += [formula_text(tree) for tree in trees]
    return trees, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# job lists


def _model_file(work: Path, n: int) -> str:
    path = work / f"table-{n}.wftc"
    path.write_text(table_model(n), encoding="utf-8")
    return str(path)


def make_jobs(workload: str, seed: int, work: Path, quick: bool) -> list[Job]:
    """Write the inputs of ``workload`` into ``work`` and return its jobs.

    ``quick`` keeps only the smallest instance of each job. All paths are
    relative to the checkout root, where the jobs run.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload == TABLE_VERIFY:
        sizes = (8,) if quick else (8, 12, 16)
        jobs = [
            Job(f"metrics-{n}", f"metrics table-{n}", ["metrics", _model_file(work, n)])
            for n in sizes
        ]
        if not quick:
            args = ["verify", _model_file(work, 16)]
            args += ["--formula-file", str(FIXTURES / "requirements.dctl")]
            jobs.append(Job("verify-16", "verify-requirements table-16", args))
        n = 2 if quick else 32
        model = _model_file(work, n)
        places = place_names(Path(model).read_text(encoding="utf-8"))
        trees, text = formula_file(seed, places, 20 if quick else FORMULA_COUNT)
        formulas = work / f"ctl-{seed}.dctl"
        formulas.write_text(text, encoding="utf-8")
        args = ["verify", model, "--formula-file", str(formulas)]
        jobs.append(Job(f"verify-ctl-{n}", f"verify-ctl table-{n}", args, formulas=trees))
        return jobs
    if workload == PSEUDO_BUILD:
        models = [("wfd", str(FIXTURES / "motivating-wfd.wftc"))]
        if not quick:
            models += [(f"table-{n}", _model_file(work, n)) for n in (4, 6)]
        jobs = []
        for label, model in models:
            exports = {"json": str(work / f"{label}.json"), "dot": str(work / f"{label}.dot")}
            args = ["build", model, "--mode", "unconstrained"]
            args += ["--json", exports["json"], "--dot", exports["dot"]]
            jobs.append(Job(f"build-{label}", f"build-unconstrained {label}", args, exports=exports))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
