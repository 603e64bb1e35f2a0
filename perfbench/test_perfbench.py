"""Tests of the benchmark itself; they time nothing.

    python -m pytest perfbench -q

Run from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_quick_mode_matches_every_fingerprint():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"], capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3


def test_wrong_expected_count_makes_fail_ratio_nonzero(monkeypatch, tmp_path, capsys):
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    expected["build-unconstrained wfd"]["pseudo"] = 112
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED", wrong)
    run.quick([workloads.PSEUDO_BUILD])
    out = capsys.readouterr().out
    result = last_json_line(out)
    assert result["failed"] == 1 and not result["correct"]
    assert "fail_ratio                           1 ratio" in out


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_agrees_with_cli_verdicts(seed):
    env = run.child_env()
    work = run.SCRATCH / f"test-oracle-{seed}"
    jobs = workloads.make_jobs(workloads.TABLE_VERIFY, seed, work, quick=True)[-1:]
    expected = run.load_expected(jobs, env, work)
    verdicts = expected[jobs[0].key]["verdicts"]
    assert "TRUE" in verdicts and "FALSE" in verdicts
    tally = run.Tally()
    run.run_pass(jobs, env, work, expected, tally, [])
    assert tally.failed == 0


def test_oracle_semantics_at_deadlock():
    # c0 -> c1 -> c2, c0 -> c2; c2 is deadlocked and marks p
    graph = oracle.Graph(
        {
            "initial": "c0",
            "states": [
                {"id": "c0", "marking": {"q": 1}},
                {"id": "c1", "marking": {"q": 1}},
                {"id": "c2", "marking": {"p": 1}},
            ],
            "edges": [
                {"from": "c0", "to": "c1"},
                {"from": "c1", "to": "c2"},
                {"from": "c0", "to": "c2"},
            ],
        }
    )
    p, q = ("ap", "p"), ("ap", "q")

    def sat(tree):
        return set(oracle.evaluate(graph, tree))

    assert sat(("deadlock",)) == {2}
    assert sat(("EG", p)) == {2}  # a deadlock ends the maximal run
    assert sat(("AX", p)) == {1}  # false at the deadlock itself
    assert sat(("AF", q)) == {0, 1}  # the run ending at c2 never meets q again
    assert sat(("AG", p)) == {2}
    assert sat(("EU", q, p)) == {0, 1, 2}
    assert sat(("AU", q, ("not", q))) == {0, 1, 2}
    assert sat(("EG", q)) == set()


def test_generated_formulas_respect_the_depth_limit():
    shapes, atoms = workloads.random.Random(7), workloads.random.Random(8)
    trees = [workloads.random_formula(shapes, atoms, ["p0", "p1"], workloads.FORMULA_DEPTH) for _ in range(50)]
    for tree in trees:
        depth = _depth(tree)
        assert 1 <= depth <= workloads.FORMULA_DEPTH
        text = workloads.formula_text(tree)
        assert text.count("(") == text.count(")")


def _depth(tree) -> int:
    children = [c for c in tree[1:] if isinstance(c, tuple)]
    return 1 + max((_depth(c) for c in children), default=0)


def test_trace_spans_cover_the_cli_call():
    env = run.child_env()
    work = run.SCRATCH / "test-trace"
    jobs = workloads.make_jobs(workloads.PSEUDO_BUILD, 1, work, quick=True)
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    spans = work / "spans.tsv"
    spans.write_text("", encoding="utf-8")
    tally = run.Tally()
    run.run_pass(jobs, env, work, expected, tally, [], spans=spans)
    assert tally.failed == 0
    metrics = layers.layer_metrics(str(spans))
    assert (metrics["srg.states"], metrics["srg.arcs"], metrics["srg.pseudo"]) == (147, 216, 113)
    assert metrics["srg.fire_calls"] > 0 and metrics["srg.enabled_calls"] > metrics["srg.fire_calls"]
    assert metrics["textio.export_bytes"] > 0
    # on a call this small argparse and file writes are a visible share
    assert 0.5 < metrics["cli.covered_ratio"] <= 1.0


def test_missing_program_exits_without_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "pseudo-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
