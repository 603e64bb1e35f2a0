"""The benchmark's per-layer trace (``perfbench/trace_child.py``) wraps
module attributes of ``wftc`` from outside. These runs pin the spans it
records, so that a name it can no longer see, or a call that no longer goes
through the attribute it wraps, fails here."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import wftc
from conftest import fixture_path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
MOTIVATING = str(fixture_path("motivating.wftc"))
REQUIREMENTS = str(fixture_path("requirements.dctl"))

BUILD_SPANS = {
    "cli.main": 1,
    "textio.parse_model": 1,
    "srg.build": 1,
    # enabling is checked once per candidate, a table is canonicalised once
    # per distinct table-op result and constraints once per guard valuation
    "srg.enabled": 86,
    "srg.fire": 61,
    "srg.refine": 22,
    "model.canonical_table": 8,
    "model.constraint_consistent": 16,
}


@pytest.mark.parametrize(
    "command, code, spans",
    [
        (["build", MOTIVATING], 0, BUILD_SPANS),
        (
            ["verify", MOTIVATING, "--formula-file", REQUIREMENTS],
            1,
            BUILD_SPANS | {"textio.parse_dctl": 2, "dctl.verify": 2, "dctl.precondition_set": 2, "dctl.sat": 1},
        ),
        (
            ["metrics", MOTIVATING],
            1,
            BUILD_SPANS
            | {
                "dctl.builtin_metrics": 1,
                "dctl.verify": 5,
                "dctl.precondition_set": 3,
                "dctl.sat": 5,
            },
        ),
    ],
    ids=["build", "verify", "metrics"],
)
def test_trace_sees_every_layer(tmp_path, command, code, spans):
    out = tmp_path / "spans.tsv"
    proc = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(out), "job", "--", *command],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(wftc.__file__).resolve().parents[1])},
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
    assert Counter(row[4] for row in rows if row[0] == "span") == spans
    # one graph built per command: the 54-state constrained graph
    assert [json.loads(row[2])["states"] for row in rows if row[0] == "#job"] == [54]
