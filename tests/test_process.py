"""The process entry point, what a run leaves to the cyclic collector, and
the exit code of a run that runs out of memory.

``wftc.cli.entry`` runs ``main`` with the collector off and freezes the
heap on the way out; ``main`` itself keeps its caller's collector
settings, and a run makes no reference cycles of its own."""

import gc
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import wftc
from conftest import fixture_path, table_model
from wftc.cli import EXIT_FALSE, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main

ROOT = Path(wftc.__file__).resolve().parents[2]
MOTIVATING = str(fixture_path("motivating.wftc"))
REQUIREMENTS = str(fixture_path("requirements.dctl"))


def console_script() -> str:
    """The ``module:function`` that ``pyproject.toml`` installs as ``wftc``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(r'^wftc\s*=\s*"([^"]+)"', scripts, re.M).group(1)


# Runs the command the way the named entry does, and reports on the last
# line of standard output whether the collector was on when ``main`` read
# its arguments, and the freeze count once ``main`` has returned (``atexit``
# runs after that, as the interpreter shuts down). ``runpy`` runs a fresh
# copy of ``wftc/cli.py`` as ``__main__``, so the spy is a profile hook that
# sees the first call of ``read_args`` in whichever copy runs.
PROBE = """
import atexit, gc, importlib, json, runpy, sys

seen = {}

def spy(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "read_args":
        seen["enabled"] = gc.isenabled()
        sys.setprofile(None)

sys.setprofile(spy)
atexit.register(lambda: print(json.dumps(dict(seen, frozen=gc.get_freeze_count()))))
how, target, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.argv = ["wftc", *argv]
if how == "module":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    module, _, name = target.partition(":")
    sys.exit(getattr(importlib.import_module(module), name)())
"""


ENTRIES = [("module", "wftc.cli"), ("script", console_script())]


@pytest.mark.parametrize(
    "argv, code",
    [(["build", MOTIVATING, "--output", "json"], EXIT_OK), (["build", MOTIVATING, "--mode", "sideways"], EXIT_USAGE)],
    ids=["normal-exit", "usage-error"],
)
@pytest.mark.parametrize("how, target", ENTRIES, ids=[how for how, _ in ENTRIES])
def test_entry_runs_without_the_collector_and_freezes_on_exit(how, target, argv, code):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, how, target, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == code, proc.stderr
    *report, probe = proc.stdout.splitlines()
    probe = json.loads(probe)
    assert probe["enabled"] is False
    assert probe["frozen"] > 0
    if code == EXIT_OK:
        assert json.loads("\n".join(report))["stateCount"] == 54
    else:
        assert "invalid choice: 'sideways'" in proc.stderr


def collector_settings():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_keeps_the_callers_collector(capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = collector_settings()
        assert main(["build", MOTIVATING]) == EXIT_OK
        assert main(["metrics", MOTIVATING]) == EXIT_FALSE
        with pytest.raises(SystemExit):
            main(["build", MOTIVATING, "--mode", "sideways"])
        assert collector_settings() == before
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def commands(model: str) -> list[list[str]]:
    return [
        ["build", model, "--output", "json"],
        ["verify", model, "--formula-file", REQUIREMENTS],
        ["metrics", model],
    ]


@contextmanager
def collector_off():
    """The collector off, with nothing left for it from before; restored
    afterwards, with ``gc.garbage`` emptied."""
    was, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was:
            gc.enable()


def test_a_run_leaves_no_cycles_through_wftc_objects(capsys, tmp_path):
    # a dropped graph, its net, compiled guards and quotient are freed by
    # reference counting alone, and the argument reader and the JSON
    # writer make no cycles either, so a pass finds nothing at all
    model = tmp_path / "table8.wftc"
    model.write_text(table_model(8), encoding="utf-8")
    with collector_off():
        for argv in commands(str(model)) + commands(MOTIVATING):
            main(argv)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert gc.garbage == []
    capsys.readouterr()


def test_cyclic_garbage_does_not_grow_with_the_graph(capsys, tmp_path):
    # table-16 has 1 020 states, table-4 has 120; once one-time garbage
    # (first compiles and imports) is gone, each command leaves as much
    models = {}
    for n in (2, 4, 16):
        models[n] = tmp_path / f"table{n}.wftc"
        models[n].write_text(table_model(n), encoding="utf-8")
    with collector_off():
        for argv in commands(str(models[2])):
            main(argv)
        gc.collect()
        found = {}
        for n in (4, 16):
            found[n] = []
            for argv in commands(str(models[n])):
                main(argv)
                found[n].append(gc.collect())
    capsys.readouterr()
    assert found[4] == found[16]


# The address space of a process that has imported the command line, as a
# command starts, in bytes.
START_SIZE = """
import wftc.cli
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:")))
"""


def test_running_out_of_memory_exits_resource(tmp_path):
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("sizes the child from /proc")
    # constrained table-128 needs about 75 MB beyond start-up to build
    model = tmp_path / "table128.wftc"
    model.write_text(table_model(128), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    size = subprocess.run(
        [sys.executable, "-c", START_SIZE], capture_output=True, text=True, timeout=120, env=env, check=True
    )
    limit = int(size.stdout) + (60 << 20)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "wftc.cli", "build", str(model)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        preexec_fn=cap,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_RESOURCE, "error: out of memory\n")
