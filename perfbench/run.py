"""Benchmark of the ``wftc`` command line: end-to-end times of two
workloads and, with ``--trace 1``, a per-layer profile of them.

    python3 perfbench/run.py --workload table-verify --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --quick

Run it from the root of a checkout. Every job is a ``python -m wftc.cli``
child process started from ``src/``, one at a time (a closed loop with one
client). Each job's ``--output json`` report is checked against
``expected.json`` and, for generated formulas, against the verdicts of the
naive evaluator in ``oracle.py``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path("src")
SCRATCH = Path(".bench_build") / "perfbench"
EXPECTED = BENCH_DIR / "expected.json"
MODULES = ("cli", "dctl", "model", "srg", "textio")

# Single spawns of a fresh interpreter vary by about 15% between batches;
# the median of this many is steady.
SETUP_SPAWNS = 15
# ``setup_s`` is reported in seconds at the speed where reference.py takes
# this long (about its time on an idle 2-vCPU Xeon here), so that it does
# not move with the host's speed between rounds of runs.
NOMINAL_REFERENCE_S = 0.15
# A run must end within 180 s; a child still running after this is killed
# and its job counts as failed.
JOB_TIMEOUT_S = 120


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WFTC_STATE_LIMIT", None)
    env["PYTHONPATH"] = str(SRC.resolve())
    env["PYTHONHASHSEED"] = "0"
    return env


def check_program(env: dict):
    """Fail unless ``wftc`` imports from this checkout's ``src/``; this
    also fills the byte-code cache before anything is timed."""
    if not (SRC / "wftc" / "cli.py").is_file():
        raise BenchError("no src/wftc/cli.py here; run from the root of a checkout")
    probe = subprocess.run(
        [sys.executable, "-c", "import wftc.cli; print(wftc.cli.__file__)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or where != (SRC / "wftc" / "cli.py").resolve():
        raise BenchError(f"wftc.cli does not import from src/: {probe.stderr.strip()}")


def spawn(argv: list[str], env: dict, stderr_path: Path):
    """Run a child to completion: (seconds, exit code, stdout, max RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return elapsed, proc.returncode, out, usage.ru_maxrss


def _probe():
    table = {}
    for i in range(40000):
        table[(i * 7919) % 1021] = i
    return sorted(table.items())


def pin_fastest(cpus: list[int]):
    """Pin this process, and so the next child it starts, to the CPU that
    runs a short fixed task fastest right now. On a shared host other
    tenants often slow one CPU at a time by a third or more."""
    if len(cpus) < 2:
        return
    best = {}
    for cpu in cpus + cpus:
        os.sched_setaffinity(0, {cpu})
        started = time.perf_counter()
        _probe()
        elapsed = time.perf_counter() - started
        best[cpu] = min(best.get(cpu, elapsed), elapsed)
    os.sched_setaffinity(0, {min(best, key=best.get)})


def reference_seconds(env: dict, work: Path) -> float:
    elapsed, code, _, _ = spawn([sys.executable, str(BENCH_DIR / "reference.py")], env, work / "reference.err")
    if code != 0:
        raise BenchError("reference.py failed")
    return elapsed


def setup_seconds(env: dict, work: Path, cpus: list[int]) -> tuple[float, float]:
    """Spawn-to-exit time of ``import wftc.cli``, which every CLI call pays:
    the median over the spawns, raw and scaled to the nominal reference
    speed by the reference times just before and after each spawn."""
    argv = [sys.executable, "-c", "import wftc.cli"]
    times, ratios = [], []
    pin_fastest(cpus)
    before = reference_seconds(env, work)
    for _ in range(SETUP_SPAWNS):
        elapsed, code, _, _ = spawn(argv, env, work / "setup.err")
        if code != 0:
            raise BenchError("import wftc.cli failed")
        after = reference_seconds(env, work)
        times.append(elapsed)
        ratios.append(2 * elapsed / (before + after))
        before = after
        pin_fastest(cpus)
    return statistics.median(times), statistics.median(ratios) * NOMINAL_REFERENCE_S


# ---------------------------------------------------------------------------
# correctness


def graph_facts(graph_file: Path, env: dict, work: Path, trees=None) -> dict:
    """Counts of an exported graph and, given formula trees, their
    verdicts and satisfaction-set sizes, from ``oracle.py`` in a child
    process."""
    argv = [sys.executable, str(BENCH_DIR / "oracle.py"), str(graph_file)]
    if trees is not None:
        trees_file = work / "trees.json"
        trees_file.write_text(json.dumps(trees), encoding="utf-8")
        argv.append(str(trees_file))
    _, code, out, _ = spawn(argv, env, work / "oracle.err")
    if code != 0:
        return {"error": f"oracle exited {code} on {graph_file}"}
    return json.loads(out)


def oracle_expectations(job: workloads.Job, env: dict, work: Path) -> dict:
    """Fingerprint of a job's generated formulas from the naive evaluator
    over an untimed ``wftc build --json`` of the same model."""
    graph_file = work / f"{job.name}-oracle.json"
    argv = [sys.executable, "-m", "wftc.cli", "build", job.args[1], "--json", str(graph_file)]
    _, code, _, _ = spawn(argv, env, work / f"{job.name}-oracle.err")
    if code != 0:
        return {"error": f"oracle build exited {code}"}
    found = graph_facts(graph_file, env, work, job.formulas)
    if "verdicts" in found:
        found["exit"] = 0 if all(v == "TRUE" for v in found["verdicts"]) else 1
    return found


def check_job(job: workloads.Job, code: int, out: bytes, expected: dict) -> list[str]:
    """Differences between a job's report and its fingerprint."""
    want = expected.get(job.key)
    if want is None:
        return [f"no expected fingerprint for {job.key!r}"]
    if "error" in want:
        return [want["error"]]
    try:
        report = json.loads(out)
    except ValueError:
        return [f"exit {code}, report is not JSON"]
    got = {
        "states": report.get("stateCount"),
        "arcs": report.get("arcCount"),
        "pseudo": report.get("pseudoCount"),
        "exit": code,
        "verdicts": [f.get("verdict") for f in report.get("formulas", [])],
        "satCounts": [f.get("satCount") for f in report.get("formulas", [])],
    }
    return [
        f"{key}: expected {value}, got {got[key]}"
        for key, value in want.items()
        if key in got and got[key] != value
    ]


def export_problems(job: workloads.Job, env: dict, work: Path, want: dict) -> list[str]:
    """The JSON and DOT exports hold the expected states and arcs."""
    problems = []
    found = graph_facts(Path(job.exports["json"]), env, work)
    if "error" in found or (found["states"], found["arcs"]) != (want["states"], want["arcs"]):
        problems.append(f"JSON export: {found}")
    try:
        with open(job.exports["dot"], encoding="utf-8") as handle:
            arcs = sum("->" in line for line in handle)
    except OSError as exc:
        arcs = exc
    if arcs != want["arcs"]:
        problems.append(f"DOT export has {arcs} arcs")
    return problems


def load_expected(jobs, env, work) -> dict:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    for job in jobs:
        if job.formulas:
            base = expected.get(job.key, {})
            found = oracle_expectations(job, env, work)
            if "error" not in found and (found["states"], found["arcs"]) != (base.get("states"), base.get("arcs")):
                found = {"error": f"oracle graph has {found['states']}/{found['arcs']} states/arcs"}
            expected[job.key] = base | found
    return expected


# ---------------------------------------------------------------------------
# passes over a job list


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}
        # (job name, job time, reference time before it), in run order
        self.samples: list[tuple[str, float, float]] = []
        self.last_reference = 0.0
        self.max_rss_kib = 0
        self.build_ms = 0.0

    def record(self, job, elapsed, code, out, rss, problems):
        self.attempted += 1
        self.times.setdefault(job.name, []).append(elapsed)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        if problems:
            self.failed += 1
            print(f"FAIL {job.name}: {'; '.join(problems)}", file=sys.stderr)
        else:
            self.build_ms += json.loads(out)["buildMillis"]

    def wall(self) -> float:
        return sum(statistics.median(t) for t in self.times.values())

    def ratios(self) -> dict[str, list[float]]:
        """Each job time over the mean of the reference times just before
        and just after it."""
        after = [ref for _, _, ref in self.samples[1:]] + [self.last_reference]
        ratios: dict[str, list[float]] = {}
        for (name, elapsed, before), later in zip(self.samples, after):
            ratios.setdefault(name, []).append(2 * elapsed / (before + later))
        return ratios

    def wall_ref(self) -> float:
        return sum(statistics.median(r) for r in self.ratios().values())


def run_pass(jobs, env, work, expected, tally, cpus, check_exports=False, spans=None, reference=False):
    for job in jobs:
        pin_fastest(cpus)
        if reference:
            ref = reference_seconds(env, work)
        if spans is None:
            argv = [sys.executable, "-m", "wftc.cli", *job.args, "--output", "json"]
        else:
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), job.name]
            argv += ["--", *job.args, "--output", "json"]
        elapsed, code, out, rss = spawn(argv, env, work / f"{job.name}.err")
        problems = check_job(job, code, out, expected)
        if check_exports and job.exports and not problems:
            problems = export_problems(job, env, work, expected[job.key])
        tally.record(job, elapsed, code, out, rss, problems)
        if reference:
            tally.samples.append((job.name, elapsed, ref))


def timed_passes(jobs, env, work, expected, seconds, cpus) -> Tally:
    """Repeat the job list while another pass still fits in ``seconds``."""
    tally = Tally()
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        run_pass(jobs, env, work, expected, tally, cpus, check_exports=tally.attempted == 0, reference=True)
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            tally.last_reference = reference_seconds(env, work)
            return tally


# ---------------------------------------------------------------------------
# reporting


def source_lines() -> dict[str, int]:
    counts = {f"{m}.loc": _lines(SRC / "wftc" / f"{m}.py") for m in MODULES}
    counts["src.loc"] = sum(_lines(p) for p in SRC.rglob("*.py"))
    return counts


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


UNITS = {"wall_ref": "ref", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_reported"):
        return "ms"
    if name.endswith(("_ratio", "_per_state")):
        return "ratio"
    if name.endswith(".loc"):
        return "lines"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def emit(workload, seed, mode, tally, metrics, info, shown=None, extra_lines=()):
    """Print every metric by name with its unit, then the result line.
    ``shown`` values are printed and recorded but not part of the result."""
    shown = {**(shown or {}), "fail_ratio": tally.failed / tally.attempted}
    print(f"workload {workload}  seed {seed}  mode {mode}  jobs attempted {tally.attempted}")
    print(f"machine  nproc {info['nproc']}  python {info['python']}  cpu {info['cpu']}")
    for line in extra_lines:
        print(line)
    for name, value in {**metrics, **shown}.items():
        print(f"{name:36s} {value:.6g} {unit_of(name)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, mode=mode, machine=info, shown=shown)
    record["job_seconds"] = tally.times
    record["job_reference_ratios"] = tally.ratios()
    out = SCRATCH / f"result-{workload}-{seed}-{mode}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))


def bench(workload: str, seed: int, seconds: int, trace: bool):
    env = child_env()
    work = SCRATCH / workload
    check_program(env)
    jobs = workloads.make_jobs(workload, seed, work, quick=False)
    expected = load_expected(jobs, env, work)
    info = machine()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if not trace:
        setup_raw, setup = setup_seconds(env, work, cpus)
        tally = timed_passes(jobs, env, work, expected, seconds, cpus)
        metrics = {
            "wall_ref": tally.wall_ref(),
            "peak_rss_mb": tally.max_rss_kib / 1024.0,
            "setup_s": setup,
        }
        shown = {"wall_s": tally.wall(), "setup_raw_s": setup_raw}
        emit(workload, seed, "end-to-end", tally, metrics, info, shown)
        return
    plain = Tally()
    run_pass(jobs, env, work, expected, plain, cpus, check_exports=True)
    spans = work / "spans.tsv"
    spans.write_text("", encoding="utf-8")
    traced = Tally()
    run_pass(jobs, env, work, expected, traced, cpus, spans=spans)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    metrics = layers.layer_metrics(str(spans))
    metrics["srg.build_ms_reported"] = plain.build_ms
    metrics["trace.overhead_ratio"] = traced.wall() / plain.wall()
    metrics.update(source_lines())
    metrics["machine.nproc"] = info["nproc"]
    emit(workload, seed, "trace", traced, metrics, info, extra_lines=[f"spans    {spans}"])


def quick(selected: list[str]):
    """Smallest instance of each workload, fingerprints only."""
    env = child_env()
    check_program(env)
    tally = Tally()
    for workload in selected:
        work = SCRATCH / f"quick-{workload}"
        jobs = workloads.make_jobs(workload, 1, work, quick=True)
        run_pass(jobs, env, work, load_expected(jobs, env, work), tally, [], check_exports=True)
    emit("+".join(selected), 1, "quick", tally, {}, machine())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="fingerprints of the smallest instances, untimed")
    args = parser.parse_args(argv)
    try:
        SCRATCH.mkdir(parents=True, exist_ok=True)
        if args.quick:
            quick([args.workload] if args.workload else list(workloads.WORKLOADS))
        elif args.workload is None:
            parser.error("--workload is required without --quick")
        else:
            bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
