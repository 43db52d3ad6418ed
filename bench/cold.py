"""Cold-process measurement: every invocation is a fresh interpreter.

Invocations run one at a time. Each child's wall time comes from the
monotonic clock around spawn-to-reap, its peak RSS from its own rusage
(``os.wait4``). Outputs are checked after the timed loop: expected files
exist, their content passes the workload's checks, and their SHA-256
digests are identical across repetitions.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import workloads

ROOT = workloads.ROOT
MIN_REPS = 3  # repetitions, however long they take
SETUP_EVERY_S = 1.0  # seconds between set-up samples taken between invocations
MIN_SETUP = 15  # set-up samples, taken after the last repetition if short


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Run:
    """One invocation's run, cold or in-process, and what its outputs showed."""

    inv: workloads.Invocation
    rep: int
    out_dir: Path
    wall_s: float
    exit_code: int
    maxrss_kb: int
    log: Path | None = None  # the child's stdout and stderr
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    output_bytes: int = 0


def run_cold(inv: workloads.Invocation, out_dir: Path, log_dir: Path, rep: int) -> Run:
    """Spawn one invocation, wait for it, and record wall time and peak RSS."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    log = log_dir / f"{inv.label.replace(':', '_')}-rep{rep}.log"
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            inv.command(sys.executable, out_dir), cwd=ROOT, env=child_env(),
            stdout=sink, stderr=subprocess.STDOUT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(inv, rep, out_dir, wall, proc.returncode, usage.ru_maxrss, log)


def collect_outputs(run: Run, stats: dict) -> None:
    """Check one run's outputs and record their digests (untimed)."""
    if run.exit_code != 0:
        last = run.log.read_text(errors="replace").strip().splitlines()[-1:] if run.log else []
        run.problems.append(f"exit code {run.exit_code}" + "".join(f": {line}" for line in last))
        return
    files = {}
    for pattern in workloads.expected_outputs(run.inv):
        found = sorted(run.out_dir.glob(pattern))
        if len(found) != 1:
            run.problems.append(f"expected one output matching {pattern}, found {len(found)}")
            continue
        files[found[0].relative_to(run.out_dir).as_posix()] = found[0]
    if run.problems:
        return
    for path in sorted(p for p in run.out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        run.digests[path.relative_to(run.out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
        run.output_bytes += len(data)
    run.problems.extend(workloads.check_outputs(run.inv, files, stats))


@dataclass
class Measured:
    runs: list[Run]
    reps: int
    digests: dict[str, dict[str, str]]  # reference output digests per invocation
    setup: list[float]  # cold-import samples spread over the run


def measure(prepared: workloads.Prepared, work: Path, seconds: float) -> Measured:
    """Repeat the workload's invocations until ``seconds`` have passed.

    Between invocations, a set-up sample is taken every ``SETUP_EVERY_S``
    seconds, so that set-up samples see the same machine phases as the
    invocations do.
    """
    runs: list[Run] = []
    log_dir = work / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    setup_sample()  # compiles the package's bytecode, which users pay once
    setup = [setup_sample()]
    start = last_setup = time.perf_counter()
    rep = 0
    while another_rep(rep, MIN_REPS, start, seconds):
        for i, inv in enumerate(prepared.invocations):
            runs.append(run_cold(inv, work / "out" / f"rep{rep}" / str(i), log_dir, rep))
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setup.append(setup_sample())
                last_setup = time.perf_counter()
        rep += 1
    while len(setup) < MIN_SETUP:
        setup.append(setup_sample())
    digests = verify(runs, prepared.data)
    shutil.rmtree(work / "out", ignore_errors=True)
    return Measured(runs, rep, digests, setup)


def another_rep(rep: int, min_reps: int, start: float, seconds: float) -> bool:
    """Whether to start repetition ``rep``: the run should end near ``seconds``.

    A repetition is started only if it is expected to end no more than half
    its length after ``seconds``, judged by the mean repetition so far.
    """
    if rep < max(min_reps, 1):
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rep / 2 < seconds


def verify(runs: list[Run], stats: dict) -> dict[str, dict[str, str]]:
    """Check every run's outputs; digests must repeat across repetitions.

    Returns the reference digests per invocation label.
    """
    reference: dict[str, dict[str, str]] = {}
    for run in runs:
        collect_outputs(run, stats)
        if run.problems:
            continue
        first = reference.setdefault(run.inv.label, run.digests)
        if run.digests != first:
            run.problems.append("output digests differ from the first repetition")
    return reference


def setup_sample() -> float:
    """Seconds from a cold start until ``tennis_momentum.cli`` is imported.

    The child reads the same system-wide monotonic clock after the import,
    so interpreter teardown is not counted.
    """
    probe = (
        "import time, tennis_momentum.cli; "
        "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    )
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout.strip()) - start


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, if above the median."""
    n = len(values)
    if n < 21:
        return None
    return f"p{int(100 * (n - 10) / n)}", sorted(values)[n - 11]


def summarise(measured: Measured) -> dict:
    """End-to-end figures of one workload from its cold runs.

    ``wall_s`` sums, over the invocations of one repetition, each
    invocation's median wall time across repetitions: a burst of machine
    noise then spoils one sample of one invocation, not a whole repetition.
    """
    runs = measured.runs
    by_label: dict[str, list[float]] = {}
    by_kind: dict[str, list[float]] = {}
    for run in runs:
        by_label.setdefault(run.inv.label, []).append(run.wall_s)
        by_kind.setdefault(run.inv.kind, []).append(run.wall_s)
    samples = {f"{kind}_s": walls for kind, walls in by_kind.items()}
    samples["setup_s"] = measured.setup
    timings = {
        name: {"median": statistics.median(v), "n": len(v), "tail": tail(v), "samples": v}
        for name, v in samples.items()
    }
    timings["wall_s"] = {
        "median": sum(statistics.median(v) for v in by_label.values()),
        "n": measured.reps, "tail": None,
    }
    failed = sum(1 for r in runs if r.problems)
    return {
        "timings": timings,
        "peak_rss_mb": max(r.maxrss_kb for r in runs) / 1024.0,
        "attempted": len(runs),
        "failed": failed,
        "failed_ops": failed / len(runs),
    }
