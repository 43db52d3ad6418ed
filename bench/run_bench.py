#!/usr/bin/env python3
"""Benchmark of the tennis-momentum batch pipeline.

Usage (from the repository root):

    python3 bench/run_bench.py --workload tournament_batch --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every invocation of the workload runs as a cold CLI
process, repeatedly for ``--seconds``; the end-to-end metrics are reported.
With ``--trace 1`` the same invocations run in this process, alternating
untraced and traced repetitions, and per-layer metrics are reported. Every
metric is printed by name with its unit; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full result, with input statistics, environment and output digests, is
written to ``.bench_work/results/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REQUIRED = (
    "src/tennis_momentum/cli.py",
    "scripts/make_dataset.py",
    "scripts/run_pipeline.py",
    "data/sample_points.csv",
)
WORK = Path(".bench_work")
PRINTED_CHANGES = 10

# The metrics of the final line, as declared in BENCHMARK.json. The per-layer
# ones are those every workload exercises; the rest are printed above it.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("ingest.load_matches.s", "s"),
    ("ingest.load_matches.rows", "count"),
    ("ingest.load_matches.us_per_row", "us"),
    ("ingest.self.s", "s"),
    ("cli.write_rows.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.loads", "count"),
    ("cli.self.s", "s"),
    ("trace.wall_s", "s"),
)
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".us_per_row", ".us_per_window")):
        return "us"
    if name.endswith(("bytes",)):
        return "bytes"
    if name.endswith(".slope"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
    }


def digest_changes(previous: dict, current: dict) -> list[str]:
    """Outputs whose digest differs from a previous result of the same run."""
    changes = []
    for label in sorted(set(previous) | set(current)):
        old, new = previous.get(label, {}), current.get(label, {})
        for path in sorted(set(old) | set(new)):
            if old.get(path) != new.get(path):
                changes.append(f"{label}/{path}: {old.get(path, 'absent')} -> {new.get(path, 'absent')}")
    return changes


def _cold(args, prepared, work):
    from bench import cold

    measured = cold.measure(prepared, work, args.seconds)
    summary = cold.summarise(measured)
    timings = summary["timings"]
    metrics = {
        "wall_s": timings["wall_s"]["median"],
        "setup_s": timings["setup_s"]["median"],
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    lines = []
    for name, t in timings.items():
        tail = f", {t['tail'][0]} {t['tail'][1]:.4f} s" if t["tail"] else ""
        what = "sum of per-invocation medians over" if name == "wall_s" else "median of"
        lines.append(f"{name} {t['median']:.4f} s ({what} {t['n']}{tail})")
    lines.append(f"peak_rss_mb {summary['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_ops {summary['failed_ops']:.4f} ratio "
                 f"({summary['failed']} of {summary['attempted']})")
    detail = {"repetitions": measured.reps, **summary}
    return metrics, measured.runs, measured.digests, detail, lines, None


def _traced(args, prepared, work):
    from bench import spans

    medians, runs, tracer, digests = spans.run_traced(prepared, work, args.seconds)
    absent = [name for name, _ in PER_LAYER if not medians.get(name)]
    if absent:
        raise SystemExit(f"not measured on {prepared.workload}: {', '.join(absent)}")
    metrics = {name: medians[name] for name, _ in PER_LAYER}
    lines = [f"{name} {value:.6g} {unit_of(name)}" for name, value in sorted(medians.items())]
    gaps = sum(1 for r in runs for p in r.problems if p.startswith("trace:"))
    lines.append(f"trace.unaccounted_failures {gaps} count (traced invocations whose root "
                 f"spans miss more than {spans.UNACCOUNTED_SHARE:.0%} of their wall time)")
    largest = spans.largest_spans([s for s in tracer.spans if s.workload == prepared.workload])
    for kind, top in largest.items():
        lines.append(f"largest_span.{kind} {top['span']} {top['share']:.3f} share of cli.main")
    if tracer.missing:
        lines.append(f"trace.missing_functions {', '.join(tracer.missing)}")
    detail = {"layer_metrics": medians, "missing_functions": tracer.missing,
              "unaccounted_failures": gaps, "largest_spans": largest}
    spans_out = [
        {"index": s.index, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "workload": s.workload, "invocation": s.invocation}
        for s in tracer.spans
    ]
    return metrics, runs, digests, detail, lines, spans_out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    absent = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if absent:
        print(f"cannot benchmark: missing {', '.join(absent)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # relative paths keep output names independent of the checkout
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # one directory for both modes, so that output names (and digests) match
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workloads.prepare(args.workload, args.seed, work)
        measure = _traced if args.trace else _cold
        metrics, runs, digests, detail, lines, spans_out = measure(args, prepared, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in runs if r.problems)
    problems = sorted({f"{r.inv.label}: {p}" for r in runs for p in r.problems})
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = results / f"{stem}.json"
    previous = {}
    if result_path.exists():
        previous = json.loads(result_path.read_text()).get("digests", {})
    changes = digest_changes(previous, digests) if previous else []
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    units = dict(END_TO_END + PER_LAYER)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "input": {k: v for k, v in prepared.data.items() if k != "match_points"},
        "half_input": prepared.half_input, "detail": detail, "problems": problems,
        "digests": digests, "outputs_sha256": combined, "digest_changes": changes,
        "result": result,
    }
    result_path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    if spans_out is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans_out) + "\n")

    stats = prepared.data
    print(f"workload {args.workload} seed {args.seed}: {stats['points']} points, "
          f"{stats['matches']} matches, input sha256 {stats['sha256'][:16]}")
    for line in lines:
        print(line)
    for p in problems:
        print(f"problem {p}")
    print(f"outputs sha256 {combined[:16]} over {sum(len(d) for d in digests.values())} files")
    for change in changes[:PRINTED_CHANGES]:
        print(f"digest changed {change}")
    if len(changes) > PRINTED_CHANGES:
        print(f"digest changed: {len(changes) - PRINTED_CHANGES} more in the result file")
    print(f"result {result_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
