"""Traced in-process runs: outside-in spans around each layer's public calls.

The package is not modified. Its public layer functions are rebound, in
every loaded ``tennis_momentum`` namespace that holds them (and in the
pipeline script's), to wrappers that record a span: name, start, end,
parent, workload and invocation. Calls between layers go through those
namespaces, so spans nest: ``grnn.train_cv`` inside
``grnn.expand_features`` inside ``cli.main``. Inner per-window and
per-point functions (``indicator_vector``, ``evaluate_membership``) are not
wrapped; their work is counted from call arguments instead.

Repetitions alternate between untraced and traced; the difference of the
median repetition wall times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import io
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

from . import cold, inputs, workloads

# (module, public functions) whose calls become spans named "module.function"
TRACED = (
    ("cli", ("main", "write_rows")),
    ("ingest", ("load_matches", "impute_missing", "missing_rate", "outlier_report",
                "points_csv_text")),
    ("indicators", ("compute_indicators", "segment_labels", "pca_reduce")),
    ("fuzzy", ("momentum_series",)),
    ("momentum", ("extract_momentum_samples", "extra_feature_columns",
                  "correlation_matrix", "detect_turning_points", "turning_point_stats")),
    ("grnn", ("train_cv", "evaluate", "expand_features", "rank_extras_by_correlation")),
)
LAYERS = ("cli", "ingest", "indicators", "fuzzy", "momentum", "grnn")
ROOT_SPAN = "cli.main"
MIN_PAIRS = 2  # untraced and traced repetitions, however long they take
# Share of a traced invocation's wall time that its root spans may leave
# uncovered. What lies outside cli.main is argument handling around it, a few
# milliseconds at most; more means calls escaped the trace.
UNACCOUNTED_SHARE = 0.01


@dataclass
class Span:
    index: int  # position in the tracer's span list
    name: str
    workload: str
    invocation: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float = 0.0
    end: float = 0.0
    call: tuple | None = None  # (bound arguments, result), kept for counting

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count_fields(records) -> tuple[int, int]:
    """(incomplete, complete) rows over fields that are absent somewhere but not everywhere."""
    if not records:
        return 0, 0
    names = [f.name for f in dataclasses.fields(records[0])]
    gaps = [n for n in names if any(getattr(r, n) is None for r in records)]
    fillable = [n for n in gaps if any(getattr(r, n) is not None for r in records)]
    incomplete = sum(1 for r in records if any(getattr(r, n) is None for n in fillable))
    return incomplete, len(records) - incomplete


def _kernel_evals(n: int, folds: int, sigmas: int) -> int:
    """Kernel evaluations of k-fold CV over a sigma grid: sum of |train|*|test|."""
    total = 0
    for f in range(folds):
        test = (f + 1) * n // folds - f * n // folds
        total += (n - test) * test
    return sigmas * total


def _counts(span: Span, hierarchy_size: int) -> dict[str, float]:
    args, result = span.call
    if span.name == "ingest.load_matches":
        return {"rows": sum(len(t.records) for t in result)}
    if span.name == "ingest.impute_missing":
        incomplete, donors = _count_fields(list(args["records"]))
        return {"incomplete_rows": incomplete, "donor_rows": donors}
    if span.name == "ingest.points_csv_text":
        return {"bytes": len(result.encode("utf-8"))}
    if span.name == "indicators.compute_indicators":
        return {"segments": len(result)}
    if span.name == "fuzzy.momentum_series":
        return {"windows": len(result), "membership_evals": len(result) * hierarchy_size}
    if span.name == "grnn.train_cv":
        config = args["config"]
        n = len(args["y"])
        return {"kernel_evals": _kernel_evals(n, config.folds, len(config.sigma_grid))}
    if span.name == "grnn.expand_features":
        return {"steps": len(result.steps)}
    return {}


_COUNTED = {
    "ingest.load_matches", "ingest.impute_missing", "ingest.points_csv_text",
    "indicators.compute_indicators", "fuzzy.momentum_series", "grnn.train_cv",
    "grnn.expand_features",
}


class Tracer:
    """Rebinds the traced functions while installed; keeps spans in memory."""

    def __init__(self, extra_namespaces=()):
        self.spans: list[Span] = []
        self.workload = ""
        self.invocation = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []
        self._extra = list(extra_namespaces)

    def _wrap(self, name, fn):
        spans, stack, tracer = self.spans, self._stack, self
        signature = inspect.signature(fn)
        keep = name in _COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, tracer.workload, tracer.invocation,
                        stack[-1] if stack else -1)
            spans.append(span)
            stack.append(span.index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep:
                span.call = (signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [
            vars(m) for name, m in list(sys.modules.items())
            if name == "tennis_momentum" or name.startswith("tennis_momentum.")
        ] + [vars(m) for m in self._extra]
        for module_name, names in TRACED:
            module = importlib.import_module(f"tennis_momentum.{module_name}")
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(ns.items()):
                        if value is original:
                            ns[attr] = wrapper
                            self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def run_in_process(inv: workloads.Invocation, out_dir, pipeline) -> tuple[int, float]:
    """One invocation in this interpreter; returns its exit code and wall time."""
    from tennis_momentum import cli

    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    argv = inv.cli_argv(out_dir)
    saved = sys.argv
    code = 0
    # the program's printed paths and warnings go to a sink, as to a log
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if inv.script:
                sys.argv = [str(workloads.PIPELINE_SCRIPT)] + argv
                pipeline.main()
            else:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            wall = time.perf_counter() - start
            sys.argv = saved
    return code, wall


def _self_times(spans: list[Span]) -> list[float]:
    child: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + s.seconds
    return [s.seconds - child.get(s.index, 0.0) for s in spans]


def layer_metrics(spans: list[Span], hierarchy_size: int) -> dict[str, float]:
    """Per-layer figures of one traced repetition (spans of one workload)."""
    out: dict[str, float] = {f"{layer}.self.s": 0.0 for layer in LAYERS}
    for s, self_s in zip(spans, _self_times(spans)):
        out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + s.seconds
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        layer = s.name.split(".", 1)[0]
        # cli.self.s is cli.main minus the spans under it; other cli spans
        # (the writers) are reported under their own names
        if s.name == ROOT_SPAN or layer != "cli":
            out[f"{layer}.self.s"] += self_s
        if s.call is not None:
            for key, value in _counts(s, hierarchy_size).items():
                out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
    out["cli.loads"] = out.get("ingest.load_matches.calls", 0)
    rows = out.get("ingest.load_matches.rows", 0)
    if rows:
        out["ingest.load_matches.us_per_row"] = 1e6 * out["ingest.load_matches.s"] / rows
    windows = out.get("fuzzy.momentum_series.windows", 0)
    if windows:
        out["fuzzy.momentum_series.us_per_window"] = 1e6 * out["fuzzy.momentum_series.s"] / windows
    return out


def _median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({k for rep in reps for k in rep})
    return {k: statistics.median(rep.get(k, 0.0) for rep in reps) for k in names}


def _slope(full: float, half: float, n_full: int, n_half: int) -> float:
    return math.log(full / half) / math.log(n_full / n_half)


def _clean_spans(spans: list[Span], name: str) -> Span | None:
    return next((s for s in spans if s.name == name and s.invocation == "clean"), None)


def unaccounted_problem(wall: float, root_seconds: float) -> str | None:
    """A problem if the root spans cover too little of an invocation's wall time."""
    gap = wall - root_seconds
    if abs(gap) <= UNACCOUNTED_SHARE * wall:
        return None
    return f"trace: {gap:.6f} s of {wall:.6f} s outside the root spans"


def run_traced(prepared: workloads.Prepared, work, seconds: float):
    """Alternate untraced and traced in-process repetitions for ``seconds``.

    Returns the median per-layer metrics, every in-process run, the tracer
    (which holds every span) and the reference output digests. A traced
    invocation whose root spans leave more than ``UNACCOUNTED_SHARE`` of its
    wall time uncovered counts as failed.
    """
    from tennis_momentum.fuzzy import FuzzyHierarchy

    hierarchy_size = len(FuzzyHierarchy().indicator_names)
    scripted = any(i.script for i in prepared.invocations)
    pipeline = inputs.load_script(workloads.PIPELINE_SCRIPT) if scripted else None
    tracer = Tracer([pipeline] if pipeline else [])
    runs: list[cold.Run] = []
    per_rep: list[dict[str, float]] = []
    half_inv = None
    if prepared.half_input:
        half_inv = workloads.Invocation(
            "clean", "clean", ("clean", "--data", prepared.half_input["path"])
        )
    # an untimed first repetition lets lazy imports and allocations settle
    for i, inv in enumerate(prepared.invocations):
        run_in_process(inv, work / "inproc" / "warmup" / str(i), pipeline)
    start = time.perf_counter()
    rep = 0
    gaps: list[tuple[cold.Run, str]] = []
    while cold.another_rep(rep, 2 * MIN_PAIRS, start, seconds):
        traced = rep % 2 == 1
        first = len(tracer.spans)
        wall = 0.0
        with tracer.installed() if traced else contextlib.nullcontext():
            tracer.workload = prepared.workload
            for i, inv in enumerate(prepared.invocations):
                tracer.invocation = inv.label
                out_dir = work / "inproc" / f"rep{rep}" / str(i)
                before = len(tracer.spans)
                code, seconds_taken = run_in_process(inv, out_dir, pipeline)
                wall += seconds_taken
                runs.append(cold.Run(inv, rep, out_dir, seconds_taken, code, 0))
                if traced:
                    roots = sum(s.seconds for s in tracer.spans[before:] if s.parent < 0)
                    problem = unaccounted_problem(seconds_taken, roots)
                    if problem:
                        gaps.append((runs[-1], problem))
            if traced and half_inv:
                tracer.workload = f"{prepared.workload}.half"
                tracer.invocation = "clean"
                run_in_process(half_inv, work / "inproc" / "half", pipeline)
        if traced:
            spans = tracer.spans[first:]
            main = [s for s in spans if s.workload == prepared.workload]
            metrics = layer_metrics(main, hierarchy_size)
            metrics["trace.unaccounted_s"] = wall - sum(
                s.seconds for s in main if s.name == ROOT_SPAN
            )
            if half_inv:
                half = [s for s in spans if s.workload != prepared.workload]
                for name in ("ingest.load_matches", "ingest.impute_missing"):
                    full_span, half_span = _clean_spans(main, name), _clean_spans(half, name)
                    if full_span and half_span:
                        metrics[f"{name}.slope"] = _slope(
                            full_span.seconds, half_span.seconds,
                            prepared.data["points"], prepared.half_input["points"],
                        )
            for s in spans:
                s.call = None  # counted; release the arguments and results
            per_rep.append(metrics)
        rep += 1
    digests = cold.verify(runs, prepared.data)
    for run, problem in gaps:  # after verify, which skips digests of failed runs
        run.problems.append(problem)
    shutil.rmtree(work / "inproc", ignore_errors=True)
    medians = _median_metrics(per_rep)
    for traced, name in ((True, "trace.wall_s"), (False, "trace.untraced_wall_s")):
        medians[name] = _sum_of_medians(r for r in runs if (r.rep % 2 == 1) == traced)
    medians["trace.overhead_s"] = medians["trace.wall_s"] - medians["trace.untraced_wall_s"]
    medians["cli.output_bytes"] = sum(r.output_bytes for r in runs if r.rep == 0)
    return medians, runs, tracer, digests


def _sum_of_medians(runs) -> float:
    """One repetition's wall time: each invocation's median, summed."""
    walls: dict[str, list[float]] = {}
    for run in runs:
        walls.setdefault(run.inv.label, []).append(run.wall_s)
    return sum(statistics.median(v) for v in walls.values())


def largest_spans(spans: list[Span]) -> dict[str, dict]:
    """Per invocation kind, the span name with the most self time.

    The share is that self time over the kind's ``cli.main`` time.
    """
    self_by: dict[str, dict[str, float]] = {}
    root_by: dict[str, float] = {}
    for s, self_s in zip(spans, _self_times(spans)):
        kind = s.invocation.split(":", 1)[0]
        if s.name == ROOT_SPAN:
            root_by[kind] = root_by.get(kind, 0.0) + s.seconds
        else:
            names = self_by.setdefault(kind, {})
            names[s.name] = names.get(s.name, 0.0) + self_s
    out = {}
    for kind, names in sorted(self_by.items()):
        name = max(names, key=names.get)
        out[kind] = {"span": name, "share": names[name] / root_by[kind]}
    return out
