"""Tests of the benchmark harness itself (run: python3 -m pytest bench/tests)."""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import cold, inputs, run_bench, spans, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def work(monkeypatch):
    """A work directory under the repository root, which runs use as cwd."""
    monkeypatch.chdir(ROOT)
    path = Path(".bench_work") / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_same_seed_gives_identical_inputs(work):
    first = workloads.prepare("match_models", 7, work / "a")
    second = workloads.prepare("match_models", 7, work / "b")
    a = (work / "a" / "models-7.csv").read_bytes()
    b = (work / "b" / "models-7.csv").read_bytes()
    assert a == b
    assert first.data["sha256"] == second.data["sha256"]


def test_different_seeds_give_different_inputs_of_one_size_class(work):
    stats = [workloads.prepare("match_models", seed, work).data for seed in (1, 2)]
    assert stats[0]["sha256"] != stats[1]["sha256"]
    lo, hi = workloads.MODEL_MATCH_POINTS
    for s in stats:
        assert s["matches"] == workloads.MODEL_MATCHES
        assert all(lo <= n <= hi for n in s["match_points"].values())

    for seed in (1, 2):
        matches = inputs.simulate_matches(seed, 1, target_points=2000)
        total = sum(len(m) for m in matches)
        # whole matches only, stopping at the first one that reaches the target
        assert total - len(matches[-1]) < 2000 <= total


def test_injected_gaps_follow_the_fixture_rates(work):
    matches = inputs.simulate_matches(3, 2, match_count=2)
    stats = inputs.write_input(work / "gaps.csv", matches, 3, 2)
    rows = [r for m in matches for r in m]
    gapped = inputs.inject_missing(rows, 3, 2)
    md = inputs.load_script(inputs.MAKE_DATASET)
    for column, rate in md.MISSING_RATES.items():
        assert sum(getattr(r, column) is None for r in gapped) == round(rate * len(rows))
    assert stats["incomplete_rows"] == sum(1 for p in inputs.missing_patterns(gapped) if p)


def test_metric_names_are_well_formed(work, monkeypatch):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    names += [w["name"] for w in declared["workloads"]]
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in run_bench.END_TO_END]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run_bench.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)

    prepared = workloads.prepare("match_models", 1, work)
    one = workloads.Prepared(prepared.workload, prepared.data, prepared.invocations[:3])
    monkeypatch.setattr(spans, "MIN_PAIRS", 1)
    medians, runs, tracer, _ = spans.run_traced(one, work, seconds=0)
    names += list(medians)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert not any(r.problems for r in runs)

    # spans nest outside-in: train_cv inside expand_features inside cli.main
    by_index = {s.index: s for s in tracer.spans}
    train = next(
        s for s in tracer.spans
        if s.name == "grnn.train_cv" and s.invocation.startswith("expand:")
    )
    expand = by_index[train.parent]
    assert expand.name == "grnn.expand_features"
    assert by_index[expand.parent].name == "cli.main"
    # layer self times, the writers and cli.self.s partition the root spans
    layers = sum(medians[f"{layer}.self.s"] for layer in spans.LAYERS)
    assert layers + medians["cli.write_rows.s"] == pytest.approx(medians["cli.main.s"], rel=0.05)
    assert medians["fuzzy.momentum_series.membership_evals"] == 11 * medians[
        "fuzzy.momentum_series.windows"
    ]


def test_failing_invocation_is_counted_not_fatal(work, monkeypatch):
    prepared = workloads.prepare("match_models", 1, work)
    good = prepared.invocations[0]
    bad = workloads.Invocation(
        "evaluate:no-such-match", "evaluate",
        ("evaluate", "--data", good.argv[2], "--match", "no-such-match"), "no-such-match",
    )
    broken = workloads.Prepared(prepared.workload, prepared.data, (bad, good))
    monkeypatch.setattr(cold, "MIN_REPS", 1)
    monkeypatch.setattr(cold, "MIN_SETUP", 1)
    measured = cold.measure(broken, work, seconds=0)
    runs, digests = measured.runs, measured.digests
    summary = cold.summarise(measured)
    assert summary["attempted"] == 2
    assert summary["failed"] == 1
    assert summary["failed_ops"] == 0.5
    assert all(NAME.fullmatch(name) for name in summary["timings"])
    assert runs[0].exit_code != 0 and runs[0].problems
    assert not runs[1].problems and digests[good.label]


def test_pipeline_outputs_get_the_subcommand_checks(work):
    prepared = workloads.prepare("pipeline_sample", 0, work)
    inv = prepared.invocations[0]
    run = cold.run_cold(inv, work / "out", work, 0)
    cold.collect_outputs(run, prepared.data)
    assert not run.problems

    momentum = next((work / "out").glob(f"{inv.match_id}/momentum-*.csv"))
    lines = momentum.read_text().splitlines()
    momentum.write_text("\n".join(lines[:-1]) + "\n")
    files = {p.relative_to(work / "out").as_posix(): p for p in (work / "out").rglob("*.*")}
    problems = workloads.check_outputs(inv, files, prepared.data)
    assert problems == [f"evaluate: {len(lines) - 2} rows, expected {len(lines) - 1}"]


def test_trace_gaps_beyond_one_percent_are_problems():
    assert spans.unaccounted_problem(1.0, 0.995) is None
    assert spans.unaccounted_problem(1.0, 0.98)


def test_digest_changes_are_listed():
    before = {"clean": {"all/clean-x.csv": "aa", "all/gone.csv": "bb"}}
    after = {"clean": {"all/clean-x.csv": "cc"}}
    assert run_bench.digest_changes(before, after) == [
        "clean/all/clean-x.csv: aa -> cc",
        "clean/all/gone.csv: bb -> absent",
    ]


def test_tail_needs_ten_samples_beyond_it():
    assert cold.tail([1.0] * 20) is None
    values = [float(i) for i in range(40)]
    label, value = cold.tail(values)
    assert label == "p75" and sum(v > value for v in values) == 10
