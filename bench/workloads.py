"""The three benchmark workloads: their inputs, invocations and output checks.

* ``tournament_batch`` - about 8,000 generated points (about 50 whole
  matches); cold ``clean`` and ``indicators --segmentation game`` over the
  whole file. Stresses ingest (imputation) and indicators.
* ``match_models`` - five generated whole matches of 160-180 points; cold
  ``evaluate``, ``predict`` and ``expand`` for both players of every match.
  Stresses fuzzy and grnn; no imputation runs.
* ``pipeline_sample`` - ``scripts/run_pipeline.py`` on the committed
  ``data/sample_points.csv``, once per match. Ignores the seed. Fixed costs
  (imports, reloads, small writes) dominate.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import inputs

ROOT = inputs.ROOT
SAMPLE_CSV = Path("data") / "sample_points.csv"
PIPELINE_SCRIPT = Path("scripts") / "run_pipeline.py"

TOURNAMENT_POINTS = 8000
MODEL_MATCHES = 5
MODEL_MATCH_POINTS = (160, 180)
WINDOW = 20
EXPAND_STEPS = 16  # base features plus the 15 extra columns, one per step

WORKLOADS = ("tournament_batch", "match_models", "pipeline_sample")
# keeps the generated inputs of different workloads apart for one seed
_SALT = {"tournament_batch": 1, "match_models": 2}


@dataclass(frozen=True)
class Invocation:
    """One cold program run: the CLI module, or the pipeline script."""

    label: str  # unique within a workload
    kind: str  # clean / indicators / evaluate / predict / expand / pipeline
    argv: tuple[str, ...]  # arguments, without --out
    match_id: str = ""
    script: bool = False

    def command(self, python: str, out_dir: Path) -> list[str]:
        head = [python, str(PIPELINE_SCRIPT)] if self.script else [python, "-m", "tennis_momentum"]
        return head + list(self.argv) + ["--out", str(out_dir)]

    def cli_argv(self, out_dir: Path) -> list[str]:
        return list(self.argv) + ["--out", str(out_dir)]


@dataclass(frozen=True)
class Prepared:
    workload: str
    data: dict  # statistics of the input file
    invocations: tuple[Invocation, ...]
    half_input: dict | None = None  # tournament_batch at half size, for slopes


def _segment_counts(games_by_match: dict[str, set]) -> dict:
    """Indicator segments over all matches, by set and by game segmentation."""
    return {
        "set_segments": sum(len({s for s, _ in g}) for g in games_by_match.values()),
        "game_segments": sum(len(g) for g in games_by_match.values()),
    }


def _match_stats(rows_by_match) -> dict:
    games = {m: {(r.set_no, r.game_no) for r in rows} for m, rows in rows_by_match.items()}
    return {
        "match_points": {m: len(rows) for m, rows in rows_by_match.items()},
        **_segment_counts(games),
    }


def _generated(seed, salt, path, **size):
    matches = inputs.simulate_matches(seed, salt, **size)
    stats = inputs.write_input(path, matches, seed, salt)
    stats.update(_match_stats({m[0].match_id: m for m in matches}))
    return stats, matches


def _sample_stats(path: Path) -> dict:
    data = (ROOT / path).read_bytes()
    by_match: dict[str, set] = {}
    points: dict[str, int] = {}
    with (ROOT / path).open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            m = row["match_id"]
            points[m] = points.get(m, 0) + 1
            by_match.setdefault(m, set()).add((row["set_no"], row["game_no"]))
    return {
        "path": str(path),
        "sha256": hashlib.sha256(data).hexdigest(),
        "points": sum(points.values()),
        "matches": len(points),
        "match_ids": sorted(points),
        "longest_match": max(points.values()),
        "match_points": points,
        **_segment_counts(by_match),
    }


def prepare(workload: str, seed: int, work: Path) -> Prepared:
    """Build the workload's inputs under ``work`` and list its invocations.

    ``work`` is relative to the repository root, which is the working
    directory of every run: the data path is part of the configuration
    digest in output file names, so it must not depend on the checkout.
    """
    if workload == "tournament_batch":
        salt = _SALT[workload]
        data = work / f"tournament-{seed}.csv"
        stats, matches = _generated(seed, salt, data, target_points=TOURNAMENT_POINTS)
        # the first whole matches reaching half the size, for growth slopes
        half_matches, total = [], 0
        while total < TOURNAMENT_POINTS // 2:
            half_matches.append(matches[len(half_matches)])
            total += len(half_matches[-1])
        half = inputs.write_input(work / f"tournament-half-{seed}.csv", half_matches, seed, salt)
        invocations = (
            Invocation("clean", "clean", ("clean", "--data", str(data))),
            Invocation(
                "indicators", "indicators",
                ("indicators", "--data", str(data), "--segmentation", "game"),
            ),
        )
        return Prepared(workload, stats, invocations, half)
    if workload == "match_models":
        data = work / f"models-{seed}.csv"
        stats, _ = _generated(
            seed, _SALT[workload], data,
            match_count=MODEL_MATCHES, length_range=MODEL_MATCH_POINTS,
        )
        invocations = []
        for m in stats["match_ids"]:
            for kind, extra in (
                ("evaluate", ("--window", str(WINDOW))),
                ("predict", ()),
                ("expand", ()),
            ):
                argv = (kind, "--data", str(data), "--match", m, "--player", "0") + extra
                invocations.append(Invocation(f"{kind}:{m}", kind, argv, m))
        return Prepared(workload, stats, tuple(invocations))
    if workload == "pipeline_sample":
        stats = _sample_stats(SAMPLE_CSV)
        invocations = tuple(
            Invocation(
                f"pipeline:{m}", "pipeline",
                ("--data", str(SAMPLE_CSV), "--match", m), m, script=True,
            )
            for m in stats["match_ids"]
        )
        return Prepared(workload, stats, invocations)
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks -------------------------------------------------------

_PIPELINE_OUTPUTS = (
    "all/clean-*.csv", "all/missing-*.csv", "all/boxplot-*.csv", "all/indicators-*.csv",
    "{m}/momentum-*.csv", "{m}/correlation-p1-*.csv", "{m}/turning-windows-p1-*.csv",
    "{m}/turning-stats-p1-*.csv", "{m}/predict-report-p1-*.json",
    "{m}/predict-points-p1-*.csv", "{m}/expand-p1-*.csv",
    "{m}/expand-summary-p1-*.json", "{m}/report-*.json",
)


def expected_outputs(inv: Invocation) -> tuple[str, ...]:
    """Glob patterns (relative to the run's --out) that must match one file each."""
    m = inv.match_id
    if inv.kind == "clean":
        return ("all/clean-*.csv", "all/missing-*.csv", "all/boxplot-*.csv")
    if inv.kind == "indicators":
        return ("all/indicators-*.csv",)
    if inv.kind == "evaluate":
        return (f"{m}/momentum-*.csv",)
    if inv.kind == "predict":
        return tuple(
            f"{m}/predict-{part}-p{p}-*.{ext}"
            for p in (1, 2) for part, ext in (("report", "json"), ("points", "csv"))
        )
    if inv.kind == "expand":
        return tuple(
            f"{m}/expand-{part}p{p}-*.{ext}"
            for p in (1, 2) for part, ext in (("", "csv"), ("summary-", "json"))
        )
    return tuple(p.format(m=m) for p in _PIPELINE_OUTPUTS)


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _one(files: dict[str, Path], part: str) -> tuple[str, Path]:
    return next((k, p) for k, p in files.items() if part in k)


def _check_clean(files, stats, inv, players):
    rows = _csv_rows(_one(files, "/clean-")[1])
    problems = []
    if len(rows) != stats["points"]:
        problems.append(f"clean: {len(rows)} rows for {stats['points']} points")
    gapped = inputs.missing_columns()
    blanks = sum(1 for r in rows for c in gapped if not r[c])
    if blanks:
        problems.append(f"clean: {blanks} cells left blank after imputation")
    return problems


def _check_indicators(files, stats, inv, players):
    # run_pipeline.py leaves the segmentation at its default, "set"
    segmentation = "game" if "game" in inv.argv else "set"
    rows = _csv_rows(_one(files, "/indicators-")[1])
    segments = stats[f"{segmentation}_segments"]
    if len(rows) != 2 * segments:  # indicators always covers both players
        return [f"indicators: {len(rows)} rows for {segments} {segmentation}s x 2 players"]
    return []


def _check_evaluate(files, stats, inv, players):
    rows = _csv_rows(_one(files, "/momentum-")[1])
    problems = []
    want = players * (stats["match_points"][inv.match_id] - WINDOW + 1)
    if len(rows) != want:
        problems.append(f"evaluate: {len(rows)} rows, expected {want}")
    if any(not 10.0 <= float(r["momentum_score"]) <= 100.0 for r in rows):
        problems.append("evaluate: momentum score outside [10, 100]")
    return problems


def _check_predict(files, stats, inv, players):
    n = stats["match_points"][inv.match_id] - 1  # the final point has no label
    problems = []
    for key, path in files.items():
        if "/predict-report-" in key:
            report = json.loads(path.read_text())
            if report["n_train"] + report["n_test"] != n or not 0.0 <= report["acc"] <= 1.0:
                problems.append(f"predict: implausible report {key}")
    return problems


def _check_expand(files, stats, inv, players):
    return [
        f"expand: {key} does not have {EXPAND_STEPS} steps"
        for key, path in files.items()
        if "/expand-p" in key and len(_csv_rows(path)) != EXPAND_STEPS
    ]


_CHECKS = {
    "clean": _check_clean,
    "indicators": _check_indicators,
    "evaluate": _check_evaluate,
    "predict": _check_predict,
    "expand": _check_expand,
}


def check_outputs(inv: Invocation, files: dict[str, Path], stats: dict) -> list[str]:
    """Problems with the content of one invocation's outputs (empty = fine).

    A pipeline run writes what clean, indicators, evaluate, predict and
    expand write, for player 1 only, so the same checks apply to its files.
    """
    if inv.kind == "pipeline":
        return [p for check in _CHECKS.values() for p in check(files, stats, inv, 1)]
    return _CHECKS[inv.kind](files, stats, inv, 2)  # --player 0: both players
