"""Command-line front end for the analytics pipeline.

Subcommands: clean, indicators, evaluate, correlate, turning-points,
predict, expand, report, and pipeline (all eight on one load). Outputs
land under ``--out`` in one directory per match id; file names encode
the subcommand and a hash of the effective configuration, so identical
configurations overwrite their own previous outputs and nothing else.
All writes are atomic (write-to-temp-then-rename) and byte-deterministic.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

import argparse
import csv
import gc
import hashlib
import json
import os
import sys
import tempfile
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

import numpy as np

# each command imports the other layers it runs when it runs, so a cold
# ``clean`` loads only these two
from .errors import DataError, UnknownMatchError
from .ingest import (
    CSV_COLUMNS,
    MatchTimeline,
    load_matches,
    point_table,
    table_csv_rows,
    table_imputation,
    table_missing_rate,
    table_outlier_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _setting(default, help=None, choices=None):
    """A ``RunConfig`` field: its default, and its flag's help and choices."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class RunConfig:
    """Every setting of a run, each declared once. A field ``name`` is the
    flag ``--name`` (underscores as dashes) and the config-file key
    ``name``; both read it with the field's type and accept only its
    choices. ``drop_final`` is turned off by ``--keep-final-sample``."""

    data: str = _setting("", "point-by-point CSV path")
    match: str = _setting("", "match id filter")
    player: int = _setting(0, "0 (both, default), 1 or 2", (0, 1, 2))
    out: str = _setting("out", "output directory (default: out)")
    format: str = _setting("csv", "report format (default: csv)", ("csv", "json"))
    segmentation: str = _setting("set", choices=("set", "game"))
    window: int = _setting(20, "momentum window (points)")
    pca_components: int = 10
    folds: int = 5
    sigma_min: float = 0.01
    sigma_max: float = 2.0
    sigma_count: int = 40
    split_fraction: float = 0.7
    threshold: float = 0.5
    run_min: int = 3
    lookback: int = 50
    drop_final: bool = _setting(True, "keep the last point (stand-in label) in samples")

    def cv_config(self) -> "grnn.CvConfig":
        from . import grnn

        # NaN fails the comparisons too; np.geomspace would warn first
        if not (0 < self.sigma_min < np.inf and 0 < self.sigma_max < np.inf):
            raise UsageError("sigma_min and sigma_max must be positive and finite")
        grid = tuple(
            float(s) for s in np.geomspace(self.sigma_min, self.sigma_max, self.sigma_count)
        )
        return grnn.CvConfig(
            folds=self.folds,
            sigma_grid=grid,
            split_fraction=self.split_fraction,
            decision_threshold=self.threshold,
        )

    def digest(self) -> str:
        # the output directory does not change what gets computed
        payload = json.dumps(
            {f.name: getattr(self, f.name) for f in dc_fields(self) if f.name != "out"},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:10]


_SETTINGS = {f.name: f for f in dc_fields(RunConfig)}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` configuration file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except OSError as exc:  # the config is not input data: a usage error
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read config file {path}: not UTF-8 text: byte "
                         f"{exc.object[exc.start]:#04x} ({exc.reason})") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = body.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = _config_value(_SETTINGS[key], raw.strip())
    return values


def _config_value(setting, raw: str):
    """``raw`` read as the flag of ``setting`` reads it."""
    try:
        value = _BOOLS[raw.lower()] if setting.type is bool else setting.type(raw)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad value for {setting.name}: {raw!r}") from exc
    choices = setting.metadata.get("choices")
    if choices and value not in choices:
        raise UsageError(f"bad value for {setting.name}: {value!r}")
    return value


def _unwritable(path: Path, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror}")


@contextmanager
def atomic_open(path: Path):
    """A text file in ``path``'s directory that replaces ``path`` when the
    block ends; on an error it is removed and ``path`` stays as it was.
    A directory, temporary file or rename that the system refuses is a
    usage error: the output place is at fault, not the input."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # a directory in the file's place, say
            raise _unwritable(path, exc) from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table row by row into a temporary file, then rename it."""
    with atomic_open(path) as fh:
        # csv.writer writes str(value); a float's str is its shortest round-trip text
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, payload) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


class Outputs:
    """The files of one command run, and the list of those written so far.

    Each file is ``<out>/<--match or "all">/<name>-<digest>.<ext>``, where
    the digest is ``RunConfig.digest()``; ``paths`` lists them in order.
    """

    def __init__(self, config: RunConfig):
        self.dir = Path(config.out) / (config.match or "all")
        self.digest = config.digest()
        self.format = config.format
        self.paths: list[Path] = []

    def path(self, name: str, ext: str) -> Path:
        return self.dir / f"{name}-{self.digest}.{ext}"

    def csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        path = self.path(name, "csv")
        write_rows(path, header, rows)
        self.paths.append(path)

    def json(self, name: str, payload) -> None:
        path = self.path(name, "json")
        write_json(path, payload)
        self.paths.append(path)

    def table(self, name: str, header: list[str], rows: list[list]) -> None:
        """A small table as CSV, or as JSON records with ``--format json``."""
        if self.format == "json":
            self.json(name, [dict(zip(header, row)) for row in rows])
        else:
            self.csv(name, header, rows)


def _load(config: RunConfig, match: str) -> list[MatchTimeline]:
    """The timelines of ``--data``; with ``match``, of that match only."""
    if not config.data:
        raise UsageError("--data is required")
    path = Path(config.data)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    return load_matches(path, match or None)


def _select_match(timelines: list[MatchTimeline], config: RunConfig) -> MatchTimeline:
    if not config.match:
        raise UsageError("--match is required for this subcommand")
    for tl in timelines:
        if tl.match_id == config.match:
            return tl
    raise UnknownMatchError(config.match, (tl.match_id for tl in timelines))


def _players(config: RunConfig) -> list[int]:
    if config.player == 0:
        return [1, 2]
    if config.player in (1, 2):
        return [config.player]
    raise UsageError(f"--player must be 1 or 2, got {config.player}")


def _player_samples(tl: MatchTimeline, config: RunConfig):
    """(player, momentum samples) for each player of the run."""
    from . import momentum

    for player in _players(config):
        yield player, momentum.extract_momentum_samples(
            tl, player, drop_final=config.drop_final
        )


def cmd_clean(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    if config.match:
        timelines = [_select_match(timelines, config)]
    points = point_table(timelines)
    before = table_missing_rate(points)
    box = table_outlier_report(points)
    filled = table_imputation(points)

    out = Outputs(config)
    out.csv("clean", CSV_COLUMNS, table_csv_rows(points, filled))
    out.table("missing", ["column", "missing_rate"], sorted(before.rates.items()))
    header = ["column", "min", "q1", "median", "q3", "max",
              "lower_fence", "upper_fence", "outlier_count"]
    out.table("boxplot", header, [
        [c, s.minimum, s.q1, s.median, s.q3, s.maximum, s.lower_fence,
         s.upper_fence, s.outlier_count]
        for c, s in sorted(box.columns.items())
    ])
    return out.paths


def cmd_indicators(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    from .indicators import INDICATOR_NAMES, indicator_table, pca_reduce

    if config.match:
        timelines = [_select_match(timelines, config)]
    meta, matrix = indicator_table(timelines, _players(config), config.segmentation)
    k = min(config.pca_components, max(1, min(matrix.shape[0] - 1, matrix.shape[1])))
    result = pca_reduce(matrix, k)
    header = (
        ["match_id", "player", "segment"]
        + list(INDICATOR_NAMES)
        + [f"pc{i + 1}" for i in range(k)]
    )
    full_rows = [
        [*key, *values, *scores]
        for key, values, scores in zip(meta, matrix.tolist(), result.scores.tolist())
    ]
    out = Outputs(config)
    out.csv("indicators", header, full_rows)
    return out.paths


def cmd_evaluate(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    from .fuzzy import momentum_series

    tl = _select_match(timelines, config)
    rows = []
    for player in _players(config):
        for point in momentum_series(tl, player, config.window):
            rows.append([tl.match_id, point.elapsed_seconds, player, point.score])
    rows.sort(key=lambda r: (r[1], r[2]))
    out = Outputs(config)
    out.csv("momentum", ["match_id", "elapsed_seconds", "player", "momentum_score"], rows)
    return out.paths


def cmd_correlate(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    from . import momentum

    tl = _select_match(timelines, config)
    out = Outputs(config)
    for player, samples in _player_samples(tl, config):
        corr = momentum.correlation_matrix(samples)
        keep = [i for i in range(len(corr.labels))
                if not np.isnan(np.delete(corr.r[i], i)).all()]
        header = ["feature"] + [corr.labels[j] for j in keep]
        rows = [[corr.labels[i]] + [float(corr.r[i, j]) for j in keep] for i in keep]
        out.csv(f"correlation-p{player}", header, rows)
    return out.paths


def cmd_turning_points(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    from . import momentum

    tl = _select_match(timelines, config)
    out = Outputs(config)
    for player, samples in _player_samples(tl, config):
        turns = momentum.detect_turning_points(
            samples, lookback=config.lookback, run_min=config.run_min
        )
        header = ["turn_index", "direction", "sample_index", "S1", "S2", "S3", "S4",
                  "omega"]
        out.csv(f"turning-windows-p{player}", header, [
            [turn.index, turn.direction, s.index, s.s1, s.s2, s.s3, s.s4, s.omega]
            for turn in turns for s in turn.window
        ])

        groups = momentum.group_turning_windows(turns)
        stat_rows = []
        if groups:
            stats = momentum.turning_point_stats(groups)
            for direction in sorted(stats.stats):
                for feature in momentum.FEATURE_NAMES:
                    s = stats.stats[direction][feature]
                    stat_rows.append(
                        [direction, feature, s.mean, s.mode, s.variance,
                         s.trimmed_mean]
                    )
        header = ["direction", "feature", "mean", "mode", "variance", "trimmed_mean"]
        out.csv(f"turning-stats-p{player}", header, stat_rows)
    return out.paths


def cmd_predict(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    from . import grnn, momentum

    tl = _select_match(timelines, config)
    out = Outputs(config)
    cv = config.cv_config()
    for player, samples in _player_samples(tl, config):
        split, model, report = grnn.fit_prefix(*momentum.sample_matrix(samples), cv)
        out.json(f"predict-report-p{player}", {
            "match_id": tl.match_id,
            "player": player,
            "sigma": model.sigma,
            "threshold": cv.decision_threshold,
            "n_train": int(split),
            "n_test": len(report.predictions),
            "mse": report.mse,
            "acc": report.acc,
            "cv_curve": [list(pair) for pair in model.cv_curve],
            "sigma_at_grid_edge": model.sigma in (cv.sigma_grid[0], cv.sigma_grid[-1]),
        })
        header = ["sample_index", "actual", "predicted", "raw", "error"]
        out.csv(f"predict-points-p{player}", header, [
            [split + i + 1, actual, predicted, raw, actual - raw]
            for i, (actual, predicted, raw) in enumerate(report.predictions)
        ])
    return out.paths


def cmd_expand(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    from . import grnn, momentum

    tl = _select_match(timelines, config)
    out = Outputs(config)
    cv = config.cv_config()
    for player, samples in _player_samples(tl, config):
        x, y = momentum.sample_matrix(samples)
        extras = momentum.extra_feature_columns(tl, player)
        extras = {k: v[: len(y)] for k, v in extras.items()}
        # rank on the training prefix only: the test labels stay unseen
        split = grnn.chronological_split(len(y), cv.split_fraction)
        order = grnn.rank_extras_by_correlation(
            {k: v[:split] for k, v in extras.items()}, y[:split]
        )
        sweep = grnn.expand_features(x, extras, y, cv, ranked_names=order)

        header = ["step", "added_feature", "feature_count", "mse", "acc", "sigma"]
        out.csv(f"expand-p{player}", header, [
            [i, step.added_feature, step.feature_count, step.mse, step.acc, step.sigma]
            for i, step in enumerate(sweep.steps)
        ])

        best_mse, best_acc = sweep.best_by_mse, sweep.best_by_acc
        out.json(f"expand-summary-p{player}", {
            "match_id": tl.match_id,
            "player": player,
            "baseline_mse": sweep.steps[0].mse,
            "baseline_acc": sweep.steps[0].acc,
            "best_mse": best_mse.mse,
            "best_mse_features": best_mse.feature_count,
            "best_acc": best_acc.acc,
            "best_acc_features": best_acc.feature_count,
        })
    return out.paths


def cmd_report(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    """One JSON per match: missing data, correlations, prediction quality."""
    from . import grnn, momentum

    tl = _select_match(timelines, config)
    rates = table_missing_rate(point_table([tl])).rates
    cv = config.cv_config()
    payload = {
        "match_id": tl.match_id,
        "players": dict(zip(("1", "2"), tl.players)),
        "points": len(tl),
        "missing_rates": {k: v for k, v in sorted(rates.items())},
        "per_player": {},
    }
    for player, samples in _player_samples(tl, config):
        _, model, report = grnn.fit_prefix(*momentum.sample_matrix(samples), cv)
        corr = momentum.correlation_matrix(samples)
        omega_row = {
            label: (None if np.isnan(corr.r[-1, i]) else float(corr.r[-1, i]))
            for i, label in enumerate(corr.labels[:-1])
        }
        payload["per_player"][str(player)] = {
            "omega_correlations": omega_row,
            "baseline": {"mse": report.mse, "acc": report.acc, "sigma": model.sigma},
        }
    out = Outputs(config)
    out.json("report", payload)
    return out.paths


def cmd_pipeline(config: RunConfig, timelines: list[MatchTimeline]) -> list[Path]:
    """Every command on one load: clean and indicators over every match,
    the rest on ``--match``. Prints each command's files as it ends, then
    the held-out prediction report and expansion summary of each player,
    read from the files of this run. Returns no paths: they are printed."""
    _select_match(timelines, config)  # before any write
    whole = replace(config, match="", player=0)
    for command, scoped in ((cmd_clean, whole), (cmd_indicators, whole),
                            (cmd_evaluate, config), (cmd_correlate, config),
                            (cmd_turning_points, config), (cmd_predict, config),
                            (cmd_expand, config), (cmd_report, config)):
        for path in command(scoped, timelines):
            print(path)
    outputs = Outputs(config)
    for player in _players(config):
        predict = json.loads(outputs.path(f"predict-report-p{player}", "json").read_text())
        expand = json.loads(outputs.path(f"expand-summary-p{player}", "json").read_text())
        print()
        print(f"match {config.match}, player {player}")
        print(f"  held-out MSE {predict['mse']:.4f}, ACC {predict['acc']:.4f} "
              f"(sigma {predict['sigma']:.3f})")
        print(f"  expansion: baseline ACC {expand['baseline_acc']:.4f} -> "
              f"best {expand['best_acc']:.4f} with "
              f"{expand['best_acc_features']} features")
    return []


_COMMANDS = {
    "clean": cmd_clean,
    "indicators": cmd_indicators,
    "evaluate": cmd_evaluate,
    "correlate": cmd_correlate,
    "turning-points": cmd_turning_points,
    "predict": cmd_predict,
    "expand": cmd_expand,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tennis-momentum", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value configuration file")
    for setting in dc_fields(RunConfig):
        if setting.type is bool:  # None unless given, as for every flag
            parser.add_argument("--keep-final-sample", dest=setting.name, default=None,
                                action="store_false", help=setting.metadata["help"])
        else:
            parser.add_argument("--" + setting.name.replace("_", "-"), type=setting.type,
                                **setting.metadata)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the ``--config`` file's values, then the flags given."""
    values = parse_config_file(args.config) if args.config else {}
    for name in _SETTINGS:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return RunConfig(**values)


def main(argv=None) -> int:
    """Run one subcommand; returns its exit code.

    The command loads ``--data``: with ``--match`` only that match's rows
    are parsed, except for ``pipeline``, whose clean and indicators runs
    need every match.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = resolve_config(args)
        timelines = _load(config, "" if args.command == "pipeline" else config.match)
        paths = _COMMANDS[args.command](config, timelines)
    # before ValueError: some data errors are also ValueErrors
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for path in paths:
        print(path)
    return EXIT_OK


def entry() -> None:
    code = main()
    # the process ends next: skip collecting the objects made at import time
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
