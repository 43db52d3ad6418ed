"""Per-point momentum features, next-win labels, correlations and streak turns.

For a chosen player every point yields one sample:

* S1 - sets won so far (read off the sets column);
* S2 - own score minus opponent score on the point scale (AD = 55);
* S3 - current run of consecutive points won (resets to 0 on a loss);
* S4 - cumulative points-won difference;
* omega - 1 iff the player wins the *next* point. The last point has no
  successor and is labelled with its own victor; drop it for training.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DataQualityWarning,
    EmptyInputError,
    InsufficientDataError,
    UndefinedCorrelationError,
)
from .ingest import EVENT_FLAGS, MatchTimeline

FEATURE_NAMES = ("S1", "S2", "S3", "S4")
SAMPLE_COLUMNS = FEATURE_NAMES + ("omega",)

LOSS_TO_WIN = "loss_to_win"
WIN_TO_LOSS = "win_to_loss"

# Running per-point indicators available for feature expansion, beyond S1-S4.
EXTRA_FEATURE_NAMES = (
    "mean_win_time",
    "total_score",
    "first_serve_points",
    "second_serve_points",
    "first_serve_rate",
    "second_serve_rate",
    "aces",
    "mean_distance",
    "points_won",
    "untouchable_shots",
    "double_fault_losses",
    "unforced_errors",
    "net_approaches",
    "net_points_won",
    "total_distance",
)


class MomentumSample(NamedTuple):
    """One row of the (n, 6) sample table: ``np.array(samples)`` stacks them."""

    index: int  # 1-based point index within the match
    s1: int
    s2: int
    s3: int
    s4: int
    omega: int


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    r: np.ndarray  # symmetric, unit diagonal; NaN marks undefined entries


@dataclass(frozen=True)
class TurningPoint:
    index: int      # 1-based sample index of the first point of the new run
    direction: str  # LOSS_TO_WIN or WIN_TO_LOSS
    window: tuple[MomentumSample, ...]  # lookback samples plus the point itself


@dataclass(frozen=True)
class StatSummary:
    mean: float
    mode: float
    variance: float       # population variance
    trimmed_mean: float   # 30% of points removed, 15% per tail (floored)


def extract_momentum_samples(
    timeline: MatchTimeline, player: int, drop_final: bool = False
) -> list[MomentumSample]:
    """One momentum sample per point, from the chosen player's perspective.

    With ``drop_final`` the last point (whose next-win label is only a
    stand-in) is omitted; that is the recommended setting for training and
    correlation work.
    """
    side = timeline.player(player)
    won = side.won
    positions = np.arange(won.size)
    last_loss = np.maximum.accumulate(np.where(won, -1, positions))
    table = np.column_stack([
        positions + 1,
        side.sets,
        side.score - side.opp_score,
        positions - last_loss,  # S3: points since the last loss
        side.points_won - side.opp_points_won,
        np.append(won[1:], won[-1]),
    ]).astype(int)
    return list(map(MomentumSample._make, (table[:-1] if drop_final else table).tolist()))


def sample_matrix(samples: Sequence[MomentumSample]) -> tuple[np.ndarray, np.ndarray]:
    """(n, 4) feature matrix over S1..S4 and the n-vector of labels."""
    # rows of index, S1-S4, omega; np.array inspects each NamedTuple row
    # and takes about 2.5 times as long
    table = np.fromiter(chain.from_iterable(samples), float).reshape(-1, 6)
    return table[:, 1:5].copy(), table[:, 5].copy()


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation of two equal-length sequences."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("inputs must be 1-D and of equal length")
    if xa.size < 2:
        raise InsufficientDataError("need at least two observations")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    r = float((dx @ dy) / np.sqrt(sxx * syy))
    return min(1.0, max(-1.0, r))  # guard one-ulp overshoot at |r| = 1


def correlation_matrix(samples: Sequence[MomentumSample]) -> CorrelationMatrix:
    """5x5 Pearson matrix over (S1, S2, S3, S4, omega).

    Constant columns yield NaN off-diagonal entries (flagged with a warning)
    so they can be excluded from heatmap exports.
    """
    if len(samples) < 2:
        raise InsufficientDataError("need at least two samples")
    x, y = sample_matrix(samples)
    data = np.column_stack([x, y])
    k = data.shape[1]
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            try:
                r = pearson(data[:, i], data[:, j])
            except UndefinedCorrelationError:
                r = np.nan
            out[i, j] = out[j, i] = r
    undefined = [
        SAMPLE_COLUMNS[i]
        for i in range(k)
        if np.isnan(np.delete(out[i], i)).all()
    ]
    if undefined:
        warnings.warn(
            "constant columns have undefined correlations: "
            + ", ".join(undefined),
            DataQualityWarning,
            stacklevel=2,
        )
    return CorrelationMatrix(labels=SAMPLE_COLUMNS, r=out)


def _omega_runs(samples: Sequence[MomentumSample]) -> list[tuple[float, int, int]]:
    """Maximal runs of equal omega as (value, start, end) with 1-based bounds."""
    _, omega = sample_matrix(samples)
    starts = np.flatnonzero(np.diff(omega, prepend=-1))  # -1 is no label: 0 starts a run
    ends = np.append(starts[1:], omega.size)
    return list(zip(omega[starts].tolist(), (starts + 1).tolist(), ends.tolist()))


def detect_turning_points(
    samples: Sequence[MomentumSample],
    lookback: int = 50,
    run_min: int = 3,
) -> list[TurningPoint]:
    """Indices where a qualifying losing run flips to a winning run (or back).

    A turn needs a maximal run of at least ``run_min`` equal labels on both
    sides; the turning index is the first sample of the new run. Each turn
    carries the ``lookback`` preceding samples plus the turning sample,
    truncated (with a warning) when history is short.
    """
    if lookback < 1:
        raise ValueError("lookback must be positive")
    if run_min < 1:
        raise ValueError("run_min must be positive")
    runs = _omega_runs(samples)
    turns = []
    truncated = 0
    for (v1, s1, e1), (v2, s2, e2) in zip(runs, runs[1:]):
        if (e1 - s1 + 1) < run_min or (e2 - s2 + 1) < run_min:
            continue
        direction = LOSS_TO_WIN if (v1 == 0 and v2 == 1) else WIN_TO_LOSS
        lo = s2 - 1 - lookback
        if lo < 0:
            truncated += 1
            lo = 0
        turns.append(
            TurningPoint(
                index=s2,
                direction=direction,
                window=tuple(samples[lo:s2]),
            )
        )
    if truncated:
        warnings.warn(
            f"{truncated} turning-point window(s) truncated by match start",
            DataQualityWarning,
            stacklevel=2,
        )
    return turns


def group_turning_windows(
    turns: Sequence[TurningPoint],
) -> dict[str, list[MomentumSample]]:
    """Pool window samples by turn direction."""
    groups: dict[str, list[MomentumSample]] = {}
    for t in turns:
        groups.setdefault(t.direction, []).extend(t.window)
    return groups


def _mode(values: np.ndarray) -> float:
    uniq, counts = np.unique(values, return_counts=True)
    return float(uniq[np.argmax(counts)])  # ties: smallest value (unique sorts)


def trimmed_mean(values: Sequence[float], trim_total: float = 0.30) -> float:
    """Mean after dropping ``trim_total`` of the points, half per tail."""
    arr = np.sort(np.asarray(values, dtype=float))
    k = int(np.floor(arr.size * trim_total / 2.0))
    kept = arr[k : arr.size - k]
    return float(kept.mean())


def turning_point_stats(
    groups: Mapping[str, Sequence[MomentumSample]],
) -> dict[str, dict[str, StatSummary]]:
    """Mean/mode/population-variance/trimmed-mean of S1..S4, per direction
    and feature name."""
    out: dict[str, dict[str, StatSummary]] = {}
    for direction, samples in groups.items():
        if not samples:
            raise EmptyInputError(f"turning-point group {direction!r} is empty")
        x, _ = sample_matrix(samples)
        out[direction] = {
            f"S{j}": StatSummary(
                mean=float(v.mean()),
                mode=_mode(v),
                variance=float(v.var()),
                trimmed_mean=trimmed_mean(v),
            )
            for j, v in enumerate(x.T, start=1)
        }
    return out


def extra_feature_columns(
    timeline: MatchTimeline, player: int
) -> dict[str, np.ndarray]:
    """Running (cumulative-to-date) indicator columns aligned with samples.

    Every column has one value per point, computed over the match history up
    to and including that point. Flags absent from the file count as zero.
    """
    side = timeline.player(player)
    won = side.won.astype(float)
    serving = side.serving.astype(float)
    first_serve = side.first_serve.astype(float)
    dist = np.nan_to_num(side.distance, nan=0.0)
    running = dict(zip(EVENT_FLAGS, np.cumsum(side.events, axis=1)))

    wins_cum = np.cumsum(won)
    win_time_cum = np.cumsum(side.durations * won)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_win_time = np.where(wins_cum > 0, win_time_cum / np.maximum(wins_cum, 1), 0.0)

    fs_won = np.cumsum(won * serving * first_serve)
    ss_won = np.cumsum(won * serving * (1.0 - first_serve))
    serve_total = fs_won + ss_won
    safe = np.maximum(serve_total, 1.0)
    first_rate = np.where(serve_total > 0, fs_won / safe, 0.0)
    second_rate = np.where(serve_total > 0, ss_won / safe, 0.0)

    t = np.arange(1, won.size + 1, dtype=float)
    return {
        "mean_win_time": mean_win_time,
        "total_score": np.cumsum(side.score),
        "first_serve_points": fs_won,
        "second_serve_points": ss_won,
        "first_serve_rate": first_rate,
        "second_serve_rate": second_rate,
        "aces": running["ace"],
        "mean_distance": np.cumsum(dist) / t,
        "points_won": wins_cum,
        "untouchable_shots": running["untouchable_winner"],
        "double_fault_losses": running["double_fault"],
        "unforced_errors": running["unforced_error"],
        "net_approaches": running["net_approach"],
        "net_points_won": running["net_point_won"],
        "total_distance": np.cumsum(dist),
    }
