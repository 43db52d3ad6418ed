"""Per-player performance indicators over match segments, plus PCA reduction.

Twenty-two indicators are computed per segment (a set, a game, or an
arbitrary slice of points). Counts and rates follow the conventions below:

* serve-score rates use points won on serve as the denominator
  (``x11 = x9 / (x9 + x10)``), not serve attempts;
* any indicator whose denominator is empty is set to 0 and a
  ``DataQualityWarning`` is emitted;
* variances are population variances (1/n).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataQualityWarning, DegenerateRangeError
from .ingest import MatchArrays, MatchTimeline, PlayerColumns, PointRecord

INDICATOR_NAMES = tuple(f"x{i}" for i in range(1, 23))


@dataclass(frozen=True)
class IndicatorVector:
    """Values of x1..x22 for one player over one segment."""

    x1: float   # points won
    x2: float   # mean duration of won points (s)
    x3: float   # mean successive difference of won-point durations (s)
    x4: float   # mean score value (points scale)
    x5: float   # total score value
    x6: float   # share of records with own score >= 40
    x7: float   # mean running point share
    x8: float   # variance of running point share
    x9: float   # points won on first serve
    x10: float  # points won on second serve
    x11: float  # x9 / (x9 + x10)
    x12: float  # x10 / (x9 + x10)
    x13: float  # aces
    x14: float  # share of points won
    x15: float  # untouchable-winner rate
    x16: float  # double-fault rate
    x17: float  # unforced-error rate
    x18: float  # net-approach rate
    x19: float  # net-point-won rate
    x20: float  # missed-break-chance rate
    x21: float  # mean running distance (m)
    x22: float  # variance of running distance

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in INDICATOR_NAMES])


@dataclass(frozen=True)
class PcaResult:
    loadings: np.ndarray            # (k, p), rows orthonormal
    scores: np.ndarray              # (n, k)
    explained_variance: np.ndarray  # (k,), non-increasing


def _warn(msg: str) -> None:
    warnings.warn(msg, DataQualityWarning, stacklevel=3)


def indicator_vector(records: Sequence[PointRecord], player: int) -> IndicatorVector:
    """Compute x1..x22 for one player over one contiguous segment.

    Durations come from the segment's own clock; ``compute_indicators``
    uses match-wide durations so a segment's first point keeps its length.
    """
    if not records:
        raise ValueError("segment must contain at least one record")
    side = MatchArrays.from_records(records).player(player)
    return IndicatorVector(*segment_indicators(side, slice(None)))


def segment_indicators(side: PlayerColumns, rows: slice | np.ndarray) -> np.ndarray:
    """x1..x22 for one player over the points ``rows`` selects."""
    player = side.player
    won = side.won[rows]
    m = won.size
    x1 = float(won.sum())

    win_times = side.durations[rows][won]
    if win_times.size:
        x2 = float(win_times.mean())
    else:
        _warn(f"player {player}: no points won in segment; x2/x3 set to 0")
        x2 = 0.0
    if win_times.size >= 2:
        x3 = float(np.diff(win_times).sum() / win_times.size)
    else:
        x3 = 0.0

    scores = side.score[rows]
    x4 = float(scores.mean())
    x5 = float(scores.sum())
    x6 = float((scores >= 40).sum() / m)

    own_pw = side.points_won[rows]
    total_pw = own_pw + side.opp_points_won[rows]
    shares = np.zeros(m)
    nonzero = total_pw > 0
    if not nonzero.all():
        _warn("running point totals of 0 encountered; affected shares set to 0")
    shares[nonzero] = own_pw[nonzero] / total_pw[nonzero]
    x7 = float(shares.mean())
    x8 = float(shares.var())

    has_serve = bool(side.serve_known[rows].all())
    if has_serve:
        serving = side.serving[rows]
        first = side.first_serve[rows]
        x9 = float((won & serving & first).sum())
        x10 = float((won & serving & ~first).sum())
    else:
        _warn("server/serve_no unavailable; x9-x12 set to 0")
        x9 = x10 = 0.0
    if x9 + x10 > 0:
        x11 = x9 / (x9 + x10)
        x12 = x10 / (x9 + x10)
    else:
        if has_serve:
            _warn(f"player {player}: no points won on serve; x11/x12 set to 0")
        x11 = x12 = 0.0

    events = side.events[:, rows]  # aces first, then x15..x20 in EVENT_FLAGS order
    x13 = float(events[0].sum())
    x14 = x1 / m
    rates = (events[1:].sum(axis=1) / m).tolist()

    dists = side.distance[rows]
    dv = dists[~np.isnan(dists)]
    if dv.size:
        x21 = float(dv.mean())
        x22 = float(dv.var())
    else:
        _warn(f"player {player}: no running-distance values; x21/x22 set to 0")
        x21 = x22 = 0.0

    return np.array(
        [x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, *rates, x21, x22]
    )


def _segments(arrays: MatchArrays, segmentation: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted unique segment keys and, per key, the positions of its points."""
    if segmentation not in ("set", "game"):
        raise ValueError(f"segmentation must be 'set' or 'game', got {segmentation!r}")
    columns = [arrays.set_no] if segmentation == "set" else [arrays.set_no, arrays.game_no]
    unique, inverse, counts = np.unique(
        np.column_stack(columns), axis=0, return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse.reshape(-1), kind="stable")
    return unique, np.split(order, np.cumsum(counts)[:-1])


def compute_indicators(
    timeline: MatchTimeline, player: int, segmentation: str = "set"
) -> list[IndicatorVector]:
    """One IndicatorVector per segment (``"set"`` or ``"game"``)."""
    side = timeline.arrays.player(player)
    _, segments = _segments(timeline.arrays, segmentation)
    return [IndicatorVector(*segment_indicators(side, rows)) for rows in segments]


def segment_labels(timeline: MatchTimeline, segmentation: str = "set") -> list[str]:
    """Segment names aligned with ``compute_indicators`` output."""
    keys, _ = _segments(timeline.arrays, segmentation)
    if segmentation == "set":
        return [f"set{k[0]}" for k in keys]
    return [f"set{k[0]}-game{k[1]}" for k in keys]


def positivize(values: Sequence[float]) -> np.ndarray:
    """Reverse the orientation of a smaller-is-better series onto [0, 1].

    ``x_p = (max - x) / (max - min)``; the minimum maps to 1, the maximum
    to 0. Raises DegenerateRangeError when all values coincide (callers
    typically substitute a constant 0.5 column).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("positivize needs at least one value")
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        raise DegenerateRangeError("all values identical; cannot positivize")
    return (hi - arr) / (hi - lo)


def normalize_minmax(matrix: np.ndarray) -> np.ndarray:
    """Scale each column to [0, 1]; constant columns become 0.5."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] < 1:
        raise ValueError("normalize_minmax needs at least one row")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = hi - lo
    out = np.full(arr.shape, 0.5)
    ok = span > 0
    out[:, ok] = (arr[:, ok] - lo[ok]) / span[ok]
    return out


def pca_reduce(matrix: np.ndarray, k: int) -> PcaResult:
    """Top-k principal components of column-standardized data.

    Columns are standardized to zero mean and unit variance (ddof=1);
    zero-variance columns become all-zero with a warning. Components are
    eigenvectors of the correlation matrix, ordered by decreasing
    eigenvalue, each signed so its largest-magnitude loading is positive.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n, p = arr.shape
    if n <= 1:
        raise ValueError("pca_reduce needs more than one row")
    if not 1 <= k <= min(n - 1, p):
        raise ValueError(f"k={k} out of range [1, {min(n - 1, p)}]")

    mu = arr.mean(axis=0)
    sd = arr.std(axis=0, ddof=1)
    # a column of one repeated value can show sd ~ 1e-16 from mean rounding
    flat = sd <= 1e-12 * np.maximum(1.0, np.abs(mu))
    if flat.any():
        _warn(f"{int(flat.sum())} zero-variance column(s) standardized to zeros")
    z = np.zeros_like(arr)
    z[:, ~flat] = (arr[:, ~flat] - mu[~flat]) / sd[~flat]

    corr = (z.T @ z) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1][:k]
    loadings = eigvecs[:, order].T.copy()
    for row in loadings:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1
    return PcaResult(
        loadings=loadings,
        scores=z @ loadings.T,
        explained_variance=np.maximum(eigvals[order], 0.0),
    )
