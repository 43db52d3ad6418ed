"""Per-player performance indicators over match segments, plus PCA reduction.

Twenty-two indicators are computed per segment (a set, a game, a sliding
window or any other run of points) by one kernel, ``indicator_matrix``, over
arrays of (start, end) point bounds: x1 points won; x2 mean and x3 mean
successive difference of won-point durations (s); x4 mean and x5 total score
value; x6 share of points with own score >= 40; x7 mean and x8 variance of
the running point share; x9/x10 points won on first/second serve and x11/x12
their shares; x13 aces; x14 share of points won; x15-x20 untouchable-winner,
double-fault, unforced-error, net-approach, net-point-won and
missed-break-chance rates; x21 mean and x22 variance of running distance (m).
Counts and rates follow the conventions below:

* serve-score rates use points won on serve as the denominator
  (``x11 = x9 / (x9 + x10)``), not serve attempts;
* any indicator whose denominator is empty is set to 0 and flagged;
  ``indicator_table`` turns the flags into one ``DataQualityWarning`` per
  kind and player, naming how many segments it affects;
* variances are population variances (1/n).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DataQualityWarning, InsufficientDataError
from .ingest import MatchTimeline, PlayerColumns

INDICATOR_NAMES = tuple(f"x{i}" for i in range(1, 23))


@dataclass(frozen=True)
class PcaResult:
    loadings: np.ndarray            # (k, p), rows orthonormal
    scores: np.ndarray              # (n, k)
    explained_variance: np.ndarray  # (k,), non-increasing


def _warn(msg: str) -> None:
    warnings.warn(msg, DataQualityWarning, stacklevel=3)


# The kinds of degenerate range that indicator_matrix flags: what a warning
# says of the segments, and what the kernel sets to 0 for them.
DEGENERATE_KINDS = {
    "no_wins": ("no points won", "x2/x3"),
    "zero_totals": ("running point totals of 0", "affected shares"),
    "serve_unknown": ("server/serve_no unavailable", "x9-x12"),
    "no_serve_wins": ("no points won on serve", "x11/x12"),
    "no_distance": ("no running-distance values", "x21/x22"),
}

# Rows of one block gathered at once by _run_moments, at most this many cells.
_BLOCK_CELLS = 1 << 20


def _warn_degenerate(player: int, degenerate: dict[str, np.ndarray]) -> None:
    """One DataQualityWarning per kind of degenerate segment, with its count."""
    for kind, mask in degenerate.items():
        count = int(mask.sum())
        if count:
            what, zeroed = DEGENERATE_KINDS[kind]
            # stacklevel 3: the caller of indicator_table
            warnings.warn(
                f"player {player}: {what} in {count} of {mask.size} segments; "
                f"{zeroed} set to 0",
                DataQualityWarning,
                stacklevel=3,
            )


def _run_moments(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population variance of ``values[s:s + l]`` per run; 0 for l = 0.

    Runs of one length are gathered into a C-contiguous (runs, l) block and
    reduced along its rows, which sums each row as ``values[s:s + l]`` alone
    would be summed: the results are bit-identical to ``.mean()`` and
    ``.var()`` of each slice. (``np.add.reduceat`` is not.)
    """
    mean = np.zeros(starts.size)
    var = np.zeros(starts.size)
    # the distinct positive lengths, ascending (np.unique would import numpy.ma)
    for length in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
        runs = np.flatnonzero(lengths == length)
        step = max(1, _BLOCK_CELLS // length)
        for chunk in (runs[i : i + step] for i in range(0, runs.size, step)):
            block = values[starts[chunk, None] + np.arange(length)]
            mean[chunk] = block.mean(axis=1)
            var[chunk] = block.var(axis=1)
    return mean, var


def indicator_matrix(
    side: PlayerColumns, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """x1..x22 for one player over each point range ``[starts[i], ends[i])``.

    Returns a (k, 22) matrix and, per ``DEGENERATE_KINDS`` key, a (k,) bool
    array flagging the ranges of that kind. Every range must hold at least
    one point. Counts, sums of won-point durations and score sums are
    differences of prefix sums; they are exact because those columns hold
    whole numbers (seconds, points, 0/1 flags). Shares and distances are
    reduced per range by ``_run_moments``. The kernel never warns: callers
    turn the flags into warnings or counts.
    """
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    m = (ends - starts).astype(float)
    won = side.won
    own_pw = side.points_won
    total_pw = own_pw + side.opp_points_won
    nonzero = total_pw > 0
    serving_won = won & side.serving
    present = ~np.isnan(side.distance)
    counted = np.vstack([
        won,  # row 0
        np.where(won, side.durations, 0.0),
        side.score,
        side.score >= 40,
        serving_won & side.first_serve,
        serving_won & ~side.first_serve,
        side.serve_known,
        ~nonzero,
        present,  # row 8
        side.events,  # aces first, then x15..x20 in EVENT_FLAGS order
    ])
    prefix = np.zeros((counted.shape[0], counted.shape[1] + 1))
    np.cumsum(counted, axis=1, out=prefix[:, 1:])
    (wins, win_time, score_sum, high, first_won, second_won, known, zero_total,
     dist_count, aces, *event_counts) = prefix[:, ends] - prefix[:, starts]

    out = np.zeros((starts.size, len(INDICATOR_NAMES)))
    out[:, 0] = wins
    np.divide(win_time, wins, out=out[:, 1], where=wins > 0)
    # the successive differences of won-point durations telescope to last - first
    several = np.flatnonzero(wins >= 2)
    win_rows = np.flatnonzero(won)
    wins_before = prefix[0].astype(np.intp)
    first = side.durations[win_rows[wins_before[starts[several]]]]
    last = side.durations[win_rows[wins_before[ends[several]] - 1]]
    out[several, 2] = (last - first) / wins[several]
    out[:, 3] = score_sum / m
    out[:, 4] = score_sum
    out[:, 5] = high / m

    shares = np.zeros(won.size)
    shares[nonzero] = own_pw[nonzero] / total_pw[nonzero]
    out[:, 6], out[:, 7] = _run_moments(shares, starts, ends - starts)

    has_serve = known == m
    out[:, 8] = np.where(has_serve, first_won, 0.0)
    out[:, 9] = np.where(has_serve, second_won, 0.0)
    serve_wins = out[:, 8] + out[:, 9]
    np.divide(out[:, 8], serve_wins, out=out[:, 10], where=serve_wins > 0)
    np.divide(out[:, 9], serve_wins, out=out[:, 11], where=serve_wins > 0)
    out[:, 12] = aces
    out[:, 13] = wins / m
    out[:, 14:20] = np.transpose(event_counts) / m[:, None]

    # a range's present distances are one run of the present values
    dists_before = prefix[8, starts].astype(np.intp)
    out[:, 20], out[:, 21] = _run_moments(
        side.distance[present], dists_before, dist_count.astype(np.intp)
    )
    degenerate = {
        "no_wins": wins == 0,
        "zero_totals": zero_total > 0,
        "serve_unknown": ~has_serve,
        "no_serve_wins": has_serve & (serve_wins == 0),
        "no_distance": dist_count == 0,
    }
    return out, degenerate


def _segments(
    timeline: MatchTimeline, segmentation: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment keys, one row per segment, and each segment's (start, end) bounds.

    A segment is a run of points sharing a set (and game) number. Loaded
    timelines are sorted by key; one from ``records.timeline`` keeps its
    records' order, so it must list each key in one run and in increasing
    order, or ValueError names the match.
    """
    if segmentation not in ("set", "game"):
        raise ValueError(f"segmentation must be 'set' or 'game', got {segmentation!r}")
    key_fields = ("set_no",) if segmentation == "set" else ("set_no", "game_no")
    keys = np.column_stack([timeline.column(f) for f in key_fields]).astype(int)
    starts = np.concatenate([[0], np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1])
    ends = np.append(starts[1:], keys.shape[0])
    run_keys = keys[starts]
    later, earlier = run_keys[1:], run_keys[:-1]
    # the first differing column of neighbouring runs decides their order
    column = np.argmax(later != earlier, axis=1)
    rows = np.arange(column.size)
    backwards = np.flatnonzero(later[rows, column] < earlier[rows, column])
    if backwards.size:
        i = backwards[0]
        raise ValueError(
            f"match {timeline.match_id!r}: {segmentation} key {tuple(later[i].tolist())} "
            f"follows {tuple(earlier[i].tolist())}; points must be in (set, game) order"
        )
    return run_keys, starts, ends


def _labels(keys: np.ndarray, segmentation: str) -> list[str]:
    if segmentation == "set":
        return [f"set{s}" for (s,) in keys.tolist()]
    return [f"set{s}-game{g}" for s, g in keys.tolist()]


# Points per kernel call of _indicator_rows: whole timelines are grouped up
# to this many points, and a longer timeline is a group of its own.
_GROUP_POINTS = 2048
_SIDE_ARRAYS = tuple(f.name for f in fields(PlayerColumns))


def _concatenated(sides: list[PlayerColumns]) -> PlayerColumns:
    """One PlayerColumns holding the points of ``sides``, one after another."""
    return PlayerColumns(**{name: np.concatenate([getattr(s, name) for s in sides], axis=-1)
                            for name in _SIDE_ARRAYS})


def _indicator_rows(
    timelines: Sequence[MatchTimeline], players: Sequence[int], segmentation: str
) -> tuple[list[np.ndarray], dict[int, np.ndarray], dict[int, dict[str, np.ndarray]]]:
    """The segment keys of each timeline, and per player the (segments, 22)
    matrix of every timeline's segments in order, with its degenerate masks.

    One ``indicator_matrix`` call per player covers a group of whole
    timelines of at most ``_GROUP_POINTS`` points: their columns are
    concatenated and each timeline's segment bounds offset by the points
    before it. Each row equals that of a call on its timeline alone.
    """
    if not timelines:
        raise ValueError("indicators need at least one timeline")
    segments = [_segments(tl, segmentation) for tl in timelines]
    groups: list[list[int]] = []
    size = 0
    for i, tl in enumerate(timelines):
        if groups and size + len(tl) <= _GROUP_POINTS:
            groups[-1].append(i)
            size += len(tl)
        else:
            groups.append([i])
            size = len(tl)
    matrices = {p: [] for p in players}
    flags = {p: [] for p in players}
    for group in groups:
        offsets = np.cumsum([0] + [len(timelines[i]) for i in group[:-1]])
        starts = np.concatenate([segments[i][1] + o for i, o in zip(group, offsets)])
        ends = np.concatenate([segments[i][2] + o for i, o in zip(group, offsets)])
        for p in players:
            side = _concatenated([timelines[i].player(p) for i in group])
            matrix, degenerate = indicator_matrix(side, starts, ends)
            matrices[p].append(matrix)
            flags[p].append(degenerate)
    return (
        [keys for keys, _, _ in segments],
        {p: np.concatenate(m) for p, m in matrices.items()},
        {p: {kind: np.concatenate([d[kind] for d in f]) for kind in DEGENERATE_KINDS}
         for p, f in flags.items()},
    )


def indicator_table(
    timelines: Sequence[MatchTimeline], players: Sequence[int], segmentation: str = "set"
) -> tuple[list[tuple[str, int, str]], np.ndarray]:
    """x1..x22 of each player over each segment of each timeline.

    Returns the rows' (match id, player, segment label) and a (rows, 22)
    matrix, ordered by timeline, then player, then segment. Degenerate
    segments give at most one DataQualityWarning per kind and player,
    counting the segments of every timeline.
    """
    keys, matrices, degenerate = _indicator_rows(timelines, players, segmentation)
    for p in players:
        _warn_degenerate(p, degenerate[p])
    meta: list[tuple[str, int, str]] = []
    blocks = []
    start = 0
    for tl, tl_keys in zip(timelines, keys):
        labels = _labels(tl_keys, segmentation)
        rows = slice(start, start + len(labels))
        start = rows.stop
        for p in players:
            meta.extend((tl.match_id, p, label) for label in labels)
            blocks.append(matrices[p][rows])
    return meta, np.concatenate(blocks)


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
    One row or none raises ``InsufficientDataError``, a ``ValueError``.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n, p = arr.shape
    if n <= 1:
        raise InsufficientDataError("pca_reduce needs more than one row")
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
