"""Two-level fuzzy comprehensive evaluation of in-match player momentum.

Eleven indicators are arranged in four first-level groups:

* physical fitness: x21, x22
* serving proficiency: x9, x10, x11, x12
* winning capability: x1, x2 (x2 is smaller-is-better and gets reversed)
* overall scoring: x5, x4, x7

First-level group weights are fixed at (0.15, 0.25, 0.35, 0.25); weights
inside each group come from the entropy-weight method. Normalized indicator
values in [0, 1] are graded onto the seven-level comment scale
{Very weak ... Very strong} by piecewise-linear membership functions, the
grades are composed with the weighted-average operator, and the composite
membership row is collapsed to a score in [10, 100].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataQualityWarning, InsufficientDataError
from .indicators import INDICATOR_NAMES, indicator_matrix, normalize_minmax
from .ingest import MatchTimeline

COMMENT_GRADES = (
    "Very weak", "Weak", "Weaker", "Moderate", "Stronger", "Strong", "Very strong",
)
GRADE_SCORE_WEIGHTS = (10.0, 30.0, 40.0, 60.0, 70.0, 80.0, 100.0)

DEFAULT_FIRST_LEVEL_WEIGHTS = (0.15, 0.25, 0.35, 0.25)
DEFAULT_GROUPS = (
    ("physical_fitness", ("x21", "x22")),
    ("serving_proficiency", ("x9", "x10", "x11", "x12")),
    ("winning_capability", ("x1", "x2")),
    ("overall_scoring", ("x5", "x4", "x7")),
)
SMALLER_IS_BETTER = frozenset({"x2"})


@dataclass(frozen=True)
class FuzzyHierarchy:
    """First-level weights plus the indicator grouping they apply to."""

    first_level_weights: tuple[float, ...] = DEFAULT_FIRST_LEVEL_WEIGHTS
    groups: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_GROUPS
    smaller_is_better: frozenset[str] = SMALLER_IS_BETTER

    def __post_init__(self):
        w = np.asarray(self.first_level_weights, dtype=float)
        if len(self.groups) != w.size:
            raise ValueError("one weight per group is required")
        # written so that NaN fails
        if not ((w >= 0).all() and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("first-level weights must be >= 0 and sum to 1")

    @property
    def indicator_names(self) -> tuple[str, ...]:
        return tuple(n for _, names in self.groups for n in names)


@dataclass(frozen=True)
class MembershipVector:
    """Degrees of belonging to the 7 comment grades.

    ``raw`` holds the membership functions evaluated as written; ``grades``
    is the normalized row (sum 1).
    """

    raw: tuple[float, ...]
    grades: tuple[float, ...]


@dataclass(frozen=True)
class MomentumPoint:
    elapsed_seconds: int
    player: int
    score: float


# Membership functions over U in [0, 1], one row per segment:
# (grade, lo, hi, x0, w), grade indexing COMMENT_GRADES. A segment is active
# on lo <= U < hi and adds (U - x0) / w there, or 1 where w = 0 (a plateau).
# Each grade has at most one active segment at any U, and every U in [0, 1]
# activates at least one.
_SEGMENTS = (
    (0, 0.0, 0.05, 0.0, 0.0), (0, 0.05, 0.065, 0.065, -0.015),
    (1, 0.06, 0.16, 0.06, 0.1), (1, 0.16, 0.3, 0.0, 0.0), (1, 0.3, 0.35, 0.35, -0.05),
    (2, 0.25, 0.3, 0.25, 0.05), (2, 0.3, 0.35, 0.0, 0.0), (2, 0.35, 0.4, 0.4, -0.05),
    # Moderate (ascending ramp active only on [0.35, 0.4); see README notes)
    (3, 0.35, 0.4, 0.25, 0.15), (3, 0.4, 0.6, 0.0, 0.0), (3, 0.6, 0.75, 0.75, -0.15),
    (4, 0.5, 0.52, 0.5, 0.1), (4, 0.55, 0.6, 0.0, 0.0), (4, 0.6, 0.7, 0.7, -0.1),
    (5, 0.65, 0.7, 0.65, 0.05), (5, 0.7, 0.84, 0.0, 0.0), (5, 0.84, 0.9, 0.9, -0.06),
    # Very strong; inputs end at 1, so the plateau is closed there
    (6, 0.75, 0.8, 0.75, 0.05), (6, 0.8, np.inf, 0.0, 0.0),
)
_GRADE, _LO, _HI, _X0, _W = (np.array(column) for column in zip(*_SEGMENTS))
_TO_GRADE = np.eye(7)[_GRADE]  # (segments, 7) one-hot


def _grade(u) -> tuple[np.ndarray, np.ndarray]:
    """Raw and normalized membership rows for an array of U values.

    Both results have shape ``u.shape + (7,)``.
    """
    u = np.asarray(u, dtype=float)
    outside = ~((u >= 0.0) & (u <= 1.0))
    if outside.any():
        bad = float(u[outside].flat[0])
        raise ValueError(f"membership input must be in [0, 1], got {bad!r}")
    x = u[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(_W == 0.0, 1.0, (x - _X0) / _W)
    raw = np.where((_LO <= x) & (x < _HI), value, 0.0) @ _TO_GRADE
    return raw, raw / raw.sum(axis=-1, keepdims=True)


def evaluate_membership(u: float, warn_on_fallback: bool = True) -> MembershipVector:
    """Grade a normalized indicator value onto the 7-level comment scale.

    Every U in [0, 1] is covered, so nothing falls back or warns;
    ``warn_on_fallback`` is accepted for existing callers and has no effect.
    """
    raw, grades = _grade(u)
    return MembershipVector(tuple(raw.tolist()), tuple(grades.tolist()))


def entropy_weights(matrix: np.ndarray) -> np.ndarray:
    """Entropy-method weights for the columns of a non-negative sample matrix.

    Column values are turned into probabilities p_ij = z_ij / sum_i z_ij,
    the information entropy e_j = -(1/ln n) * sum_i p_ij ln p_ij (with
    0 ln 0 = 0) gives the utility d_j = 1 - e_j, and weights are the
    normalized utilities. Uniform columns carry no information (weight 0);
    if every column is uniform, equal weights are returned with a warning.
    """
    z = np.asarray(matrix, dtype=float)
    if z.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n, j = z.shape
    if n < 2:
        raise ValueError("entropy weights need at least 2 samples")
    if (z < 0).any():
        raise ValueError("matrix entries must be non-negative")
    if not (z < np.inf).all():  # NaN fails too
        raise ValueError("matrix entries must be finite")
    sums = z.sum(axis=0)
    if (sums <= 0).any():
        bad = int(np.argmax(sums <= 0))
        raise ValueError(f"column {bad} sums to zero")
    p = z / sums
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    e = -plogp.sum(axis=0) / np.log(n)
    d = np.maximum(1.0 - e, 0.0)
    total = d.sum()
    if total <= 0.0:
        warnings.warn(
            "all columns are uniform; falling back to equal weights",
            DataQualityWarning,
            stacklevel=2,
        )
        return np.full(j, 1.0 / j)
    return d / total


def first_level_eval(group_weights: Sequence[float], rows: np.ndarray) -> np.ndarray:
    """Weighted-average composition of one group's membership rows.

    ``rows`` has shape ``(..., j, 7)``: one ``(j, 7)`` block per composition,
    each composed as it would be alone. The result has shape ``(..., 7)``.
    """
    w = np.asarray(group_weights, dtype=float)
    r = np.asarray(rows, dtype=float)
    if r.ndim < 2 or r.shape[-1] != 7:
        raise ValueError("rows must have shape (j, 7)")
    if w.shape != (r.shape[-2],):
        raise ValueError("one weight per membership row is required")
    # each check is written so that NaN fails it
    if not abs(w.sum() - 1.0) <= 1e-9:
        raise ValueError("group weights must sum to 1")
    if not (w >= 0).all():
        raise ValueError("group weights must be non-negative")
    return np.matmul(w, r)


def second_level_eval(first_level_weights: Sequence[float], b_rows: np.ndarray) -> np.ndarray:
    """Compose the group rows with the first-level weights; renormalize.

    ``b_rows`` has shape ``(..., groups, 7)``; the result ``(..., 7)``.
    """
    a = np.asarray(first_level_weights, dtype=float)
    b = np.asarray(b_rows, dtype=float)
    if b.ndim < 2 or b.shape[-1] != 7:
        raise ValueError("b_rows must have shape (groups, 7)")
    if a.shape != (b.shape[-2],):
        raise ValueError("one weight per group row is required")
    out = np.matmul(a, b)
    total = out.sum(axis=-1, keepdims=True)
    if not (total > 0).all():  # NaN fails too
        raise ValueError("composed membership row sums to zero")
    return out / total


def momentum_score(b: Sequence[float]) -> float | np.ndarray:
    """Collapse normalized 7-grade membership rows to scores in [10, 100].

    One row of shape ``(7,)`` gives a float; a stack ``(..., 7)`` gives an
    array of shape ``(...)``.
    """
    arr = np.asarray(b, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 7:
        raise ValueError("membership row must have 7 grades")
    # written so that NaN fails
    if not ((arr >= 0).all() and (abs(arr.sum(axis=-1) - 1.0) <= 1e-9).all()):
        raise ValueError("membership row must be normalized (non-negative, sum 1)")
    # a stacked matmul gives each row the dot product it gets alone;
    # a plain (n, 7) @ (7,) product rounds some rows differently
    score = np.matmul(arr[..., None, :], GRADE_SCORE_WEIGHTS)[..., 0]
    return float(score) if arr.ndim == 1 else score


def momentum_series(
    timeline: MatchTimeline,
    player: int,
    window: int = 20,
    hierarchy: FuzzyHierarchy | None = None,
) -> list[MomentumPoint]:
    """Momentum score at every sliding-window position of a match.

    For each window of ``window`` consecutive points ending at point t the
    eleven hierarchy indicators are computed; x2 is orientation-reversed;
    every indicator is min-max normalized across the match; group weights
    come from the entropy method over the per-window samples; membership,
    composition and scoring then yield one MomentumPoint per position.
    The series is retrospective: the min-max ranges and the entropy weights
    span the whole match, so later points change every earlier score.
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    if hierarchy is None:
        hierarchy = FuzzyHierarchy()
    n = len(timeline)
    if not 1 <= window <= n:
        error = ValueError if window < 1 else InsufficientDataError
        raise error(f"window must be in [1, {n}], got {window}")

    ends = np.arange(window, n + 1)
    # Degenerate windows (no points won, etc.) are routine here: flags unused.
    matrix, _ = indicator_matrix(timeline.player(player), ends - window, ends)
    names = hierarchy.indicator_names
    matrix = matrix[:, [INDICATOR_NAMES.index(name) for name in names]]
    # min-max of -x is fl(max - x) / fl(max - min), positivize's value, and a
    # constant column still normalizes to 0.5
    matrix[:, [name in hierarchy.smaller_is_better for name in names]] *= -1.0
    u = normalize_minmax(matrix)
    single = u.shape[0] < 2
    if single:
        warnings.warn(
            "single-window series; using equal weights inside groups",
            DataQualityWarning,
            stacklevel=2,
        )

    _, grades = _grade(u)
    b_rows = []
    offset = 0
    for _, group_names in hierarchy.groups:
        j = len(group_names)
        cols = slice(offset, offset + j)
        weights = np.full(j, 1.0 / j) if single else entropy_weights(u[:, cols])
        b_rows.append(first_level_eval(weights, grades[:, cols]))
        offset += j
    b = second_level_eval(hierarchy.first_level_weights, np.stack(b_rows, axis=1))
    scores = momentum_score(b).tolist()
    elapsed = timeline.column("elapsed_seconds")[window - 1 :].astype(int).tolist()
    return [MomentumPoint(t, player, score) for t, score in zip(elapsed, scores)]
