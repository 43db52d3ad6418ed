"""Gaussian kernel regression (GRNN) with cross-validated smoothing factor.

The regressor is a one-pass Nadaraya-Watson estimator: one Gaussian unit per
training sample, prediction = kernel-weighted average of training targets.
The only hyperparameter, the smoothing factor sigma, is chosen by k-fold
cross-validation over a fixed grid (contiguous chronological folds, ties
resolved toward the smaller sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, UndefinedCorrelationError
from .momentum import pearson

DEFAULT_SIGMA_GRID = tuple(float(s) for s in np.geomspace(0.01, 2.0, 40))


@dataclass(frozen=True)
class CvConfig:
    folds: int = 5
    sigma_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    split_fraction: float = 0.7
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not self.sigma_grid:
            raise ValueError("sigma grid must be non-empty")
        grid = tuple(float(s) for s in self.sigma_grid)
        # each check is written so that NaN fails it
        if not all(0.0 < s < np.inf for s in grid):
            raise ValueError("sigma values must be positive and finite")
        if list(grid) != sorted(grid):
            raise ValueError("sigma grid must be sorted ascending")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")
        if not 0.0 <= self.decision_threshold <= 1.0:
            raise ValueError("decision_threshold must be in [0, 1]")


@dataclass(frozen=True)
class GrnnModel:
    training_inputs: np.ndarray   # (n, p), already normalized
    training_targets: np.ndarray  # (n,)
    sigma: float
    feature_normalization: tuple[tuple[float, float], ...]  # per-column (min, max)
    cv_curve: tuple[tuple[float, float], ...] | None = None  # (sigma, cv mse)


@dataclass(frozen=True)
class EvalReport:
    mse: float
    acc: float
    predictions: tuple[tuple[int, int, float], ...]  # (actual, predicted, raw)


@dataclass(frozen=True)
class SweepStep:
    added_feature: str  # "" for the base step
    feature_count: int
    mse: float
    acc: float
    sigma: float


@dataclass(frozen=True)
class SweepResult:
    steps: tuple[SweepStep, ...]

    @property
    def best_by_mse(self) -> SweepStep:
        return min(self.steps, key=lambda s: (s.mse, s.feature_count))

    @property
    def best_by_acc(self) -> SweepStep:
        return max(self.steps, key=lambda s: (s.acc, -s.feature_count))


def _normalize(x: np.ndarray, ranges) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    for j, (lo, hi) in enumerate(ranges):
        if hi > lo:
            out[:, j] = (x[:, j] - lo) / (hi - lo)
        else:
            out[:, j] = 0.5
    return out


def grnn_predict(model: GrnnModel, x: Sequence[float]) -> float:
    """Gaussian-kernel weighted average of the training targets at x.

    x is given in original feature units and normalized by the model's
    stored ranges. If every kernel weight underflows to zero the target of
    the nearest training point is returned.
    """
    q = np.asarray(x, dtype=float).reshape(1, -1)
    if q.shape[1] != model.training_inputs.shape[1]:
        raise ValueError(
            f"query has {q.shape[1]} features, model expects "
            f"{model.training_inputs.shape[1]}"
        )
    qn = _normalize(q, model.feature_normalization)
    return float(
        _predict_block(model.training_inputs, model.training_targets, qn, model.sigma)[0]
    )


def _predict_block(
    train_x: np.ndarray, train_y: np.ndarray, query_x: np.ndarray, sigma: float
) -> np.ndarray:
    """Vectorized predictions for already-normalized queries."""
    return _kernel_average(_sq_distances(train_x, query_x), train_y, (sigma,))[0]


def _sq_distances(train_x: np.ndarray, query_x: np.ndarray) -> np.ndarray:
    """Squared distances (queries, train), clamped at zero."""
    d2 = (
        (query_x**2).sum(axis=1)[:, None]
        - 2.0 * query_x @ train_x.T
        + (train_x**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0, out=d2)


# Kernel weights per chunk of sigmas: at most 2**16 weights (512 KB).
_KERNEL_WEIGHTS = 1 << 16
# exp is exactly 0 below this exponent, but far slower there than above -708
_EXP_ZERO_BELOW = -746.0


def _kernel_average(
    d2: np.ndarray, train_y: np.ndarray, sigmas: Sequence[float]
) -> np.ndarray:
    """Gaussian-kernel averages of train_y, one row of queries per sigma.

    d2 comes from ``_sq_distances``. Sigmas are scored in chunks that share
    one weight buffer. A query whose weights all underflow to zero takes the
    target of its nearest training point.
    """
    out = np.empty((len(sigmas), d2.shape[0]))
    neg = np.negative(d2)
    nearest = train_y[np.argmin(d2, axis=1)]
    step = max(1, _KERNEL_WEIGHTS // d2.size)
    buf = np.empty((min(step, len(sigmas)),) + d2.shape)
    for start in range(0, len(sigmas), step):
        scale = np.array([2.0 * s**2 for s in sigmas[start : start + step]])
        w = buf[: len(scale)]
        np.divide(neg, scale[:, None, None], out=w)
        # weights that exp would make 0 are set to 0 around the call
        zero = w < _EXP_ZERO_BELOW
        np.putmask(w, zero, 0.0)
        with np.errstate(under="ignore"):  # the subnormal band above -746
            np.exp(w, out=w)
        np.putmask(w, zero, 0.0)
        denom = w.sum(axis=2)
        ok = denom > 0.0
        preds = out[start : start + len(scale)]
        np.divide(w @ train_y, denom, out=preds, where=ok)
        for k in np.flatnonzero(~ok.all(axis=1)):
            # recomputed over the kept rows alone, as the per-sigma code
            # did: a matrix-vector product's rounding depends on which
            # rows it is given
            preds[k] = nearest
            preds[k, ok[k]] = (w[k][ok[k]] @ train_y) / denom[k, ok[k]]
    return out


def fold_boundaries(n: int, folds: int) -> list[tuple[int, int]]:
    """Contiguous chronological fold index ranges [lo, hi)."""
    return [(f * n // folds, (f + 1) * n // folds) for f in range(folds)]


def train_cv(x: np.ndarray, y: np.ndarray, config: CvConfig) -> GrnnModel:
    """Fit a GRNN on (x, y), choosing sigma by k-fold cross-validation.

    Features are min-max normalized (the ranges are stored on the model);
    folds are contiguous chronological blocks; the sigma with the smallest
    mean held-out MSE wins, with ties going to the smaller sigma.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, p) and y (n,) with matching n")
    if x.shape[1] < 1:
        raise ValueError("at least one feature is required")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("training data contains non-finite values")
    n = x.shape[0]
    if n < config.folds:
        raise InsufficientDataError(f"need at least {config.folds} samples, got {n}")

    ranges = tuple(
        (float(x[:, j].min()), float(x[:, j].max())) for j in range(x.shape[1])
    )
    xn = _normalize(x, ranges)

    # one distance block per fold scores every sigma of the grid
    errors = np.empty((len(config.sigma_grid), config.folds))
    for f, (lo, hi) in enumerate(fold_boundaries(n, config.folds)):
        train = np.ones(n, dtype=bool)
        train[lo:hi] = False
        preds = _kernel_average(
            _sq_distances(xn[train], xn[lo:hi]), y[train], config.sigma_grid
        )
        errors[:, f] = ((y[lo:hi] - preds) ** 2).mean(axis=1)
    mse = errors.mean(axis=1)
    best = int(np.argmin(mse))  # the first minimum: ties go to the smaller sigma

    return GrnnModel(
        training_inputs=xn,
        training_targets=y.copy(),
        sigma=float(config.sigma_grid[best]),
        feature_normalization=ranges,
        cv_curve=tuple(
            (float(s), float(m)) for s, m in zip(config.sigma_grid, mse)
        ),
    )


def evaluate(
    model: GrnnModel,
    x: np.ndarray,
    y: Sequence[float],
    threshold: float = 0.5,
) -> EvalReport:
    """MSE over raw kernel outputs and thresholded accuracy on 0/1 targets."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (m, p) with one target per row")
    if x.shape[0] < 1:
        raise ValueError("need at least one evaluation row")
    qn = _normalize(x, model.feature_normalization)
    raw = _predict_block(
        model.training_inputs, model.training_targets, qn, model.sigma
    )
    predicted = (raw >= threshold).astype(int)
    mse = float(((y - raw) ** 2).mean())
    acc = float((predicted == y.astype(int)).mean())
    return EvalReport(
        mse=mse,
        acc=acc,
        predictions=tuple(
            (int(a), int(p), float(r)) for a, p, r in zip(y, predicted, raw)
        ),
    )


def chronological_split(n: int, fraction: float) -> int:
    """Boundary index of a leading train / trailing test split."""
    split = int(np.floor(n * fraction))
    return min(max(split, 1), n - 1)


def fit_prefix(
    x: np.ndarray, y: np.ndarray, config: CvConfig
) -> tuple[int, GrnnModel, EvalReport]:
    """``train_cv`` on the chronological training prefix, ``evaluate`` on the rest.

    Returns (split index, model, report). The split comes from
    ``config.split_fraction``, the threshold from ``config.decision_threshold``.
    """
    split = chronological_split(len(y), config.split_fraction)
    model = train_cv(x[:split], y[:split], config)
    return split, model, evaluate(model, x[split:], y[split:], config.decision_threshold)


def rank_extras_by_correlation(
    extras: Mapping[str, Sequence[float]], omega: Sequence[float]
) -> list[str]:
    """Feature names sorted by |pearson(feature, omega)|, strongest first.

    Features whose correlation is undefined (constant columns) rank last,
    in name order.
    """
    omega = np.asarray(omega, dtype=float)
    defined: list[tuple[float, str]] = []
    undefined: list[str] = []
    for name in extras:
        col = np.asarray(extras[name], dtype=float)
        if col.shape != omega.shape:
            raise ValueError(f"column {name!r} length mismatch")
        try:
            r = pearson(col, omega)
            defined.append((-abs(r), name))
        except UndefinedCorrelationError:
            undefined.append(name)
    defined.sort()
    return [name for _, name in defined] + sorted(undefined)


def expand_features(
    base: np.ndarray,
    extras_ranked: Mapping[str, Sequence[float]],
    y: Sequence[float],
    config: CvConfig,
    *,
    ranked_names: Sequence[str],
) -> SweepResult:
    """Greedy feature-expansion sweep.

    Step 0 trains on the base features alone; step t adds the first t ranked
    extra columns. Every step records held-out MSE/ACC (chronological
    train/test split from ``config``) and the cross-validated sigma.
    """
    base = np.asarray(base, dtype=float)
    y = np.asarray(y, dtype=float)
    names = list(ranked_names)
    if not names:
        raise ValueError("at least one extra feature is required")

    steps = []
    current = base
    for name in [""] + names:
        if name:
            col = np.asarray(extras_ranked[name], dtype=float).reshape(-1, 1)
            current = np.hstack([current, col])
        _, model, report = fit_prefix(current, y, config)
        steps.append(
            SweepStep(
                added_feature=name,
                feature_count=current.shape[1],
                mse=report.mse,
                acc=report.acc,
                sigma=model.sigma,
            )
        )
    return SweepResult(tuple(steps))
