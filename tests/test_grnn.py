import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

from tennis_momentum import (
    CvConfig,
    DataError,
    GrnnModel,
    evaluate,
    expand_features,
    grnn_predict,
    rank_extras_by_correlation,
    train_cv,
)
from tennis_momentum import grnn
from tennis_momentum.grnn import chronological_split, fold_boundaries


def identity_model(x, y, sigma):
    """Model whose stored ranges make normalization a no-op."""
    x = np.asarray(x, dtype=float)
    return GrnnModel(
        training_inputs=x,
        training_targets=np.asarray(y, dtype=float),
        sigma=sigma,
        feature_normalization=tuple((0.0, 1.0) for _ in range(x.shape[1])),
    )


def kernel_oracle(train_x, train_y, query, sigma):
    """Direct kernel-sum formula, scalar arithmetic only."""
    num = 0.0
    den = 0.0
    dists = []
    for row, target in zip(train_x, train_y):
        d2 = sum((a - b) ** 2 for a, b in zip(row, query))
        dists.append(d2)
        w = math.exp(-d2 / (2.0 * sigma * sigma))
        num += w * target
        den += w
    if den == 0.0:
        return train_y[int(np.argmin(dists))]
    return num / den


# --- prediction -----------------------------------------------------------

def test_predict_hand_example():
    model = identity_model([[0.0], [1.0], [2.0]], [0.0, 1.0, 0.0], 0.5)
    expected = 1.0 / (1.0 + 2.0 * math.exp(-2.0))
    assert grnn_predict(model, [1.0]) == approx(expected, abs=1e-12)
    assert expected == approx(0.7869860421615984)


def test_predict_at_training_point_with_tiny_sigma():
    model = identity_model([[0.0], [1.0], [2.0]], [0.3, 0.9, 0.1], 1e-3)
    assert grnn_predict(model, [1.0]) == approx(0.9)


def test_predict_constant_targets():
    model = identity_model([[0.0], [0.5], [1.0]], [0.7, 0.7, 0.7], 0.2)
    for q in (0.0, 0.31, 2.5):
        assert grnn_predict(model, [q]) == approx(0.7)


def test_predict_underflow_falls_back_to_nearest():
    model = identity_model([[0.0], [100.0]], [0.2, 0.8], 0.01)
    assert grnn_predict(model, [60.0]) == approx(0.8)


def test_predict_dimension_mismatch():
    model = identity_model([[0.0, 1.0]], [1.0], 0.5)
    with pytest.raises(ValueError):
        grnn_predict(model, [1.0])


def test_predict_matches_oracle_randomized():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 50))
        p = int(rng.integers(1, 8))
        sigma = float(rng.uniform(0.05, 2.0))
        x = rng.uniform(size=(n, p))
        y = rng.uniform(size=n)
        q = rng.uniform(size=p)
        model = identity_model(x, y, sigma)
        assert grnn_predict(model, q) == approx(
            kernel_oracle(x, y, q, sigma), abs=1e-12
        )


def test_predict_invariant_under_row_permutation():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(20, 3))
    y = rng.uniform(size=20)
    q = rng.uniform(size=3)
    base = grnn_predict(identity_model(x, y, 0.3), q)
    perm = rng.permutation(20)
    assert grnn_predict(identity_model(x[perm], y[perm], 0.3), q) == approx(
        base, abs=1e-12
    )


def test_predict_bounded_by_target_range():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(30, 2))
    y = rng.uniform(size=30)
    model = identity_model(x, y, 0.25)
    for _ in range(50):
        q = rng.uniform(-0.5, 1.5, size=2)
        pred = grnn_predict(model, q)
        assert y.min() - 1e-12 <= pred <= y.max() + 1e-12


def test_predict_large_sigma_approaches_mean():
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(25, 3))
    y = rng.uniform(size=25)
    model = identity_model(x, y, 1e6)
    assert grnn_predict(model, rng.uniform(size=3)) == approx(
        y.mean(), abs=1e-6
    )


# --- training -------------------------------------------------------------

def cv_oracle(x, y, sigma, folds):
    """Independent fold loop with per-query kernel sums."""
    x = np.asarray(x, dtype=float)
    lo_hi = [(f * len(y) // folds, (f + 1) * len(y) // folds) for f in range(folds)]
    fold_errors = []
    for lo, hi in lo_hi:
        train_idx = [i for i in range(len(y)) if not lo <= i < hi]
        errs = []
        for i in range(lo, hi):
            pred = kernel_oracle(
                x[train_idx], [y[j] for j in train_idx], x[i], sigma
            )
            errs.append((y[i] - pred) ** 2)
        fold_errors.append(sum(errs) / len(errs))
    return sum(fold_errors) / folds


def normalized(x):
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    out = np.full(x.shape, 0.5)
    ok = hi > lo
    out[:, ok] = (x[:, ok] - lo[ok]) / (hi - lo)[ok]
    return out


def _reference_predict_block(train_x, train_y, query_x, sigma):
    """One-sigma kernel average with its own distance block, one call per sigma."""
    d2 = (
        (query_x**2).sum(axis=1)[:, None]
        - 2.0 * query_x @ train_x.T
        + (train_x**2).sum(axis=1)[None, :]
    )
    d2 = np.maximum(d2, 0.0)
    with np.errstate(under="ignore"):
        w = np.exp(-d2 / (2.0 * sigma**2))
    denom = w.sum(axis=1)
    out = np.empty(query_x.shape[0])
    ok = denom > 0.0
    out[ok] = (w[ok] @ train_y) / denom[ok]
    if not ok.all():
        nearest = np.argmin(d2[~ok], axis=1)
        out[~ok] = train_y[nearest]
    return out


def _reference_cv_curve(x, y, sigma_grid, folds):
    """(sigma, cv mse) pairs and the chosen sigma, one block per (sigma, fold).

    The per-sigma loop ``train_cv`` ran before it scored the whole grid from
    one distance block per fold; x is already normalized.
    """
    curve = []
    best_sigma, best_mse = None, np.inf
    for sigma in sigma_grid:
        errors = []
        for lo, hi in fold_boundaries(len(y), folds):
            train_mask = np.ones(len(y), dtype=bool)
            train_mask[lo:hi] = False
            preds = _reference_predict_block(
                x[train_mask], y[train_mask], x[lo:hi], sigma
            )
            errors.append(float(((y[lo:hi] - preds) ** 2).mean()))
        mse = float(np.mean(errors))
        curve.append((float(sigma), mse))
        if mse < best_mse:
            best_sigma, best_mse = float(sigma), mse
    return tuple(curve), best_sigma


# Small sigmas make every kernel weight of a query underflow (nearest-neighbour
# fallback); then the held-out MSE is the same for all of them, an exact tie.
_SIGMAS = tuple(float(s) for s in np.geomspace(1e-4, 3.0, 64))


@st.composite
def cv_problems(draw):
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 4))
    folds = draw(st.integers(2, min(n, 10)))
    # small integer coordinates: duplicate rows and equal distances are common
    x = draw(st.lists(st.integers(0, 6), min_size=n * p, max_size=n * p))
    y = draw(st.lists(st.sampled_from((0.0, 1.0, 0.25)), min_size=n, max_size=n))
    grid = draw(st.lists(st.sampled_from(_SIGMAS), min_size=1, max_size=64, unique=True))
    budget = draw(st.sampled_from((1, 37, 1000, grnn._KERNEL_WEIGHTS)))
    return (np.array(x, dtype=float).reshape(n, p), np.array(y), tuple(sorted(grid)),
            folds, budget)


def _spread(n, p):
    """Distinct points on a line: at tiny sigmas every weight underflows."""
    return np.arange(n * p, dtype=float).reshape(n, p)


def _uniform(n, p, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, p)), rng.uniform(size=n)


@settings(max_examples=150, deadline=None)
@given(cv_problems())
# every weight underflows at the three smallest sigmas; the nearest neighbour
# predicts every held-out label, so they tie at the minimum of the curve
@example((_spread(20, 2), np.array([0.0] * 10 + [1.0] * 10), (1e-4, 2e-4, 1e-3, 0.3), 5,
          1 << 16))
# a one-value grid
@example((_spread(12, 1), np.array([1.0, 0.0, 0.0] * 4), (0.2,), 3, 1 << 16))
# a grid larger than one chunk of weights (one sigma per chunk)
@example((_spread(30, 3), np.array([0.0, 1.0, 1.0] * 10), _SIGMAS, 5, 1))
# many folds: the fold mean is numpy's pairwise sum, not a running total
@example((*_uniform(72, 3, 11), (0.05, 0.2, 0.8), 24, 1 << 16))
# at the two smallest sigmas only the fold-edge rows keep weights: their next
# neighbour's exponent is about -720 (subnormal) and -346, while every
# farther weight lies below -746 and is zeroed without exp
@example((_spread(20, 1), np.array([0.0, 1.0] * 10), (0.00139, 0.002, 0.01, 0.3), 5,
          1 << 16))
# scattered points: at sigma 0.004 half the rows keep some weights, at 0.01
# every row does, and some weights of each fall in the subnormal band
@example((*_uniform(72, 3, 11), (0.004, 0.01, 0.05, 0.3), 6, 1 << 16))
def test_train_cv_matches_per_sigma_reference(problem):
    x, y, grid, folds, budget = problem
    with mock.patch.object(grnn, "_KERNEL_WEIGHTS", budget):
        model = train_cv(x, y, CvConfig(folds=folds, sigma_grid=grid))
    curve, sigma = _reference_cv_curve(normalized(x), y, grid, folds)
    assert model.cv_curve == curve
    assert model.sigma == sigma


def test_exp_is_exactly_zero_below_the_kernel_cutoff():
    # _kernel_average zeroes these weights instead of calling exp on them
    cutoff = grnn._EXP_ZERO_BELOW
    # the 200,000 floats just below the cutoff, then a sweep down to -1e6
    just_below = cutoff - np.arange(1, 200_001) * np.spacing(-cutoff)
    sweep = np.concatenate([
        just_below, np.linspace(cutoff, -1e6, 1_000_001)[1:], [-1e300, -np.inf],
    ])
    assert (sweep < cutoff).all()
    with np.errstate(under="ignore"):
        assert not np.exp(sweep).any()


def test_kernel_average_mixes_underflow_and_weighted_rows():
    # a tight cluster plus isolated outliers: at small sigmas the outliers'
    # weights all underflow while the cluster rows keep real weights
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 0.02, size=(80, 2))
    x[::5] = rng.uniform(0.4, 1.0, size=(16, 2))
    y = rng.uniform(size=80)
    train_x, train_y, query_x = x[:50], y[:50], x[50:]
    sigmas = (0.001, 0.002, 0.004, 0.5)
    d2 = grnn._sq_distances(train_x, query_x)
    with np.errstate(under="ignore"):
        underflow = ~(np.exp(-d2 / (2.0 * sigmas[0] ** 2)).sum(axis=1) > 0.0)
    assert 0 < underflow.sum() < len(query_x)
    out = grnn._kernel_average(d2, train_y, sigmas)
    for k, sigma in enumerate(sigmas):
        assert out[k].tolist() == _reference_predict_block(
            train_x, train_y, query_x, sigma
        ).tolist()


def test_train_cv_builds_one_distance_block_per_fold(monkeypatch):
    calls = []
    real = grnn._sq_distances

    def counting(train_x, query_x):
        calls.append(query_x.shape[0])
        return real(train_x, query_x)

    monkeypatch.setattr(grnn, "_sq_distances", counting)
    rng = np.random.default_rng(4)
    train_cv(rng.uniform(size=(23, 3)), rng.uniform(size=23), CvConfig(folds=5))
    assert calls == [hi - lo for lo, hi in fold_boundaries(23, 5)]


def test_train_cv_single_sigma_matches_fold_oracle():
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(40, 3))
    y = (rng.uniform(size=40) > 0.5).astype(float)
    config = CvConfig(folds=5, sigma_grid=(0.3,))
    model = train_cv(x, y, config)
    assert model.sigma == 0.3
    (pair,) = model.cv_curve
    assert pair[1] == approx(cv_oracle(normalized(x), y, 0.3, 5), abs=1e-12)


def test_train_cv_prefers_smaller_sigma_on_tie():
    x = np.array([[0.0], [1.0]] * 3)
    y = np.array([0.0, 1.0] * 3)
    config = CvConfig(folds=2, sigma_grid=(0.05, 0.1))
    model = train_cv(x, y, config)
    curve = dict(model.cv_curve)
    if curve[0.05] == curve[0.1]:
        assert model.sigma == 0.05
    else:
        assert model.sigma == min(curve, key=curve.get)


def test_train_cv_separable_structure_prefers_local_sigma():
    # targets determined by nearest cluster: tiny sigma predicts perfectly
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [1.0, 1.0]])
    x = np.vstack([c + rng.normal(0, 0.01, size=(20, 2)) for c in centers])
    y = np.array([0.0] * 20 + [1.0] * 20)
    order = rng.permutation(40)
    model = train_cv(x[order], y[order], CvConfig(folds=5))
    assert model.sigma <= 0.2


def test_train_cv_deterministic():
    rng = np.random.default_rng(14)
    x = rng.uniform(size=(30, 4))
    y = rng.integers(0, 2, size=30).astype(float)
    a = train_cv(x, y, CvConfig())
    b = train_cv(x, y, CvConfig())
    assert a.sigma == b.sigma
    assert a.cv_curve == b.cv_curve


def test_train_cv_validation():
    x = np.zeros((3, 2))
    y = np.zeros(3)
    with pytest.raises(ValueError):
        train_cv(x, y, CvConfig(folds=5))
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        train_cv(bad, np.zeros(3), CvConfig(folds=2))


def test_cv_config_validation():
    with pytest.raises(ValueError):
        CvConfig(folds=1)
    with pytest.raises(ValueError):
        CvConfig(sigma_grid=())
    with pytest.raises(ValueError):
        CvConfig(sigma_grid=(0.5, 0.1))
    with pytest.raises(ValueError):
        CvConfig(split_fraction=1.2)
    grid = CvConfig().sigma_grid
    assert len(grid) == 40
    assert grid[0] == approx(0.01) and grid[-1] == approx(2.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("settings", [
    {"sigma_grid": (NAN,)},
    {"sigma_grid": (0.1, NAN)},
    {"sigma_grid": (0.1, INF)},
    {"sigma_grid": (0.0, 0.1)},
    {"sigma_grid": (-INF, 0.1)},
    {"decision_threshold": NAN},
    {"decision_threshold": -0.1},
    {"decision_threshold": 1.5},
    {"split_fraction": NAN},
])
def test_cv_config_rejects_non_finite_and_out_of_range_settings(settings):
    with pytest.raises(ValueError):
        CvConfig(**settings)


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_cv_config_accepts_threshold_bounds(threshold):
    assert CvConfig(decision_threshold=threshold).decision_threshold == threshold


def test_fit_prefix_trains_on_the_prefix_and_scores_the_rest():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(40, 3))
    y = (rng.uniform(size=40) > 0.5).astype(float)
    config = CvConfig(folds=3, sigma_grid=(0.05, 0.2, 0.8), split_fraction=0.6,
                      decision_threshold=0.4)
    split, model, report = grnn.fit_prefix(x, y, config)
    assert split == chronological_split(40, 0.6) == 24
    alone = train_cv(x[:24], y[:24], config)
    assert (model.sigma, model.cv_curve) == (alone.sigma, alone.cv_curve)
    assert report == evaluate(alone, x[24:], y[24:], 0.4)


def test_fold_boundaries_partition():
    bounds = fold_boundaries(23, 5)
    assert bounds[0][0] == 0 and bounds[-1][1] == 23
    covered = sum(hi - lo for lo, hi in bounds)
    assert covered == 23


# --- evaluation -----------------------------------------------------------

def test_evaluate_perfect_predictions():
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = train_cv(x, y, CvConfig(folds=2, sigma_grid=(0.01,)))
    report = evaluate(model, x, y, threshold=0.5)
    assert report.mse == approx(0.0, abs=1e-12)
    assert report.acc == 1.0


def test_evaluate_halfway_scores():
    model = identity_model([[0.0]], [0.5], 1.0)
    x = np.array([[0.0]] * 4)
    y = np.array([0.0, 0.0, 1.0, 1.0])
    report = evaluate(model, x, y, threshold=0.5)
    assert report.mse == approx(0.25)
    assert report.acc == approx(0.5)  # raw 0.5 >= threshold -> predict 1
    assert all(p == 1 for _, p, _ in report.predictions)


def test_evaluate_threshold_semantics():
    model = identity_model([[0.0], [1.0]], [0.0, 1.0], 0.3)
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    lenient = evaluate(model, x, y, threshold=0.0)
    assert [p for _, p, _ in lenient.predictions] == [1, 1]
    assert lenient.acc == approx(0.5)


def test_evaluate_mse_zero_implies_acc_one():
    rng = np.random.default_rng(6)
    for _ in range(20):
        y = rng.integers(0, 2, size=10).astype(float)
        x = y.reshape(-1, 1)
        model = identity_model(x, y, 1e-4)
        report = evaluate(model, x, y, threshold=float(rng.uniform(0.01, 0.99)))
        if report.mse == 0.0:
            assert report.acc == 1.0


# --- feature ranking and expansion ----------------------------------------

def test_rank_extras_by_absolute_correlation():
    rng = np.random.default_rng(10)
    omega = rng.integers(0, 2, size=60).astype(float)
    noise = rng.normal(size=60)
    extras = {
        "weak": noise,
        "strong_neg": -0.95 * omega + 0.05 * noise,
        "strong_pos": 0.9 * omega + 0.1 * noise,
        "flat": np.full(60, 3.0),
    }
    order = rank_extras_by_correlation(extras, omega)
    assert order[0] == "strong_neg"
    assert order[1] == "strong_pos"
    assert order[-1] == "flat"


def test_rank_extras_empty():
    assert rank_extras_by_correlation({}, np.array([0.0, 1.0])) == []


def test_expand_records_every_step():
    rng = np.random.default_rng(20)
    n = 60
    base = rng.uniform(size=(n, 4))
    y = rng.integers(0, 2, size=n).astype(float)
    extras = {f"noise{i}": rng.normal(size=n) for i in range(3)}
    config = CvConfig(folds=3, sigma_grid=(0.2, 0.6))
    sweep = expand_features(base, extras, y, config, ranked_names=list(extras))
    assert [s.feature_count for s in sweep.steps] == [4, 5, 6, 7]
    assert sweep.steps[0].added_feature == ""
    assert sweep.best_by_mse.mse <= sweep.steps[0].mse


def test_expand_perfect_extra_improves_accuracy():
    rng = np.random.default_rng(22)
    n = 80
    base = rng.uniform(size=(n, 4))
    y = rng.integers(0, 2, size=n).astype(float)
    extras = {"oracle": y.copy()}
    config = CvConfig(folds=4, sigma_grid=(0.05, 0.5))
    sweep = expand_features(base, extras, y, config, ranked_names=["oracle"])
    assert sweep.steps[1].acc >= sweep.steps[0].acc
    assert sweep.best_by_acc.acc == sweep.steps[1].acc


def test_chronological_split_bounds():
    assert chronological_split(10, 0.7) == 7
    assert chronological_split(3, 0.01) == 1
    assert chronological_split(3, 0.999) == 2
