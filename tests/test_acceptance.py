"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines. Data-dependent criteria use the committed sample dataset (or the
file named by TM_POINTS_CSV).
"""

import math
import time

import numpy as np
import pytest

from tennis_momentum import (
    CvConfig,
    GrnnModel,
    entropy_weights,
    evaluate,
    evaluate_membership,
    expand_features,
    grnn_predict,
    impute_missing,
    momentum_score,
    pca_reduce,
    pearson,
    rank_extras_by_correlation,
    train_cv,
)
from tennis_momentum import momentum as mm
from tennis_momentum.cli import main as cli_main
from tennis_momentum.grnn import chronological_split
from tennis_momentum.ingest import points_csv_text

from conftest import make_record, make_timeline
from test_grnn import identity_model, kernel_oracle
from test_momentum import pearson_oracle


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_grnn_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        p = int(rng.integers(1, 9))
        sigma = float(rng.uniform(0.05, 2.0))
        x = rng.uniform(size=(n, p))
        y = rng.uniform(size=n)
        q = rng.uniform(size=p)
        model = identity_model(x, y, sigma)
        got = grnn_predict(model, q)
        want = kernel_oracle(x, y, q, sigma)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"kernel oracle max |diff| {worst:.2e} over 200 cases in {elapsed:.2f}s",
    )


def test_criterion_02_pearson_oracle_equivalence():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 101))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + rng.uniform(-1, 1) * x
        r = pearson(x, y)
        worst = max(worst, abs(r - pearson_oracle(list(x), list(y))))
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)
        a = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
        b = float(rng.uniform(-5, 5))
        assert pearson(a * x + b, y) == pytest.approx(
            math.copysign(1, a) * r, abs=1e-9
        )
    report(2, worst <= 1e-12, f"pearson oracle max |diff| {worst:.2e} over 200 pairs")


def test_criterion_03_entropy_weights():
    w = entropy_weights([[1.0, 1.0], [1.0, 3.0]])
    hand_ok = abs(w[0] - 0.0) <= 1e-10 and abs(w[1] - 1.0) <= 1e-10
    rng = np.random.default_rng(1003)
    sums_ok = True
    scale_ok = True
    for _ in range(50):
        z = rng.uniform(0.05, 5.0, size=(rng.integers(2, 30), rng.integers(2, 8)))
        base = entropy_weights(z)
        sums_ok &= abs(base.sum() - 1.0) <= 1e-12
        scaled = z.copy()
        j = int(rng.integers(0, z.shape[1]))
        scaled[:, j] *= float(rng.uniform(0.1, 40.0))
        scale_ok &= np.max(np.abs(entropy_weights(scaled) - base)) <= 1e-12
    report(
        3,
        hand_ok and sums_ok and scale_ok,
        f"hand case -> ({w[0]:.2e}, {w[1]:.6f}); sums and scaling invariance hold",
    )


def test_criterion_04_membership_and_score():
    e1 = evaluate_membership(0.02).grades
    e7 = evaluate_membership(0.9).grades
    mid = evaluate_membership(0.32).grades
    ok = (
        max(abs(a - b) for a, b in zip(e1, (1, 0, 0, 0, 0, 0, 0))) <= 1e-12
        and max(abs(a - b) for a, b in zip(e7, (0, 0, 0, 0, 0, 0, 1))) <= 1e-12
        and max(abs(a - b) for a, b in zip(mid, (0, 0.375, 0.625, 0, 0, 0, 0))) <= 1e-12
    )
    score = momentum_score((0.15, 0.25, 0.35, 0.25, 0, 0, 0))
    ok &= score == 38.0
    in_range = True
    for u in np.linspace(0.0, 1.0, 2001):
        s = momentum_score(evaluate_membership(float(u), warn_on_fallback=False).grades)
        in_range &= 10.0 - 1e-9 <= s <= 100.0 + 1e-9
    report(4, ok and in_range, f"grade vectors exact; score(38-case) = {score}; range held")


def _baseline_eval(tl, player=1, config=None):
    config = config or CvConfig()
    samples = mm.extract_momentum_samples(tl, player, drop_final=True)
    x, y = mm.sample_matrix(samples)
    split = chronological_split(len(y), config.split_fraction)
    model = train_cv(x[:split], y[:split], config)
    rep = evaluate(model, x[split:], y[split:], config.decision_threshold)
    return samples, x, y, rep


def _sweep(tl, x, y, player=1, config=None):
    config = config or CvConfig()
    extras = mm.extra_feature_columns(tl, player)
    extras = {k: v[: len(y)] for k, v in extras.items()}
    order = rank_extras_by_correlation(extras, y)
    return expand_features(x, extras, y, config, ranked_names=order)


def test_criterion_05_match_1304_reproduction(timelines_by_id):
    start = time.perf_counter()
    tl = timelines_by_id["2023-wimbledon-1304"]
    _, _, _, rep = _baseline_eval(tl, player=1)
    elapsed = time.perf_counter() - start
    ok = abs(rep.mse - 0.1396) <= 0.05 and abs(rep.acc - 0.8006) <= 0.05
    report(
        5,
        ok and elapsed < 60.0,
        f"1304 base features: MSE {rep.mse:.4f} (target 0.1396+-0.05), "
        f"ACC {rep.acc:.4f} (target 0.8006+-0.05), {elapsed:.1f}s",
    )


def test_criterion_06_cross_match_direction(timelines_by_id):
    matches = ("2023-wimbledon-1310", "2023-wimbledon-1407", "2023-wimbledon-1701")
    base_accs, exp_accs = [], []
    monotone = True
    for mid in matches:
        tl = timelines_by_id[mid]
        _, x, y, rep = _baseline_eval(tl, player=1)
        sweep = _sweep(tl, x, y, player=1)
        expanded = sweep.best_by_acc.acc
        monotone &= expanded >= rep.acc
        base_accs.append(rep.acc)
        exp_accs.append(expanded)
    base_mean = float(np.mean(base_accs))
    exp_mean = float(np.mean(exp_accs))
    ok = (
        monotone
        and abs(base_mean - 0.7709) <= 0.06
        and abs(exp_mean - 0.8664) <= 0.06
    )
    report(
        6,
        ok,
        f"baseline mean {base_mean:.4f} (target 0.7709+-0.06), "
        f"expanded mean {exp_mean:.4f} (target 0.8664+-0.06), "
        f"per-match expanded >= baseline: {monotone}",
    )


def _prefix_sweep(tl, x, y, player=1, config=None):
    """The sweep ``expand`` writes: extras ranked on the training prefix only."""
    config = config or CvConfig()
    extras = mm.extra_feature_columns(tl, player)
    extras = {k: v[: len(y)] for k, v in extras.items()}
    split = chronological_split(len(y), config.split_fraction)
    order = rank_extras_by_correlation(
        {k: v[:split] for k, v in extras.items()}, y[:split]
    )
    return expand_features(x, extras, y, config, ranked_names=order)


def test_criterion_12_cross_match_direction_on_written_sweep(timelines_by_id):
    """Criterion 06's comparison, on the sweep order ``expand`` writes."""
    matches = ("2023-wimbledon-1310", "2023-wimbledon-1407", "2023-wimbledon-1701")
    base_accs, exp_accs = [], []
    monotone = True
    for mid in matches:
        tl = timelines_by_id[mid]
        _, x, y, rep = _baseline_eval(tl, player=1)
        expanded = _prefix_sweep(tl, x, y, player=1).best_by_acc.acc
        monotone &= expanded >= rep.acc
        base_accs.append(rep.acc)
        exp_accs.append(expanded)
    base_mean = float(np.mean(base_accs))
    exp_mean = float(np.mean(exp_accs))
    ok = (
        monotone
        and abs(base_mean - 0.7709) <= 0.06
        and abs(exp_mean - 0.8664) <= 0.06
    )
    report(
        12,
        ok,
        f"prefix-ranked sweep: baseline mean {base_mean:.4f} (target 0.7709+-0.06), "
        f"expanded mean {exp_mean:.4f} (target 0.8664+-0.06), "
        f"per-match expanded >= baseline: {monotone}",
    )


def test_criterion_07_expansion_sweep_shape(timelines_by_id):
    tl = timelines_by_id["2023-wimbledon-1310"]
    _, x, y, _ = _baseline_eval(tl, player=1)
    sweep = _sweep(tl, x, y, player=1)
    mses = [s.mse for s in sweep.steps]
    best = sweep.best_by_mse
    argmin = int(np.argmin(mses))
    interior = 0 < argmin < len(mses) - 1
    ok = best.mse <= mses[0] and interior
    soft_mse = abs(best.mse - 0.0866) <= 0.05
    soft_acc = abs(sweep.best_by_acc.acc - 0.8498) <= 0.05
    report(
        7,
        ok,
        f"1310 sweep: best MSE {best.mse:.4f} <= step0 {mses[0]:.4f}, "
        f"argmin at step {argmin}/{len(mses) - 1} (interior={interior}); "
        f"soft targets: MSE-in-window={soft_mse}, ACC-in-window={soft_acc}",
    )


def test_criterion_08_correlation_reproduction(timelines_by_id):
    tl = timelines_by_id["2023-wimbledon-1304"]
    samples = mm.extract_momentum_samples(tl, 1, drop_final=True)
    r = pearson([s.s4 for s in samples], [s.omega for s in samples])
    ok = abs(r - 0.1528) <= 0.03
    report(8, ok, f"1304 r(omega, S4) = {r:.4f} (target 0.1528+-0.03)")


def test_criterion_09_pipeline_determinism(tmp_path, dataset_path):
    subcommands = [
        ("clean", []),
        ("indicators", ["--pca-components", "5"]),
        ("evaluate", ["--match", "2023-wimbledon-1310", "--window", "20"]),
        ("correlate", ["--match", "2023-wimbledon-1310"]),
        ("turning-points", ["--match", "2023-wimbledon-1310"]),
        ("predict", ["--match", "2023-wimbledon-1310", "--player", "1"]),
        ("expand", ["--match", "2023-wimbledon-1310", "--player", "1"]),
        ("report", ["--match", "2023-wimbledon-1310", "--player", "1"]),
    ]
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        for command, extra in subcommands:
            code = cli_main(
                [command, "--data", str(dataset_path), "--out", str(out), *extra]
            )
            assert code == 0, command
    files1 = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    identical = files1 == files2 and all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        for rel in files1
    )
    report(9, identical, f"{len(files1)} output files byte-identical across reruns")


def test_criterion_10_imputation_fixture():
    donor_a = make_record(point_no=1, speed_mph=100.0, p1_distance_run=10.0,
                          p2_distance_run=10.0, serve_width="W", return_depth="D")
    donor_b = make_record(point_no=2, speed_mph=130.0, p1_distance_run=30.0,
                          p2_distance_run=30.0, serve_width="C", return_depth="ND")
    near_a_speed = make_record(point_no=3, speed_mph=None, p1_distance_run=11.0,
                               p2_distance_run=11.0)
    near_b_width = make_record(point_no=4, serve_width=None, p1_distance_run=29.0,
                               p2_distance_run=29.0, speed_mph=129.0)
    near_a_depth = make_record(point_no=5, return_depth=None, p1_distance_run=9.0,
                               p2_distance_run=9.0, speed_mph=101.0)
    rows = [donor_a, donor_b, near_a_speed, near_b_width, near_a_depth]
    once = impute_missing(rows)
    twice = impute_missing(once)
    ok = (
        once[2].speed_mph == 100.0
        and once[3].serve_width == "C"
        and once[4].return_depth == "D"
        and twice == once
        and once[0] == donor_a
        and once[1] == donor_b
    )
    report(
        10,
        ok,
        "5-row fixture imputed from nearest complete rows "
        f"({once[2].speed_mph}, {once[3].serve_width!r}, {once[4].return_depth!r}); "
        "idempotent",
    )


def test_criterion_11_pca_guarantees():
    rng = np.random.default_rng(1011)
    data = rng.normal(size=(60, 8)) @ rng.normal(size=(8, 8))
    result = pca_reduce(data, 8)
    z = (data - data.mean(axis=0)) / data.std(axis=0, ddof=1)
    recon_err = float(np.max(np.abs(result.scores @ result.loadings - z)))
    gram_err = float(
        np.max(np.abs(result.loadings @ result.loadings.T - np.eye(8)))
    )
    non_increasing = bool(np.all(np.diff(result.explained_variance) <= 1e-12))
    ok = recon_err <= 1e-8 and gram_err <= 1e-8 and non_increasing
    report(
        11,
        ok,
        f"reconstruction err {recon_err:.2e}, orthonormality err {gram_err:.2e}, "
        f"eigenvalues non-increasing: {non_increasing}",
    )
