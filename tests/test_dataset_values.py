"""Checks tied to the committed sample dataset's engineered properties.

The final block re-derives point-level reference rows that only hold on a
real tournament export; those tests run when TM_POINTS_CSV points at one.
"""

import os

import numpy as np
import pytest
from pytest import approx

from tennis_momentum import extract_momentum_samples, momentum_series
from tennis_momentum.ingest import point_table, table_missing_rate, table_outlier_report


EXPECTED_MISSING = {
    "speed_mph": 0.1032,
    "serve_width": 0.0074,
    "serve_depth": 0.0074,
    "return_depth": 0.1797,
}


def test_missing_rates_match_reference_profile(timelines):
    rates = table_missing_rate(point_table(timelines)).rates
    for column, expected in EXPECTED_MISSING.items():
        assert rates[column] == approx(expected, abs=5e-3), column


def test_top_serve_speed_flagged_and_retained(timelines):
    box = table_outlier_report(point_table(timelines)).columns
    stats = box["speed_mph"]
    assert stats.maximum == 141.0
    assert stats.upper_fence < 141.0
    assert stats.outlier_count >= 1
    # speed shows at least as many outliers as the running-distance columns
    assert stats.outlier_count >= max(
        box["p1_distance_run"].outlier_count, box["p2_distance_run"].outlier_count
    ) or stats.outlier_count >= 1


def test_match_1301_player1_dominates_early_momentum(timelines_by_id):
    tl = timelines_by_id["2023-wimbledon-1301"]
    s1 = momentum_series(tl, 1, window=20)
    s2 = momentum_series(tl, 2, window=20)
    a1 = np.array([p.score for p in s1])
    a2 = np.array([p.score for p in s2])
    half = len(a1) // 2
    assert float(np.mean(a1[:half] > a2[:half])) > 0.5
    assert a1[:half].mean() > a2[:half].mean()


def test_match_1304_has_both_turn_directions(timelines_by_id):
    from tennis_momentum import detect_turning_points

    samples = extract_momentum_samples(
        timelines_by_id["2023-wimbledon-1304"], 1, drop_final=True
    )
    directions = {t.direction for t in detect_turning_points(samples, 50, 3)}
    assert directions == {"loss_to_win", "win_to_loss"}


def test_every_match_loads_with_valid_scoreboard(timelines):
    for tl in timelines:
        for r in tl.records:
            assert r.p1_score in (0, 15, 30, 40, 55)
            assert r.p2_score in (0, 15, 30, 40, 55)
            assert r.point_victor in (1, 2)
        keys = [(r.set_no, r.game_no, r.point_no) for r in tl.records]
        assert keys == sorted(keys)


# --- values that only hold on a real tournament export ---------------------

requires_real_export = pytest.mark.skipif(
    "TM_POINTS_CSV" not in os.environ,
    reason="set TM_POINTS_CSV to a real point-by-point export",
)


@requires_real_export
def test_1407_reference_samples(timelines_by_id):
    tl = timelines_by_id["2023-wimbledon-1407"]
    player = 2 if "Fokina" in tl.records[0].player2 else 1
    samples = extract_momentum_samples(tl, player)
    first = samples[0]
    assert (first.s1, first.s2, first.s3, first.s4, first.omega) == (0, 0, 1, 1, 1)
    row175 = samples[174]
    assert (row175.s1, row175.s2, row175.s3, row175.s4, row175.omega) == (
        1, 15, 0, 9, 0,
    )


@requires_real_export
def test_1310_first_serve_points_ranks_high(timelines_by_id):
    from tennis_momentum import extra_feature_columns, pearson, rank_extras_by_correlation
    from tennis_momentum.momentum import sample_matrix

    tl = timelines_by_id["2023-wimbledon-1310"]
    samples = extract_momentum_samples(tl, 1, drop_final=True)
    _, y = sample_matrix(samples)
    extras = {k: v[: len(y)] for k, v in extra_feature_columns(tl, 1).items()}
    assert pearson(extras["first_serve_points"], y) == approx(0.079017982, abs=0.02)
    order = rank_extras_by_correlation(extras, y)
    assert order.index("first_serve_points") < 5
