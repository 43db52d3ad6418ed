import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from tennis_momentum import (
    DataQualityWarning,
    EmptyInputError,
    UndefinedCorrelationError,
    correlation_matrix,
    detect_turning_points,
    extra_feature_columns,
    extract_momentum_samples,
    pearson,
    turning_point_stats,
)
from tennis_momentum.momentum import (
    LOSS_TO_WIN,
    WIN_TO_LOSS,
    MomentumSample,
    group_turning_windows,
    sample_matrix,
    trimmed_mean,
)

from conftest import make_record, make_timeline


def sample_seq(omegas):
    return [
        MomentumSample(index=i + 1, s1=0, s2=0, s3=0, s4=0, omega=w)
        for i, w in enumerate(omegas)
    ]


# --- extraction -----------------------------------------------------------

def test_streak_resets_on_loss():
    tl = make_timeline([1, 1, 2])
    samples = extract_momentum_samples(tl, 1)
    assert [s.s3 for s in samples] == [1, 2, 0]


def test_score_difference_sign_convention():
    tl = make_timeline([1], p1_score=15, p2_score=0)
    assert extract_momentum_samples(tl, 1)[0].s2 == 15
    assert extract_momentum_samples(tl, 2)[0].s2 == -15


def test_next_win_label_offsets_by_one():
    tl = make_timeline([1, 2, 1, 1])
    samples = extract_momentum_samples(tl, 1)
    assert [s.omega for s in samples] == [0, 1, 1, 1]  # final uses own victor
    dropped = extract_momentum_samples(tl, 1, drop_final=True)
    assert len(dropped) == 3


def test_sets_won_column_is_carried():
    records = []
    pw = [0, 0]
    for i, sets in enumerate([0, 0, 1, 1]):
        pw[0] += 1
        records.append(
            make_record(
                set_no=1 + (i >= 2),
                point_no=i + 1,
                p1_sets=sets,
                elapsed_seconds=40 * (i + 1),
                p1_points_won=pw[0],
            )
        )
    from tennis_momentum.records import timeline

    tl = timeline("m1", records)
    assert [s.s1 for s in extract_momentum_samples(tl, 1)] == [0, 0, 1, 1]


def test_player_perspectives_negate_s2_s4():
    tl = make_timeline([1, 2, 1, 1, 2, 1])
    a = extract_momentum_samples(tl, 1)
    b = extract_momentum_samples(tl, 2)
    assert [s.s2 for s in a] == [-s.s2 for s in b]
    assert [s.s4 for s in a] == [-s.s4 for s in b]


def test_samples_are_the_rows_of_the_sample_table():
    tl = make_timeline([1, 2, 2, 1, 1, 2, 1])
    samples = extract_momentum_samples(tl, 2, drop_final=True)
    table = np.array(samples)
    assert table.shape == (6, len(MomentumSample._fields))
    assert table[:, 0].tolist() == [s.index for s in samples] == list(range(1, 7))
    assert all(type(value) is int for s in samples for value in s)
    x, y = sample_matrix(samples)
    assert x.flags.c_contiguous and y.flags.c_contiguous
    assert x.tolist() == [[s.s1, s.s2, s.s3, s.s4] for s in samples]
    assert y.tolist() == [s.omega for s in samples]


def test_sample_matrix_of_no_samples_keeps_four_columns():
    x, y = sample_matrix([])
    assert x.shape == (0, 4) and y.shape == (0,)


def test_extraction_rejects_bad_player():
    with pytest.raises(ValueError):
        extract_momentum_samples(make_timeline([1]), 0)


# --- pearson --------------------------------------------------------------

def test_pearson_perfect_correlation():
    assert pearson([1, 2, 3], [1, 2, 3]) == approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == approx(-1.0)


def test_pearson_hand_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == approx(0.8)


def test_pearson_zero_variance():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])


def pearson_oracle(x, y):
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x)
    dy = sum((b - my) ** 2 for b in y)
    return num / (dx * dy) ** 0.5


@given(st.integers(0, 10_000))
def test_pearson_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 100))
    x = rng.normal(size=n)
    y = rng.normal(size=n) + 0.3 * x
    r = pearson(x, y)
    assert r == approx(pearson_oracle(list(x), list(y)), abs=1e-12)
    assert -1.0 <= r <= 1.0
    assert pearson(y, x) == approx(r, abs=1e-12)


@given(
    st.floats(min_value=-5, max_value=5).filter(lambda a: abs(a) > 1e-3),
    st.floats(min_value=-10, max_value=10),
)
def test_pearson_affine_invariance(a, b):
    rng = np.random.default_rng(12)
    x = rng.normal(size=40)
    y = rng.normal(size=40) + 0.5 * x
    base = pearson(x, y)
    scaled = pearson(a * x + b, y)
    assert scaled == approx(np.sign(a) * base, abs=1e-9)


# --- correlation matrix ---------------------------------------------------

def test_correlation_matrix_against_double_loop():
    rng = np.random.default_rng(31)
    samples = [
        MomentumSample(
            index=i + 1,
            s1=int(rng.integers(0, 3)),
            s2=int(rng.integers(-40, 41)),
            s3=int(rng.integers(0, 6)),
            s4=int(rng.integers(-12, 13)),
            omega=int(rng.integers(0, 2)),
        )
        for i in range(80)
    ]
    corr = correlation_matrix(samples)
    x, y = sample_matrix(samples)
    data = np.column_stack([x, y])
    for i in range(5):
        for j in range(5):
            if i == j:
                assert corr.r[i, j] == 1.0
            else:
                assert corr.r[i, j] == approx(
                    pearson_oracle(list(data[:, i]), list(data[:, j])), abs=1e-12
                )
    assert corr.r == approx(corr.r.T, abs=1e-12)


def test_correlation_matrix_constant_column_flagged():
    samples = sample_seq([0, 1, 0, 1, 1, 0])  # S1..S4 all constant
    with pytest.warns(DataQualityWarning):
        corr = correlation_matrix(samples)
    assert np.isnan(corr.r[0, 4])
    assert corr.r[0, 0] == 1.0


def test_correlation_matrix_duplicate_columns():
    samples = [
        MomentumSample(index=i + 1, s1=v, s2=v, s3=i % 3, s4=-v, omega=i % 2)
        for i, v in enumerate([1, 3, 2, 5, 4, 6])
    ]
    corr = correlation_matrix(samples)
    assert corr.r[0, 1] == approx(1.0)
    assert corr.r[0, 3] == approx(-1.0)


# --- turning points -------------------------------------------------------

def test_turning_point_minimal_example():
    turns = detect_turning_points(sample_seq([0, 0, 0, 1, 1, 1]), run_min=3)
    assert len(turns) == 1
    assert turns[0].index == 4
    assert turns[0].direction == LOSS_TO_WIN


def test_no_turning_points_without_transitions():
    assert detect_turning_points(sample_seq([1] * 8), run_min=3) == []


def test_alternating_runs_too_short():
    assert detect_turning_points(sample_seq([0, 1] * 6), run_min=3) == []


def test_turning_point_window_contents_and_truncation():
    omegas = [0, 0, 0, 1, 1, 1, 0, 0, 0, 1]
    with pytest.warns(DataQualityWarning, match="truncated"):
        turns = detect_turning_points(sample_seq(omegas), lookback=50, run_min=3)
    assert [t.direction for t in turns] == [LOSS_TO_WIN, WIN_TO_LOSS]
    assert turns[0].window[-1].index == turns[0].index
    assert len(turns[0].window) == 4  # 3 preceding samples plus the turn


def test_turning_point_full_lookback_window():
    omegas = [1] * 60 + [0, 0, 0, 0] + [1, 1, 1]
    turns = detect_turning_points(sample_seq(omegas), lookback=50, run_min=3)
    flip_up = [t for t in turns if t.direction == LOSS_TO_WIN]
    assert flip_up[0].index == 65
    assert len(flip_up[0].window) == 51


# --- descriptive stats ----------------------------------------------------

def test_stats_hand_example():
    samples = [
        MomentumSample(index=i + 1, s1=v, s2=0, s3=0, s4=0, omega=0)
        for i, v in enumerate([1, 1, 2, 3])
    ]
    stats = turning_point_stats({LOSS_TO_WIN: samples})[LOSS_TO_WIN]["S1"]
    assert stats.mode == 1.0
    assert stats.mean == approx(1.75)
    assert stats.variance == approx(0.6875)  # population variance


def test_stats_constant_data():
    samples = [
        MomentumSample(index=i + 1, s1=4, s2=0, s3=0, s4=0, omega=0)
        for i in range(5)
    ]
    stats = turning_point_stats({WIN_TO_LOSS: samples})[WIN_TO_LOSS]["S1"]
    assert stats.mean == stats.mode == stats.trimmed_mean == 4.0
    assert stats.variance == 0.0


def test_stats_empty_group_is_named():
    with pytest.raises(EmptyInputError, match="loss_to_win"):
        turning_point_stats({LOSS_TO_WIN: []})


def test_mode_tie_prefers_smaller_value():
    samples = [
        MomentumSample(index=i + 1, s1=v, s2=0, s3=0, s4=0, omega=0)
        for i, v in enumerate([3, 3, 1, 1, 2])
    ]
    stats = turning_point_stats({LOSS_TO_WIN: samples})[LOSS_TO_WIN]["S1"]
    assert stats.mode == 1.0


def test_trimmed_mean_drops_15_percent_per_tail():
    values = list(range(1, 21))  # floor(20 * 0.15) = 3 per tail
    assert trimmed_mean(values) == approx(np.mean(values[3:-3]))
    assert trimmed_mean([5.0]) == 5.0


def test_grouping_pools_windows():
    omegas = [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]
    turns = detect_turning_points(sample_seq(omegas), lookback=2, run_min=3)
    groups = group_turning_windows(turns)
    assert set(groups) == {LOSS_TO_WIN, WIN_TO_LOSS}
    assert len(groups[LOSS_TO_WIN]) == 6  # two windows of 3 samples


# --- expansion columns ----------------------------------------------------

def test_extra_columns_shapes_and_monotonicity():
    tl = make_timeline([1, 2, 1, 1, 2, 1, 1, 2])
    extras = extra_feature_columns(tl, 1)
    n = len(tl.records)
    assert set(extras) == {
        "mean_win_time", "total_score", "first_serve_points",
        "second_serve_points", "first_serve_rate", "second_serve_rate",
        "aces", "mean_distance", "points_won", "untouchable_shots",
        "double_fault_losses", "unforced_errors", "net_approaches",
        "net_points_won", "total_distance",
    }
    for name, col in extras.items():
        assert col.shape == (n,)
    assert np.all(np.diff(extras["points_won"]) >= 0)
    assert np.all(np.diff(extras["total_distance"]) >= 0)
    assert extras["points_won"][-1] == 5.0


def test_extra_columns_rates_bounded():
    tl = make_timeline([1, 1, 2, 1])
    extras = extra_feature_columns(tl, 1)
    assert np.all(extras["first_serve_rate"] <= 1.0)
    assert np.all(extras["first_serve_rate"] >= 0.0)
    total = extras["first_serve_points"] + extras["second_serve_points"]
    won_on_serve = total > 0
    summed = extras["first_serve_rate"] + extras["second_serve_rate"]
    assert summed[won_on_serve] == approx(np.ones(won_on_serve.sum()))
