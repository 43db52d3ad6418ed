import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from tennis_momentum import (
    DataQualityWarning,
    DegenerateRangeError,
    compute_indicators,
    normalize_minmax,
    pca_reduce,
    positivize,
)
from tennis_momentum.ingest import MatchTimeline
from tennis_momentum.indicators import indicator_vector

from conftest import make_record, make_timeline


def segment(spec):
    """Build a one-segment record list from (victor, p1_score, p2_score) triples."""
    records = []
    pw = [0, 0]
    for i, (victor, s1, s2) in enumerate(spec):
        pw[victor - 1] += 1
        records.append(
            make_record(
                point_no=i + 1,
                elapsed_seconds=40 * (i + 1),
                point_victor=victor,
                p1_score=s1,
                p2_score=s2,
                p1_points_won=pw[0],
                p2_points_won=pw[1],
            )
        )
    return records


def test_high_scoring_rate_counts_score_states():
    # 8 points, own score at or above 40 in exactly 2 of them
    spec = [(1, s, 0) for s in [0, 15, 30, 40, 55, 0, 15, 30]]
    vec = indicator_vector(segment(spec), player=1)
    assert vec.x6 == approx(0.25)


def test_serve_rate_identity():
    records = []
    pw = [0, 0]
    for i in range(40):
        serve_no = 1 if i < 30 else 2
        pw[0] += 1
        records.append(
            make_record(
                point_no=i + 1,
                elapsed_seconds=40 * (i + 1),
                server=1,
                serve_no=serve_no,
                point_victor=1,
                p1_points_won=pw[0],
                p2_points_won=pw[1],
            )
        )
    vec = indicator_vector(records, player=1)
    assert vec.x9 == 30 and vec.x10 == 10
    assert vec.x11 == approx(0.75)
    assert vec.x12 == approx(0.25)
    assert vec.x11 + vec.x12 == approx(1.0)


def test_constant_distance_has_zero_variance():
    vec = indicator_vector(segment([(1, 0, 0), (1, 15, 0)]), player=1)
    assert vec.x22 == 0.0


def test_win_time_stability_telescopes():
    # wins at durations 40s each except one 100s point in the middle
    records = segment([(1, 0, 0), (1, 15, 0), (1, 30, 0)])
    records[1] = make_record(
        point_no=2, elapsed_seconds=140, point_victor=1, p1_score=15,
        p1_points_won=2, p2_points_won=0,
    )
    records[2] = make_record(
        point_no=3, elapsed_seconds=180, point_victor=1, p1_score=30,
        p1_points_won=3, p2_points_won=0,
    )
    vec = indicator_vector(records, player=1)
    # win durations: 40, 100, 40 -> sum of diffs = 0, over n=3
    assert vec.x2 == approx(60.0)
    assert vec.x3 == approx(0.0)


def test_player_without_serve_points_gets_zero_rates():
    spec = [(2, 0, s) for s in [0, 15, 30, 40]]
    with pytest.warns(DataQualityWarning):
        vec = indicator_vector(segment(spec), player=1)
    assert vec.x1 == 0.0
    assert vec.x11 == 0.0 and vec.x12 == 0.0
    assert 0.0 <= vec.x6 <= 1.0


def test_segmentation_by_set_and_game():
    records = []
    pw = [0, 0]
    for i, (set_no, game_no) in enumerate([(1, 1), (1, 1), (1, 2), (2, 1)]):
        pw[0] += 1
        records.append(
            make_record(
                set_no=set_no,
                game_no=game_no,
                point_no=i + 1,
                elapsed_seconds=40 * (i + 1),
                p1_points_won=pw[0],
            )
        )
    timeline = MatchTimeline("m1", tuple(records))
    assert len(compute_indicators(timeline, 1, "set")) == 2
    assert len(compute_indicators(timeline, 1, "game")) == 3
    with pytest.raises(ValueError):
        compute_indicators(timeline, 1, "quarter")
    with pytest.raises(ValueError):
        compute_indicators(timeline, 3)


def test_all_rates_bounded_on_fixture_matches(timelines):
    for tl in timelines:
        for player in (1, 2):
            for vec in compute_indicators(tl, player):
                for name in ("x6", "x11", "x12", "x14", "x15", "x16", "x17",
                             "x18", "x19", "x20"):
                    value = getattr(vec, name)
                    assert 0.0 <= value <= 1.0
                assert vec.x8 >= 0.0 and vec.x22 >= 0.0
                if vec.x9 + vec.x10 > 0:
                    assert vec.x11 + vec.x12 == approx(1.0)


# --- positivize -----------------------------------------------------------

def test_positivize_reverses_linearly():
    assert positivize([2, 4, 6]) == approx([1.0, 0.5, 0.0])


def test_positivize_endpoints():
    out = positivize([3.0, 9.0, 7.0])
    assert out[np.argmin([3.0, 9.0, 7.0])] == approx(1.0)
    assert out[np.argmax([3.0, 9.0, 7.0])] == approx(0.0)


def test_positivize_degenerate_range():
    with pytest.raises(DegenerateRangeError):
        positivize([10.0, 10.0, 10.0])


@given(
    st.lists(
        st.integers(min_value=-10**6, max_value=10**6),
        min_size=2,
        max_size=30,
    ).filter(lambda v: max(v) > min(v))
)
def test_positivize_flips_ranking(values):
    arr = np.asarray(values, dtype=float)
    flipped = positivize(arr)
    again = positivize(flipped)
    # double reversal restores the original ordering
    assert np.array_equal(np.argsort(again, kind="stable"),
                          np.argsort(arr, kind="stable"))


# --- min-max --------------------------------------------------------------

def test_normalize_scales_to_unit_interval():
    out = normalize_minmax(np.array([[0.0], [5.0], [10.0]]))
    assert out[:, 0] == approx([0.0, 0.5, 1.0])


def test_normalize_constant_column_is_half():
    out = normalize_minmax(np.array([[7.0], [7.0]]))
    assert out[:, 0] == approx([0.5, 0.5])


def test_normalize_unit_column_unchanged():
    col = np.array([[0.0], [0.25], [1.0]])
    assert normalize_minmax(col) == approx(col)


# --- PCA ------------------------------------------------------------------

def pca_oracle_svd(matrix, k):
    """Independent route: SVD of the standardized matrix."""
    arr = np.asarray(matrix, dtype=float)
    mu = arr.mean(axis=0)
    sd = arr.std(axis=0, ddof=1)
    z = np.zeros_like(arr)
    ok = sd > 0
    z[:, ok] = (arr[:, ok] - mu[ok]) / sd[ok]
    _, s, vt = np.linalg.svd(z, full_matrices=False)
    eigvals = s**2 / (arr.shape[0] - 1)
    return eigvals[:k], vt[:k]


def test_pca_perfectly_correlated_pair():
    rng = np.random.default_rng(7)
    x = rng.normal(size=50)
    data = np.column_stack([x, x])
    result = pca_reduce(data, 2)
    assert result.loadings[0] == approx(np.array([1, 1]) / np.sqrt(2), abs=1e-12)
    assert result.explained_variance[1] == approx(0.0, abs=1e-12)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(40, 6))
    result = pca_reduce(data, 6)
    mu = data.mean(axis=0)
    z = (data - mu) / data.std(axis=0, ddof=1)
    assert result.scores @ result.loadings == approx(z, abs=1e-8)
    assert result.loadings @ result.loadings.T == approx(np.eye(6), abs=1e-8)
    assert np.all(np.diff(result.explained_variance) <= 1e-12)
    assert result.explained_variance.sum() == approx(6.0, abs=1e-8)
    assert result.scores.mean(axis=0) == approx(np.zeros(6), abs=1e-10)


def test_pca_matches_independent_svd_oracle():
    rng = np.random.default_rng(23)
    data = rng.normal(size=(30, 10)) @ np.diag(np.linspace(0.5, 3.0, 10))
    result = pca_reduce(data, 10)
    eigvals, vt = pca_oracle_svd(data, 10)
    assert result.explained_variance == approx(eigvals, abs=1e-8)
    for row, oracle_row in zip(result.loadings, vt):
        sign = 1.0 if abs(row @ oracle_row - 1) < abs(row @ oracle_row + 1) else -1.0
        assert row == approx(sign * oracle_row, abs=1e-8)


def test_pca_rejects_bad_k():
    data = np.random.default_rng(3).normal(size=(5, 4))
    with pytest.raises(ValueError):
        pca_reduce(data, 0)
    with pytest.raises(ValueError):
        pca_reduce(data, 5)


def test_pca_zero_variance_column_warns():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(20, 3))
    data[:, 1] = 4.2
    with pytest.warns(DataQualityWarning):
        result = pca_reduce(data, 2)
    assert np.isfinite(result.scores).all()


def test_indicator_count_is_22(timelines):
    vec = compute_indicators(timelines[0], 1)[0]
    assert vec.as_array().shape == (22,)
