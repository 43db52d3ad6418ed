import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from tennis_momentum import (
    DataQualityWarning,
    entropy_weights,
    evaluate_membership,
    first_level_eval,
    momentum_score,
    momentum_series,
    second_level_eval,
)
from tennis_momentum.fuzzy import FuzzyHierarchy, GRADE_SCORE_WEIGHTS, MomentumPoint, _grade
from tennis_momentum.indicators import INDICATOR_NAMES, indicator_matrix, normalize_minmax
from tennis_momentum.ingest import MatchTimeline
from tennis_momentum.records import timeline as timeline_of

from conftest import make_record, make_timeline


def e(i):
    out = np.zeros(7)
    out[i] = 1.0
    return out


# --- entropy weights ------------------------------------------------------

def test_entropy_weights_hand_example():
    # column 1 uniform (e=1, d=0); column 2 p=(1/4, 3/4)
    weights = entropy_weights([[1.0, 1.0], [1.0, 3.0]])
    assert weights == approx([0.0, 1.0], abs=1e-10)
    # intermediate: e2 = -(1/ln2)(0.25 ln 0.25 + 0.75 ln 0.75) ~ 0.8113
    p = np.array([0.25, 0.75])
    e2 = -(p * np.log(p)).sum() / np.log(2)
    assert 1.0 - e2 == approx(0.18872187554086717)


def test_entropy_weights_symmetric_columns():
    weights = entropy_weights([[1.0, 1.0], [3.0, 3.0]])
    assert weights == approx([0.5, 0.5])


def test_entropy_weights_all_uniform_fallback():
    with pytest.warns(DataQualityWarning):
        weights = entropy_weights([[2.0, 5.0], [2.0, 5.0]])
    assert weights == approx([0.5, 0.5])


def test_entropy_weights_validation():
    with pytest.raises(ValueError):
        entropy_weights([[1.0, 2.0]])  # single sample
    with pytest.raises(ValueError, match="column 1"):
        entropy_weights([[1.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropy_weights_reject_nan_and_infinity(bad):
    # NaN once took the larger weight: (0.949, 0.051) for the matrix below
    with pytest.raises(ValueError, match="must be finite"):
        entropy_weights([[bad, 1.0], [1.0, 2.0], [0.5, 1.0]])
    with pytest.raises(ValueError, match="must be non-negative"):
        entropy_weights([[-np.inf, 1.0], [1.0, 2.0]])


def test_entropy_weights_sum_to_one():
    rng = np.random.default_rng(2)
    z = rng.uniform(0.1, 5.0, size=(30, 6))
    assert entropy_weights(z).sum() == approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=100.0), st.integers(0, 5))
def test_entropy_weights_scale_invariant(scale, column):
    rng = np.random.default_rng(9)
    z = rng.uniform(0.5, 4.0, size=(12, 6))
    base = entropy_weights(z)
    scaled = z.copy()
    scaled[:, column] *= scale
    assert entropy_weights(scaled) == approx(base, abs=1e-12)


# --- membership -----------------------------------------------------------

def test_membership_low_extreme():
    mv = evaluate_membership(0.02)
    assert mv.grades == approx(tuple(e(0)))


def test_membership_high_plateau():
    mv = evaluate_membership(0.9)
    assert mv.grades == approx(tuple(e(6)))


def test_membership_overlap_normalizes():
    mv = evaluate_membership(0.32)
    assert mv.raw[1] == approx(0.6, abs=1e-12)
    assert mv.raw[2] == approx(1.0)
    assert mv.grades == approx((0.0, 0.375, 0.625, 0.0, 0.0, 0.0, 0.0), abs=1e-12)


def test_membership_out_of_range():
    with pytest.raises(ValueError):
        evaluate_membership(-0.01)
    with pytest.raises(ValueError):
        evaluate_membership(1.01)


def test_membership_top_value_is_very_strong():
    # U = 1.0 lies on the closed "Very strong" plateau: no warning, exact row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mv = evaluate_membership(1.0)
    assert mv.raw == tuple(e(6))
    assert mv.grades == tuple(e(6))


# every end of a membership segment, as printed in the method's definition
BREAKPOINTS = (0.0, 0.05, 0.06, 0.065, 0.16, 0.25, 0.3, 0.35, 0.4, 0.5, 0.52,
               0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.84, 0.9, 1.0)


def test_membership_grid_and_breakpoints_covered():
    neighbours = [np.nextafter(b, d) for b in BREAKPOINTS for d in (0.0, 1.0)]
    inputs = np.concatenate([np.linspace(0.0, 1.0, 10001), BREAKPOINTS, neighbours])
    for u in inputs:
        mv = evaluate_membership(float(u))
        assert min(mv.raw) >= 0.0
        assert sum(mv.raw) > 0.0
        assert sum(mv.grades) == approx(1.0)


# --- composition ----------------------------------------------------------

def test_first_level_single_indicator_identity():
    row = np.array([[0.2, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0]])
    assert first_level_eval([1.0], row) == approx(row[0])


def test_first_level_convex_mix():
    rows = np.vstack([e(0), e(6)])
    assert first_level_eval([0.5, 0.5], rows) == approx(
        [0.5, 0, 0, 0, 0, 0, 0.5]
    )


def test_first_level_weighted_rows():
    rows = np.vstack([e(1), e(2)])
    out = first_level_eval([0.2, 0.8], rows)
    assert out == approx([0.0, 0.2, 0.8, 0.0, 0.0, 0.0, 0.0])


def test_first_level_validates():
    with pytest.raises(ValueError):
        first_level_eval([0.5, 0.5], np.vstack([e(0)]))
    with pytest.raises(ValueError):
        first_level_eval([0.9, 0.3], np.vstack([e(0), e(1)]))


def test_first_level_rejects_nan_weights():
    rows = np.vstack([e(0), e(1)])
    for w in ([np.nan, 0.5], [np.nan, np.nan]):
        for stack in (rows, np.stack([rows] * 3)):
            with pytest.raises(ValueError, match="sum to 1"):
                first_level_eval(w, stack)


def test_first_level_rejects_negative_weights():
    rows = np.vstack([e(0), e(1)])
    for stack in (rows, np.stack([rows] * 3)):
        with pytest.raises(ValueError, match="non-negative"):
            first_level_eval([1.5, -0.5], stack)


def test_second_level_rejects_nan_weights():
    rows = np.vstack([e(0), e(1), e(2), e(3)])
    for a in ([np.nan, 0.25, 0.35, 0.25], [np.nan] * 4):
        for stack in (rows, np.stack([rows] * 3)):
            with pytest.raises(ValueError, match="sums to zero"):
                second_level_eval(a, stack)


def test_second_level_fixed_point():
    row = np.array([0.1, 0.2, 0.3, 0.4, 0.0, 0.0, 0.0])
    rows = np.vstack([row] * 4)
    out = second_level_eval([0.15, 0.25, 0.35, 0.25], rows)
    assert out == approx(row)


def test_second_level_standard_weights():
    rows = np.vstack([e(0), e(1), e(2), e(3)])
    out = second_level_eval([0.15, 0.25, 0.35, 0.25], rows)
    assert out == approx([0.15, 0.25, 0.35, 0.25, 0.0, 0.0, 0.0])


def test_second_level_one_hot_selects():
    rows = np.vstack([e(0), e(1), e(2), e(3)])
    out = second_level_eval([0.0, 0.0, 1.0, 0.0], rows)
    assert out == approx(e(2))


@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_second_level_stays_in_convex_hull(raw_weights):
    w = np.asarray(raw_weights)
    w = w / w.sum()
    rng = np.random.default_rng(4)
    rows = rng.dirichlet(np.ones(7), size=4)
    out = second_level_eval(w, rows)
    assert out.min() >= -1e-12
    assert out.sum() == approx(1.0)
    assert out.max() <= rows.max() + 1e-12


# --- scoring --------------------------------------------------------------

def test_score_extremes():
    assert momentum_score(e(0)) == 10.0
    assert momentum_score(e(6)) == 100.0


def test_score_weighted_example_is_exact():
    assert momentum_score((0.15, 0.25, 0.35, 0.25, 0, 0, 0)) == 38.0


def test_score_requires_normalized_input():
    with pytest.raises(ValueError):
        momentum_score((0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        momentum_score((1.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_score_rejects_nan_rows():
    with pytest.raises(ValueError, match="normalized"):
        momentum_score([np.nan] * 7)
    stack = np.tile(e(3), (5, 1))
    stack[2, 0] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        momentum_score(stack)


def test_hierarchy_rejects_nan_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        FuzzyHierarchy(first_level_weights=(np.nan, 0.25, 0.35, 0.25))


@given(st.integers(0, 5), st.floats(0.01, 0.5))
def test_score_monotone_under_upward_mass_shift(grade, mass):
    base = np.full(7, 1.0 / 7.0)
    shifted = base.copy()
    shifted[grade] -= mass * base[grade]
    shifted[grade + 1] += mass * base[grade]
    assert momentum_score(shifted) >= momentum_score(base) - 1e-12


def test_score_range_over_membership_grid():
    for u in np.linspace(0.0, 1.0, 501):
        mv = evaluate_membership(float(u), warn_on_fallback=False)
        score = momentum_score(mv.grades)
        assert 10.0 - 1e-9 <= score <= 100.0 + 1e-9


# --- momentum series ------------------------------------------------------

def alternating_then_streak_timeline():
    """Alternating points, then player 1 wins a full window straight."""
    victors = [1, 2] * 30 + [1] * 20
    return make_timeline(victors)


def test_series_length_and_window_validation():
    tl = make_timeline([1, 2] * 15)
    series = momentum_series(tl, 1, window=10)
    assert len(series) == len(tl.records) - 10 + 1
    with pytest.raises(ValueError):
        momentum_series(tl, 1, window=31)
    with pytest.raises(ValueError):
        momentum_series(tl, 3, window=5)


def test_series_dominant_player_scores_higher():
    tl = alternating_then_streak_timeline()
    s1 = momentum_series(tl, 1, window=20)
    s2 = momentum_series(tl, 2, window=20)
    assert s1[-1].score > s2[-1].score


def test_series_scores_in_range_and_deterministic():
    tl = alternating_then_streak_timeline()
    a = momentum_series(tl, 1, window=12)
    b = momentum_series(tl, 1, window=12)
    assert [p.score for p in a] == [p.score for p in b]
    assert all(10.0 <= p.score <= 100.0 for p in a)
    assert [p.elapsed_seconds for p in a] == [
        r.elapsed_seconds for r in tl.records[11:]
    ]


def swap_players(tl: MatchTimeline) -> MatchTimeline:
    swapped = []
    for r in tl.records:
        swapped.append(
            dataclasses.replace(
                r,
                player1=r.player2,
                player2=r.player1,
                p1_sets=r.p2_sets,
                p2_sets=r.p1_sets,
                p1_games=r.p2_games,
                p2_games=r.p1_games,
                p1_score=r.p2_score,
                p2_score=r.p1_score,
                point_victor=3 - r.point_victor,
                p1_points_won=r.p2_points_won,
                p2_points_won=r.p1_points_won,
                server=None if r.server is None else 3 - r.server,
                p1_ace=r.p2_ace,
                p2_ace=r.p1_ace,
                p1_untouchable_winner=r.p2_untouchable_winner,
                p2_untouchable_winner=r.p1_untouchable_winner,
                p1_double_fault=r.p2_double_fault,
                p2_double_fault=r.p1_double_fault,
                p1_unforced_error=r.p2_unforced_error,
                p2_unforced_error=r.p1_unforced_error,
                p1_net_approach=r.p2_net_approach,
                p2_net_approach=r.p1_net_approach,
                p1_net_point_won=r.p2_net_point_won,
                p2_net_point_won=r.p1_net_point_won,
                p1_break_point_missed=r.p2_break_point_missed,
                p2_break_point_missed=r.p1_break_point_missed,
                p1_distance_run=r.p2_distance_run,
                p2_distance_run=r.p1_distance_run,
            )
        )
    return timeline_of(tl.match_id, swapped)


def test_series_symmetric_under_player_swap():
    tl = alternating_then_streak_timeline()
    direct = momentum_series(tl, 1, window=15)
    mirrored = momentum_series(swap_players(tl), 2, window=15)
    assert [p.score for p in direct] == approx([p.score for p in mirrored])


def test_series_on_sample_matches_warns_nothing(timelines):
    # top-of-range inputs (U = 1.0) occur in every match and grade silently
    with warnings.catch_warnings():
        warnings.simplefilter("error", DataQualityWarning)
        for tl in timelines:
            for player in (1, 2):
                assert momentum_series(tl, player, window=20)


# --- stacked composition against the per-window loop -----------------------

# Oracle: the one-row compositions and the per-window loop momentum_series
# ran before it composed every window in one stacked pass; the stacked code
# must give the same bits.
def _reference_first_level_eval(group_weights, rows):
    w = np.asarray(group_weights, dtype=float)
    r = np.asarray(rows, dtype=float)
    if r.ndim != 2 or r.shape[1] != 7:
        raise ValueError("rows must have shape (j, 7)")
    if w.shape != (r.shape[0],):
        raise ValueError("one weight per membership row is required")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("group weights must sum to 1")
    return w @ r


def _reference_second_level_eval(first_level_weights, b_rows):
    a = np.asarray(first_level_weights, dtype=float)
    b = np.asarray(b_rows, dtype=float)
    if b.ndim != 2 or b.shape[1] != 7:
        raise ValueError("b_rows must have shape (groups, 7)")
    if a.shape != (b.shape[0],):
        raise ValueError("one weight per group row is required")
    out = a @ b
    total = out.sum()
    if total <= 0:
        raise ValueError("composed membership row sums to zero")
    return out / total


def _reference_momentum_score(b):
    arr = np.asarray(b, dtype=float)
    if arr.shape != (7,):
        raise ValueError("membership row must have 7 grades")
    if (arr < 0).any() or abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError("membership row must be normalized (non-negative, sum 1)")
    return float(np.dot(GRADE_SCORE_WEIGHTS, arr))


def _reference_momentum_series(timeline, player, window, hierarchy=None):
    if hierarchy is None:
        hierarchy = FuzzyHierarchy()
    ends = np.arange(window, len(timeline) + 1)
    matrix, _ = indicator_matrix(timeline.player(player), ends - window, ends)
    matrix = matrix[:, [INDICATOR_NAMES.index(n) for n in hierarchy.indicator_names]]
    names = hierarchy.indicator_names

    # a smaller-is-better column is reversed onto [0, 1] as (max - x) / (max - min),
    # a constant one set to 0.5
    for j, name in enumerate(names):
        if name in hierarchy.smaller_is_better:
            x = matrix[:, j]
            lo, hi = x.min(), x.max()
            matrix[:, j] = (hi - x) / (hi - lo) if hi > lo else 0.5
    u = normalize_minmax(matrix)

    weights: list[np.ndarray] = []
    offset = 0
    for _, group_names in hierarchy.groups:
        cols = u[:, offset : offset + len(group_names)]
        if u.shape[0] >= 2:
            weights.append(entropy_weights(cols))
        else:
            warnings.warn(
                "single-window series; using equal weights inside groups",
                DataQualityWarning,
                stacklevel=2,
            )
            weights.append(np.full(len(group_names), 1.0 / len(group_names)))
        offset += len(group_names)

    _, grades = _grade(u)
    points = []
    a = hierarchy.first_level_weights
    elapsed = timeline.column("elapsed_seconds")[window - 1 :].astype(int).tolist()
    for t in range(u.shape[0]):
        offset = 0
        b_rows = []
        for g, (_, group_names) in enumerate(hierarchy.groups):
            rows = grades[t, offset : offset + len(group_names)]
            b_rows.append(_reference_first_level_eval(weights[g], rows))
            offset += len(group_names)
        b = _reference_second_level_eval(a, np.asarray(b_rows))
        points.append(
            MomentumPoint(
                elapsed_seconds=elapsed[t],
                player=player,
                score=_reference_momentum_score(b),
            )
        )
    return points


def _assert_series_matches_reference(timeline, player, window):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        got = momentum_series(timeline, player, window)
        want = _reference_momentum_series(timeline, player, window)
    assert got == want
    assert all(type(point.score) is float for point in got)


def test_series_matches_per_window_reference_on_sample(timelines):
    for tl in timelines:
        for player in (1, 2):
            for window in (1, 5, 20, 60, len(tl)):
                _assert_series_matches_reference(tl, player, window)


@pytest.mark.parametrize("window", [2, 5, 12, 20])
def test_series_matches_reference_with_constant_x2(window):
    # player 1 wins in every window, each point lasting 40 s: x2 is constant,
    # which has no range to reverse; both sides set it to 0.5
    tl = alternating_then_streak_timeline()
    ends = np.arange(window, len(tl) + 1)
    matrix, _ = indicator_matrix(tl.player(1), ends - window, ends)
    x2 = matrix[:, INDICATOR_NAMES.index("x2")]
    assert (x2 == 40.0).all()
    assert (normalize_minmax(-x2) == 0.5).all()
    _assert_series_matches_reference(tl, 1, window)


def _random_grades(rng, count):
    # a (count, 11, 7) block like the graded window matrix, rows on the simplex
    return rng.dirichlet(np.ones(7), size=(count, 11))


def test_stacked_composition_equals_per_row_calls():
    rng = np.random.default_rng(11)
    count = 10_000
    grades = _random_grades(rng, count)
    hierarchy = FuzzyHierarchy()
    b_rows, offset = [], 0
    for _, group_names in hierarchy.groups:
        j = len(group_names)
        w = rng.dirichlet(np.ones(j))
        rows = grades[:, offset : offset + j]
        stacked = first_level_eval(w, rows)
        assert stacked.shape == (count, 7)
        for t in range(count):
            assert np.array_equal(stacked[t], _reference_first_level_eval(w, rows[t]))
            assert np.array_equal(stacked[t], first_level_eval(w, rows[t]))
        b_rows.append(stacked)
        offset += j

    b_stack = np.stack(b_rows, axis=1)
    for a in (hierarchy.first_level_weights, rng.dirichlet(np.ones(4))):
        b = second_level_eval(a, b_stack)
        assert b.shape == (count, 7)
        for t in range(count):
            assert np.array_equal(b[t], _reference_second_level_eval(a, b_stack[t]))
            assert np.array_equal(b[t], second_level_eval(a, b_stack[t]))

    for rows in (b, grades[:, 0], rng.dirichlet(np.ones(7), size=count)):
        scores = momentum_score(rows)
        assert scores.shape == (count,)
        for t, score in enumerate(scores.tolist()):
            one = momentum_score(rows[t])
            assert type(one) is float
            assert score == one == _reference_momentum_score(rows[t])
    assert momentum_score(grades[:2]).shape == (2, 11)


def _value_error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_one_bad_row_in_a_stack_raises_the_one_row_error():
    rng = np.random.default_rng(5)
    grades = _random_grades(rng, 50)
    w = np.array([0.3, 0.7])
    rows = grades[:, :2].copy()

    # wrong shape: six grades, or one weight too many
    for bad_w, bad_rows in ((w, rows[..., :6]), (np.array([0.2, 0.3, 0.5]), rows)):
        expected = _value_error(_reference_first_level_eval, bad_w, bad_rows[7])
        assert _value_error(first_level_eval, bad_w, bad_rows) == expected
    # weights that do not sum to 1
    expected = _value_error(_reference_first_level_eval, [0.9, 0.3], rows[0])
    assert _value_error(first_level_eval, [0.9, 0.3], rows) == expected

    a = FuzzyHierarchy().first_level_weights
    b_rows = grades[:, :4].copy()
    expected = _value_error(_reference_second_level_eval, a, b_rows[0, :3])
    assert _value_error(second_level_eval, a, b_rows[:, :3]) == expected
    b_rows[31] = 0.0  # composes to a row summing to zero
    expected = _value_error(_reference_second_level_eval, a, b_rows[31])
    assert _value_error(second_level_eval, a, b_rows) == expected

    b = grades[:, 0].copy()
    expected = _value_error(_reference_momentum_score, b[0, :6])
    assert _value_error(momentum_score, b[:, :6]) == expected
    for bad in ((0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (1.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0)):
        stack = b.copy()
        stack[42] = bad
        expected = _value_error(_reference_momentum_score, stack[42])
        assert _value_error(momentum_score, stack) == expected


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        FuzzyHierarchy(first_level_weights=(0.5, 0.25, 0.35, 0.25))
    default = FuzzyHierarchy()
    assert sum(default.first_level_weights) == approx(1.0)
    assert len(default.indicator_names) == 11
    assert len(GRADE_SCORE_WEIGHTS) == 7
