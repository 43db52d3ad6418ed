import re
import warnings
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from tennis_momentum import (
    DataQualityWarning,
    DegenerateRangeError,
    InsufficientDataError,
    compute_indicators,
    normalize_minmax,
    pca_reduce,
    positivize,
)
from tennis_momentum import indicators
from tennis_momentum.fuzzy import momentum_series
from tennis_momentum.ingest import EVENT_FLAGS
from tennis_momentum.indicators import (
    INDICATOR_NAMES,
    IndicatorVector,
    indicator_matrix,
    indicator_table,
)
from tennis_momentum.records import timeline as timeline_of

from conftest import make_record, make_timeline


def one_segment(records, player):
    """x1..x22 of ``player`` over ``records`` as one segment, and the kinds of
    degenerate range the kernel flags for it."""
    side = timeline_of(records[0].match_id, records).player(player)
    matrix, degenerate = indicator_matrix(side, [0], [len(records)])
    return IndicatorVector(*matrix[0].tolist()), {k for k, m in degenerate.items() if m[0]}


# The reference oracles below read vectors and segment names with these.
# x1..x22 of an IndicatorVector, as a tuple
indicator_values = attrgetter(*INDICATOR_NAMES)


def segment_labels(timeline, segmentation="set"):
    """Segment names aligned with ``compute_indicators`` output."""
    keys, _, _ = indicators._segments(timeline, segmentation)
    return indicators._labels(keys, segmentation)


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
    vec, _ = one_segment(segment(spec), player=1)
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
    vec, _ = one_segment(records, player=1)
    assert vec.x9 == 30 and vec.x10 == 10
    assert vec.x11 == approx(0.75)
    assert vec.x12 == approx(0.25)
    assert vec.x11 + vec.x12 == approx(1.0)


def test_constant_distance_has_zero_variance():
    vec, _ = one_segment(segment([(1, 0, 0), (1, 15, 0)]), player=1)
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
    vec, _ = one_segment(records, player=1)
    # win durations: 40, 100, 40 -> sum of diffs = 0, over n=3
    assert vec.x2 == approx(60.0)
    assert vec.x3 == approx(0.0)


def test_player_without_serve_points_gets_zero_rates():
    spec = [(2, 0, s) for s in [0, 15, 30, 40]]
    vec, degenerate = one_segment(segment(spec), player=1)
    assert degenerate == {"no_wins", "no_serve_wins"}
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
    timeline = timeline_of("m1", records)
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
    with pytest.raises(InsufficientDataError, match="more than one row"):
        pca_reduce(data[:1], 1)


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


# --- the (start, end) kernel against a per-segment oracle -------------------

def _warn(msg):
    warnings.warn(msg, DataQualityWarning, stacklevel=3)


# Oracle: x1..x22 of one slice at a time, with numpy reductions over the
# slice itself; indicator_matrix must give the same bits for every range.
def _reference_segment_indicators(side, player, rows):
    """x1..x22 for ``player``, whose columns are ``side``, over the points
    ``rows`` selects."""
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


# reference warning text -> DEGENERATE_KINDS key
_REFERENCE_KINDS = {
    "no points won in segment": "no_wins",
    "running point totals of 0": "zero_totals",
    "server/serve_no unavailable": "serve_unknown",
    "no points won on serve": "no_serve_wins",
    "no running-distance values": "no_distance",
}


def _reference(side, player, starts, ends):
    """Oracle rows and, per kind, which ranges made the oracle warn."""
    rows = []
    kinds = {kind: [] for kind in _REFERENCE_KINDS.values()}
    for start, end in zip(starts, ends):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows.append(_reference_segment_indicators(side, player, slice(start, end)))
        seen = {kind for text, kind in _REFERENCE_KINDS.items()
                if any(text in str(w.message) for w in caught)}
        for kind, flags in kinds.items():
            flags.append(kind in seen)
    return np.array(rows), kinds


def _assert_kernel_matches_reference(side, player, starts, ends):
    matrix, degenerate = indicator_matrix(side, starts, ends)
    expected, kinds = _reference(side, player, starts, ends)
    mismatched = np.argwhere(matrix != expected)
    assert mismatched.size == 0, [
        (int(i), INDICATOR_NAMES[j], matrix[i, j], expected[i, j]) for i, j in mismatched[:5]
    ]
    assert {k: v.tolist() for k, v in degenerate.items()} == kinds


def _bounds(timeline, segmentation):
    keys = np.column_stack(
        [timeline.column("set_no")]
        + ([timeline.column("game_no")] if segmentation == "game" else [])
    )
    starts = [0] + [i for i in range(1, len(keys)) if (keys[i] != keys[i - 1]).any()]
    return np.array(starts), np.array(starts[1:] + [len(keys)])


def _windows(n, window):
    ends = np.arange(window, n + 1)
    return ends - window, ends


@st.composite
def timelines_for_kernel(draw):
    """Ordered timelines with absent cells, zero running totals and idle games."""
    n = draw(st.integers(1, 40))
    optional = lambda values: st.one_of(st.none(), st.sampled_from(values))  # noqa: E731
    # event flags are plain counts to the kernel: drawn in bulk from one seed
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flag_cells = rng.choice(np.array([None, 0, 1]), size=(n, 2 * len(EVENT_FLAGS)))
    flag_names = [f"p{p}_{flag}" for p in (1, 2) for flag in EVENT_FLAGS]
    records = []
    set_no, game_no, clock = 1, 1, 0
    for i in range(n):
        step = draw(st.integers(0, 4)) if i else 0  # 1-3: next game, 4: next set
        if step == 4:
            set_no, game_no = set_no + 1, 1
        elif step:
            game_no += 1
        # a clock that sometimes runs backwards gives zero durations
        clock = max(0, clock + draw(st.integers(-20, 200)))
        records.append(make_record(
            elapsed_seconds=clock,
            set_no=set_no,
            game_no=game_no,
            point_no=i + 1,
            point_victor=draw(st.sampled_from((1, 2))),
            p1_score=draw(st.sampled_from((0, 15, 30, 40, 55))),
            p2_score=draw(st.sampled_from((0, 15, 30, 40, 55))),
            p1_points_won=draw(st.integers(0, 3)),
            p2_points_won=draw(st.integers(0, 3)),
            server=draw(optional((1, 2))),
            serve_no=draw(optional((1, 2))),
            p1_distance_run=draw(st.none() | st.floats(0.0, 150.0)),
            p2_distance_run=draw(st.none() | st.floats(0.0, 150.0)),
            **dict(zip(flag_names, flag_cells[i].tolist())),
        ))
    return timeline_of("m1", records)


@settings(max_examples=100, deadline=None)
@given(timelines_for_kernel(), st.sampled_from((1, 2)), st.data())
def test_kernel_matches_reference_bit_for_bit(timeline, player, data):
    side = timeline.player(player)
    n = len(timeline)
    for segmentation in ("set", "game"):
        _assert_kernel_matches_reference(side, player, *_bounds(timeline, segmentation))
    window = data.draw(st.integers(1, n), label="window")
    _assert_kernel_matches_reference(side, player, *_windows(n, window))


def test_kernel_matches_reference_on_sample(timelines):
    for tl in timelines:
        for player in (1, 2):
            side = tl.player(player)
            for segmentation in ("set", "game"):
                _assert_kernel_matches_reference(side, player, *_bounds(tl, segmentation))
            # a whole match exceeds numpy's 128-element pairwise-sum block
            for window in (5, 20, 60, len(tl)):
                _assert_kernel_matches_reference(side, player, *_windows(len(tl), window))


def test_kernel_blocks_split_into_chunks_give_the_same_bits(timelines, monkeypatch):
    side = timelines[1].player(1)
    bounds = _windows(len(timelines[1]), 20)
    whole, _ = indicator_matrix(side, *bounds)
    monkeypatch.setattr(indicators, "_BLOCK_CELLS", 50)  # 2 windows of 20 per block
    chunked, _ = indicator_matrix(side, *bounds)
    assert np.array_equal(whole, chunked)


def test_compute_indicators_matches_reference_segments(timelines):
    tl = timelines[0]
    side = tl.player(2)
    starts, ends = _bounds(tl, "game")
    expected, _ = _reference(side, 2, starts, ends)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        vectors = compute_indicators(tl, 2, "game")
    assert vectors == [IndicatorVector(*row) for row in expected.tolist()]
    assert len(segment_labels(tl, "game")) == len(vectors)


def test_out_of_order_keys_are_rejected():
    keys = [(1, 1), (1, 2), (1, 1), (2, 1)]
    records = tuple(
        make_record(match_id="m9", set_no=s, game_no=g, point_no=i + 1,
                    elapsed_seconds=40 * (i + 1))
        for i, (s, g) in enumerate(keys)
    )
    timeline = timeline_of("m9", records)
    for call in (compute_indicators, lambda tl, p, seg: indicator_table([tl], [p], seg)):
        with pytest.raises(ValueError, match=r"match 'm9'.*\(1, 1\) follows \(1, 2\)"):
            call(timeline, 1, "game")
    # the set key alone is in order
    assert len(compute_indicators(timeline, 1, "set")) == 2
    backwards = timeline_of("m9", (
        make_record(match_id="m9", set_no=s, point_no=i + 1) for i, s in enumerate((2, 1))
    ))
    with pytest.raises(ValueError, match="m9"):
        compute_indicators(backwards, 1, "set")


def test_degenerate_segments_warn_once_per_kind_with_count():
    # player 1 wins nothing in games 1-3 and two points of game 4
    timeline = make_timeline([2] * 12 + [1, 2, 1, 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compute_indicators(timeline, 1, "game")
    no_wins = [str(w.message) for w in caught if "no points won in" in str(w.message)]
    assert no_wins == ["player 1: no points won in 3 of 4 segments; x2/x3 set to 0"]
    texts = [str(w.message) for w in caught]
    assert len(texts) == len(set(t.split(" in ")[0] for t in texts))


def test_momentum_series_does_not_warn_on_windows_without_wins():
    timeline = make_timeline([2] * 8 + [1, 2, 1, 1] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DataQualityWarning)
        series = momentum_series(timeline, 1, window=4)
    assert len(series) == len(timeline) - 3


# --- one kernel call per group of timelines ---------------------------------

# Oracle: one kernel call per timeline, as before timelines were grouped,
# and the loop the indicators command ran over it.
def _reference_compute_indicators(timeline, player, segmentation="set"):
    side = timeline.player(player)
    _, starts, ends = indicators._segments(timeline, segmentation)
    matrix, degenerate = indicator_matrix(side, starts, ends)
    indicators._warn_degenerate(player, degenerate)
    return [IndicatorVector(*row) for row in matrix.tolist()]


def _reference_indicator_table(timelines, players, segmentation):
    rows = []
    matrix = []
    for tl in timelines:
        labels = segment_labels(tl, segmentation)
        for player in players:
            vectors = _reference_compute_indicators(tl, player, segmentation)
            for label, vec in zip(labels, vectors):
                rows.append((tl.match_id, player, label))
                matrix.append(indicator_values(vec))
    return rows, np.asarray(matrix)


def _assert_table_matches_reference(timelines, players, segmentation):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        meta, matrix = indicator_table(timelines, players, segmentation)
        expected_meta, expected = _reference_indicator_table(
            timelines, players, segmentation
        )
    assert meta == expected_meta
    assert matrix.shape == expected.shape
    assert matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("group_points", [1, 100, 400, 2048])
@pytest.mark.parametrize("segmentation", ["set", "game"])
def test_grouped_kernel_calls_match_per_timeline_calls(
    timelines, monkeypatch, group_points, segmentation
):
    # 1: every timeline alone; 100: every sample match is longer than a
    # group; 400: two matches a group; 2048: all five in one call
    monkeypatch.setattr(indicators, "_GROUP_POINTS", group_points)
    for players in ([1, 2], [2]):
        _assert_table_matches_reference(timelines, players, segmentation)


@pytest.mark.parametrize("group_points, expected", [
    (100, [194, 194, 200, 200, 133, 133, 136, 136, 124, 124]),  # each match alone
    (400, [394, 394, 393, 393]),  # 194 + 200, then 133 + 136 + 124
    (2048, [787, 787]),
])
def test_kernel_calls_take_whole_matches_up_to_the_group_bound(
    timelines, monkeypatch, group_points, expected
):
    assert [len(tl) for tl in timelines] == [194, 200, 133, 136, 124]
    sizes = []
    kernel = indicators.indicator_matrix

    def recording(side, starts, ends):
        sizes.append(side.won.size)
        return kernel(side, starts, ends)

    monkeypatch.setattr(indicators, "indicator_matrix", recording)
    monkeypatch.setattr(indicators, "_GROUP_POINTS", group_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        indicator_table(timelines, [1, 2], "game")
    assert sizes == expected


@st.composite
def timeline_lists(draw):
    """Several kernel timelines under distinct match ids."""
    timelines = []
    for i in range(draw(st.integers(1, 4))):
        records = draw(timelines_for_kernel()).records
        match_id = f"m{i}"
        records = tuple(replace(r, match_id=match_id) for r in records)
        timelines.append(timeline_of(match_id, records))
    return timelines


@settings(max_examples=60, deadline=None)
@given(timeline_lists(), st.integers(1, 80), st.sampled_from(("set", "game")))
def test_grouped_kernel_calls_match_per_timeline_calls_on_generated_timelines(
    timelines, group_points, segmentation
):
    # max 40 points a timeline: bounds below 40 leave some longer than a group
    original = indicators._GROUP_POINTS
    indicators._GROUP_POINTS = group_points
    try:
        _assert_table_matches_reference(timelines, [1, 2], segmentation)
    finally:
        indicators._GROUP_POINTS = original


_COUNTED = re.compile(r"player (\d): (.+) in (\d+) of (\d+) segments; (.+) set to 0")


def _tally(caught):
    """(player, what) -> (count, segments) of the degenerate-segment warnings."""
    tally = {}
    for w in caught:
        match = _COUNTED.fullmatch(str(w.message))
        if match and issubclass(w.category, DataQualityWarning):
            player, what, count, segments, _ = match.groups()
            key = (int(player), what)
            assert key not in tally, f"warned twice: {key}"
            tally[key] = (int(count), int(segments))
    return tally


def test_indicators_command_warns_once_per_kind_and_player(
    dataset_path, timelines, tmp_path
):
    from tennis_momentum.cli import main

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["indicators", "--data", str(dataset_path), "--segmentation", "game",
                     "--out", str(tmp_path)]) == 0
    tally = _tally(caught)
    assert tally
    expected = {}
    for tl in timelines:
        for player in (1, 2):
            with warnings.catch_warnings(record=True) as per_timeline:
                warnings.simplefilter("always")
                _reference_compute_indicators(tl, player, "game")
            for key, (count, _) in _tally(per_timeline).items():
                expected[key] = expected.get(key, 0) + count
    segments = sum(len(segment_labels(tl, "game")) for tl in timelines)
    assert tally == {key: (count, segments) for key, count in expected.items()}
