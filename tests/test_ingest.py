import csv
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pytest import approx

from tennis_momentum import (
    DataError,
    DataQualityWarning,
    EmptyInputError,
    ImputationError,
    RowParseError,
    SchemaError,
    impute_missing,
    load_matches,
    missing_rate,
    outlier_report,
    parse_score_token,
)
from tennis_momentum import ingest
from tennis_momentum.ingest import (
    CSV_COLUMNS,
    PointRecord,
    flatten_timelines,
    format_elapsed,
    parse_elapsed,
    points_csv_text,
    write_points_csv,
)

from conftest import make_record


# --- score tokens ---------------------------------------------------------

def test_score_token_ad_maps_to_55():
    assert parse_score_token("AD") == 55


@pytest.mark.parametrize("token,expected", [("0", 0), ("15", 15), ("30", 30), ("40", 40)])
def test_score_token_numeric_identity(token, expected):
    assert parse_score_token(token) == expected


def test_score_token_accepts_cleaned_form():
    # cleaned files store the numeric form of AD
    assert parse_score_token("55") == 55


def test_score_token_unknown_raises_with_row(tmp_path):
    with pytest.raises(ValueError, match="'7'"):
        parse_score_token("7")
    lines = points_csv_text([make_record(), make_record(point_no=2)]).splitlines()
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index("p2_score")] = "7"
    path = tmp_path / "token.csv"
    path.write_text("\n".join([lines[0], lines[1], ",".join(cells)]))
    with pytest.raises(RowParseError, match="row 2: .*p2_score.*'7'") as info:
        load_matches(path)
    assert info.value.row_number == 2


def test_elapsed_parsing_roundtrip():
    assert parse_elapsed("0:01:31") == 91
    assert parse_elapsed("2:05:09") == 2 * 3600 + 5 * 60 + 9
    assert format_elapsed(91) == "0:01:31"
    with pytest.raises(ValueError):
        parse_elapsed("12:34")


# --- loading --------------------------------------------------------------

def _csv_lines(records):
    return points_csv_text(records).splitlines()


def _write_csv(path, records, ad_token=False):
    path.write_text(points_csv_text(records, ad_token=ad_token), newline="")


def test_load_single_match(tmp_path):
    records = [
        make_record(point_no=1, p1_points_won=1),
        make_record(point_no=2, p1_score=15, p1_points_won=2, elapsed_seconds=80),
    ]
    path = tmp_path / "two.csv"
    _write_csv(path, records)
    timelines = load_matches(path)
    assert len(timelines) == 1
    assert timelines[0].match_id == "m1"
    assert len(timelines[0]) == 2


def test_load_sorts_out_of_order_rows(tmp_path):
    records = [
        make_record(point_no=2, elapsed_seconds=80),
        make_record(point_no=1),
    ]
    path = tmp_path / "unordered.csv"
    _write_csv(path, records)
    (timeline,) = load_matches(path)
    assert [r.point_no for r in timeline.records] == [1, 2]


def test_load_duplicate_point_key_names_both_rows(tmp_path):
    records = [
        make_record(point_no=1),
        make_record(point_no=2, elapsed_seconds=80),
        make_record(match_id="m2"),
        make_record(point_no=2, elapsed_seconds=120),
    ]
    path = tmp_path / "duplicate.csv"
    _write_csv(path, records)
    with pytest.raises(RowParseError, match=r"row 4: .*\(1, 1, 2\).*rows 2 and 4") as info:
        load_matches(path)
    assert info.value.row_number == 4


def test_load_groups_by_match_id(tmp_path):
    records = [
        make_record(match_id="2023-wimbledon-1304"),
        make_record(match_id="2023-wimbledon-1310"),
    ]
    path = tmp_path / "two_matches.csv"
    _write_csv(path, records)
    timelines = load_matches(path)
    assert [t.match_id for t in timelines] == [
        "2023-wimbledon-1304",
        "2023-wimbledon-1310",
    ]


def test_load_missing_column_names_it(tmp_path):
    path = tmp_path / "broken.csv"
    text = points_csv_text([make_record()])
    lines = text.splitlines()
    header = lines[0].split(",")
    drop = header.index("point_victor")
    new_lines = [
        ",".join(cell for i, cell in enumerate(line.split(",")) if i != drop)
        for line in lines
    ]
    path.write_text("\n".join(new_lines))
    with pytest.raises(SchemaError, match="point_victor"):
        load_matches(path)


def test_load_malformed_row_reports_number(tmp_path):
    path = tmp_path / "bad.csv"
    lines = points_csv_text([make_record(), make_record(point_no=2)]).splitlines()
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index("point_victor")] = "9"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(RowParseError, match="row 2"):
        load_matches(path)


def _oversized(lines, index, column):
    """Put a quoted cell longer than csv's field limit into line ``index``."""
    cells = next(csv.reader([lines[index]]))
    cells[column] = "W" * 200_000
    lines[index] = ",".join(f'"{c}"' for c in cells)


def test_load_oversized_cell_names_the_row(tmp_path):
    lines = _csv_lines([make_record(point_no=i + 1) for i in range(4)])
    _oversized(lines, 3, CSV_COLUMNS.index("serve_width"))
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines))
    with pytest.raises(RowParseError, match="row 3: malformed CSV.*field limit") as info:
        load_matches(path)
    assert info.value.row_number == 3


def test_load_oversized_header_cell_is_data_error(tmp_path):
    lines = _csv_lines([make_record()])
    _oversized(lines, 0, 0)
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines))
    with pytest.raises(DataError, match="malformed CSV header") as info:
        load_matches(path)
    assert not isinstance(info.value, RowParseError)


@pytest.mark.parametrize("serve_no", ["0", "3"])
def test_load_rejects_serve_no_outside_one_or_two(tmp_path, serve_no):
    lines = _csv_lines([make_record(), make_record(point_no=2, elapsed_seconds=80)])
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index("serve_no")] = serve_no
    path = tmp_path / "serve_no.csv"
    path.write_text("\n".join([lines[0], lines[1], ",".join(cells)]))
    with pytest.raises(RowParseError, match=f"row 2: .*serve_no.*'{serve_no}'"):
        load_matches(path)


def test_load_parses_ad_tokens(tmp_path):
    records = [make_record(p1_score=55, p2_score=40)]
    path = tmp_path / "ad.csv"
    _write_csv(path, records, ad_token=True)
    assert "AD" in path.read_text()
    (timeline,) = load_matches(path)
    assert timeline.records[0].p1_score == 55


def test_roundtrip_is_fixed_point(tmp_path):
    records = [
        make_record(point_no=1, speed_mph=112.3),
        make_record(point_no=2, elapsed_seconds=81, speed_mph=None, return_depth=None),
    ]
    first = tmp_path / "first.csv"
    _write_csv(first, records)
    loaded = load_matches(first)
    second = tmp_path / "second.csv"
    write_points_csv(flatten_timelines(loaded), second)
    reloaded = load_matches(second)
    assert flatten_timelines(reloaded) == flatten_timelines(loaded)
    third = tmp_path / "third.csv"
    write_points_csv(flatten_timelines(reloaded), third)
    assert second.read_text() == third.read_text()


def test_load_skips_blank_lines_without_counting_them(tmp_path):
    lines = _csv_lines([make_record(), make_record(point_no=2, elapsed_seconds=80)])
    path = tmp_path / "blank.csv"
    path.write_text("\n".join([lines[0], "", lines[1], "", "", lines[2], ""]) + "\n")
    (timeline,) = load_matches(path)
    assert [r.point_no for r in timeline.records] == [1, 2]

    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index("point_victor")] = "9"
    path.write_text("\n".join([lines[0], lines[1], "", ",".join(cells)]) + "\n")
    with pytest.raises(RowParseError, match="row 2: .*'9'"):
        load_matches(path)


def test_load_short_row_reads_missing_cells_as_empty(tmp_path):
    lines = _csv_lines([make_record()])
    keep = CSV_COLUMNS.index("speed_mph")
    path = tmp_path / "short.csv"
    path.write_text(lines[0] + "\n" + ",".join(lines[1].split(",")[:keep]) + "\n")
    (timeline,) = load_matches(path)
    (record,) = timeline.records
    assert record.speed_mph is None
    assert record.serve_width is record.serve_depth is record.return_depth is None
    assert record.p2_distance_run == 10.0


def test_load_strips_cells(tmp_path):
    lines = _csv_lines([make_record(match_id="m1", serve_width="W")])
    path = tmp_path / "padded.csv"
    path.write_text(
        lines[0] + "\n" + ",".join(f" {cell} " for cell in lines[1].split(",")) + "\n"
    )
    (timeline,) = load_matches(path)
    assert timeline.match_id == "m1"
    assert timeline.records == (make_record(match_id="m1", serve_width="W"),)


def test_load_repeated_column_reads_last_occurrence_only(tmp_path):
    lines = _csv_lines([make_record(speed_mph=120.5)])
    path = tmp_path / "repeated.csv"
    path.write_text(f"speed_mph,{lines[0]}\nnot-a-number,{lines[1]}\n")
    (timeline,) = load_matches(path)
    assert timeline.records[0].speed_mph == 120.5


def test_load_unknown_columns_warn_once_naming_them(tmp_path):
    lines = _csv_lines([make_record()])
    path = tmp_path / "unknown.csv"
    path.write_text(f"{lines[0]},foo,bar\n{lines[1]},1,2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (timeline,) = load_matches(path)
    assert len(caught) == 1
    assert issubclass(caught[0].category, DataQualityWarning)
    assert "foo" in str(caught[0].message) and "bar" in str(caught[0].message)
    assert timeline.records == (make_record(),)


def test_load_header_only_is_empty_input(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text(_csv_lines([make_record()])[0] + "\n")
    with pytest.raises(EmptyInputError):
        load_matches(path)


def test_load_zero_byte_file_is_schema_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(SchemaError):
        load_matches(path)


def test_scoped_load_equals_that_match_of_the_full_load(dataset_path, timelines):
    for tl in timelines:
        assert load_matches(dataset_path, tl.match_id) == [tl]


def test_scoped_load_of_unknown_id_lists_every_id(tmp_path):
    from tennis_momentum.cli import RunConfig, _select_match

    records = [make_record(match_id=m) for m in ("m-b", "m-a", "m-c")]
    path = tmp_path / "three.csv"
    _write_csv(path, records)
    with pytest.raises(DataError) as scoped:
        load_matches(path, "nope")
    # word for word what the CLI says when it selects from a full load
    with pytest.raises(DataError) as selected:
        _select_match(load_matches(path), RunConfig(match="nope"))
    assert str(scoped.value) == "unknown match id 'nope'; available: m-a, m-b, m-c"
    assert str(scoped.value) == str(selected.value)


def test_scoped_load_of_header_only_file_is_empty_input(tmp_path):
    path = tmp_path / "header.csv"
    _write_csv(path, [])
    with pytest.raises(EmptyInputError):
        load_matches(path, "m1")


# --- round trip -----------------------------------------------------------

_TEXT = st.text(alphabet="abcXYZ09 ,\"'-", min_size=1, max_size=6).filter(
    lambda s: s == s.strip()
)
_FLAG = st.none() | st.sampled_from([0, 1])
_DISTANCE = st.none() | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_records = st.builds(
    PointRecord,
    match_id=st.sampled_from(["m1", "m2", "2023-wimbledon-1304"]),
    player1=_TEXT,
    player2=_TEXT,
    elapsed_seconds=st.integers(0, 10**6),
    set_no=st.integers(1, 5),
    game_no=st.integers(1, 13),
    point_no=st.integers(1, 30),
    p1_sets=st.integers(0, 3),
    p2_sets=st.integers(0, 3),
    p1_games=st.integers(0, 7),
    p2_games=st.integers(0, 7),
    p1_score=st.sampled_from([0, 15, 30, 40, 55]),
    p2_score=st.sampled_from([0, 15, 30, 40, 55]),
    point_victor=st.sampled_from([1, 2]),
    p1_points_won=st.integers(0, 400),
    p2_points_won=st.integers(0, 400),
    server=st.none() | st.sampled_from([1, 2]),
    serve_no=st.none() | st.sampled_from([1, 2]),
    **{
        f"p{p}_{flag}": _FLAG
        for p in (1, 2)
        for flag in ("ace", "untouchable_winner", "double_fault", "unforced_error",
                     "net_approach", "net_point_won", "break_point_missed")
    },
    p1_distance_run=_DISTANCE,
    p2_distance_run=_DISTANCE,
    speed_mph=_DISTANCE,
    serve_width=st.none() | _TEXT,
    serve_depth=st.none() | _TEXT,
    return_depth=st.none() | _TEXT,
)


def _point_key(r):
    return r.match_id, r.set_no, r.game_no, r.point_no


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    records=st.lists(
        _records, min_size=1, max_size=12,
        unique_by=_point_key,
    ),
    ad_token=st.booleans(),
)
def test_load_inverts_points_csv_text(tmp_path, records, ad_token):
    path = tmp_path / "roundtrip.csv"
    _write_csv(path, records, ad_token=ad_token)
    expected = sorted(records, key=_point_key)
    assert flatten_timelines(load_matches(path)) == expected


# --- missing rates --------------------------------------------------------

def test_missing_rate_counts_single_gap():
    records = [make_record()] * 999 + [make_record(speed_mph=None)]
    report = missing_rate(records)
    assert report.rates["speed_mph"] == approx(0.001)


def test_missing_rate_zero_when_complete():
    report = missing_rate([make_record(), make_record(point_no=2)])
    assert all(rate == 0.0 for rate in report.rates.values())


def test_missing_rate_empty_input():
    with pytest.raises(EmptyInputError):
        missing_rate([])


# --- imputation -----------------------------------------------------------

def test_impute_no_gaps_is_identity():
    records = [make_record(), make_record(point_no=2)]
    assert impute_missing(records) == records


def test_impute_uses_nearest_complete_row():
    # target (speed=1, dist=?, 3); donors (1, 5, 3) at d=0 and (9, 9, 9)
    target = make_record(point_no=3, speed_mph=1.0, p1_distance_run=None,
                         p2_distance_run=3.0)
    near = make_record(point_no=1, speed_mph=1.0, p1_distance_run=5.0,
                       p2_distance_run=3.0)
    far = make_record(point_no=2, speed_mph=9.0, p1_distance_run=9.0,
                      p2_distance_run=9.0)
    out = impute_missing([near, far, target])
    assert out[2].p1_distance_run == 5.0
    assert out[:2] == [near, far]


def test_impute_tie_prefers_earlier_row():
    # donors identical except speed (10 vs 14): both at distance 2 from 12
    lo = make_record(point_no=1, speed_mph=10.0, serve_width="BW")
    hi = make_record(point_no=1, speed_mph=14.0, serve_width="C")
    target = make_record(point_no=3, speed_mph=12.0, serve_width=None)
    out = impute_missing([lo, hi, target])
    assert out[2].serve_width == "BW"


def test_impute_idempotent_and_leaves_present_values():
    records = [
        make_record(point_no=1),
        make_record(point_no=2, speed_mph=None, return_depth=None),
        make_record(point_no=3, p1_distance_run=None),
    ]
    once = impute_missing(records)
    assert impute_missing(once) == once
    assert once[1].p1_distance_run == records[1].p1_distance_run
    assert once[2].speed_mph == records[2].speed_mph


def test_impute_fills_every_gap_when_donor_exists():
    records = [
        make_record(point_no=1),
        make_record(point_no=2, speed_mph=None),
        make_record(point_no=3, serve_width=None),
        make_record(point_no=4, return_depth=None),
    ]
    report = missing_rate(impute_missing(records))
    assert all(rate == 0.0 for rate in report.rates.values())


def test_impute_without_complete_row_fails():
    records = [
        make_record(point_no=1, speed_mph=None),
        make_record(point_no=2, serve_width=None),
    ]
    with pytest.raises(ImputationError):
        impute_missing(records)


# Oracle: one distance computation per incomplete row; impute_missing must
# pick the same donors bit for bit.
def _reference_impute(records):
    absent = {f: np.isnan(ingest._column(records, f)) for f in ingest._OPTIONAL_FIELDS}
    fillable = [f for f in ingest._OPTIONAL_FIELDS if not absent[f].all()]
    gaps = np.zeros(len(records), dtype=bool)
    for f in fillable:
        gaps |= absent[f]
    donor_indices = np.flatnonzero(~gaps)
    matrix = np.column_stack([ingest._column(records, f) for f in ingest._NUMERIC_FIELDS])
    donors = matrix[donor_indices]
    out = list(records)
    for i in np.flatnonzero(gaps):
        row = matrix[i]
        mask = ~np.isnan(row)
        diffs = donors[:, mask] - row[mask]
        dist2 = np.einsum("ij,ij->i", diffs, diffs)
        donor = records[donor_indices[int(np.argmin(dist2))]]
        fixes = {f: getattr(donor, f) for f in fillable if absent[f][i]}
        out[i] = replace(records[i], **fixes)
    return out


_OPTIONAL = [f.name for f in fields(PointRecord) if f.default is None]
_SMALL_INT = st.integers(0, 3)
_FILLERS = {
    "elapsed_seconds": _SMALL_INT,
    "p1_points_won": _SMALL_INT,
    "p2_points_won": _SMALL_INT,
    "server": _SMALL_INT,
    "p1_ace": _SMALL_INT,
    "p2_unforced_error": _SMALL_INT,
    "p1_distance_run": _SMALL_INT.map(float),
    "speed_mph": _SMALL_INT.map(float),
    "serve_width": st.sampled_from(["A", "B", "C"]),
    "return_depth": st.sampled_from(["A", "B", "C"]),
}


@st.composite
def _gappy_records(draw):
    """Small-integer rows (exact donor ties are common) with shared gap
    patterns; the first row is a donor, and some columns may be dead."""
    patterns = draw(st.lists(
        st.sets(st.sampled_from(_OPTIONAL), max_size=4), min_size=1, max_size=4,
    ))
    dead = draw(st.sets(st.sampled_from(_OPTIONAL), max_size=2))
    records = []
    for i in range(draw(st.integers(1, 30))):
        gaps = dead | (draw(st.sampled_from(patterns)) if i else set())
        values = {f: draw(v) for f, v in _FILLERS.items()}
        records.append(make_record(**{**values, **dict.fromkeys(gaps)}))
    return records


@settings(max_examples=100, deadline=None)
@given(records=_gappy_records())
def test_impute_matches_per_row_reference(records):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        assert impute_missing(records) == _reference_impute(records)


def test_impute_near_tie_at_large_clock_values():
    # squared distances 10**6 and 10**6 + 1 around a clock of 10**7 s; the
    # far donor moves the centre, so the screening bound spans both
    far = make_record(elapsed_seconds=0, serve_width="far")
    second = make_record(elapsed_seconds=10**7 + 1000, p1_points_won=2,
                         serve_width="second")
    nearest = make_record(elapsed_seconds=10**7 - 1000, serve_width="nearest")
    target = make_record(elapsed_seconds=10**7, serve_width=None)
    records = [far, second, nearest, target]
    out = impute_missing(records)
    assert out == _reference_impute(records)
    assert out[3].serve_width == "nearest"


def test_impute_keeps_the_reference_summation_order():
    # both donors are at the same distance in exact arithmetic; summed left
    # to right, as the reference does, the second is one ulp nearer, and
    # summed in another order the first would win
    first = make_record(elapsed_seconds=14122, p1_distance_run=54.55,
                        p2_distance_run=44.01, serve_width="first")
    second = make_record(elapsed_seconds=14122, p1_distance_run=44.01,
                         p2_distance_run=54.55, serve_width="second")
    target = make_record(elapsed_seconds=14125, p1_distance_run=65.64,
                         p2_distance_run=65.64, speed_mph=None, serve_width=None)
    records = [first, second, target]
    out = impute_missing(records)
    assert out == _reference_impute(records)
    assert out[2].serve_width == "second"


def test_impute_matches_reference_over_several_blocks():
    # even rows are donors; odd rows miss speed, every fifth of them distance too
    rng = np.random.default_rng(7)
    records = [
        make_record(
            point_no=i + 1,
            elapsed_seconds=int(rng.integers(0, 20_000)),
            p1_points_won=int(rng.integers(0, 200)),
            p2_points_won=int(rng.integers(0, 200)),
            speed_mph=None if i % 2 else float(rng.integers(90, 140)),
            p1_distance_run=None if i % 10 == 1 else float(rng.integers(0, 60)),
            serve_width=str(i),
        )
        for i in range(2000)
    ]
    speed_only_rows = 800
    assert speed_only_rows > 2 * (ingest._SCREEN_SCORES // 1000)
    assert impute_missing(records) == _reference_impute(records)


# --- box plots ------------------------------------------------------------

def test_boxplot_quartiles_linear_interpolation():
    records = [
        make_record(point_no=i + 1, speed_mph=float(v))
        for i, v in enumerate([1, 2, 3, 4, 5, 6, 7, 8])
    ]
    report = outlier_report(records, columns=("speed_mph",))
    stats = report.columns["speed_mph"]
    assert stats.q1 == approx(2.75)
    assert stats.median == approx(4.5)
    assert stats.q3 == approx(6.25)
    assert stats.outlier_count == 0


def test_boxplot_constant_column():
    records = [make_record(point_no=i + 1, speed_mph=5.0) for i in range(4)]
    stats = outlier_report(records, columns=("speed_mph",)).columns["speed_mph"]
    assert stats.lower_fence == stats.upper_fence == 5.0
    assert stats.outlier_count == 0


def test_boxplot_short_column_skipped_with_warning():
    records = [
        make_record(point_no=1, speed_mph=100.0),
        make_record(point_no=2, speed_mph=None),
        make_record(point_no=3, speed_mph=101.0),
        make_record(point_no=4, speed_mph=102.0),
    ]
    with pytest.warns(DataQualityWarning, match="speed_mph"):
        report = outlier_report(records, columns=("speed_mph",))
    assert report.skipped == ("speed_mph",)


def test_boxplot_flags_outlier_but_keeps_it():
    speeds = [110, 112, 114, 115, 116, 118, 120, 141]
    records = [
        make_record(point_no=i + 1, speed_mph=float(v)) for i, v in enumerate(speeds)
    ]
    stats = outlier_report(records, columns=("speed_mph",)).columns["speed_mph"]
    assert stats.maximum == 141.0
    assert stats.upper_fence < 141.0
    assert stats.outlier_count == 1
