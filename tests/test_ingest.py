import pytest
from pytest import approx

from tennis_momentum import (
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
from tennis_momentum.ingest import (
    CSV_COLUMNS,
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


def test_score_token_unknown_raises_with_row():
    with pytest.raises(RowParseError, match="row 17.*'7'"):
        parse_score_token("7", row_number=17)
    with pytest.raises(ValueError, match="'7'"):
        parse_score_token("7")


def test_elapsed_parsing_roundtrip():
    assert parse_elapsed("0:01:31") == 91
    assert parse_elapsed("2:05:09") == 2 * 3600 + 5 * 60 + 9
    assert format_elapsed(91) == "0:01:31"
    with pytest.raises(ValueError):
        parse_elapsed("12:34")


# --- loading --------------------------------------------------------------

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
