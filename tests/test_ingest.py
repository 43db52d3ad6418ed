import csv
import io
import math
import warnings
from dataclasses import fields, replace
from operator import attrgetter
from pathlib import Path
from unittest import mock

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
    UnknownMatchError,
    impute_missing,
    load_matches,
    parse_score_token,
)
from tennis_momentum import ingest
from tennis_momentum.ingest import (
    _COLUMN_SPEC,
    _FIELD_FOR_COLUMN,
    SCORE_POINTS,
    CSV_COLUMNS,
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    MatchTimeline,
    PlayerColumns,
    format_elapsed,
    point_table,
    table_csv_rows,
    table_missing_rate,
    table_outlier_report,
)
from tennis_momentum.records import (
    _RECORD_FIELDS,
    PointRecord,
    _record_values,
    points_csv_text,
    timeline as timeline_of,
)

from conftest import make_record


def flatten_timelines(timelines):
    """Every point of ``timelines`` as a record, in order."""
    return [r for tl in timelines for r in tl.records]


def _table(records):
    """``records`` as one PointTable, through a record-built timeline; the
    timeline's clock warning is not the table functions' to give."""
    if not records:
        return point_table([])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "match clock below", DataQualityWarning)
        return point_table([timeline_of(records[0].match_id, records)])


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
    values, _, bad = ingest._column_elapsed(["0:01:31", "2:05:09"])
    assert (values, bad) == ([91, 2 * 3600 + 5 * 60 + 9], None)
    assert format_elapsed(91) == "0:01:31"
    assert ingest._column_elapsed(["12:34"])[2] == (0, "elapsed time '12:34' is not h:mm:ss")


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
    with second.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([CSV_COLUMNS, *table_csv_rows(point_table(loaded))])
    reloaded = load_matches(second)
    assert flatten_timelines(reloaded) == flatten_timelines(loaded)
    third = tmp_path / "third.csv"
    with third.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([CSV_COLUMNS, *table_csv_rows(point_table(reloaded))])
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


def test_clock_running_backwards_warns_once_with_its_file_row(tmp_path, dataset_path):
    # file row 1 holds point 3, whose clock is below point 2's; m2 starts
    # below m1's last clock, which is no backward step
    points = [("m1", 3, 70), ("m1", 1, 40), ("m1", 2, 80), ("m1", 4, 120), ("m2", 1, 10)]
    path = tmp_path / "backwards.csv"
    path.write_text(points_csv_text(make_record(match_id=m, point_no=n, elapsed_seconds=t)
                                    for m, n, t in points))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m1, _ = load_matches(path)
    assert [(w.category, str(w.message)) for w in caught] == [(
        DataQualityWarning,
        "match clock below the previous point's at 1 point(s), rows 1;"
        " their durations read as 0",
    )]
    assert m1.player(1).durations.tolist() == [40.0, 40.0, 0.0, 50.0]

    path.write_text(points_csv_text(make_record(point_no=n, elapsed_seconds=100 - n)
                                    for n in range(1, 9)))
    with pytest.warns(DataQualityWarning, match=r"at 7 point\(s\), rows 2, 3, 4, 5, 6, \.\.\.;"):
        load_matches(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_matches(dataset_path)


def test_record_timeline_warns_of_a_backward_clock_by_position():
    records = [make_record(point_no=n, elapsed_seconds=t)
               for n, t in enumerate((40, 30, 90), start=1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        built = timeline_of("m1", records)
    assert [(w.category, str(w.message), w.filename) for w in caught] == [(
        DataQualityWarning,
        "match clock below the previous point's at 1 point(s), positions 2;"
        " their durations read as 0",
        __file__,
    )]
    assert built.player(1).durations.tolist() == [40.0, 0.0, 60.0]


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
# a loadable distance or speed is finite, non-negative and below 2**53
_DISTANCE = st.none() | st.floats(min_value=0.0, max_value=2.0**53, exclude_max=True,
                                  allow_nan=False)
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


# --- loader oracle --------------------------------------------------------

# Oracle: the row-by-row loader that the columnar one replaced, verbatim,
# with its own cell parsers. load_matches must give the same timelines,
# warnings and errors.
def _score_token(token: str) -> int:
    key = token.strip()
    if key not in SCORE_POINTS:
        raise ValueError(f"unknown score token {token!r}")
    return SCORE_POINTS[key]


def _elapsed(text: str) -> int:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"elapsed time {text!r} is not h:mm:ss")
    h, m, s = (int(p) for p in parts)
    if h < 0 or not (0 <= m < 60) or not (0 <= s < 60) or h * 3600 + m * 60 + s >= 2**53:
        raise ValueError(f"elapsed time {text!r} out of range")
    return h * 3600 + m * 60 + s


def _text(cell: str) -> str:
    if not cell:
        raise ValueError("empty required text field")
    return cell


def _int_where(allowed, rule: str):
    def parse(cell: str) -> int:
        n = int(cell)
        if not allowed(n):
            raise ValueError(rule)
        if n >= 2**53:
            raise ValueError("must be below 2**53")
        return n

    return parse


def _nonnegative_float(cell: str) -> float:
    x = float(cell)
    if not math.isfinite(x) or x < 0:
        raise ValueError("must be a non-negative finite number")
    if x >= 2**53:
        raise ValueError("must be below 2**53")
    return x


def _optional(parse):
    return lambda cell: parse(cell) if cell else None


_one_or_two = _int_where(lambda n: n in (1, 2), "must be 1 or 2")

# One parser per kind; each takes a stripped cell and raises ValueError.
_PARSERS = {
    "str": _text,
    "opt_str": lambda cell: cell or None,
    "elapsed": _elapsed,
    "posint": _int_where(lambda n: n > 0, "must be positive"),
    "nonnegint": _int_where(lambda n: n >= 0, "must be non-negative"),
    "score": _score_token,
    "one_or_two": _one_or_two,
    "opt_one_or_two": _optional(_one_or_two),
    "opt_float": _optional(_nonnegative_float),
    "flag": _optional(_int_where(lambda n: n in (0, 1), "must be 0 or 1")),
}


def _reference_load_matches(path, match_id=None):
    """Read a point-by-point CSV into one ordered timeline per match.

    Records are sorted by (set_no, game_no, point_no); duplicate keys within
    a match are rejected. Timelines come back sorted by match id.

    With ``match_id`` only that match is parsed: rows of other matches are
    skipped on their stripped ``match_id`` cell, so their other cells and
    point keys are not validated. The CSV reader still scans the whole file,
    so malformed CSV and undecodable bytes anywhere fail the load, and row
    numbers count every data row. An id absent from the file raises
    ``UnknownMatchError``, which lists the ids present.
    """
    path = Path(path)
    by_match: dict[str, list[tuple[tuple, int, PointRecord]]] = {}
    skipped: set[str] = set()  # match ids of the rows left unparsed
    row_number = None  # until the header is read
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            row_number = 0
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise SchemaError(missing)
            unknown = [c for c in header if c not in _FIELD_FOR_COLUMN]
            if unknown:
                warnings.warn(
                    f"ignoring unrecognised columns: {', '.join(unknown)}",
                    DataQualityWarning,
                    stacklevel=2,
                )
            # a repeated column reads its last occurrence
            position = {c: i for i, c in enumerate(header)}
            plan = [
                (field, position[c], _PARSERS[kind])
                for c, field, kind in _COLUMN_SPEC
                if c in position
            ]
            id_index = position["match_id"]
            # blank lines are skipped and not counted
            for row_number, row in enumerate(filter(None, reader), start=1):
                if len(row) < len(header):  # missing trailing cells read as empty
                    row += [""] * (len(header) - len(row))
                if match_id is not None:
                    row_id = row[id_index].strip()
                    if row_id != match_id:
                        skipped.add(row_id)
                        continue
                values = {}
                try:
                    for field, index, parse in plan:
                        cell = row[index].strip()
                        values[field] = parse(cell)
                except ValueError as exc:
                    raise RowParseError(
                        row_number, f"bad {field} value {cell!r}: {exc}"
                    ) from exc
                r = PointRecord(**values)
                key = (r.set_no, r.game_no, r.point_no)
                by_match.setdefault(r.match_id, []).append((key, row_number, r))
    except csv.Error as exc:
        if row_number is None:
            raise DataError(f"{path}: malformed CSV header: {exc}") from exc
        # raised while reading the row after the last one numbered
        raise RowParseError(row_number + 1, f"malformed CSV: {exc}") from exc
    except UnicodeDecodeError as exc:
        # no row number: the file is decoded in chunks ahead of the parser
        raise DataError(
            f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
            f"({exc.reason})"
        ) from exc

    if not by_match:
        if not skipped:
            raise EmptyInputError(f"{path} contains no data rows")
        raise UnknownMatchError(match_id, sorted(skipped - {""}))

    timelines = []
    backward = []  # rows whose clock is below the previous point's
    for mid in sorted(by_match):
        # stable: of two rows with one key, the later row comes second
        rows = sorted(by_match[mid], key=lambda item: item[0])
        for (key_a, row_a, a), (key_b, row_b, b) in zip(rows, rows[1:]):
            if key_a == key_b:
                raise RowParseError(
                    row_b,
                    f"match {mid}: duplicate point key {key_b} "
                    f"(rows {row_a} and {row_b})",
                )
            if b.elapsed_seconds < a.elapsed_seconds:
                backward.append(row_b)
        # the warning below names file rows; timeline_of's own names positions
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "match clock below", DataQualityWarning)
            timelines.append(timeline_of(mid, (r for _, _, r in rows)))
    if backward:
        backward.sort()
        named = ", ".join(map(str, backward[:5])) + (", ..." if len(backward) > 5 else "")
        warnings.warn(
            f"match clock below the previous point's at {len(backward)} point(s),"
            f" rows {named}; their durations read as 0",
            DataQualityWarning,
            stacklevel=2,
        )
    return timelines


def _outcome(load, path, match_id):
    """What a loader did: (warnings, error class and message, timelines)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            timelines = load(path, match_id)
        except Exception as exc:
            return [str(w.message) for w in caught], (type(exc), str(exc)), None
    loaded = [
        # repr tells 1 from 1.0 and Python numbers from NumPy scalars
        (tl.match_id, len(tl), tl.players, repr(tl.records),
         [getattr(tl.player(p), f.name) for p in (1, 2) for f in fields(PlayerColumns)])
        for tl in timelines
    ]
    return [str(w.message) for w in caught], None, loaded


def _agree(tmp_path, text, match_id=None, block_rows=1024, field_limit=None):
    """Load ``text`` with both loaders; assert they agree and return the outcome."""
    path = tmp_path / "oracle.csv"
    path.write_bytes(text.encode("utf-8"))
    limit = csv.field_size_limit(field_limit or csv.field_size_limit())
    try:
        expected = _outcome(_reference_load_matches, path, match_id)
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            actual = _outcome(load_matches, path, match_id)
    finally:
        csv.field_size_limit(limit)
    assert actual[:2] == expected[:2]
    if expected[2] is not None:
        assert len(actual[2]) == len(expected[2])
        for got, want in zip(actual[2], expected[2]):
            assert got[:4] == want[:4]
            for a, b in zip(got[4], want[4]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b, equal_nan=True)
    return actual


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _rows(records, ad_token=False):
    return list(csv.reader(io.StringIO(points_csv_text(records, ad_token=ad_token))))


def _set_cell(rows, row, column, value):
    rows[row][rows[0].index(column)] = value
    return rows


# Per kind: bad cells, and valid cells in unusual spellings
_ODD_CELLS = {
    "str": ["", " ", " m1 "],
    "opt_str": ["", " ", " W "],
    "elapsed": ["1:2", "1:2:3:4", "0:60:00", "0:00:60", "-1:00:00", "x:00:00", "",
                " 0:01:02 ", "0:1:2", "+1:00:05", "1_0:00:00",
                # 2**53 - 1 and 2**53 seconds; parts near and past the float range
                "2501999792983:36:31", "2501999792983:36:32",
                "9" * 306 + ":00:00", "9" * 400 + ":00:00", "0:" + "9" * 400 + ":00"],
    "posint": ["0", "-1", "x", "", "1.5", "nan", " 1", "+1", "01", "1_0", "\u0663",
               str(2**53), str(2**53 - 1), "9" * 400, "-" + "9" * 400],
    "nonnegint": ["-1", "x", "", "1e2", " 0", "-0", "400", str(2**53 + 1), "9" * 400],
    "score": ["7", "", "ad", " AD", "55", " 15 ", "015"],
    "one_or_two": ["0", "3", "", "1.0", " 2", "+1", "01"],
    "opt_one_or_two": ["0", "3", "x", " ", "02", " 1 "],
    "opt_float": ["-1", "nan", "inf", "-inf", "x", " ", "-0", "1e2", " 1.5", "1_0.5",
                  "1e308", str(2**53)],
    "flag": ["2", "-1", "x", " ", " 1", "00", "+0"],
}
_ALL_ODD = sorted({cell for cells in _ODD_CELLS.values() for cell in cells})
_KIND = {c: k for c, _, k in _COLUMN_SPEC}
_LONG_CELL = "W" * 100  # over the field limit the property sets: malformed CSV


@st.composite
def _loader_cases(draw):
    """A CSV text built from records, then damaged; a scope; a block size."""
    records = draw(st.lists(_records, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 2))):  # repeated point keys
        records.append(draw(st.sampled_from(records)))
    rows = _rows(records, ad_token=draw(st.booleans()))
    dropped = draw(st.sets(st.sampled_from(OPTIONAL_COLUMNS), max_size=3))
    keep = [i for i, c in enumerate(rows[0]) if c not in dropped]
    rows = [[row[i] for i in keep] for row in rows]
    if draw(st.booleans()):  # a repeated column, anywhere: the last one is read
        column = draw(st.sampled_from(rows[0]))
        at = draw(st.integers(0, len(rows[0])))
        rows[0].insert(at, column)
        for row in rows[1:]:
            row.insert(at, draw(st.sampled_from(_ODD_CELLS[_KIND[column]])))
    if draw(st.booleans()):
        rows = [rows[0] + ["unknown"]] + [row + ["1"] for row in rows[1:]]
    # a kind first, then one of its columns: each kind's read column is often hit
    by_kind = {}
    for c, column in enumerate(rows[0]):
        by_kind.setdefault(_KIND.get(column), []).append(c)
    cells = st.sampled_from(sorted(by_kind, key=str)).flatmap(lambda kind: st.tuples(
        st.integers(1, len(rows) - 1), st.sampled_from(by_kind[kind])))
    for r, c in draw(st.lists(cells, max_size=3)):
        rows[r][c] = draw(st.sampled_from(_ODD_CELLS.get(_KIND.get(rows[0][c]), _ALL_ODD)))
    for r in draw(st.lists(st.integers(1, len(rows) - 1), max_size=2)):
        rows[r] = rows[r][: draw(st.integers(0, len(rows[r])))]  # short, or blank
    for r in draw(st.lists(st.integers(1, len(rows) - 1), max_size=2)):
        rows[r] = rows[r] + ["extra"]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(1, len(rows))), [])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(1, len(rows))), ["m1", _LONG_CELL])
    match_id = draw(st.sampled_from([None, "m1", "m2", "2023-wimbledon-1304", "nope"]))
    return _csv_text(rows), match_id, draw(st.sampled_from([1, 2, 3, 1024]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_loader_cases(), field_limit=st.sampled_from([64, None]))
def test_load_matches_agrees_with_row_loader(tmp_path, case, field_limit):
    text, match_id, block_rows = case
    _agree(tmp_path, text, match_id, block_rows, field_limit=field_limit)


def _three_points():
    return _rows([make_record(point_no=i, elapsed_seconds=40 * i) for i in (1, 2, 3)])


@pytest.mark.parametrize("block_rows", [1, 2, 1024])
def test_loaders_agree_on_blank_lines_and_short_rows(tmp_path, block_rows):
    rows = _three_points()
    keep = CSV_COLUMNS.index("p1_distance_run")
    rows = [rows[0], [], rows[1][:keep], [], [], rows[2], rows[3][:-1]]
    _, error, loaded = _agree(tmp_path, _csv_text(rows), block_rows=block_rows)
    assert error is None and loaded[0][1] == 3


@pytest.mark.parametrize("block_rows", [1, 1024])
def test_loaders_agree_on_a_repeated_column(tmp_path, block_rows):
    rows = _three_points()
    rows = [["point_victor"] + rows[0]] + [["9"] + row for row in rows[1:]]
    assert _agree(tmp_path, _csv_text(rows), block_rows=block_rows)[1] is None
    rows = [row + [cell] for row, cell in zip(rows, ["point_victor", "1", "2", "9"])]
    _, error, _ = _agree(tmp_path, _csv_text(rows), block_rows=block_rows)
    assert error == (RowParseError, "row 3: bad point_victor value '9': must be 1 or 2")


@pytest.mark.parametrize(
    "column,cell",
    [(next(c for c, _, k in _COLUMN_SPEC if k == kind), cell)
     for kind, cells in _ODD_CELLS.items() for cell in cells],
)
@pytest.mark.parametrize("block_rows", [1, 1024])
def test_loaders_agree_on_each_odd_cell_of_each_kind(tmp_path, column, cell, block_rows):
    rows = _set_cell(_three_points(), 2, column, cell)
    _agree(tmp_path, _csv_text(rows), block_rows=block_rows)


@pytest.mark.parametrize(
    "column,kind", [(c, k) for c, _, k in _COLUMN_SPEC if k != "opt_str"]
)
def test_loaders_agree_on_a_bad_cell_in_each_column(tmp_path, column, kind):
    rows = _set_cell(_three_points(), 2, column, _ODD_CELLS[kind][0])
    _, error, _ = _agree(tmp_path, _csv_text(rows))
    assert error[0] is RowParseError
    assert error[1].startswith(f"row 2: bad {_FIELD_FOR_COLUMN[column]} value ")
    if column != "match_id":  # a blank id is another match's row when scoped
        assert _agree(tmp_path, _csv_text(rows), match_id="m1")[1] == error


@pytest.mark.parametrize("cell", [str(2**53), str(2**53 + 1), "9" * 400])
def test_loaders_reject_integers_from_2_to_the_53(tmp_path, cell):
    rows = _set_cell(_three_points(), 2, "p1_points_won", cell)
    _, error, _ = _agree(tmp_path, _csv_text(rows))
    assert error == (RowParseError,
                     f"row 2: bad p1_points_won value {cell!r}: must be below 2**53")


@pytest.mark.parametrize("block_rows", [1, 2, 1024])
def test_loaders_agree_on_two_bad_cells(tmp_path, block_rows):
    # the later column's bad cell is on the earlier row, and wins
    rows = _set_cell(_three_points(), 1, "return_depth", "")
    rows = _set_cell(rows, 2, "speed_mph", "nan")
    rows = _set_cell(rows, 2, "set_no", "0")
    rows = _set_cell(rows, 1, "p2_score", "7")
    _, error, _ = _agree(tmp_path, _csv_text(rows), block_rows=block_rows)
    assert error == (
        RowParseError, "row 1: bad p2_score value '7': unknown score token '7'"
    )


@pytest.mark.parametrize("block_rows", [1, 1024])
def test_loaders_agree_on_duplicate_keys(tmp_path, block_rows):
    rows = _three_points()
    rows = rows + [rows[3], _set_cell([rows[0], list(rows[1])], 1, "match_id", "m0")[1]]
    _, error, _ = _agree(tmp_path, _csv_text(rows), block_rows=block_rows)
    assert error == (RowParseError, "row 4: match m1: duplicate point key (1, 1, 3) "
                                    "(rows 3 and 4)")
    # a bad cell anywhere wins over the duplicate
    rows = _set_cell(rows, 5, "serve_no", "3")
    _, error, _ = _agree(tmp_path, _csv_text(rows), block_rows=block_rows)
    assert error[1].startswith("row 5: bad serve_no value '3'")


@pytest.mark.parametrize("block_rows", [1, 2, 1024])
def test_loaders_agree_on_malformed_csv_after_a_bad_cell(tmp_path, block_rows):
    rows = _three_points()
    rows.insert(3, ["m1", _LONG_CELL])
    _, error, _ = _agree(tmp_path, _csv_text(rows), block_rows=block_rows, field_limit=64)
    assert error[0] is RowParseError and error[1].startswith("row 3: malformed CSV")
    rows = _set_cell(rows, 2, "p1_ace", "x")
    _, error, _ = _agree(tmp_path, _csv_text(rows), block_rows=block_rows, field_limit=64)
    assert error[1].startswith("row 2: bad p1_ace value 'x'")


def test_loaders_agree_on_a_scope_with_no_rows(tmp_path):
    rows = _three_points()
    _, error, _ = _agree(tmp_path, _csv_text(rows), match_id="nope")
    assert error == (UnknownMatchError, "unknown match id 'nope'; available: m1")


# --- missing rates --------------------------------------------------------

def test_missing_rate_counts_single_gap():
    records = [make_record()] * 999 + [make_record(speed_mph=None)]
    rates = table_missing_rate(_table(records))
    assert rates["speed_mph"] == approx(0.001)


def test_missing_rate_zero_when_complete():
    rates = table_missing_rate(_table([make_record(), make_record(point_no=2)]))
    assert all(rate == 0.0 for rate in rates.values())


def test_missing_rate_empty_input():
    with pytest.raises(EmptyInputError):
        table_missing_rate(point_table([]))


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
    rates = table_missing_rate(_table(impute_missing(records)))
    assert all(rate == 0.0 for rate in rates.values())


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
    absent = {f: np.isnan(_reference_column(records, f)) for f in ingest._OPTIONAL_FIELDS}
    fillable = [f for f in ingest._OPTIONAL_FIELDS if not absent[f].all()]
    gaps = np.zeros(len(records), dtype=bool)
    for f in fillable:
        gaps |= absent[f]
    donor_indices = np.flatnonzero(~gaps)
    matrix = np.column_stack([_reference_column(records, f) for f in ingest._NUMERIC_FIELDS])
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


@pytest.mark.parametrize("width", [1, 3, 7, 9, 12, 17, 32, 33])
def test_presence_groups_equal_the_axis_0_unique(width):
    # packed rows pad their last byte with zero bits: widths off a multiple of 8
    rng = np.random.default_rng(width)
    for rows, share in [(1, 0.5), (5, 0.5), (40, 0.2), (300, 0.9), (300, 0.5)]:
        present = rng.random((rows, width)) < share
        masks, pattern = ingest._presence_groups(present)
        expected_masks, expected_pattern = np.unique(present, axis=0, return_inverse=True)
        assert masks.dtype == bool
        assert np.array_equal(masks, expected_masks)
        assert np.array_equal(pattern, expected_pattern.ravel())


# --- box plots ------------------------------------------------------------

def test_boxplot_quartiles_linear_interpolation():
    records = [
        make_record(point_no=i + 1, speed_mph=float(v))
        for i, v in enumerate([1, 2, 3, 4, 5, 6, 7, 8])
    ]
    report = table_outlier_report(_table(records), columns=("speed_mph",))
    stats = report.columns["speed_mph"]
    assert stats.q1 == approx(2.75)
    assert stats.median == approx(4.5)
    assert stats.q3 == approx(6.25)
    assert stats.outlier_count == 0


def test_boxplot_constant_column():
    records = [make_record(point_no=i + 1, speed_mph=5.0) for i in range(4)]
    report = table_outlier_report(_table(records), columns=("speed_mph",))
    stats = report.columns["speed_mph"]
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
        report = table_outlier_report(_table(records), columns=("speed_mph",))
    assert report.skipped == ("speed_mph",)


def test_boxplot_flags_outlier_but_keeps_it():
    speeds = [110, 112, 114, 115, 116, 118, 120, 141]
    records = [
        make_record(point_no=i + 1, speed_mph=float(v)) for i, v in enumerate(speeds)
    ]
    report = table_outlier_report(_table(records), columns=("speed_mph",))
    stats = report.columns["speed_mph"]
    assert stats.maximum == 141.0
    assert stats.upper_fence < 141.0
    assert stats.outlier_count == 1


def test_boxplot_of_a_text_or_unknown_column_raises(timelines):
    # a text column has no quartiles: it raises rather than summarise zeros
    table = point_table(timelines)
    for column in ("serve_width", "match_id"):
        with pytest.raises(ValueError, match=column):
            table_outlier_report(table, columns=(column,))
    # columns are CSV names: a record field that is not one is unknown too
    for column in ("no_such_column", "p1_untouchable_winner"):
        with pytest.raises(KeyError, match=column):
            table_outlier_report(table, columns=(column,))
    assert table_outlier_report(table, columns=("p1_winner",)).columns["p1_winner"].median == 0


# --- clean on the loaded columns -------------------------------------------

# Oracle: the record path clean ran before it worked on the loaded columns,
# kept verbatim. The table functions must give the same CSV text, missing
# rates, box-plot stats, warnings and errors.
def _reference_column(records, field):
    """``field`` of every record as floats, None as NaN; text reads as 0."""
    values = map(attrgetter(field), records)
    if field in ingest._TEXT_FIELDS:
        values = (None if v is None else 0.0 for v in values)
    return np.array(list(values), dtype=float)


def _reference_missing_rate(records):
    """Fraction of records with an absent value, per optional column."""
    if not records:
        raise EmptyInputError("missing_rate needs at least one record")
    n = len(records)
    # int(): a NumPy scalar rate would be written as "np.float64(...)"
    return {
        column: int(np.isnan(_reference_column(records, field)).sum()) / n
        for column, field in zip(OPTIONAL_COLUMNS, ingest._OPTIONAL_FIELDS)
    }


def _reference_impute_missing(records):
    if not records:
        raise EmptyInputError("impute_missing needs at least one record")

    matrix = np.column_stack([_reference_column(records, f) for f in ingest._NUMERIC_FIELDS])
    missing = np.isnan(matrix)
    # numeric gaps are read off the distance matrix; text ones need a scan
    numeric_absent = dict(zip(ingest._NUMERIC_FIELDS, missing.T))
    absent = {
        f: numeric_absent[f] if f in numeric_absent else np.isnan(_reference_column(records, f))
        for f in ingest._OPTIONAL_FIELDS
    }
    fillable = [f for f in ingest._OPTIONAL_FIELDS if not absent[f].all()]
    dead_columns = [f for f in ingest._OPTIONAL_FIELDS if f not in fillable]
    if dead_columns:
        warnings.warn(
            "columns absent everywhere cannot be imputed: "
            + ", ".join(dead_columns),
            DataQualityWarning,
            stacklevel=2,
        )

    gaps = np.zeros(len(records), dtype=bool)
    for f in fillable:
        gaps |= absent[f]
    donor_indices = np.flatnonzero(~gaps)
    incomplete = np.flatnonzero(gaps)
    if not incomplete.size:
        return list(records)
    if not donor_indices.size:
        raise ImputationError("no record has all fields populated")

    # rows with the same present fields share one donor slice
    masks, pattern = np.unique(~missing[incomplete], axis=0, return_inverse=True)
    nearest = np.empty(incomplete.size, dtype=np.intp)
    for p, mask in enumerate(masks):
        members = pattern == p
        rows = incomplete[members]
        nearest[members] = ingest._nearest_donors(matrix, donor_indices, rows, mask)

    # one constructor call per row, not dataclasses.replace's field walk
    slots = [_RECORD_FIELDS.index(f) for f in fillable]
    row_gaps = np.column_stack([absent[f] for f in fillable])[incomplete].tolist()
    out = list(records)
    for i, d, gaps in zip(incomplete.tolist(), nearest.tolist(), row_gaps):
        values = list(_record_values(records[i]))
        donor = _record_values(records[d])
        for slot, gap in zip(slots, gaps):
            if gap:
                values[slot] = donor[slot]
        out[i] = PointRecord(*values)
    return out


def _reference_outlier_report(records, columns=ingest.BOXPLOT_COLUMNS):
    if not records:
        raise EmptyInputError("outlier_report needs at least one record")
    stats = {}
    skipped = []
    for column in columns:
        values = _reference_column(records, _FIELD_FOR_COLUMN.get(column, column))
        values = values[~np.isnan(values)]
        if values.size < 4:
            skipped.append(column)
            warnings.warn(
                f"column {column!r} has fewer than 4 values; skipped",
                DataQualityWarning,
                stacklevel=2,
            )
            continue
        q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
        iqr = q3 - q1
        lower = q1 - 1.5 * iqr
        upper = q3 + 1.5 * iqr
        outliers = int(np.sum((values < lower) | (values > upper)))
        stats[column] = ingest.BoxplotStats(
            minimum=float(values.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            maximum=float(values.max()),
            lower_fence=float(lower),
            upper_fence=float(upper),
            outlier_count=outliers,
        )
    return ingest.BoxplotReport(columns=stats, skipped=tuple(skipped))


_reference_get_csv_fields = attrgetter(*_FIELD_FOR_COLUMN.values())


def _reference_points_csv_text(records, ad_token=False):
    formatters = {"elapsed": format_elapsed, "opt_float": lambda x: repr(float(x))}
    if ad_token:
        formatters["score"] = lambda n: "AD" if n == 55 else str(n)
    formats = [formatters.get(kind, str) for _, _, kind in _COLUMN_SPEC]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        ["" if v is None else fmt(v) for fmt, v in zip(formats, _reference_get_csv_fields(r))]
        for r in records
    )
    return buf.getvalue()


def _reference_clean(timelines):
    records = flatten_timelines(timelines)
    before = _reference_missing_rate(records)
    box = _reference_outlier_report(records)
    cleaned = _reference_impute_missing(records)
    return _reference_points_csv_text(cleaned), before, box


def _column_clean(timelines):
    table = ingest.point_table(timelines)
    before = ingest.table_missing_rate(table)
    box = ingest.table_outlier_report(table)
    filled = ingest.table_imputation(table)
    buf = io.StringIO()
    csv.writer(buf).writerows([CSV_COLUMNS, *ingest.table_csv_rows(table, filled)])
    return buf.getvalue(), before, box


def _clean_outcome(clean, timelines):
    """The warnings of a clean, and its error or its (text, rates, box plots);
    reprs, so that every float compares bit for bit."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = clean(timelines)
        except ImputationError as exc:
            result = (type(exc), str(exc))
    return [(w.category, str(w.message)) for w in caught], repr(result)


def _assert_clean_matches_reference(path):
    """The column clean of a file's loaded timelines, and of the same points
    as record-built timelines, against the record path."""
    expected = _clean_outcome(_reference_clean, load_matches(path))
    assert _clean_outcome(_column_clean, load_matches(path)) == expected
    with warnings.catch_warnings():
        # the load above has warned about these points' clocks already
        warnings.filterwarnings("ignore", "match clock below", DataQualityWarning)
        built = [timeline_of(tl.match_id, tl.records) for tl in load_matches(path)]
    assert _clean_outcome(_column_clean, built) == expected
    separate = [load_matches(path, tl.match_id)[0] for tl in load_matches(path)]
    assert _clean_outcome(_column_clean, separate) == expected
    return expected


def test_point_table_over_separate_loads_cleans_like_one_load(dataset_path):
    ids = [tl.match_id for tl in load_matches(dataset_path)]
    separate = [load_matches(dataset_path, match_id)[0] for match_id in ids]
    # each load has its own float matrix; the table copies the points of all
    assert not np.shares_memory(separate[0]._floats, separate[1]._floats)
    one = load_matches(dataset_path)
    assert point_table(separate).numbers.tobytes() == point_table(one).numbers.tobytes()
    assert point_table(separate).text == point_table(one).text
    expected = _clean_outcome(_column_clean, one)
    assert "ImputationError" not in expected[1]
    assert _clean_outcome(_column_clean, separate) == expected


def test_record_built_timeline_holds_what_a_loaded_one_holds(dataset_path):
    for loaded in load_matches(dataset_path):
        built = timeline_of(loaded.match_id, loaded.records)
        assert built.records is loaded.records
        assert (built.match_id, built.players, len(built)) == (
            loaded.match_id, loaded.players, len(loaded))
        a, b = built._floats, loaded._floats
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False)
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()
        assert built._text == loaded._text
        for p in (1, 2):
            built_side, loaded_side = built.player(p), loaded.player(p)
            for field in fields(PlayerColumns):
                a, b = getattr(built_side, field.name), getattr(loaded_side, field.name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()


def test_loaded_timeline_holds_only_its_slice_and_text(dataset_path):
    timelines = load_matches(dataset_path)
    buffer = timelines[0]._floats.base
    for tl in timelines:
        assert vars(tl).keys() == {"match_id", "players", "_floats", "_text"}
        assert tl._floats.base is buffer and np.shares_memory(tl._floats, buffer)
        with pytest.raises(ValueError, match="player must be 1 or 2, got 3"):
            tl.player(3)


def test_record_timeline_rejects_no_records_and_a_foreign_record():
    with pytest.raises(EmptyInputError, match="'m1' has no records"):
        timeline_of("m1", [])
    with pytest.raises(ValueError, match="record match_id 'm2' != timeline 'm1'"):
        timeline_of("m1", [make_record(), make_record(match_id="m2", point_no=2)])
    assert type(timeline_of("m1", [make_record()])) is MatchTimeline


def test_ingest_serves_the_record_names_from_records():
    from tennis_momentum import records

    for name in ("PointRecord", "impute_missing", "points_csv_text"):
        assert getattr(ingest, name) is getattr(records, name)
    # only those: getattr(ingest, name, None) answers None for any other
    assert getattr(ingest, "missing_rate", None) is None
    assert getattr(ingest, "_record_columns", None) is None

    def defined(module):
        return {name for name, value in vars(module).items()
                if getattr(value, "__module__", None) == module.__name__}

    assert not defined(ingest) & defined(records)


def test_timeline_equality_compares_the_stored_values():
    records = [make_record(point_no=1, speed_mph=None), make_record(point_no=2)]
    timeline = timeline_of("m1", records)
    same = timeline_of("m1", [replace(r) for r in records])
    assert timeline == same and hash(timeline) == hash(same)
    for changed in (replace(records[1], serve_width=None), replace(records[1], p2_ace=1),
                    replace(records[1], speed_mph=115.5), replace(records[1], player2="C")):
        assert timeline != timeline_of("m1", [records[0], changed])
    assert timeline != timeline_of("m1", records[:1])
    other = [replace(r, match_id="m2") for r in records]
    assert timeline != timeline_of("m2", other)


@pytest.mark.parametrize("block_rows", [1, 7, 1024])
def test_column_clean_matches_record_path_on_sample(dataset_path, tmp_path, monkeypatch,
                                                    block_rows):
    # 7: filled points fall on every position of a written block
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    warned, result = _assert_clean_matches_reference(dataset_path)
    assert "ImputationError" not in result
    one = tmp_path / "one.csv"
    _write_csv(one, load_matches(dataset_path, "2023-wimbledon-1310")[0].records)
    _assert_clean_matches_reference(one)


_LOADABLE_FILLERS = {
    "elapsed_seconds": _SMALL_INT,
    "p1_points_won": _SMALL_INT,
    "p2_points_won": _SMALL_INT,
    "server": st.sampled_from([1, 2]),
    "serve_no": st.sampled_from([1, 2]),
    "p1_ace": st.sampled_from([0, 1]),
    "p2_unforced_error": st.sampled_from([0, 1]),
    "p1_distance_run": _SMALL_INT.map(float),
    "p2_distance_run": _SMALL_INT.map(float),
    "speed_mph": _SMALL_INT.map(float),
    "serve_width": st.sampled_from(["A", "B", "C"]),
    "return_depth": st.sampled_from(["A", ",B", "C"]),
}


@st.composite
def _gappy_files(draw):
    """Points of 1-3 matches in shuffled file order, with shared gap patterns
    and columns absent everywhere; some files have no complete point."""
    patterns = draw(st.lists(
        st.sets(st.sampled_from(_OPTIONAL), max_size=4), min_size=1, max_size=4,
    ))
    dead = draw(st.sets(st.sampled_from(_OPTIONAL), max_size=2))
    records = []
    for m in range(draw(st.integers(1, 3))):
        for i in range(draw(st.integers(1, 12))):
            values = {f: draw(v) for f, v in _LOADABLE_FILLERS.items()}
            gaps = dead | draw(st.sampled_from(patterns))
            records.append(make_record(match_id=f"m{m}", point_no=i + 1,
                                       **{**values, **dict.fromkeys(gaps)}))
    return draw(st.permutations(records))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_gappy_files(), block_rows=st.sampled_from([1, 2, 3, 1024]))
def test_column_clean_matches_record_path(tmp_path, records, block_rows):
    path = tmp_path / "gappy.csv"
    _write_csv(path, records)
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        _assert_clean_matches_reference(path)


def _two_matches(tmp_path, **gaps_by_point):
    """A file of two 3-point matches; ``gaps_by_point`` maps "m<m>_<point>"
    to the fields that point lacks."""
    records = [
        make_record(match_id=f"m{m}", point_no=i + 1, **{
            "speed_mph": 100.0 + 3 * m + i,
            **dict.fromkeys(gaps_by_point.get(f"m{m}_{i + 1}", ())),
        })
        for m in (1, 2) for i in range(3)
    ]
    path = tmp_path / "two.csv"
    _write_csv(path, records[::-1])
    return path


def test_column_clean_warns_like_record_path_on_a_column_absent_everywhere(tmp_path):
    gaps = {f"m{m}_{i}": ("serve_depth",) for m in (1, 2) for i in (1, 2, 3)}
    gaps["m1_2"] += ("speed_mph",)
    warned, _ = _assert_clean_matches_reference(_two_matches(tmp_path, **gaps))
    assert any("absent everywhere cannot be imputed: serve_depth" in w for _, w in warned)


def test_column_clean_fails_like_record_path_without_a_donor(tmp_path):
    gaps = {f"m{m}_{i}": ("speed_mph",) if i % 2 else ("server",)
            for m in (1, 2) for i in (1, 2, 3)}
    _, result = _assert_clean_matches_reference(_two_matches(tmp_path, **gaps))
    assert "ImputationError" in result and "no record has all fields" in result


def test_column_clean_skips_short_box_plot_columns_like_record_path(tmp_path):
    gaps = {f"m{m}_{i}": ("speed_mph",) for m in (1, 2) for i in (1, 2, 3)}
    del gaps["m2_3"], gaps["m1_1"], gaps["m1_2"]  # 3 speeds are present
    warned, _ = _assert_clean_matches_reference(_two_matches(tmp_path, **gaps))
    skipped = "column 'speed_mph' has fewer than 4 values; skipped"
    assert (DataQualityWarning, skipped) in warned


@settings(max_examples=100, deadline=None)
@given(records=_gappy_records(), ad_token=st.booleans())
def test_record_functions_match_reference_record_path(records, ad_token):
    def outcomes(missing, boxes, impute, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = [repr(missing(records)), repr(boxes(records)),
                       text(records, ad_token=ad_token)]
            try:
                results.append(impute(records))
            except ImputationError as exc:
                results.append(repr(exc))
        return [str(w.message) for w in caught], results

    expected = outcomes(_reference_missing_rate, _reference_outlier_report,
                        _reference_impute_missing, _reference_points_csv_text)
    assert outcomes(lambda r: table_missing_rate(_table(r)),
                    lambda r: table_outlier_report(_table(r)),
                    impute_missing, points_csv_text) == expected


def test_points_csv_text_writes_advantage_as_the_ad_token_on_request():
    records = [make_record(p1_score=55, p2_score=40)]
    for ad_token, cells in ((True, ",AD,40,"), (False, ",55,40,")):
        text = points_csv_text(records, ad_token=ad_token)
        assert text == _reference_points_csv_text(records, ad_token=ad_token)
        assert cells in text
