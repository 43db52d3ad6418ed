"""Loading, validation, cleaning and imputation of point-by-point match CSVs.

The expected file format is the Sackmann-style Grand-Slam point-by-point
export: UTF-8, comma-delimited, one row per scored point, header row with
the column names listed in ``CSV_COLUMNS``. Unknown columns are ignored
(with a warning); missing optional columns simply yield absent values.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    DataQualityWarning,
    EmptyInputError,
    ImputationError,
    RowParseError,
    SchemaError,
    UnknownMatchError,
)

# "AD" (advantage) is folded onto the numeric scale as 55. The cleaned CSV
# stores the numeric form, so "55" must parse back for round-trip stability.
SCORE_POINTS = {"0": 0, "15": 15, "30": 30, "40": 40, "AD": 55, "55": 55}


@dataclass(frozen=True, slots=True)
class PointRecord:
    """One scored point of a match.

    Integer scores use the tennis point scale (0/15/30/40, advantage = 55).
    ``p1_sets``/``p1_games`` and the score columns describe the scoreboard
    when the point starts; ``p*_points_won`` are cumulative counts that
    include the point itself. Optional fields are ``None`` when absent.
    """

    match_id: str
    player1: str
    player2: str
    elapsed_seconds: int
    set_no: int
    game_no: int
    point_no: int
    p1_sets: int
    p2_sets: int
    p1_games: int
    p2_games: int
    p1_score: int
    p2_score: int
    point_victor: int
    p1_points_won: int
    p2_points_won: int
    server: int | None = None
    serve_no: int | None = None
    p1_ace: int | None = None
    p2_ace: int | None = None
    p1_untouchable_winner: int | None = None
    p2_untouchable_winner: int | None = None
    p1_double_fault: int | None = None
    p2_double_fault: int | None = None
    p1_unforced_error: int | None = None
    p2_unforced_error: int | None = None
    p1_net_approach: int | None = None
    p2_net_approach: int | None = None
    p1_net_point_won: int | None = None
    p2_net_point_won: int | None = None
    p1_break_point_missed: int | None = None
    p2_break_point_missed: int | None = None
    p1_distance_run: float | None = None
    p2_distance_run: float | None = None
    speed_mph: float | None = None
    serve_width: str | None = None
    serve_depth: str | None = None
    return_depth: str | None = None


@dataclass(frozen=True)
class MatchTimeline:
    """Ordered, non-empty sequence of points belonging to one match."""

    match_id: str
    records: tuple[PointRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise EmptyInputError(f"timeline {self.match_id!r} has no records")
        for r in self.records:
            if r.match_id != self.match_id:
                raise ValueError(
                    f"record match_id {r.match_id!r} != timeline {self.match_id!r}"
                )

    def __len__(self):
        return len(self.records)

    @cached_property
    def arrays(self) -> MatchArrays:
        """The numeric columns of ``records``, extracted on first use."""
        return MatchArrays.from_records(self.records)


# Per-player event flags, as field suffixes after "p1_" / "p2_".
EVENT_FLAGS = (
    "ace", "untouchable_winner", "double_fault", "unforced_error",
    "net_approach", "net_point_won", "break_point_missed",
)


@dataclass(frozen=True)
class PlayerColumns:
    """One player's view of a match: own columns plus the opponent's."""

    player: int
    won: np.ndarray             # bool
    durations: np.ndarray
    sets: np.ndarray
    score: np.ndarray
    opp_score: np.ndarray
    points_won: np.ndarray
    opp_points_won: np.ndarray
    serving: np.ndarray         # bool, False where server is absent
    first_serve: np.ndarray     # bool, False where serve_no is absent
    serve_known: np.ndarray     # bool, server and serve_no both present
    events: np.ndarray          # (len(EVENT_FLAGS), n) 0/1, absent = 0
    distance: np.ndarray        # NaN where absent


@dataclass(frozen=True)
class MatchArrays:
    """Numeric columns of a point sequence, extracted once from its records.

    Per-player columns have a leading axis of 2, index 0 for player 1.
    Absent event flags read as 0; absent distances, servers and serve
    numbers as NaN. Durations come from the sequence's own cumulative clock
    (the first point counts from 0; a clock running backwards gives 0).
    The arrays are read-only: one instance is shared by every reader of a
    ``MatchTimeline``.
    """

    victor: np.ndarray       # 1 or 2
    durations: np.ndarray
    set_no: np.ndarray       # int
    game_no: np.ndarray      # int
    server: np.ndarray
    serve_no: np.ndarray
    serve_known: np.ndarray  # bool, server and serve_no both present
    sets: np.ndarray         # (2, n)
    score: np.ndarray        # (2, n)
    points_won: np.ndarray   # (2, n)
    events: np.ndarray       # (2, len(EVENT_FLAGS), n)
    distance: np.ndarray     # (2, n)

    @classmethod
    def from_records(cls, records: Sequence[PointRecord]) -> MatchArrays:
        if not records:
            raise EmptyInputError("MatchArrays needs at least one record")

        column = partial(_column, records)

        def both(name):
            return np.array([column(f"p1_{name}"), column(f"p2_{name}")])

        elapsed = column("elapsed_seconds")
        server = column("server")
        serve_no = column("serve_no")
        arrays = cls(
            victor=column("point_victor"),
            durations=np.maximum(elapsed - np.concatenate([[0.0], elapsed[:-1]]), 0.0),
            set_no=column("set_no").astype(int),
            game_no=column("game_no").astype(int),
            server=server,
            serve_no=serve_no,
            serve_known=~(np.isnan(server) | np.isnan(serve_no)),
            sets=both("sets"),
            score=both("score"),
            points_won=both("points_won"),
            distance=both("distance_run"),
            events=np.nan_to_num(
                np.stack([both(flag) for flag in EVENT_FLAGS], axis=1), nan=0.0
            ),
        )
        for array in vars(arrays).values():
            array.flags.writeable = False
        return arrays

    def player(self, p: int) -> PlayerColumns:
        if p not in (1, 2):
            raise ValueError(f"player must be 1 or 2, got {p!r}")
        me, opp = p - 1, 2 - p
        return PlayerColumns(
            player=p,
            won=self.victor == p,
            durations=self.durations,
            sets=self.sets[me],
            score=self.score[me],
            opp_score=self.score[opp],
            points_won=self.points_won[me],
            opp_points_won=self.points_won[opp],
            serving=self.server == p,
            first_serve=self.serve_no == 1,
            serve_known=self.serve_known,
            events=self.events[me],
            distance=self.distance[me],
        )


@dataclass(frozen=True)
class MissingReport:
    """Per-column fraction of records with an absent value."""

    rates: dict[str, float]


@dataclass(frozen=True)
class BoxplotStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    lower_fence: float
    upper_fence: float
    outlier_count: int


@dataclass(frozen=True)
class BoxplotReport:
    """Quartile/fence summary per numeric column; short columns are skipped."""

    columns: dict[str, BoxplotStats]
    skipped: tuple[str, ...]


# (csv column, record field, kind); order defines the canonical schema.
_COLUMN_SPEC = [
    ("match_id", "match_id", "str"),
    ("player1", "player1", "str"),
    ("player2", "player2", "str"),
    ("elapsed_time", "elapsed_seconds", "elapsed"),
    ("set_no", "set_no", "posint"),
    ("game_no", "game_no", "posint"),
    ("point_no", "point_no", "posint"),
    ("p1_sets", "p1_sets", "nonnegint"),
    ("p2_sets", "p2_sets", "nonnegint"),
    ("p1_games", "p1_games", "nonnegint"),
    ("p2_games", "p2_games", "nonnegint"),
    ("p1_score", "p1_score", "score"),
    ("p2_score", "p2_score", "score"),
    ("server", "server", "opt_one_or_two"),
    ("serve_no", "serve_no", "opt_one_or_two"),
    ("point_victor", "point_victor", "one_or_two"),
    ("p1_points_won", "p1_points_won", "nonnegint"),
    ("p2_points_won", "p2_points_won", "nonnegint"),
    ("p1_ace", "p1_ace", "flag"),
    ("p2_ace", "p2_ace", "flag"),
    ("p1_winner", "p1_untouchable_winner", "flag"),
    ("p2_winner", "p2_untouchable_winner", "flag"),
    ("p1_double_fault", "p1_double_fault", "flag"),
    ("p2_double_fault", "p2_double_fault", "flag"),
    ("p1_unf_err", "p1_unforced_error", "flag"),
    ("p2_unf_err", "p2_unforced_error", "flag"),
    ("p1_net_pt", "p1_net_approach", "flag"),
    ("p2_net_pt", "p2_net_approach", "flag"),
    ("p1_net_pt_won", "p1_net_point_won", "flag"),
    ("p2_net_pt_won", "p2_net_point_won", "flag"),
    ("p1_break_pt_missed", "p1_break_point_missed", "flag"),
    ("p2_break_pt_missed", "p2_break_point_missed", "flag"),
    ("p1_distance_run", "p1_distance_run", "opt_float"),
    ("p2_distance_run", "p2_distance_run", "opt_float"),
    ("speed_mph", "speed_mph", "opt_float"),
    ("serve_width", "serve_width", "opt_str"),
    ("serve_depth", "serve_depth", "opt_str"),
    ("return_depth", "return_depth", "opt_str"),
]

CSV_COLUMNS = tuple(c for c, _, _ in _COLUMN_SPEC)
_FIELD_FOR_COLUMN = {c: f for c, f, _ in _COLUMN_SPEC}
_get_csv_fields = attrgetter(*_FIELD_FOR_COLUMN.values())

_OPTIONAL_KINDS = {"opt_one_or_two", "opt_float", "opt_str", "flag"}
REQUIRED_COLUMNS = tuple(
    c for c, _, k in _COLUMN_SPEC if k not in _OPTIONAL_KINDS
)
OPTIONAL_COLUMNS = tuple(c for c, _, k in _COLUMN_SPEC if k in _OPTIONAL_KINDS)

_TEXT_FIELDS = frozenset(f for _, f, k in _COLUMN_SPEC if k in {"str", "opt_str"})
# Numeric fields usable in the imputation distance, in schema order.
_NUMERIC_FIELDS = [f for _, f, _ in _COLUMN_SPEC if f not in _TEXT_FIELDS]
_OPTIONAL_FIELDS = tuple(_FIELD_FOR_COLUMN[c] for c in OPTIONAL_COLUMNS)
# PointRecord's fields in constructor order, read all at once
_RECORD_FIELDS = [f.name for f in fields(PointRecord)]
_record_values = attrgetter(*_RECORD_FIELDS)

# Continuous measurement columns summarised by the default box-plot audit.
BOXPLOT_COLUMNS = ("speed_mph", "p1_distance_run", "p2_distance_run")


def parse_score_token(token: str) -> int:
    """Map a score token (``0/15/30/40/AD``) to integer points, AD -> 55."""
    key = token.strip()
    if key not in SCORE_POINTS:
        raise ValueError(f"unknown score token {token!r}")
    return SCORE_POINTS[key]


def parse_elapsed(text: str) -> int:
    """Parse ``h:mm:ss`` elapsed time to integer seconds."""
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"elapsed time {text!r} is not h:mm:ss")
    h, m, s = (int(p) for p in parts)
    if h < 0 or not (0 <= m < 60) or not (0 <= s < 60):
        raise ValueError(f"elapsed time {text!r} out of range")
    return h * 3600 + m * 60 + s


def format_elapsed(seconds: int) -> str:
    h, rem = divmod(int(seconds), 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


def _text(cell: str) -> str:
    if not cell:
        raise ValueError("empty required text field")
    return cell


def _int_where(allowed, rule: str):
    def parse(cell: str) -> int:
        n = int(cell)
        if not allowed(n):
            raise ValueError(rule)
        return n

    return parse


def _nonnegative_float(cell: str) -> float:
    x = float(cell)
    if not math.isfinite(x) or x < 0:
        raise ValueError("must be a non-negative finite number")
    return x


def _optional(parse):
    return lambda cell: parse(cell) if cell else None


_one_or_two = _int_where(lambda n: n in (1, 2), "must be 1 or 2")

# One parser per kind; each takes a stripped cell and raises ValueError.
_PARSERS = {
    "str": _text,
    "opt_str": lambda cell: cell or None,
    "elapsed": parse_elapsed,
    "posint": _int_where(lambda n: n > 0, "must be positive"),
    "nonnegint": _int_where(lambda n: n >= 0, "must be non-negative"),
    "score": parse_score_token,
    "one_or_two": _one_or_two,
    "opt_one_or_two": _optional(_one_or_two),
    "opt_float": _optional(_nonnegative_float),
    "flag": _optional(_int_where(lambda n: n in (0, 1), "must be 0 or 1")),
}


def load_matches(path: str | Path, match_id: str | None = None) -> list[MatchTimeline]:
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
    for mid in sorted(by_match):
        # stable: of two rows with one key, the later row comes second
        rows = sorted(by_match[mid], key=lambda item: item[0])
        for (key_a, row_a, _), (key_b, row_b, _) in zip(rows, rows[1:]):
            if key_a == key_b:
                raise RowParseError(
                    row_b,
                    f"match {mid}: duplicate point key {key_b} "
                    f"(rows {row_a} and {row_b})",
                )
        timelines.append(MatchTimeline(mid, tuple(r for _, _, r in rows)))
    return timelines


def points_csv_text(records: Iterable[PointRecord], ad_token: bool = False) -> str:
    """Render records as CSV text in the canonical column order.

    With ``ad_token`` advantage scores are written back as the raw "AD"
    token instead of their numeric value 55 (useful for building fixtures
    that exercise the token conversion).
    """
    formatters = {"elapsed": format_elapsed, "opt_float": lambda x: repr(float(x))}
    if ad_token:
        formatters["score"] = lambda n: "AD" if n == 55 else str(n)
    formats = [formatters.get(kind, str) for _, _, kind in _COLUMN_SPEC]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        ["" if v is None else fmt(v) for fmt, v in zip(formats, _get_csv_fields(r))]
        for r in records
    )
    return buf.getvalue()


def write_points_csv(records: Iterable[PointRecord], path: str | Path) -> None:
    """Write records in the canonical column order (inverse of loading)."""
    Path(path).write_text(points_csv_text(records), encoding="utf-8", newline="")


def flatten_timelines(timelines: Iterable[MatchTimeline]) -> list[PointRecord]:
    out: list[PointRecord] = []
    for tl in timelines:
        out.extend(tl.records)
    return out


def _column(records: Sequence[PointRecord], field: str) -> np.ndarray:
    """``field`` of every record as floats, None as NaN; text reads as 0."""
    values = map(attrgetter(field), records)
    if field in _TEXT_FIELDS:
        values = (None if v is None else 0.0 for v in values)
    return np.array(list(values), dtype=float)


def missing_rate(records: Sequence[PointRecord]) -> MissingReport:
    """Fraction of records with an absent value, per optional column."""
    if not records:
        raise EmptyInputError("missing_rate needs at least one record")
    n = len(records)
    # int(): a NumPy scalar rate would be written as "np.float64(...)"
    rates = {
        column: int(np.isnan(_column(records, field)).sum()) / n
        for column, field in zip(OPTIONAL_COLUMNS, _OPTIONAL_FIELDS)
    }
    return MissingReport(rates)


def impute_missing(records: Sequence[PointRecord]) -> list[PointRecord]:
    """Fill absent fields from the nearest fully populated record.

    Nearness is the plain Euclidean distance over the numeric fields present
    in both rows (raw scale, no normalisation); ties go to the donor that
    comes first in ``records`` (for ``clean``: by match id, then set, game
    and point, not file order). Categorical gaps take the donor's category.
    Columns that are absent in every record cannot be filled and are left
    as-is.
    """
    if not records:
        raise EmptyInputError("impute_missing needs at least one record")

    matrix = np.column_stack([_column(records, f) for f in _NUMERIC_FIELDS])
    missing = np.isnan(matrix)
    # numeric gaps are read off the distance matrix; text ones need a scan
    numeric_absent = dict(zip(_NUMERIC_FIELDS, missing.T))
    absent = {
        f: numeric_absent[f] if f in numeric_absent else np.isnan(_column(records, f))
        for f in _OPTIONAL_FIELDS
    }
    fillable = [f for f in _OPTIONAL_FIELDS if not absent[f].all()]
    dead_columns = [f for f in _OPTIONAL_FIELDS if f not in fillable]
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
        nearest[members] = _nearest_donors(matrix, donor_indices, rows, mask)

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


# Rows screened per matrix product: about 2**18 scores (2 MB) per block.
_SCREEN_SCORES = 1 << 18


def _nearest_donors(
    matrix: np.ndarray, donors: np.ndarray, rows: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """For each of ``rows``, the first of ``donors`` nearest to it over the
    ``mask`` columns; rows and donors are row indices into ``matrix``.

    Screening scores a block of rows against every donor with one matrix
    product, centred on the donor mean c: s = |d-c|^2 - 2(r-c).(d-c), which
    is |d-r|^2 - |r-c|^2 up to rounding. Every donor within
    8 (k+2) eps (|r-c|^2 + max |d-c|^2) of a row's lowest score is a
    candidate (k masked columns, eps = 2**-52). The bound is about twice the
    rounding error of the scores plus that of the exact distances, so the
    donor the exact distances pick is always a candidate. A lone candidate
    is the donor; several are measured again with the exact arithmetic
    (differences, then squares summed left to right) and the first minimum
    wins.
    """
    # a masked slice copies column-major, which the product below reads
    # faster than a row-major copy
    shifted = matrix[donors][:, mask]
    centre = shifted.mean(axis=0)
    shifted -= centre
    norms = np.einsum("ij,ij->i", shifted, shifted)
    targets = matrix[np.ix_(rows, mask)] - centre
    bounds = (
        8 * (mask.sum() + 2) * np.finfo(float).eps
        * (np.einsum("ij,ij->i", targets, targets) + norms.max())
    )
    nearest = np.empty(len(rows), dtype=np.intp)
    block = max(1, _SCREEN_SCORES // len(donors))
    for start in range(0, len(rows), block):
        part = slice(start, start + block)
        scores = targets[part] @ shifted.T
        scores *= -2.0
        scores += norms
        close = scores <= scores.min(axis=1, keepdims=True) + bounds[part, None]
        nearest[part] = close.argmax(axis=1)
        for i in start + np.flatnonzero(close.sum(axis=1) > 1):
            candidates = np.flatnonzero(close[i - start])
            # a masked copy of two or more rows is column-major, so einsum
            # sums each row's squares left to right, whatever the row count
            diffs = matrix[donors[candidates]][:, mask] - matrix[rows[i]][mask]
            nearest[i] = candidates[np.argmin(np.einsum("ij,ij->i", diffs, diffs))]
    return donors[nearest]


def outlier_report(
    records: Sequence[PointRecord],
    columns: Sequence[str] = BOXPLOT_COLUMNS,
) -> BoxplotReport:
    """Quartiles (linear interpolation), 1.5*IQR fences and outlier counts.

    Outliers are only counted, never removed. Columns with fewer than four
    present values are skipped with a warning.
    """
    if not records:
        raise EmptyInputError("outlier_report needs at least one record")
    stats: dict[str, BoxplotStats] = {}
    skipped: list[str] = []
    for column in columns:
        values = _column(records, _FIELD_FOR_COLUMN.get(column, column))
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
        stats[column] = BoxplotStats(
            minimum=float(values.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            maximum=float(values.max()),
            lower_fence=float(lower),
            upper_fence=float(upper),
            outlier_count=outliers,
        )
    return BoxplotReport(columns=stats, skipped=tuple(skipped))
