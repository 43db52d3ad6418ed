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
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataQualityWarning,
    EmptyInputError,
    ImputationError,
    RowParseError,
    SchemaError,
)

# "AD" (advantage) is folded onto the numeric scale as 55. The cleaned CSV
# stores the numeric form, so "55" must parse back for round-trip stability.
SCORE_POINTS = {"0": 0, "15": 15, "30": 30, "40": 40, "AD": 55, "55": 55}
VALID_SCORE_VALUES = frozenset({0, 15, 30, 40, 55})


@dataclass(frozen=True)
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


# Per-player event flags, as field suffixes after "p1_" / "p2_".
EVENT_FLAGS = (
    "ace", "untouchable_winner", "double_fault", "unforced_error",
    "net_approach", "net_point_won", "break_point_missed",
)
_PER_PLAYER = ("sets", "score", "points_won", "distance_run") + EVENT_FLAGS
_ARRAY_FIELDS = (
    "point_victor", "elapsed_seconds", "set_no", "game_no", "server", "serve_no",
) + tuple(f"p{p}_{name}" for p in (1, 2) for name in _PER_PLAYER)
_get_array_fields = attrgetter(*_ARRAY_FIELDS)


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
        # one row per field of _ARRAY_FIELDS; None becomes NaN
        table = np.array(list(map(_get_array_fields, records)), dtype=float)
        table = np.ascontiguousarray(table.T)
        victor, elapsed, set_no, game_no, server, serve_no = table[:6]
        per_player = table[6:].reshape(2, len(_PER_PLAYER), -1)
        return cls(
            victor=victor,
            durations=np.maximum(elapsed - np.concatenate([[0.0], elapsed[:-1]]), 0.0),
            set_no=set_no.astype(int),
            game_no=game_no.astype(int),
            server=server,
            serve_no=serve_no,
            serve_known=~(np.isnan(server) | np.isnan(serve_no)),
            sets=per_player[:, 0],
            score=per_player[:, 1],
            points_won=per_player[:, 2],
            distance=per_player[:, 3],
            events=np.nan_to_num(per_player[:, 4:], nan=0.0),
        )

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


# (csv column, record field, parser kind); order defines the canonical schema.
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
    ("server", "server", "opt_player"),
    ("serve_no", "serve_no", "opt_int"),
    ("point_victor", "point_victor", "player"),
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
_KIND_FOR_COLUMN = {c: k for c, _, k in _COLUMN_SPEC}

_OPTIONAL_KINDS = {"opt_player", "opt_int", "opt_float", "opt_str", "flag"}
REQUIRED_COLUMNS = tuple(
    c for c, _, k in _COLUMN_SPEC if k not in _OPTIONAL_KINDS
)
OPTIONAL_COLUMNS = tuple(c for c, _, k in _COLUMN_SPEC if k in _OPTIONAL_KINDS)

# Numeric fields usable in the imputation distance, in schema order.
_NUMERIC_FIELDS = [
    f
    for c, f, k in _COLUMN_SPEC
    if k in {"elapsed", "posint", "nonnegint", "score", "player",
             "opt_player", "opt_int", "opt_float", "flag"}
]
_OPTIONAL_FIELDS = tuple(_FIELD_FOR_COLUMN[c] for c in OPTIONAL_COLUMNS)

# Continuous measurement columns summarised by the default box-plot audit.
BOXPLOT_COLUMNS = ("speed_mph", "p1_distance_run", "p2_distance_run")


def parse_score_token(token: str, row_number: int | None = None) -> int:
    """Map a score token (``0/15/30/40/AD``) to integer points, AD -> 55."""
    key = token.strip()
    if key not in SCORE_POINTS:
        if row_number is not None:
            raise RowParseError(row_number, f"unknown score token {token!r}")
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


def _parse_cell(kind: str, raw: str, row_number: int):
    value = raw.strip() if raw is not None else ""
    if kind == "str":
        if not value:
            raise RowParseError(row_number, "empty required text field")
        return value
    if kind in {"opt_str", "opt_player", "opt_int", "opt_float", "flag"} and not value:
        return None
    if kind == "opt_str":
        return value
    try:
        if kind == "elapsed":
            return parse_elapsed(value)
        if kind == "posint":
            n = int(value)
            if n <= 0:
                raise ValueError("must be positive")
            return n
        if kind == "nonnegint":
            n = int(value)
            if n < 0:
                raise ValueError("must be non-negative")
            return n
        if kind == "score":
            return parse_score_token(value, row_number)
        if kind == "player":
            n = int(value)
            if n not in (1, 2):
                raise ValueError("must be 1 or 2")
            return n
        if kind == "opt_player":
            n = int(value)
            if n not in (1, 2):
                raise ValueError("must be 1 or 2")
            return n
        if kind == "opt_int":
            return int(value)
        if kind == "opt_float":
            x = float(value)
            if not math.isfinite(x) or x < 0:
                raise ValueError("must be a non-negative finite number")
            return x
        if kind == "flag":
            n = int(value)
            if n not in (0, 1):
                raise ValueError("must be 0 or 1")
            return n
    except RowParseError:
        raise
    except ValueError as exc:
        raise RowParseError(row_number, f"bad value {raw!r}: {exc}") from exc
    raise AssertionError(f"unhandled kind {kind}")


def load_matches(path: str | Path) -> list[MatchTimeline]:
    """Read a point-by-point CSV into one ordered timeline per match.

    Records are sorted by (set_no, game_no, point_no); duplicate keys within
    a match are rejected. Timelines come back sorted by match id.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(REQUIRED_COLUMNS)
        present = set(reader.fieldnames)
        missing = [c for c in REQUIRED_COLUMNS if c not in present]
        if missing:
            raise SchemaError(missing)
        unknown = [c for c in reader.fieldnames if c not in _FIELD_FOR_COLUMN]
        if unknown:
            warnings.warn(
                f"ignoring unrecognised columns: {', '.join(unknown)}",
                DataQualityWarning,
                stacklevel=2,
            )
        by_match: dict[str, list[tuple[tuple, int, PointRecord]]] = {}
        for row_number, row in enumerate(reader, start=1):
            kwargs = {}
            for column, field in _FIELD_FOR_COLUMN.items():
                if column not in present:
                    continue
                kwargs[field] = _parse_cell(
                    _KIND_FOR_COLUMN[column], row.get(column) or "", row_number
                )
            r = PointRecord(**kwargs)
            key = (r.set_no, r.game_no, r.point_no)
            by_match.setdefault(r.match_id, []).append((key, row_number, r))

    if not by_match:
        raise EmptyInputError(f"{path} contains no data rows")

    timelines = []
    for match_id in sorted(by_match):
        # stable: of two rows with one key, the later row comes second
        rows = sorted(by_match[match_id], key=lambda item: item[0])
        for (key_a, row_a, _), (key_b, row_b, _) in zip(rows, rows[1:]):
            if key_a == key_b:
                raise RowParseError(
                    row_b,
                    f"match {match_id}: duplicate point key {key_b} "
                    f"(rows {row_a} and {row_b})",
                )
        timelines.append(MatchTimeline(match_id, tuple(r for _, _, r in rows)))
    return timelines


def _format_cell(kind: str, value) -> str:
    if value is None:
        return ""
    if kind == "elapsed":
        return format_elapsed(value)
    if kind == "opt_float":
        return repr(float(value))
    return str(value)


def points_csv_text(records: Iterable[PointRecord], ad_token: bool = False) -> str:
    """Render records as CSV text in the canonical column order.

    With ``ad_token`` advantage scores are written back as the raw "AD"
    token instead of their numeric value 55 (useful for building fixtures
    that exercise the token conversion).
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        cells = []
        for column, kind in _KIND_FOR_COLUMN.items():
            value = getattr(r, _FIELD_FOR_COLUMN[column])
            if ad_token and kind == "score" and value == 55:
                cells.append("AD")
            else:
                cells.append(_format_cell(kind, value))
        writer.writerow(cells)
    return buf.getvalue()


def write_points_csv(records: Iterable[PointRecord], path: str | Path) -> None:
    """Write records in the canonical column order (inverse of loading)."""
    Path(path).write_text(points_csv_text(records), encoding="utf-8", newline="")


def flatten_timelines(timelines: Iterable[MatchTimeline]) -> list[PointRecord]:
    out: list[PointRecord] = []
    for tl in timelines:
        out.extend(tl.records)
    return out


def missing_rate(records: Sequence[PointRecord]) -> MissingReport:
    """Fraction of records with an absent value, per optional column."""
    if not records:
        raise EmptyInputError("missing_rate needs at least one record")
    n = len(records)
    rates = {}
    for column in OPTIONAL_COLUMNS:
        field = _FIELD_FOR_COLUMN[column]
        absent = sum(1 for r in records if getattr(r, field) is None)
        rates[column] = absent / n
    return MissingReport(rates)


def _numeric_matrix(records: Sequence[PointRecord]) -> np.ndarray:
    mat = np.full((len(records), len(_NUMERIC_FIELDS)), np.nan)
    for i, r in enumerate(records):
        for j, field in enumerate(_NUMERIC_FIELDS):
            v = getattr(r, field)
            if v is not None:
                mat[i, j] = float(v)
    return mat


def impute_missing(records: Sequence[PointRecord]) -> list[PointRecord]:
    """Fill absent fields from the nearest fully populated record.

    Nearness is the plain Euclidean distance over the numeric fields present
    in both rows (raw scale, no normalisation); ties go to the earlier row
    in file order. Categorical gaps take the donor's category. Columns that
    are absent in every record cannot be filled and are left as-is.
    """
    if not records:
        raise EmptyInputError("impute_missing needs at least one record")

    fillable = [
        f
        for f in _OPTIONAL_FIELDS
        if any(getattr(r, f) is not None for r in records)
    ]
    dead_columns = [f for f in _OPTIONAL_FIELDS if f not in fillable]
    if dead_columns:
        warnings.warn(
            "columns absent everywhere cannot be imputed: "
            + ", ".join(dead_columns),
            DataQualityWarning,
            stacklevel=2,
        )

    def is_complete(r: PointRecord) -> bool:
        return all(getattr(r, f) is not None for f in fillable)

    donor_indices = [i for i, r in enumerate(records) if is_complete(r)]
    incomplete = [i for i, r in enumerate(records) if not is_complete(r)]
    if not incomplete:
        return list(records)
    if not donor_indices:
        raise ImputationError("no record has all fields populated")

    matrix = _numeric_matrix(records)
    donors = matrix[donor_indices]

    out = list(records)
    for i in incomplete:
        row = matrix[i]
        mask = ~np.isnan(row)
        diffs = donors[:, mask] - row[mask]
        dist2 = np.einsum("ij,ij->i", diffs, diffs)
        donor = records[donor_indices[int(np.argmin(dist2))]]
        fixes = {
            f: getattr(donor, f)
            for f in fillable
            if getattr(records[i], f) is None
        }
        out[i] = replace(records[i], **fixes)
    return out


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
        field = _FIELD_FOR_COLUMN.get(column, column)
        values = np.array(
            [float(getattr(r, field)) for r in records if getattr(r, field) is not None]
        )
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
