"""The record view of a match: one ``PointRecord`` per point.

No subcommand builds or reads a record; the commands run on the columns
``ingest.load_matches`` keeps. Library callers, the tests and the fixture
generator use this module: ``timeline`` builds a ``MatchTimeline`` from
records, ``MatchTimeline.records`` builds a loaded timeline's records on
first access, ``impute_missing`` fills the gaps of a record list and
``points_csv_text`` renders records as a point-by-point CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInputError
from .ingest import (
    _FIELD_FOR_COLUMN,
    _NUMERIC_FIELDS,
    _POINT_TEXT,
    CSV_COLUMNS,
    MatchTimeline,
    PointTable,
    _row_formatter,
    _warn_backward_clock,
    table_imputation,
)


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


# PointRecord's fields in constructor order, read all at once
_RECORD_FIELDS = [f.name for f in fields(PointRecord)]
_record_values = attrgetter(*_RECORD_FIELDS)
_numeric_values = attrgetter(*_NUMERIC_FIELDS)
_text_values = attrgetter("match_id", *_POINT_TEXT)
_get_csv_fields = attrgetter(*_FIELD_FOR_COLUMN.values())


def _record_columns(records: Sequence[PointRecord]) -> tuple[np.ndarray, dict[str, list]]:
    """The ``_NUMERIC_FIELDS`` of ``records`` as a (points, fields) float
    matrix, None as NaN, and each of their text fields as a list."""
    numbers = np.array(list(map(_numeric_values, records)), dtype=float)
    text = zip(*map(_text_values, records))
    return (numbers.reshape(-1, len(_NUMERIC_FIELDS)),
            dict(zip(("match_id", *_POINT_TEXT), map(list, text))))


def timeline(match_id: str, records: Iterable[PointRecord]) -> MatchTimeline:
    """The timeline of ``records``, in the order given, keeping the records.

    It holds the same float matrix and text lists as the loaded timeline of
    the same points. Every record must belong to ``match_id``. Points whose
    clock is below the previous point's are warned about, as
    ``load_matches`` does, by their 1-based position in ``records``.
    """
    records = tuple(records)
    if not records:
        raise EmptyInputError(f"timeline {match_id!r} has no records")
    for r in records:
        if r.match_id != match_id:
            raise ValueError(f"record match_id {r.match_id!r} != timeline {match_id!r}")
    numbers, text = _record_columns(records)
    _warn_backward_clock(numbers[:, _NUMERIC_FIELDS.index("elapsed_seconds")],
                         np.zeros(len(records)), np.arange(1, len(records) + 1),
                         "positions", stacklevel=3)
    built = MatchTimeline(match_id, np.ascontiguousarray(numbers.T),
                          tuple(text[f] for f in _POINT_TEXT))
    built.records = records
    return built


def points_csv_text(records: Iterable[PointRecord], ad_token: bool = False) -> str:
    """Render records as CSV text in the canonical column order.

    With ``ad_token`` advantage scores are written back as the raw "AD"
    token instead of their numeric value 55 (useful for building fixtures
    that exercise the token conversion).
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(_row_formatter(ad_token), map(_get_csv_fields, records)))
    return buf.getvalue()


def impute_missing(records: Sequence[PointRecord]) -> list[PointRecord]:
    """Fill absent fields from the nearest fully populated record.

    Nearness is the plain Euclidean distance over the numeric fields present
    in both rows (raw scale, no normalisation); ties go to the donor that
    comes first in ``records`` (for ``clean``: by match id, then set, game
    and point, not file order). Categorical gaps take the donor's category.
    Columns that are absent in every record cannot be filled and are left
    as-is. Records without gaps are returned as they are.
    """
    filled = table_imputation(PointTable(*_record_columns(records)))
    # one constructor call per row, not dataclasses.replace's field walk
    slots = [_RECORD_FIELDS.index(f) for f in filled.fields]
    out = list(records)
    for i, d, gaps in zip(filled.rows.tolist(), filled.donors.tolist(),
                          filled.gaps.tolist()):
        values = list(_record_values(records[i]))
        donor = _record_values(records[d])
        for slot, gap in zip(slots, gaps):
            if gap:
                values[slot] = donor[slot]
        out[i] = PointRecord(*values)
    return out
