"""Loading, validation, cleaning and imputation of point-by-point match CSVs.

The expected file format is the Sackmann-style Grand-Slam point-by-point
export: UTF-8, comma-delimited, one row per scored point, header row with
the column names listed in ``CSV_COLUMNS``. Unknown columns are ignored
(with a warning); missing optional columns simply yield absent values.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Sequence

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


class MatchTimeline:
    """Ordered, non-empty sequence of points belonging to one match.

    A timeline holds its points one way: its numeric fields as one
    read-only float matrix (``_floats``, one row per ``_NUMERIC_FIELDS``
    field, NaN where a value is absent) and its other text fields as one
    list each (``_text``, ``_POINT_TEXT`` order). ``column`` and ``player``
    read the matrix; nothing derived from it is kept. ``load_matches`` gives
    each timeline a slice of its load's matrix; ``records.timeline`` builds
    one from records, and keeps them. Otherwise ``records`` are built from
    the stored values on first access, then cached. ``players`` holds the
    names of the first point's players. Treat a timeline as immutable.
    """

    def __init__(self, match_id: str, floats: np.ndarray, text: tuple[list, ...]):
        floats.flags.writeable = False
        self.match_id = match_id
        self.players = (text[0][0], text[1][0])
        self._floats, self._text = floats, text

    @cached_property
    def records(self):
        """The points as a tuple of ``records.PointRecord``, built from the
        stored values on first access."""
        from .records import _RECORD_FIELDS, PointRecord

        values = dict(zip(_POINT_TEXT, self._text))
        values.update(zip(_NUMERIC_FIELDS, map(_python_values, self._floats, _INTEGER)))
        ids = [self.match_id] * len(self)
        return tuple(map(PointRecord, ids, *(values[f] for f in _RECORD_FIELDS[1:])))

    def column(self, field: str) -> np.ndarray:
        """Numeric ``field`` of every point, a read-only view; NaN where absent."""
        return self._floats[_NUMERIC_FIELDS.index(field)]

    def player(self, p: int) -> PlayerColumns:
        """Player ``p``'s view of the match, built from the float matrix on
        every call: views of its rows, plus the columns derived from them."""
        if p not in (1, 2):
            raise ValueError(f"player must be 1 or 2, got {p!r}")
        row = dict(zip(_NUMERIC_FIELDS, self._floats))
        me, opp = f"p{p}_", f"p{3 - p}_"
        elapsed, server, serve_no = row["elapsed_seconds"], row["server"], row["serve_no"]
        events = np.stack([row[me + flag] for flag in EVENT_FLAGS])
        np.nan_to_num(events, copy=False, nan=0.0)
        return PlayerColumns(
            won=row["point_victor"] == p,
            # the first point counts from 0; a clock running backwards gives 0
            durations=np.maximum(elapsed - np.concatenate([[0.0], elapsed[:-1]]), 0.0),
            sets=row[me + "sets"],
            score=row[me + "score"],
            opp_score=row[opp + "score"],
            points_won=row[me + "points_won"],
            opp_points_won=row[opp + "points_won"],
            serving=server == p,
            first_serve=serve_no == 1,
            serve_known=~(np.isnan(server) | np.isnan(serve_no)),
            events=events,
            distance=row[me + "distance_run"],
        )

    def __len__(self):
        return self._floats.shape[1]

    def __eq__(self, other):
        if not isinstance(other, MatchTimeline):
            return NotImplemented
        return (self.match_id == other.match_id and self._text == other._text
                and np.array_equal(self._floats, other._floats, equal_nan=True))

    def __hash__(self):
        return hash((self.match_id, len(self)))

    def __repr__(self):
        return f"MatchTimeline({self.match_id!r}, {len(self)} points)"


# Per-player event flags, as field suffixes after "p1_" / "p2_".
EVENT_FLAGS = (
    "ace", "untouchable_winner", "double_fault", "unforced_error",
    "net_approach", "net_point_won", "break_point_missed",
)


@dataclass(frozen=True)
class PlayerColumns:
    """One player's view of a match: own columns plus the opponent's."""

    won: np.ndarray             # bool
    durations: np.ndarray       # seconds since the previous point
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

_OPTIONAL_KINDS = {"opt_one_or_two", "opt_float", "opt_str", "flag"}
_TEXT_KINDS = frozenset({"str", "opt_str"})
REQUIRED_COLUMNS = tuple(
    c for c, _, k in _COLUMN_SPEC if k not in _OPTIONAL_KINDS
)
OPTIONAL_COLUMNS = tuple(c for c, _, k in _COLUMN_SPEC if k in _OPTIONAL_KINDS)

_TEXT_FIELDS = frozenset(f for _, f, k in _COLUMN_SPEC if k in _TEXT_KINDS)
# The text fields a timeline keeps one list of: all but the match id.
_POINT_TEXT = tuple(f for _, f, k in _COLUMN_SPEC if k in _TEXT_KINDS)[1:]
# The fields held as floats, in schema order; the imputation distance uses them.
_NUMERIC_FIELDS = [f for _, f, _ in _COLUMN_SPEC if f not in _TEXT_FIELDS]
_INTEGER = [k != "opt_float" for _, f, k in _COLUMN_SPEC if f not in _TEXT_FIELDS]
_OPTIONAL_FIELDS = tuple(_FIELD_FOR_COLUMN[c] for c in OPTIONAL_COLUMNS)


def _python_values(floats: np.ndarray, integer: bool) -> list:
    """A float column as Python values, ``int`` if ``integer`` else
    ``float``, and None where it is NaN."""
    absent = np.isnan(floats)
    values = (np.where(absent, 0.0, floats).astype(np.int64) if integer
              else floats).astype(object)
    values[absent] = None
    return values.tolist()


# Continuous measurement columns summarised by the default box-plot audit.
BOXPLOT_COLUMNS = ("speed_mph", "p1_distance_run", "p2_distance_run")


def parse_score_token(token: str) -> int:
    """Map a score token (``0/15/30/40/AD``) to integer points, AD -> 55."""
    key = token.strip()
    if key not in SCORE_POINTS:
        raise ValueError(f"unknown score token {token!r}")
    return SCORE_POINTS[key]


def parse_elapsed(text: str) -> int:
    """Parse ``h:mm:ss`` elapsed time to integer seconds, below 2**53."""
    values, _, bad = _column_elapsed([text])
    if bad:
        raise ValueError(bad[1])
    return values[0]


def format_elapsed(seconds: int) -> str:
    h, rem = divmod(int(seconds), 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


# Column parsers, one per kind, over a column of raw cells. Each returns the
# values, for numeric kinds the floats too (None as NaN), and its first bad
# cell as (position, message) or None. The common spellings are read in one
# pass; a column holding any other is read by the kind's conversion of each
# stripped cell. The range rules, (test, message) pairs, then test the floats.
def _column_text(required: bool):
    def parse(cells):
        values = list(map(str.strip, cells))
        bad = required and "" in values and (values.index(""), "empty required text field")
        return values, None, bad or None

    return parse


def _convert_cells(convert, cells):
    """Each stripped cell converted, None where it fails; the first failure."""
    values, failed = [], None
    for i, cell in enumerate(cells):
        try:
            values.append(convert(cell.strip()))
        except ValueError as exc:
            values.append(None)
            failed = failed or (i, str(exc))
    return values, failed


def _float(value) -> float:
    """None as NaN, and an integer past the float range as +-inf."""
    try:
        return math.nan if value is None else float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _first_bad(cells, values, floats, rules, failed, nan_values=False):
    """The first of ``failed`` and the present cells before it breaking a rule.
    Absent cells (None) are NaN and pass; a present one is NaN only if ``nan_values``."""
    stop = failed[0] if failed else len(cells)
    x = floats[..., :stop]
    ok = rules[0][0](x)
    for test, _ in rules[1:]:
        ok &= test(x)
    bad = stop - np.count_nonzero(ok)
    if bad and bad > (values[:stop].count(None) if nan_values else np.isnan(x).sum()):
        i = next(i for i in np.flatnonzero(~ok).tolist() if values[i] is not None)
        message = next(m for test, m in rules if not test(floats[..., i:i + 1]).all())
        return i, message.format(cells[i].strip())
    return failed


def _column(convert, rules=(), table=None, fast=None, nan_values=False):
    """A kind's column parser. ``convert`` reads one stripped cell, None if
    absent; common spellings are read by ``table``, whose values pass the
    rules, or by ``fast``."""
    def parse(cells):
        try:
            if table:
                values = list(map(table.__getitem__, cells))
                return values, np.array(values, dtype=float), None
            values = fast(cells) if fast else list(map(convert, cells))
            floats, failed = np.array(values, dtype=float), None
        except (ValueError, KeyError, OverflowError):
            values, failed = _convert_cells(convert, cells)
            floats = np.array(list(map(_float, values)))
        if rules:
            failed = _first_bad(cells, values, floats, rules, failed, nan_values)
        return values, floats, failed

    return parse


# every number that loads is below 2**53, so integers are exact as floats
_BELOW_2_53 = (lambda x: x < 2**53, "must be below 2**53")


def _integers(allowed, rule: str, table=None):
    """Integers below 2**53; optional if ``table`` maps ""."""
    convert = (lambda cell: int(cell) if cell else None) if table and "" in table else int
    return _column(convert, [(allowed, rule), _BELOW_2_53], table)


def _hms(cell: str) -> list[float]:
    parts = cell.split(":")
    if len(parts) != 3:
        raise ValueError(f"elapsed time {cell!r} is not h:mm:ss")
    return list(map(_float, map(int, parts)))


def _column_elapsed(cells):
    parts = [cell.split(":") for cell in cells]
    try:  # ragged, or not three parts: ValueError
        h, m, s = hms = np.array([list(map(int, p)) for p in zip(*parts, strict=True)], float)
        failed = None
    except (ValueError, OverflowError):
        rows, failed = _convert_cells(_hms, cells)
        hms = np.array([row or [math.nan] * 3 for row in rows]).T
    # beyond 2**64 is out of range anyway, and the sums cannot overflow
    h, m, s = hms = np.clip(hms, -(2.0**64), 2.0**64)
    floats = h * 3600 + m * 60 + s
    rule = (lambda t: (t >= 0).all(0) & (t[1:] < 60).all(0)
            & (t[0] * 3600 + t[1] * 60 + t[2] < 2**53))
    bad = _first_bad(cells, cells, hms, [(rule, "elapsed time {!r} out of range")], failed)
    return (None if bad else floats.astype(np.int64).tolist()), floats, bad


_ONE_OR_TWO = (lambda x: (x == 1) | (x == 2), "must be 1 or 2")
_PARSE_COLUMN = {
    "str": _column_text(required=True),
    "opt_str": _column_text(required=False),
    "elapsed": _column_elapsed,
    "posint": _integers(lambda x: x > 0, "must be positive"),
    "nonnegint": _integers(lambda x: x >= 0, "must be non-negative"),
    "score": _column(parse_score_token, table=SCORE_POINTS),
    "one_or_two": _integers(*_ONE_OR_TWO, {"1": 1, "2": 2}),
    "opt_one_or_two": _integers(*_ONE_OR_TWO, {"1": 1, "2": 2, "": None}),
    "opt_float": _column(lambda cell: float(cell) if cell else None,
                         [(lambda x: (x >= 0) & (x < np.inf),
                           "must be a non-negative finite number"), _BELOW_2_53],
                         fast=lambda cells: [float(c) if c else None for c in cells],
                         nan_values=True),
    "flag": _integers(lambda x: (x == 0) | (x == 1), "must be 0 or 1",
                      {"0": 0, "1": 1, "": None}),
}

# Rows read and parsed together: bounds the raw cells held at once.
_BLOCK_ROWS = 1024
# File rows named, at most, by the warning about a clock that runs backwards.
_NAMED_ROWS = 5


def _warn_backward_clock(elapsed: np.ndarray, codes: np.ndarray, numbers: np.ndarray,
                         noun: str = "rows", stacklevel: int = 4) -> None:
    """One warning for the points whose clock is below that of the point
    before them in their match; their durations read as 0. The arguments
    are each point's clock, match code and file row (or other number that
    names it, with ``noun`` saying what the numbers are), in timeline order."""
    rows = np.sort(numbers[1:][(elapsed[1:] < elapsed[:-1]) & (codes[1:] == codes[:-1])])
    if rows.size:
        named = ", ".join(map(str, rows[:_NAMED_ROWS].tolist()))
        more = ", ..." if rows.size > _NAMED_ROWS else ""
        warnings.warn(f"match clock below the previous point's at {rows.size} point(s),"
                      f" {noun} {named}{more}; their durations read as 0",
                      DataQualityWarning, stacklevel=stacklevel)


class _ParsedColumns:
    """The parsed cells of a file's kept rows, gathered block by block.

    ``plan`` lists (field, cell index, kind) in schema order. The numeric
    fields are kept as floats, one (``_NUMERIC_FIELDS``, rows) matrix per
    block; the text fields as lists (equal text shares one string), all in
    file order.
    """

    def __init__(self, plan, width: int):
        self.plan = plan
        self.width = width
        self.numbers: list[int] = []  # file row number of each kept row
        self.text = {field: [] for field in ("match_id", *_POINT_TEXT)}
        self.floats: list[np.ndarray] = []
        self.strings = {"": None}  # one string per distinct text; absent reads None

    def add(self, block: list[list[str]], numbers: list[int]) -> None:
        """Parse the next kept rows of the file, with their row numbers."""
        if not block:
            return
        if min(map(len, block)) < self.width:  # missing trailing cells read as empty
            block = [row + [""] * (self.width - len(row)) for row in block]
        cells = list(zip(*block))
        parsed = [_PARSE_COLUMN[kind](cells[index]) for _, index, kind in self.plan]
        bad = [(b[0], j, b[1]) for j, (_, _, b) in enumerate(parsed) if b]
        if bad:  # the first row's, then in it the first field's in schema order
            position, j, message = min(bad)
            field, index, _ = self.plan[j]
            cell = block[position][index].strip()
            raise RowParseError(numbers[position], f"bad {field} value {cell!r}: {message}")
        columns = {}
        for (field, _, kind), (values, floats, _) in zip(self.plan, parsed):
            text = kind in _TEXT_KINDS
            columns[field] = list(map(self.strings.setdefault, values, values)) if text else floats
        # an optional column missing from the header
        absent, nan = [None] * len(block), np.full(len(block), np.nan)
        for field, values in self.text.items():
            values.extend(columns.get(field, absent))
        self.floats.append(np.stack([columns.get(f, nan) for f in _NUMERIC_FIELDS]))
        self.numbers.extend(numbers)

    def timelines(self) -> list[MatchTimeline]:
        """One timeline per match id, sorted by id; points by (set, game, point)."""
        ids = self.text.pop("match_id")
        numbers = np.array(self.numbers)
        floats = np.concatenate(self.floats, axis=1)
        self.floats.clear()  # before the sorted copy: lowers the peak
        names = sorted(set(ids))
        code = dict(zip(names, range(len(names))))
        codes = np.fromiter(map(code.__getitem__, ids), dtype=np.intp, count=len(ids))
        key_fields = [_NUMERIC_FIELDS.index(f) for f in ("set_no", "game_no", "point_no")]
        # stable: of two rows with one key, the later row comes second
        keys = (*floats[key_fields[::-1]], codes)
        order = np.lexsort(keys)
        in_order = np.stack(keys)[:, order]
        repeats = np.flatnonzero((in_order[:, 1:] == in_order[:, :-1]).all(axis=0))
        if repeats.size:
            a, b = order[repeats[0]], order[repeats[0] + 1]
            key_b = tuple(int(x) for x in floats[key_fields, b])
            raise RowParseError(int(numbers[b]), f"match {ids[b]}: duplicate point key {key_b}"
                                f" (rows {numbers[a]} and {numbers[b]})")

        floats = np.take(floats, order, axis=1)  # C order: each field's points adjacent
        _warn_backward_clock(floats[_NUMERIC_FIELDS.index("elapsed_seconds")],
                             codes[order], numbers[order])
        picks = order.tolist()
        text = [list(map(values.__getitem__, picks)) for values in self.text.values()]
        bounds = [0, *(np.flatnonzero(np.diff(codes[order])) + 1).tolist(), len(ids)]
        return [
            MatchTimeline(name, floats[:, a:b], tuple(t[a:b] for t in text))
            for name, a, b in zip(names, bounds, bounds[1:])
        ]


def load_matches(path: str | Path, match_id: str | None = None) -> list[MatchTimeline]:
    """Read a point-by-point CSV into one ordered timeline per match.

    Records are sorted by (set_no, game_no, point_no); duplicate keys within
    a match are rejected. Timelines come back sorted by match id. The file
    is parsed column by column, in blocks of rows, into one float matrix of
    the numeric fields; each timeline holds a slice of it, and builds its
    ``records`` from the slice on first access.

    Errors name the first bad row in file order, and in that row the first
    bad field in schema order. A bad cell wins over malformed CSV on a later
    line, and over a duplicate key anywhere.

    With ``match_id`` only that match is parsed: rows of other matches are
    skipped on their stripped ``match_id`` cell, so their other cells and
    point keys are not validated. The CSV reader still scans the whole file,
    so malformed CSV and undecodable bytes anywhere fail the load, and row
    numbers count every data row. An id absent from the file raises
    ``UnknownMatchError``, which lists the ids present.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
            except csv.Error as exc:
                raise DataError(f"{path}: malformed CSV header: {exc}") from exc
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise SchemaError(missing)
            unknown = [c for c in header if c not in _FIELD_FOR_COLUMN]
            if unknown:
                warnings.warn(f"ignoring unrecognised columns: {', '.join(unknown)}",
                              DataQualityWarning, stacklevel=2)
            # a repeated column reads its last occurrence
            position = {c: i for i, c in enumerate(header)}
            plan = [(field, position[c], kind) for c, field, kind in _COLUMN_SPEC
                    if c in position]
            parsed = _ParsedColumns(plan, len(header))
            id_index = position["match_id"]
            skipped: set[str] = set()  # match ids of the rows left unparsed
            block, numbers = [], []
            number = 0
            try:
                # blank lines are skipped and not counted
                for number, row in enumerate(filter(None, reader), start=1):
                    if match_id is not None:
                        row_id = row[id_index].strip() if id_index < len(row) else ""
                        if row_id != match_id:
                            skipped.add(row_id)
                            continue
                    block.append(row)
                    numbers.append(number)
                    if len(block) == _BLOCK_ROWS:
                        parsed.add(block, numbers)
                        block, numbers = [], []
            except csv.Error as exc:
                parsed.add(block, numbers)  # a bad cell before the malformed line wins
                # raised while reading the row after the last one numbered
                raise RowParseError(number + 1, f"malformed CSV: {exc}") from exc
            parsed.add(block, numbers)
    except UnicodeDecodeError as exc:
        # no row number: the file is decoded in chunks ahead of the parser
        raise DataError(
            f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
            f"({exc.reason})"
        ) from exc
    if not parsed.numbers:
        if not skipped:
            raise EmptyInputError(f"{path} contains no data rows")
        raise UnknownMatchError(match_id, sorted(skipped - {""}))
    return parsed.timelines()


class PointTable:
    """Points as one (points, ``_NUMERIC_FIELDS``) float matrix ``numbers``,
    NaN where a value is absent, and one list per text field in ``text``:
    the input of the cleaning steps ``table_missing_rate``,
    ``table_outlier_report``, ``table_imputation`` and ``table_csv_rows``,
    which only read them.
    """

    def __init__(self, numbers: np.ndarray, text: dict[str, list]):
        self.numbers = numbers
        self.text = text

    def __len__(self):
        return len(self.numbers)

    def absent(self, field: str) -> np.ndarray:
        """Where ``field`` is None, as a bool array."""
        if field in _TEXT_FIELDS:
            return np.array([v is None for v in self.text[field]], dtype=bool)
        return np.isnan(self.floats(field))

    def floats(self, field: str) -> np.ndarray:
        """Numeric ``field`` of every point, None as NaN."""
        return self.numbers[:, _NUMERIC_FIELDS.index(field)]


def point_table(timelines: Sequence[MatchTimeline]) -> PointTable:
    """The points of ``timelines``, in order, as one ``PointTable``: a copy
    of their stored values. No record is built."""
    numbers = np.empty((sum(map(len, timelines)), len(_NUMERIC_FIELDS)))
    if timelines:  # into a C-order matrix, as the imputation reads it
        np.concatenate([tl._floats.T for tl in timelines], out=numbers)
    text = {"match_id": list(chain.from_iterable(repeat(tl.match_id, len(tl))
                                                 for tl in timelines))}
    for j, field in enumerate(_POINT_TEXT):
        text[field] = list(chain.from_iterable(tl._text[j] for tl in timelines))
    return PointTable(numbers, text)


def table_missing_rate(table: PointTable) -> MissingReport:
    """Fraction of points with an absent value, per optional column."""
    if not len(table):
        raise EmptyInputError("missing_rate needs at least one record")
    n = len(table)
    # int(): a NumPy scalar rate would be written as "np.float64(...)"
    rates = {
        column: int(table.absent(field).sum()) / n
        for column, field in zip(OPTIONAL_COLUMNS, _OPTIONAL_FIELDS)
    }
    return MissingReport(rates)


def table_outlier_report(
    table: PointTable, columns: Sequence[str] = BOXPLOT_COLUMNS
) -> BoxplotReport:
    """Quartiles (linear interpolation), 1.5*IQR fences and outlier counts.

    ``columns`` are numeric CSV columns: a text column raises ValueError,
    an unknown one KeyError. Outliers are only counted, never removed.
    Columns with fewer than four present values are skipped with a warning.
    """
    if not len(table):
        raise EmptyInputError("outlier_report needs at least one record")
    stats: dict[str, BoxplotStats] = {}
    skipped: list[str] = []
    for column in columns:
        values = table.floats(_FIELD_FOR_COLUMN[column])
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


@dataclass(frozen=True)
class Imputation:
    """The cells imputation fills. Point ``rows[i]`` takes, in each of
    ``fields`` that ``gaps[i]`` marks, the value of point ``donors[i]``;
    both are positions in the table, and ``rows`` ascend."""

    fields: tuple[str, ...]
    rows: np.ndarray
    donors: np.ndarray
    gaps: np.ndarray  # (len(rows), len(fields)) bool


def table_imputation(table: PointTable) -> Imputation:
    """Pick each incomplete point's donor: the nearest fully populated point.

    Nearness is the plain Euclidean distance over the numeric fields present
    in both points (raw scale, no normalisation); ties go to the donor that
    comes first in the table. Categorical gaps take the donor's category.
    Columns that are absent for every point cannot be filled and are left
    as-is, with a warning.
    """
    if not len(table):
        raise EmptyInputError("impute_missing needs at least one record")

    matrix = table.numbers
    absent = {f: table.absent(f) for f in _OPTIONAL_FIELDS}
    fillable = [f for f in _OPTIONAL_FIELDS if not absent[f].all()]
    dead_columns = [f for f in _OPTIONAL_FIELDS if f not in fillable]
    if dead_columns:
        warnings.warn(
            "columns absent everywhere cannot be imputed: "
            + ", ".join(dead_columns),
            DataQualityWarning,
            stacklevel=2,
        )

    gaps = np.zeros(len(table), dtype=bool)
    for f in fillable:
        gaps |= absent[f]
    donor_indices = np.flatnonzero(~gaps)
    incomplete = np.flatnonzero(gaps)
    if not incomplete.size:
        return Imputation(tuple(fillable), incomplete, incomplete,
                          np.zeros((0, len(fillable)), dtype=bool))
    if not donor_indices.size:
        raise ImputationError("no record has all fields populated")

    # rows with the same present fields share one donor slice
    present = ~np.isnan(matrix[incomplete])
    masks, pattern = np.unique(present, axis=0, return_inverse=True)
    nearest = np.empty(incomplete.size, dtype=np.intp)
    for p, mask in enumerate(masks):
        members = pattern == p
        rows = incomplete[members]
        nearest[members] = _nearest_donors(matrix, donor_indices, rows, mask)
    row_gaps = np.column_stack([absent[f][incomplete] for f in fillable])
    return Imputation(tuple(fillable), incomplete, nearest, row_gaps)


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


def table_csv_rows(table: PointTable, imputation: Imputation | None = None) -> Iterator[list]:
    """The points of ``table`` as CSV rows of text under the header
    ``CSV_COLUMNS``, with the cells of ``imputation`` filled.

    The filled cells are set in a copy of the table's values, one field at a
    time; the points are then read ``_BLOCK_ROWS`` at a time, and formatted
    one row at a time.
    """
    numbers, text = table.numbers, dict(table.text)
    if imputation is not None:
        numbers = numbers.copy()
        for field, gap in zip(imputation.fields, imputation.gaps.T):
            points, donors = imputation.rows[gap], imputation.donors[gap]
            if field in text:
                column = text[field] = np.array(text[field], dtype=object)
                column[points] = column[donors]
            else:
                j = _NUMERIC_FIELDS.index(field)
                numbers[points, j] = numbers[donors, j]
    format_row = _row_formatter()
    for start in range(0, len(table), _BLOCK_ROWS):
        block = numbers[start:start + _BLOCK_ROWS].T
        columns = dict(zip(_NUMERIC_FIELDS, map(_python_values, block, _INTEGER)))
        for field, values in text.items():
            columns[field] = values[start:start + _BLOCK_ROWS]
        yield from map(format_row, zip(*(columns[f] for _, f, _ in _COLUMN_SPEC)))


def _row_formatter(ad_token: bool = False):
    """A function giving the CSV cells of one row of point values in
    ``_COLUMN_SPEC`` order; ``ad_token`` as for ``records.points_csv_text``."""
    formatters = {"elapsed": format_elapsed, "opt_float": lambda x: repr(float(x))}
    if ad_token:
        formatters["score"] = lambda n: "AD" if n == 55 else str(n)
    formats = [formatters.get(kind, str) for _, _, kind in _COLUMN_SPEC]
    return lambda row: ["" if v is None else fmt(v) for fmt, v in zip(formats, row)]


# The record layer's names that ``ingest`` still serves, from ``records``
# on first use (PEP 562): a command that loads ``ingest`` never loads it.
_RECORD_NAMES = frozenset({"PointRecord", "impute_missing", "points_csv_text"})


def __getattr__(name):
    if name not in _RECORD_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import records

    return getattr(records, name)
