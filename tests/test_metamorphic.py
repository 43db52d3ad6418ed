"""Metamorphic relations: how outputs must move when the input is transformed.

Player swap: exchanging every ``p1_*``/``p2_*`` column and the two player
names, and mapping ``server`` and ``point_victor`` 1 <-> 2, turns player 2
of each match into player 1. Player 1's outputs on the swapped file must
then equal player 2's on the original, bit for bit, once the player column
is dropped; ``clean``'s tables of the swapped file must equal the
original's once their columns are swapped back.

Row order: shuffling the rows of the file leaves ``clean`` byte-identical.
"""

import csv
import json
import random
import re
import warnings
from pathlib import Path

import pytest

from tennis_momentum.cli import main
from tennis_momentum.errors import DataQualityWarning

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "data" / "sample_points.csv"


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


MATCHES = list(dict.fromkeys(row[0] for row in _read_csv(SAMPLE)[1:]))


def _swap_name(name: str) -> str:
    if name.startswith(("p1_", "p2_", "player")):
        return name.translate(str.maketrans("12", "21"))
    return name


def _swap_players(table: list[list[str]]) -> list[list[str]]:
    """A point table, header first, with its two players exchanged."""
    header = table[0]
    source = [header.index(_swap_name(name)) for name in header]
    flip = [header.index("server"), header.index("point_victor")]
    swapped = [header]
    for row in table[1:]:
        row = [row[i] for i in source]
        for i in flip:
            row[i] = {"1": "2", "2": "1", "": ""}[row[i]]
        swapped.append(row)
    return swapped


@pytest.fixture(scope="module")
def swapped(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("swap") / "swapped.csv"
    _write_csv(path, _swap_players(_read_csv(SAMPLE)))
    return path


def _per_match(*commands: str) -> list[list[str]]:
    return [[command, "--match", match] for match in MATCHES for command in commands]


def _run(data: Path, player: str, out: Path, commands: list[list[str]]) -> dict[str, Path]:
    """Run each command on ``data`` into ``out``; returns the files written,
    keyed by directory and name without the player and config digest that
    the name ends in."""
    base = ["--data", str(data), "--player", player, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        for command in commands:
            assert main([*command, *base]) == 0
    return {f"{path.parent.name}/{re.sub(r'(-p[12])?-[0-9a-f]{10}$', '', path.stem)}": path
            for path in sorted(out.glob("*/*"))}


def _contents(files: dict[str, Path]) -> dict:
    """Each CSV file as its rows of text and each JSON file as its object
    with floats kept as text, both without their player column or key."""
    contents = {}
    for name, path in files.items():
        if path.suffix == ".json":
            payload = json.loads(path.read_text(), parse_float=str)
            if isinstance(payload, dict):
                payload.pop("player", None)
            contents[name] = payload
        else:
            rows = _read_csv(path)
            if "player" in rows[0]:
                j = rows[0].index("player")
                rows = [row[:j] + row[j + 1:] for row in rows]
            contents[name] = rows
    return contents


def _mirrors(tmp_path: Path, swapped: Path, commands: list[list[str]]) -> dict:
    """Player 2's outputs on the original, after checking that they equal
    player 1's on the swapped file."""
    original = _contents(_run(SAMPLE, "2", tmp_path / "original", commands))
    assert _contents(_run(swapped, "1", tmp_path / "mirrored", commands)) == original
    return original


def test_player_one_of_the_swapped_file_is_player_two_of_the_original(tmp_path, swapped):
    commands = [*_per_match("correlate", "turning-points"),
                ["indicators", "--segmentation", "game"]]
    assert len(_mirrors(tmp_path, swapped, commands)) == 3 * len(MATCHES) + 1


def test_player_swap_holds_for_evaluate_and_predict(tmp_path, swapped):
    # momentum, predict-report and predict-points of each match
    outputs = _mirrors(tmp_path, swapped, _per_match("evaluate", "predict"))
    assert len(outputs) == 3 * len(MATCHES)


def test_player_swap_holds_for_expand(tmp_path, swapped):
    outputs = _mirrors(tmp_path, swapped, [["expand", "--match", MATCHES[0]]])
    assert sorted(outputs) == [f"{MATCHES[0]}/expand", f"{MATCHES[0]}/expand-summary"]


def test_clean_of_the_swapped_file_swaps_back_to_clean_of_the_original(tmp_path, swapped):
    original = _contents(_run(SAMPLE, "0", tmp_path / "original", [["clean"]]))
    mirrored = _contents(_run(swapped, "0", tmp_path / "mirrored", [["clean"]]))
    mirrored["all/clean"] = _swap_players(mirrored["all/clean"])
    for name in ("all/missing", "all/boxplot"):  # one row per column, sorted by name
        header, *rows = mirrored[name]
        mirrored[name] = [header, *sorted([_swap_name(row[0]), *row[1:]] for row in rows)]
    assert sorted(original) == ["all/boxplot", "all/clean", "all/missing"]
    assert mirrored == original


def test_clean_does_not_depend_on_row_order(tmp_path):
    header, *rows = _read_csv(SAMPLE)
    random.Random(0).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    _write_csv(shuffled, [header, *rows])
    original = _run(SAMPLE, "0", tmp_path / "original", [["clean"]])
    permuted = _run(shuffled, "0", tmp_path / "shuffled", [["clean"]])
    assert permuted.keys() == original.keys()
    for name, path in original.items():
        assert permuted[name].read_bytes() == path.read_bytes(), name
