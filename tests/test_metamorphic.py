"""Metamorphic relations: how outputs must move when the input is transformed.

Player swap: exchanging every ``p1_*``/``p2_*`` column and the two player
names, and mapping ``server`` and ``point_victor`` 1 <-> 2, turns player 2
of each match into player 1. Player 1's outputs on the swapped file must
then equal player 2's on the original, bit for bit.
"""

import csv
import warnings
from pathlib import Path

from tennis_momentum.cli import main
from tennis_momentum.errors import DataQualityWarning

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "data" / "sample_points.csv"


def _swap_players(source: Path, target: Path) -> list[str]:
    """Write ``source`` with its players exchanged to ``target``; returns the
    match ids in file order."""
    with source.open(newline="") as f:
        reader = csv.DictReader(f)
        fields = reader.fieldnames
        rows = list(reader)
    one_two = str.maketrans("12", "21")
    renamed = {name: name.translate(one_two) if name.startswith(("p1_", "p2_", "player"))
               else name for name in fields}
    flipped = {"1": "2", "2": "1", "": ""}
    with target.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            swapped = {renamed[name]: value for name, value in row.items()}
            for name in ("server", "point_victor"):
                swapped[name] = flipped[swapped[name]]
            writer.writerow(swapped)
    return list(dict.fromkeys(row["match_id"] for row in rows))


def _outputs(data: Path, player: str, matches: list[str], out: Path) -> dict:
    """Bytes of each ``correlate`` and ``turning-points`` file of ``player``,
    and the rows of ``indicators --segmentation game`` (x1..x22 and the PCA
    scores) without their player column, keyed by what they are."""
    base = ["--data", str(data), "--player", player, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        for match in matches:
            for command in ("correlate", "turning-points"):
                assert main([command, "--match", match, *base]) == 0
        assert main(["indicators", "--segmentation", "game", *base]) == 0
    # file names end in -p<player>-<config digest>.csv
    files = {f"{path.parent.name}/{path.name.rsplit('-', 2)[0]}": path.read_bytes()
             for path in sorted(out.glob("*/*")) if path.parent.name != "all"}
    (table,) = (out / "all").iterdir()
    with table.open(newline="") as f:
        files["indicators"] = [
            {name: value for name, value in row.items() if name != "player"}
            for row in csv.DictReader(f)
        ]
    return files


def test_player_one_of_the_swapped_file_is_player_two_of_the_original(tmp_path):
    swapped = tmp_path / "swapped.csv"
    matches = _swap_players(SAMPLE, swapped)
    original = _outputs(SAMPLE, "2", matches, tmp_path / "original")
    mirrored = _outputs(swapped, "1", matches, tmp_path / "mirrored")
    assert len(original) == 3 * len(matches) + 1
    assert mirrored == original
