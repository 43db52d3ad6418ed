"""Indicator, momentum and feature values pinned on the committed sample.

``tests/data/pinned_values.json`` holds reference values computed from
``data/sample_points.csv`` by the record-by-record implementation that the
column code replaced; the columns of ``MatchTimeline.player`` must reproduce
them to 1e-12.
Regenerate (only when a change of these numbers is intended) with::

    PYTHONPATH=src python tests/test_pinned_values.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "data" / "sample_points.csv"
PINNED = ROOT / "tests" / "data" / "pinned_values.json"

INDICATOR_MATCH = "2023-wimbledon-1304"
MOMENTUM_MATCH = "2023-wimbledon-1304"
MOMENTUM_WINDOWS = (5, 20, 60)
FEATURE_MATCH = "2023-wimbledon-1310"


def pinned_values() -> dict[str, list]:
    """Every pinned quantity as rows of numbers, keyed by what it is."""
    from tennis_momentum import (
        extra_feature_columns,
        extract_momentum_samples,
        load_matches,
        momentum_series,
    )
    from tennis_momentum.indicators import indicator_table
    from tennis_momentum.momentum import EXTRA_FEATURE_NAMES

    timelines = {tl.match_id: tl for tl in load_matches(SAMPLE)}
    values = {}
    for player in (1, 2):
        _, matrix = indicator_table([timelines[INDICATOR_MATCH]], [player], "game")
        values[f"indicators/game/{INDICATOR_MATCH}/p{player}"] = matrix.tolist()
        for window in MOMENTUM_WINDOWS:
            series = momentum_series(timelines[MOMENTUM_MATCH], player, window)
            values[f"momentum/{MOMENTUM_MATCH}/p{player}/w{window}"] = [
                [p.elapsed_seconds, p.score] for p in series
            ]
    tl = timelines[FEATURE_MATCH]
    values[f"samples/{FEATURE_MATCH}/p1"] = [
        [s.index, s.s1, s.s2, s.s3, s.s4, s.omega]
        for s in extract_momentum_samples(tl, 1)
    ]
    extras = extra_feature_columns(tl, 1)
    values[f"extras/{FEATURE_MATCH}/p1"] = [
        [float(extras[name][i]) for name in EXTRA_FEATURE_NAMES]
        for i in range(len(tl))
    ]
    return values


def dump(values: dict[str, list]) -> str:
    """JSON with one row per line."""
    blocks = [
        f"  {json.dumps(key)}: [\n"
        + ",\n".join(f"    {json.dumps(row)}" for row in rows)
        + "\n  ]"
        for key, rows in sorted(values.items())
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def computed():
    return pinned_values()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_keys_match(computed, pinned):
    assert sorted(computed) == sorted(pinned)


@pytest.mark.parametrize("kind", ["indicators", "momentum", "samples", "extras"])
def test_values_match_pinned(computed, pinned, kind):
    keys = [k for k in pinned if k.startswith(kind + "/")]
    assert keys
    for key in keys:
        got = np.asarray(computed[key], dtype=float)
        want = np.asarray(pinned[key], dtype=float)
        assert got.shape == want.shape, key
        assert np.abs(got - want).max() <= 1e-12, key


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(dump(pinned_values()), encoding="utf-8")
