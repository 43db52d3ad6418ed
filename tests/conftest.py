import os
from pathlib import Path

import pytest

from tennis_momentum.ingest import MatchTimeline
from tennis_momentum.records import PointRecord, timeline

REPO_ROOT = Path(__file__).resolve().parents[1]

# the committed synthetic fixture; point TM_POINTS_CSV at a real export to
# run the data-dependent tests against it instead
DATASET = Path(os.environ.get("TM_POINTS_CSV", REPO_ROOT / "data" / "sample_points.csv"))


def make_record(**overrides) -> PointRecord:
    """A fully populated single point with sane defaults."""
    base = dict(
        match_id="m1",
        player1="A",
        player2="B",
        elapsed_seconds=40,
        set_no=1,
        game_no=1,
        point_no=1,
        p1_sets=0,
        p2_sets=0,
        p1_games=0,
        p2_games=0,
        p1_score=0,
        p2_score=0,
        point_victor=1,
        p1_points_won=1,
        p2_points_won=0,
        server=1,
        serve_no=1,
        p1_ace=0,
        p2_ace=0,
        p1_untouchable_winner=0,
        p2_untouchable_winner=0,
        p1_double_fault=0,
        p2_double_fault=0,
        p1_unforced_error=0,
        p2_unforced_error=0,
        p1_net_approach=0,
        p2_net_approach=0,
        p1_net_point_won=0,
        p2_net_point_won=0,
        p1_break_point_missed=0,
        p2_break_point_missed=0,
        p1_distance_run=10.0,
        p2_distance_run=10.0,
        speed_mph=115.0,
        serve_width="W",
        serve_depth="CTL",
        return_depth="D",
    )
    base.update(overrides)
    return PointRecord(**base)


def make_timeline(victors, match_id="m1", **common) -> MatchTimeline:
    """A timeline from a list of point victors; scores stay schematic."""
    records = []
    pw = [0, 0]
    for i, victor in enumerate(victors):
        pw[victor - 1] += 1
        records.append(
            make_record(
                match_id=match_id,
                elapsed_seconds=40 * (i + 1),
                game_no=1 + i // 4,
                point_no=1 + i % 4,
                point_victor=victor,
                p1_points_won=pw[0],
                p2_points_won=pw[1],
                server=1 + (i // 4) % 2,
                **common,
            )
        )
    return timeline(match_id, records)


@pytest.fixture(scope="session")
def dataset_path() -> Path:
    if not DATASET.exists():
        pytest.skip(f"dataset not found: {DATASET}")
    return DATASET


@pytest.fixture(scope="session")
def timelines(dataset_path):
    from tennis_momentum import load_matches

    return load_matches(dataset_path)


@pytest.fixture(scope="session")
def timelines_by_id(timelines):
    return {tl.match_id: tl for tl in timelines}
