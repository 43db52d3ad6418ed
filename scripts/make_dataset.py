#!/usr/bin/env python3
"""Generate the committed synthetic point-by-point fixture dataset.

Five best-of-five matches are simulated with a streaky point-outcome model:
the probability that player 1 wins a point combines a scripted skill edge,
the server's advantage, and an exponentially weighted momentum state driven
by recent outcomes. Scoreboards follow standard tennis scoring (deuce and
advantage; sets need a two-game lead, no tie-break games so every score
stays on the 0/15/30/40/AD scale).

Missing values are injected at fixed per-column rates, and one serve is
pinned at 141 mph so the speed column has a clear high outlier.

Usage: python scripts/make_dataset.py [--out data/points.csv]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tennis_momentum.records import PointRecord, points_csv_text  # noqa: E402

MISSING_RATES = {
    "speed_mph": 0.1032,
    "serve_width": 0.0074,
    "serve_depth": 0.0074,
    "return_depth": 0.1797,
}
MISSING_SEED = 20230716

SERVE_WIDTHS = ("W", "BW", "B", "BC", "C")
SERVE_DEPTHS = ("CTL", "NCTL")
RETURN_DEPTHS = ("D", "ND")


@dataclass(frozen=True)
class MatchPlan:
    match_id: str
    player1: str
    player2: str
    seed: int
    # player-1 logit edge per set, and the set winners a draw must realize
    set_edges: tuple[float, ...]
    set_script: tuple[int, ...]
    serve_advantage: float = 0.25
    # observable momentum: the game-score lead, the cumulative points lead
    # and the current point streak feed back into the win probability
    score_gain: float = 1.4
    lead_gain: float = 1.15
    lead_scale: float = 14.0
    streak_gain: float = 0.7
    streak_scale: float = 2.0
    length_range: tuple[int, int] = (190, 460)


PLANS = (
    MatchPlan(
        match_id="2023-wimbledon-1301",
        player1="Carlos Alcaraz",
        player2="Nicolas Jarry",
        seed=39101,
        set_edges=(0.45, 0.4, -0.45, -0.4, 0.6),
        set_script=(1, 1, 2, 2, 1),
    ),
    MatchPlan(
        match_id="2023-wimbledon-1304",
        player1="Alejandro Davidovich Fokina",
        player2="Holger Rune",
        seed=397304,
        set_edges=(0.25, 0.2, -0.6, -1.05, -1.35),
        set_script=(1, 1, 2, 2, 2),
        lead_gain=0.8,
    ),
    MatchPlan(
        match_id="2023-wimbledon-1310",
        player1="Daniel Elahi Galan",
        player2="Jannik Sinner",
        seed=167310,
        set_edges=(0.45, -0.75, -0.7, -0.8),
        set_script=(1, 2, 2, 2),
        length_range=(120, 460),
    ),
    MatchPlan(
        match_id="2023-wimbledon-1407",
        player1="Andrey Rublev",
        player2="Alejandro Davidovich Fokina",
        seed=63407,
        set_edges=(0.45, -0.5, 0.8, 0.9),
        set_script=(1, 2, 1, 1),
        length_range=(120, 460),
    ),
    MatchPlan(
        match_id="2023-wimbledon-1701",
        player1="Carlos Alcaraz",
        player2="Novak Djokovic",
        seed=154701,
        set_edges=(-0.5, 0.55, 0.85, 1.0),
        set_script=(2, 1, 1, 1),
        length_range=(120, 460),
    ),
)


def score_tokens(a: int, b: int) -> tuple[int, int]:
    """Display values for a game at ``a`` points to ``b`` (before the point)."""
    if a >= 3 and b >= 3:
        if a == b:
            return 40, 40
        return (55, 40) if a > b else (40, 55)
    ladder = (0, 15, 30, 40)
    return ladder[min(a, 3)], ladder[min(b, 3)]


def game_over(a: int, b: int) -> int:
    if a >= 4 and a - b >= 2:
        return 1
    if b >= 4 and b - a >= 2:
        return 2
    return 0


def simulate_match(plan: MatchPlan, seed: int) -> list[PointRecord]:
    rng = np.random.default_rng(seed)
    rows: list[PointRecord] = []

    sets = [0, 0]
    games = [0, 0]
    game_points = [0, 0]
    points_won = [0, 0]
    streaks = [0, 0]
    elapsed = 0
    match_game_index = 0  # server alternates on this

    while max(sets) < 3:
        set_no = sets[0] + sets[1] + 1
        game_no = games[0] + games[1] + 1
        point_no = game_points[0] + game_points[1] + 1
        server = 1 + (match_game_index % 2)
        receiver = 2 if server == 1 else 1

        set_index = min(sets[0] + sets[1], len(plan.set_edges) - 1)
        edge = plan.set_edges[set_index]
        serve_sign = 1.0 if server == 1 else -1.0
        p1_disp, p2_disp = score_tokens(game_points[0], game_points[1])
        lead_term = plan.lead_gain * np.tanh(
            (points_won[0] - points_won[1]) / plan.lead_scale
        )
        if edge * lead_term < 0:
            # a scripted fightback largely neutralizes the opposing lead
            edge = edge - 0.85 * lead_term
        logit = (
            edge
            + plan.serve_advantage * serve_sign
            + plan.score_gain * (p1_disp - p2_disp) / 40.0
            + lead_term
            + plan.streak_gain * np.tanh((streaks[0] - streaks[1]) / plan.streak_scale)
        )
        p1_wins = rng.random() < 1.0 / (1.0 + np.exp(-logit))
        victor = 1 if p1_wins else 2
        loser = 2 if victor == 1 else 1
        streaks[victor - 1] += 1
        streaks[loser - 1] = 0

        # form coldness in [0, 1] per player; cold players scramble and err more
        cold = [min(max(-logit, 0.0) / 2.0, 1.0), min(max(logit, 0.0) / 2.0, 1.0)]

        serve_no = 1 if rng.random() < 0.62 else 2
        rally = int(rng.geometric(0.3))
        duration = int(np.clip(round(18 + 4.2 * rally + rng.normal(0, 4)), 12, 140))
        elapsed += duration

        # break point: receiver wins the game by taking this point
        recv_pts, srv_pts = (
            (game_points[0], game_points[1])
            if receiver == 1
            else (game_points[1], game_points[0])
        )
        is_break_point = recv_pts >= 3 and recv_pts - srv_pts >= 1

        ace_p = 0.04 + 0.12 * (1.0 - cold[server - 1])
        ace = int(victor == server and serve_no == 1 and rng.random() < ace_p)
        double_fault = int(
            victor == receiver
            and serve_no == 2
            and rng.random() < 0.10 + 0.15 * cold[server - 1]
        )
        untouchable = int(
            not double_fault and rng.random() < 0.14 + 0.18 * (1.0 - cold[victor - 1])
        )
        unforced = int(
            not ace and rng.random() < 0.18 + 0.28 * cold[loser - 1]
        )
        net = [int(rng.random() < 0.16), int(rng.random() < 0.16)]
        net_won = [
            int(net[0] and victor == 1 and rng.random() < 0.8),
            int(net[1] and victor == 2 and rng.random() < 0.8),
        ]
        bp_missed = int(is_break_point and victor == server)

        dist = [
            round(float((rally * rng.uniform(2.5, 4.0) + rng.uniform(0.5, 2.0))
                        * (1.0 + 0.3 * cold[0])), 2),
            round(float((rally * rng.uniform(2.5, 4.0) + rng.uniform(0.5, 2.0))
                        * (1.0 + 0.3 * cold[1])), 2),
        ]
        speed = round(float(np.clip(rng.normal(115, 7), 92, 132)), 1)

        points_won[victor - 1] += 1
        flags = {
            "p1_ace": ace if victor == 1 else 0,
            "p2_ace": ace if victor == 2 else 0,
            "p1_untouchable_winner": untouchable if victor == 1 else 0,
            "p2_untouchable_winner": untouchable if victor == 2 else 0,
            "p1_double_fault": double_fault if server == 1 else 0,
            "p2_double_fault": double_fault if server == 2 else 0,
            "p1_unforced_error": unforced if loser == 1 else 0,
            "p2_unforced_error": unforced if loser == 2 else 0,
            "p1_net_approach": net[0],
            "p2_net_approach": net[1],
            "p1_net_point_won": net_won[0],
            "p2_net_point_won": net_won[1],
            "p1_break_point_missed": bp_missed if receiver == 1 else 0,
            "p2_break_point_missed": bp_missed if receiver == 2 else 0,
        }
        rows.append(
            PointRecord(
                match_id=plan.match_id,
                player1=plan.player1,
                player2=plan.player2,
                elapsed_seconds=elapsed,
                set_no=set_no,
                game_no=game_no,
                point_no=point_no,
                p1_sets=sets[0],
                p2_sets=sets[1],
                p1_games=games[0],
                p2_games=games[1],
                p1_score=p1_disp,
                p2_score=p2_disp,
                point_victor=victor,
                p1_points_won=points_won[0],
                p2_points_won=points_won[1],
                server=server,
                serve_no=serve_no,
                p1_distance_run=dist[0],
                p2_distance_run=dist[1],
                speed_mph=speed,
                serve_width=str(rng.choice(SERVE_WIDTHS)),
                serve_depth=str(rng.choice(SERVE_DEPTHS)),
                return_depth=str(rng.choice(RETURN_DEPTHS)),
                **flags,
            )
        )

        game_points[victor - 1] += 1
        winner_of_game = game_over(game_points[0], game_points[1])
        if winner_of_game:
            games[winner_of_game - 1] += 1
            game_points = [0, 0]
            streaks = [0, 0]
            match_game_index += 1
            if games[winner_of_game - 1] >= 6 and (
                games[winner_of_game - 1] - games[2 - winner_of_game] >= 2
            ):
                sets[winner_of_game - 1] += 1
                games = [0, 0]
    return rows


def set_winners(rows: list[PointRecord]) -> tuple[int, ...]:
    winners = []
    prev = rows[0]
    for r in rows[1:]:
        if r.set_no != prev.set_no:
            winners.append(prev.point_victor)
        prev = r
    winners.append(prev.point_victor)  # the match ends on a set-winning point
    return tuple(winners)


def generate_match(plan: MatchPlan) -> list[PointRecord]:
    lo, hi = plan.length_range
    for attempt in range(2000):
        rows = simulate_match(plan, plan.seed + 1000 * attempt)
        if lo <= len(rows) <= hi and set_winners(rows) == plan.set_script:
            return rows
    raise RuntimeError(f"no acceptable simulation found for {plan.match_id}")


def _winner_of(rows: list[PointRecord]) -> int:
    # the simulation stops on the point that takes the deciding set
    return rows[-1].point_victor


def inject_missing(rows: list[PointRecord]) -> list[PointRecord]:
    rng = np.random.default_rng(MISSING_SEED)
    n = len(rows)
    out = list(rows)
    for column, rate in MISSING_RATES.items():
        k = int(round(rate * n))
        for idx in rng.choice(n, size=k, replace=False):
            out[idx] = replace(out[idx], **{column: None})
    return out


def pin_fast_serve(rows: list[PointRecord]) -> list[PointRecord]:
    """Set the last surviving 1301 serve speed to 141 mph."""
    out = list(rows)
    for i in range(len(out) - 1, -1, -1):
        r = out[i]
        if r.match_id == "2023-wimbledon-1301" and r.speed_mph is not None:
            out[i] = replace(r, speed_mph=141.0)
            return out
    raise RuntimeError("no surviving speed value in match 1301")


def build_dataset() -> list[PointRecord]:
    rows: list[PointRecord] = []
    for plan in PLANS:
        match_rows = generate_match(plan)
        print(f"{plan.match_id}: {len(match_rows)} points, "
              f"winner player {_winner_of(match_rows)}")
        rows.extend(match_rows)
    rows = inject_missing(rows)
    rows = pin_fast_serve(rows)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data/sample_points.csv")
    args = parser.parse_args()
    rows = build_dataset()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(points_csv_text(rows, ad_token=True), encoding="utf-8", newline="")
    print(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    main()
