#!/usr/bin/env python3
"""Run the whole analytics pipeline on the sample dataset.

Loads the point-by-point file once, runs every CLI subcommand on the loaded
matches (clean and indicators over all of them, the rest on one match) and
prints the produced files, then the held-out prediction report and the
expansion summary of each ``--player`` (both with ``--player 0``). A
missing or bad input file exits 2 with a ``data error:`` line, as the CLI
does.

Usage: python scripts/run_pipeline.py [--data data/sample_points.csv]
       [--match 2023-wimbledon-1304] [--player 1] [--out out]
"""

import argparse
import gc
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tennis_momentum.cli import EXIT_DATA, Outputs, RunConfig, main as cli_main  # noqa: E402
from tennis_momentum.errors import DataError  # noqa: E402
from tennis_momentum.ingest import load_matches  # noqa: E402


def run(argv, timelines):
    code = cli_main([str(a) for a in argv], timelines)
    if code != 0:
        raise SystemExit(code)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="data/sample_points.csv")
    parser.add_argument("--match", default="2023-wimbledon-1304")
    parser.add_argument("--player", default="1")
    parser.add_argument("--out", default="out")
    args = parser.parse_args(argv)

    try:
        timelines = load_matches(args.data)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_DATA)

    base = ["--data", args.data, "--out", args.out]
    scoped = base + ["--match", args.match, "--player", args.player]

    run(["clean", *base], timelines)
    run(["indicators", *base], timelines)
    for command in ("evaluate", "correlate", "turning-points", "predict", "expand",
                    "report"):
        run([command, *scoped], timelines)

    # the files the scoped runs above wrote, named as the CLI named them
    config = RunConfig(data=args.data, match=args.match, player=int(args.player),
                       out=args.out)
    outputs = Outputs(config)
    for player in (1, 2) if config.player == 0 else (config.player,):
        predict = json.loads(outputs.path(f"predict-report-p{player}", "json").read_text())
        expand = json.loads(outputs.path(f"expand-summary-p{player}", "json").read_text())
        print()
        print(f"match {args.match}, player {player}")
        print(f"  held-out MSE {predict['mse']:.4f}, ACC {predict['acc']:.4f} "
              f"(sigma {predict['sigma']:.3f})")
        print(f"  expansion: baseline ACC {expand['baseline_acc']:.4f} -> "
              f"best {expand['best_acc']:.4f} with "
              f"{expand['best_acc_features']} features")


if __name__ == "__main__":
    main()
    # the process ends next: skip collecting the objects made at import time
    gc.freeze()
