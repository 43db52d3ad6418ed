#!/usr/bin/env python3
"""Run the whole analytics pipeline on the sample dataset.

Runs ``tennis-momentum pipeline`` with the settings in ``run_pipeline.conf``
beside this script: the committed sample, match 2023-wimbledon-1304 and
player 1. Every CLI flag is accepted and wins over those settings, and a
``--config`` of your own replaces the file. Exit codes are the CLI's.

Usage: python scripts/run_pipeline.py [--data data/sample_points.csv]
       [--match 2023-wimbledon-1304] [--player 1] [--out out] [other CLI flags]
"""

import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tennis_momentum import cli  # noqa: E402

SETTINGS = Path(__file__).resolve().with_name("run_pipeline.conf")


def main(argv=None):
    # argparse keeps the last --config given, so the caller's replaces ours
    args = sys.argv[1:] if argv is None else argv
    code = cli.main(["pipeline", "--config", str(SETTINGS), *args])
    if code != 0:
        raise SystemExit(code)


if __name__ == "__main__":
    main()
    # the process ends next: skip collecting the objects made at import time
    gc.freeze()
