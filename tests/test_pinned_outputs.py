"""SHA-256 of the ``clean`` outputs for the committed sample, pinned.

``tests/data/pinned_outputs.json`` holds the digests of the cleaned CSV, the
missing-rate table and the box-plot table that ``clean`` writes for
``data/sample_points.csv``; loader, writer and imputation changes must leave
those bytes as they are. Regenerate (only when a change of these outputs is
intended) with::

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "data" / "sample_points.csv"
PINNED = ROOT / "tests" / "data" / "pinned_outputs.json"


def clean_digests() -> dict[str, str]:
    """SHA-256 per ``clean`` output, keyed by the file-name prefix."""
    from tennis_momentum.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        assert main(["clean", "--data", str(SAMPLE), "--out", tmp]) == 0
        return {
            path.name.split("-")[0]: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((Path(tmp) / "all").iterdir())
        }


def test_clean_outputs_match_pinned():
    assert clean_digests() == json.loads(PINNED.read_text())


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    PINNED.write_text(json.dumps(clean_digests(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
