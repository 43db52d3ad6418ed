"""SHA-256 of ``clean``, ``predict``, ``expand``, ``indicators``, ``evaluate``,
``correlate`` and ``turning-points`` outputs, pinned.

``tests/data/pinned_outputs.json`` holds, under ``clean``, the digests of the
cleaned CSV, the missing-rate table and the box-plot table that ``clean``
writes for ``data/sample_points.csv``; loader, writer and imputation changes
must leave those bytes as they are. Under ``models`` it holds the digests of
the ``predict-points`` and ``expand`` files of every sample match with
``--player 0``, which pin the kernel-regression arithmetic and the order of
the expansion sweep. Under ``indicators`` it holds the digests of the set and
game ``indicators --player 0`` files of the whole sample, and under
``evaluate`` those of ``evaluate --player 0`` for every sample match at
window 20 and for match 1304 at windows 5 and 60; they pin the indicator
arithmetic bit for bit. Under ``momentum`` it holds the digests of the
``correlate`` and ``turning-points`` files of every sample match with
``--player 0``, which pin the correlation matrix and the turning-point
windows and statistics. Regenerate (only when a change of these outputs is
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
MATCHES = tuple(
    f"2023-wimbledon-{m}" for m in ("1301", "1304", "1310", "1407", "1701")
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def clean_digests() -> dict[str, str]:
    """SHA-256 per ``clean`` output, keyed by the file-name prefix."""
    from tennis_momentum.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        assert main(["clean", "--data", str(SAMPLE), "--out", tmp]) == 0
        return {
            path.name.split("-")[0]: _sha256(path)
            for path in sorted((Path(tmp) / "all").iterdir())
        }


def match_digests(commands: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 per output of ``commands`` (``predict-report`` left out) on
    every sample match with ``--player 0``, keyed by match and file name
    without the config digest."""
    from tennis_momentum.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for match in MATCHES:
            for command in commands:
                argv = [command, "--data", str(SAMPLE), "--match", match,
                        "--player", "0", "--out", tmp]
                assert main(argv) == 0
        return {
            f"{path.parent.name}/{path.name.rsplit('-', 1)[0]}": _sha256(path)
            for path in sorted(Path(tmp).glob("*/*"))
            if not path.name.startswith("predict-report")
        }


def model_digests() -> dict[str, str]:
    """The ``predict-points`` and ``expand`` outputs of every sample match."""
    return match_digests(("predict", "expand"))


def momentum_digests() -> dict[str, str]:
    """The ``correlate`` and ``turning-points`` outputs of every sample match."""
    return match_digests(("correlate", "turning-points"))


def indicator_digests() -> dict[str, str]:
    """SHA-256 of the ``indicators --player 0`` output per segmentation."""
    from tennis_momentum.cli import main

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for segmentation in ("set", "game"):
            out = Path(tmp) / segmentation
            assert main(["indicators", "--data", str(SAMPLE), "--segmentation",
                         segmentation, "--player", "0", "--out", str(out)]) == 0
            (path,) = (out / "all").iterdir()
            digests[segmentation] = _sha256(path)
    return digests


def evaluate_digests() -> dict[str, str]:
    """SHA-256 of the ``evaluate --player 0`` output, keyed by match and window."""
    from tennis_momentum.cli import main

    runs = [(match, 20) for match in MATCHES]
    runs += [("2023-wimbledon-1304", window) for window in (5, 60)]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for match, window in runs:
            out = Path(tmp) / f"w{window}"
            assert main(["evaluate", "--data", str(SAMPLE), "--match", match,
                         "--player", "0", "--window", str(window),
                         "--out", str(out)]) == 0
            (path,) = (out / match).iterdir()
            digests[f"{match}/w{window}"] = _sha256(path)
    return digests


def test_clean_outputs_match_pinned():
    assert clean_digests() == json.loads(PINNED.read_text())["clean"]


def test_model_outputs_match_pinned():
    assert model_digests() == json.loads(PINNED.read_text())["models"]


def test_momentum_outputs_match_pinned():
    assert momentum_digests() == json.loads(PINNED.read_text())["momentum"]


def test_indicator_outputs_match_pinned():
    assert indicator_digests() == json.loads(PINNED.read_text())["indicators"]


def test_evaluate_outputs_match_pinned():
    assert evaluate_digests() == json.loads(PINNED.read_text())["evaluate"]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    pinned = {
        "clean": clean_digests(),
        "models": model_digests(),
        "indicators": indicator_digests(),
        "evaluate": evaluate_digests(),
        "momentum": momentum_digests(),
    }
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
