"""scripts/run_pipeline.py: one load per process, same files as separate CLI runs."""

import csv
import importlib.util
import json
import subprocess
import sys

import pytest

from tennis_momentum import cli
from tennis_momentum.ingest import load_matches

from conftest import REPO_ROOT

SCRIPT = REPO_ROOT / "scripts" / "run_pipeline.py"
MATCH = "2023-wimbledon-1310"


@pytest.fixture(scope="module")
def pipeline():
    spec = importlib.util.spec_from_file_location("run_pipeline_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pipeline_run(pipeline, dataset_path, tmp_path_factory):
    """One pipeline run; returns its output directory and every load it made."""
    out = tmp_path_factory.mktemp("pipeline")
    loads = []

    def counting(*args, **kwargs):
        loads.append(args)
        return load_matches(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "load_matches", counting)
        mp.setattr(cli, "load_matches", counting)
        pipeline.main(["--data", str(dataset_path), "--match", MATCH, "--player", "2",
                       "--out", str(out)])
    return out, loads


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_pipeline_loads_the_file_once(pipeline_run, dataset_path):
    _, loads = pipeline_run
    assert loads == [(str(dataset_path),)]


def test_pipeline_writes_what_separate_cli_runs_write(pipeline_run, dataset_path, tmp_path):
    out, _ = pipeline_run
    separate = tmp_path / "separate"
    base = ["--data", str(dataset_path), "--out", str(separate)]
    scoped = base + ["--match", MATCH, "--player", "2"]
    for command in ("clean", "indicators"):
        assert cli.main([command, *base]) == 0
    for command in ("evaluate", "correlate", "turning-points", "predict", "expand",
                    "report"):
        assert cli.main([command, *scoped]) == 0
    produced = _files(out)
    assert len(produced) == 13
    assert produced == _files(separate)


def test_summary_reads_the_files_of_its_own_run(pipeline, dataset_path, tmp_path, capsys):
    def summary(player):
        pipeline.main(["--data", str(dataset_path), "--match", MATCH, "--player", player,
                       "--out", str(tmp_path)])
        return capsys.readouterr().out.split("\n\n", 1)[1]  # after the list of paths

    first, second = summary("1"), summary("2")
    # one digest per player so far, so each glob matches one file
    report = json.loads(next((tmp_path / MATCH).glob("predict-report-p2-*.json")).read_text())
    assert second.startswith(f"match {MATCH}, player 2\n")
    assert f"MSE {report['mse']:.4f}, ACC {report['acc']:.4f} " in second
    assert first != second
    assert summary("0") == first + "\n" + second


def _run_script(*args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


def test_script_process_writes_and_prints_what_main_does(pipeline, dataset_path, tmp_path,
                                                        capsys):
    # run as a script, it freezes the collector before the process exits
    inproc, cold = tmp_path / "inproc", tmp_path / "cold"
    args = ["--data", dataset_path, "--match", "2023-wimbledon-1304"]
    pipeline.main([*map(str, args), "--out", str(inproc)])
    printed = capsys.readouterr().out.replace(str(inproc), str(cold))
    done = _run_script(*args, "--out", cold, cwd=tmp_path)
    assert (done.returncode, done.stdout) == (0, printed)
    assert _files(cold) == _files(inproc)
    assert len(_files(cold)) == 13


def test_pipeline_missing_file_is_data_error(tmp_path):
    done = _run_script("--data", tmp_path / "absent.csv", "--out", tmp_path / "out",
                       cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("data error: ")
    assert "absent.csv" in done.stderr and "Traceback" not in done.stderr


def test_pipeline_bad_row_is_data_error(tmp_path, dataset_path):
    with dataset_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[5][rows[0].index("point_victor")] = "9"
    src = tmp_path / "bad.csv"
    with src.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    done = _run_script("--data", src, "--out", tmp_path / "out", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("data error: row 5: bad point_victor value '9'")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()
