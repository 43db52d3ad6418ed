import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from tennis_momentum import cli
from tennis_momentum.cli import main, parse_config_file
from tennis_momentum.records import points_csv_text

from conftest import REPO_ROOT, make_record, make_timeline


@pytest.fixture()
def tiny_csv(tmp_path):
    """Complete two-match file with one AD cell."""
    rows = []
    for mid in ("m-a", "m-b"):
        tl = make_timeline([1, 2, 1, 1, 2, 1, 2, 2], match_id=mid)
        rows.extend(tl.records)
    import dataclasses

    rows[3] = dataclasses.replace(rows[3], p1_score=55, p2_score=40)
    path = tmp_path / "tiny.csv"
    path.write_text(points_csv_text(rows, ad_token=True), newline="")
    return path


def run(*args):
    return main([str(a) for a in args])


def test_clean_is_noop_modulo_ad(tiny_csv, tmp_path):
    out = tmp_path / "out"
    assert run("clean", "--data", tiny_csv, "--out", out) == 0
    cleaned = next((out / "all").glob("clean-*.csv"))
    original = tiny_csv.read_text()
    produced = cleaned.read_text()
    assert produced == original.replace("AD", "55")


def test_clean_reports_missing_and_imputes(tmp_path):
    records = list(make_timeline([1, 2, 1, 2]).records)
    import dataclasses

    records[1] = dataclasses.replace(records[1], speed_mph=None)
    src = tmp_path / "gap.csv"
    src.write_text(points_csv_text(records), newline="")
    out = tmp_path / "out"
    assert run("clean", "--data", src, "--out", out, "--format", "json") == 0
    missing = json.loads(next((out / "all").glob("missing-*.json")).read_text())
    rate = {row["column"]: row["missing_rate"] for row in missing}["speed_mph"]
    assert rate == 0.25
    cleaned = next((out / "all").glob("clean-*.csv"))
    assert ",,," not in cleaned.read_text().splitlines()[2]
    # a second clean pass of the cleaned file reports zero gaps
    out2 = tmp_path / "out2"
    assert run("clean", "--data", cleaned, "--out", out2, "--format", "json") == 0
    missing2 = json.loads(next((out2 / "all").glob("missing-*.json")).read_text())
    assert all(row["missing_rate"] == 0.0 for row in missing2)


def test_evaluate_two_rows_per_player_with_unit_window(tiny_csv, tmp_path):
    out = tmp_path / "out"
    src = tmp_path / "two.csv"
    src.write_text(
        points_csv_text(make_timeline([1, 2], match_id="m-a").records), newline=""
    )
    assert run("evaluate", "--data", src, "--match", "m-a", "--window", 1,
               "--out", out) == 0
    lines = next((out / "m-a").glob("momentum-*.csv")).read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 positions x 2 players


def test_evaluate_unknown_match_lists_available(tiny_csv, tmp_path, capsys):
    code = run("evaluate", "--data", tiny_csv, "--match", "nope",
               "--window", 2, "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert "m-a" in err and "m-b" in err


def _edit_cells(path, edits):
    """Rewrite cells of a CSV; ``edits`` maps (data row, column) to the new cell."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for (row, column), cell in edits.items():
        rows[row][rows[0].index(column)] = cell
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


# tiny_csv holds m-a in data rows 1-8 and m-b in rows 9-16


def test_scoped_command_ignores_bad_cells_of_other_matches(tiny_csv, tmp_path, capsys):
    _edit_cells(tiny_csv, {(10, "point_victor"): "9"})
    assert run("evaluate", "--data", tiny_csv, "--match", "m-a", "--window", 2,
               "--out", tmp_path / "out") == 0
    # an unscoped command still validates every row
    assert run("clean", "--data", tiny_csv, "--out", tmp_path / "out") == 2
    assert "data error: row 10: bad point_victor value '9'" in capsys.readouterr().err


def test_scoped_bad_cell_counts_skipped_rows(tiny_csv, tmp_path, capsys):
    _edit_cells(tiny_csv, {(10, "point_victor"): "9"})
    assert run("evaluate", "--data", tiny_csv, "--match", "m-b", "--window", 2,
               "--out", tmp_path / "out") == 2
    assert "data error: row 10: bad point_victor value '9'" in capsys.readouterr().err


def test_scoped_duplicate_key_names_both_file_rows(tiny_csv, tmp_path, capsys):
    # row 13 (game 2, point 1) takes the key of row 10 (game 1, point 2)
    _edit_cells(tiny_csv, {(13, "game_no"): "1", (13, "point_no"): "2"})
    assert run("evaluate", "--data", tiny_csv, "--match", "m-b", "--window", 2,
               "--out", tmp_path / "out") == 2
    assert (
        "data error: row 13: match m-b: duplicate point key (1, 1, 2) (rows 10 and 13)"
        in capsys.readouterr().err
    )


def test_scoped_command_fails_on_malformed_csv_in_other_match(tiny_csv, tmp_path, capsys):
    _edit_cells(tiny_csv, {(12, "serve_width"): "W" * 200_000})
    assert run("evaluate", "--data", tiny_csv, "--match", "m-a", "--window", 2,
               "--out", tmp_path / "out") == 2
    assert "data error: row 12: malformed CSV" in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path, capsys):
    assert run("clean") == 1  # --data missing
    assert run("nonsense", "--data", "x") == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_is_data_error(tmp_path):
    assert run("clean", "--data", tmp_path / "absent.csv",
               "--out", tmp_path / "out") == 2


def test_undecodable_file_is_data_error(tmp_path, capsys):
    records = make_timeline([1, 2, 1, 2]).records
    src = tmp_path / "latin1.csv"
    text = points_csv_text(records).replace(",A,", ",Jos\u00e9,", 1)
    src.write_bytes(text.encode("latin-1"))
    assert run("clean", "--data", src, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(src) in err and "0xe9" in err
    # the decoder reads ahead of the parser, so no row can be named
    assert "row" not in err.replace(str(src), "")


def test_oversized_cell_is_data_error(tmp_path, dataset_path, capsys):
    with dataset_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[5][rows[0].index("serve_width")] = "W" * 200_000
    src = tmp_path / "oversized.csv"
    with src.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert run("clean", "--data", src, "--out", tmp_path / "out") == 2
    assert "data error: row 5: malformed CSV" in capsys.readouterr().err


def test_window_longer_than_match_is_data_error(tiny_csv, tmp_path, capsys):
    assert run("evaluate", "--data", tiny_csv, "--match", "m-a", "--window", 9,
               "--out", tmp_path / "out") == 2
    assert "data error: window must be in [1, 8], got 9" in capsys.readouterr().err


def test_fewer_samples_than_folds_is_data_error(tiny_csv, tmp_path, capsys):
    assert run("predict", "--data", tiny_csv, "--match", "m-a", "--player", 1,
               "--folds", 6, "--out", tmp_path / "out") == 2
    assert "data error: need at least 6 samples" in capsys.readouterr().err


def test_predict_threshold_zero_accuracy_equals_base_rate(tmp_path):
    victors = [1, 2, 1, 1, 2, 1, 2, 2, 1, 1] * 4
    src = tmp_path / "m.csv"
    src.write_text(points_csv_text(make_timeline(victors, match_id="m-a").records),
                   newline="")
    out = tmp_path / "out"
    assert run("predict", "--data", src, "--match", "m-a", "--player", 1,
               "--threshold", 0, "--folds", 3, "--sigma-count", 5,
               "--out", out) == 0
    report = json.loads(
        next((out / "m-a").glob("predict-report-p1-*.json")).read_text()
    )
    n = len(victors) - 1  # drop-final default
    split = int(n * 0.7)
    omegas = [int(victors[i + 1] == 1) for i in range(split, n)]
    base_rate = sum(omegas) / len(omegas)
    assert report["acc"] == pytest.approx(base_rate)


@pytest.mark.parametrize("setting", [
    ("--threshold", "nan"), ("--threshold", "1.5"), ("--sigma-min", "nan"),
    ("--sigma-max", "nan"), ("--sigma-max", "inf"), ("--sigma-min", "-1"),
])
def test_non_finite_model_settings_are_usage_errors(dataset_path, tmp_path, capsys,
                                                    setting):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("predict", "--data", dataset_path, "--match", "2023-wimbledon-1310",
                   "--player", 1, *setting, "--out", out) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.splitlines()[-1].startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("points", range(2, 7))
def test_short_match_is_a_data_error_or_runs(dataset_path, tmp_path, capsys, points):
    match = "2023-wimbledon-1304"
    lines = dataset_path.read_text().splitlines()
    data = tmp_path / "short.csv"
    data.write_text("\n".join(lines[:1] + [ln for ln in lines if ln.startswith(match)][:points]))
    for command in sorted(cli._COMMANDS):
        code = run(command, "--data", data, "--match", match, "--out", tmp_path / "out")
        assert code in (0, 2), (command, capsys.readouterr().err)


def test_subcommands_are_byte_deterministic(tmp_path, dataset_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    common = ["--data", dataset_path, "--match", "2023-wimbledon-1310",
              "--player", 1, "--sigma-count", 8, "--folds", 3]
    for out in (out1, out2):
        assert run("predict", *common, "--out", out) == 0
        assert run("correlate", *common, "--out", out) == 0
        assert run("evaluate", *common, "--window", 20, "--out", out) == 0
        assert run("turning-points", *common, "--out", out) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_indicators_writes_pc_columns(tmp_path, dataset_path):
    out = tmp_path / "out"
    assert run("indicators", "--data", dataset_path, "--out", out,
               "--pca-components", 5) == 0
    header = next((out / "all").glob("indicators-*.csv")).read_text().splitlines()[0]
    cols = header.split(",")
    assert cols[:3] == ["match_id", "player", "segment"]
    assert "x22" in cols and "pc5" in cols and "pc6" not in cols


def test_expand_summary_not_worse_than_baseline(tmp_path, dataset_path):
    out = tmp_path / "out"
    assert run("expand", "--data", dataset_path, "--match", "2023-wimbledon-1304",
               "--player", 1, "--sigma-count", 8, "--folds", 3,
               "--out", out) == 0
    summary = json.loads(
        next((out / "2023-wimbledon-1304").glob("expand-summary-p1-*.json")).read_text()
    )
    assert summary["best_acc"] >= summary["baseline_acc"]
    assert summary["best_mse"] <= summary["baseline_mse"]


def test_expand_ranks_extras_on_training_prefix(tmp_path, dataset_path, timelines_by_id):
    from tennis_momentum import momentum
    from tennis_momentum.grnn import chronological_split, rank_extras_by_correlation

    out = tmp_path / "out"
    assert run("expand", "--data", dataset_path, "--match", "2023-wimbledon-1304",
               "--player", 1, "--sigma-count", 4, "--folds", 3, "--out", out) == 0
    path = next((out / "2023-wimbledon-1304").glob("expand-p1-*.csv"))
    with path.open(newline="") as fh:
        added = [row["added_feature"] for row in csv.DictReader(fh)][1:]

    tl = timelines_by_id["2023-wimbledon-1304"]
    samples = momentum.extract_momentum_samples(tl, 1, drop_final=True)
    _, y = momentum.sample_matrix(samples)
    extras = {k: v[: len(y)] for k, v in momentum.extra_feature_columns(tl, 1).items()}
    split = chronological_split(len(y), 0.7)
    prefix = {k: v[:split] for k, v in extras.items()}
    assert added == rank_extras_by_correlation(prefix, y[:split])
    # ranking on every label would read the test part, and orders differently
    assert added != rank_extras_by_correlation(extras, y)


@pytest.mark.parametrize("sigma_count", [6, 1])
def test_predict_report_writes_cv_curve(tmp_path, dataset_path, sigma_count):
    out = tmp_path / "out"
    assert run("predict", "--data", dataset_path, "--match", "2023-wimbledon-1310",
               "--player", 1, "--sigma-count", sigma_count, "--folds", 3,
               "--out", out) == 0
    report = json.loads(
        next((out / "2023-wimbledon-1310").glob("predict-report-p1-*.json")).read_text()
    )
    sigmas = [s for s, _ in report["cv_curve"]]
    assert len(sigmas) == sigma_count and sigmas == sorted(sigmas)
    assert sigmas[0] == pytest.approx(0.01)
    best = min(report["cv_curve"], key=lambda pair: pair[1])
    assert report["sigma"] == best[0]
    # a one-value grid always puts sigma on its edge
    assert report["sigma_at_grid_edge"] == (report["sigma"] in (sigmas[0], sigmas[-1]))


def test_report_includes_metrics(tmp_path, dataset_path):
    out = tmp_path / "out"
    assert run("report", "--data", dataset_path, "--match", "2023-wimbledon-1407",
               "--player", 1, "--sigma-count", 8, "--folds", 3,
               "--out", out) == 0
    payload = json.loads(
        next((out / "2023-wimbledon-1407").glob("report-*.json")).read_text()
    )
    assert payload["players"]["1"] == "Andrey Rublev"
    per = payload["per_player"]["1"]
    assert 0.0 <= per["baseline"]["acc"] <= 1.0
    assert set(per["omega_correlations"]) == {"S1", "S2", "S3", "S4"}


SMALL_MODEL = ["--sigma-count", 4, "--folds", 3]


@pytest.mark.parametrize("command,options", [
    ("clean", []), ("clean", ["--format", "json"]), ("indicators", []),
    ("evaluate", []), ("correlate", []), ("turning-points", []), ("predict", SMALL_MODEL),
    ("expand", SMALL_MODEL), ("report", SMALL_MODEL),
])
def test_printed_paths_are_the_files_written(dataset_path, tmp_path, capsys, command,
                                             options):
    scope = [] if command in ("clean", "indicators") else ["--match", "2023-wimbledon-1304"]
    out = tmp_path / "out"
    assert run(command, "--data", dataset_path, "--out", out, *scope, *options) == 0
    printed = capsys.readouterr().out.splitlines()
    # every file under --out, hidden temporary files included
    written = sorted(str(p) for p in out.rglob("*") if p.is_file())
    assert sorted(printed) == written and len(set(printed)) == len(printed)
    assert not list(out.rglob(".tmp-*"))


def test_predict_report_and_expand_step_zero_publish_one_fit(dataset_path, tmp_path):
    common = ["--data", dataset_path, "--match", "2023-wimbledon-1310", "--player", 2,
              *SMALL_MODEL, "--out", tmp_path]
    for command in ("predict", "report", "expand"):
        assert run(command, *common) == 0
    match_dir = tmp_path / "2023-wimbledon-1310"
    predict = json.loads(next(match_dir.glob("predict-report-p2-*.json")).read_text())
    report = json.loads(next(match_dir.glob("report-*.json")).read_text())
    with next(match_dir.glob("expand-p2-*.csv")).open(newline="") as fh:
        step0 = next(csv.DictReader(fh))
    fit = (predict["mse"], predict["acc"], predict["sigma"])
    baseline = report["per_player"]["2"]["baseline"]
    assert (baseline["mse"], baseline["acc"], baseline["sigma"]) == fit
    assert (float(step0["mse"]), float(step0["acc"]), float(step0["sigma"])) == fit


def test_every_csv_output_goes_through_write_rows(dataset_path, tmp_path, capsys,
                                                  monkeypatch):
    # the benchmark times CSV writing as the span of cli.write_rows
    calls = []
    real = cli.write_rows

    def counting(path, header, rows):
        calls.append(str(path))
        real(path, header, rows)

    monkeypatch.setattr(cli, "write_rows", counting)
    for command in cli._COMMANDS:
        assert run(command, "--data", dataset_path, "--match", "2023-wimbledon-1304",
                   *SMALL_MODEL, "--out", tmp_path) == 0
    printed = capsys.readouterr().out.splitlines()
    assert calls == [p for p in printed if p.endswith(".csv")]
    # clean 3, indicators 1, evaluate 1, then per player: correlate 1,
    # turning-points 2, predict 1, expand 1; report writes JSON only
    assert len(calls) == 3 + 1 + 1 + 2 * (1 + 2 + 1 + 1)


def test_config_file_layering(tmp_path, tiny_csv):
    config = tmp_path / "run.conf"
    config.write_text(
        "# demo config\n"
        f"data = {tiny_csv}\n"
        "window = 3\n"
        "format = json\n"
    )
    parsed = parse_config_file(config)
    assert parsed["window"] == 3
    out = tmp_path / "out"
    # flag overrides config value
    assert run("evaluate", "--config", config, "--match", "m-a",
               "--window", 2, "--out", out) == 0
    produced = next((out / "m-a").glob("momentum-*.csv")).read_text()
    assert len(produced.splitlines()) == 1 + 2 * (8 - 2 + 1)


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("turbo = yes\n")
    assert run("clean", "--config", config, "--data", "x.csv") == 1


@pytest.mark.parametrize("line, message", [
    ("format = xml", "bad value for format: 'xml'"),
    ("segmentation = match", "bad value for segmentation: 'match'"),
    ("player = 3", "bad value for player: 3"),
])
def test_config_file_value_outside_the_flag_choices(tmp_path, tiny_csv, capsys, line,
                                                    message):
    config = tmp_path / "bad.conf"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    assert run("clean", "--config", config, "--data", tiny_csv, "--out", out) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_every_setting_has_its_derived_flag():
    actions = {a.dest: a for a in cli.build_parser()._actions}
    for setting in dataclasses.fields(cli.RunConfig):
        if setting.name != "drop_final":
            flag = "--" + setting.name.replace("_", "-")
            assert actions[setting.name].option_strings == [flag]
    assert actions["drop_final"].option_strings == ["--keep-final-sample"]


def test_config_file_gives_the_config_of_the_equivalent_flags(tmp_path):
    settings = {
        "data": "x.csv", "match": "m-a", "player": 2, "out": "o", "format": "json",
        "segmentation": "game", "window": 7, "pca_components": 3, "folds": 4,
        "sigma_min": 0.05, "sigma_max": 1.5, "sigma_count": 9, "split_fraction": 0.6,
        "threshold": 0.4, "run_min": 2, "lookback": 30,
    }
    config = tmp_path / "all.conf"
    config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items())
                      + "drop_final = no\n")
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
    parser = cli.build_parser()
    from_file = cli.resolve_config(parser.parse_args(["clean", "--config", str(config)]))
    from_flags = cli.resolve_config(parser.parse_args(["clean", *flags,
                                                       "--keep-final-sample"]))
    assert from_file == from_flags == cli.RunConfig(**settings, drop_final=False)
    default = cli.RunConfig()
    assert all(getattr(from_file, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(default))


def test_config_file_that_cannot_be_read_is_a_usage_error(tmp_path, tiny_csv, capsys):
    out = tmp_path / "out"
    assert run("clean", "--config", tmp_path, "--data", tiny_csv, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"usage error: cannot read config file {tmp_path}: Is a directory\n")
    missing = tmp_path / "absent.conf"
    assert run("clean", "--config", missing, "--data", tiny_csv, "--out", out) == 1
    assert capsys.readouterr().err == f"usage error: config file not found: {missing}\n"
    latin = tmp_path / "latin.conf"
    latin.write_bytes("player = 1 # \u00e9\n".encode("latin-1"))
    assert run("clean", "--config", latin, "--data", tiny_csv, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"usage error: cannot read config file {latin}: not UTF-8 text: byte 0xe9 "
        "(invalid continuation byte)\n")
    assert not out.exists()


def test_unwritable_out_is_a_usage_error(tiny_csv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert run("clean", "--data", tiny_csv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {out / 'all'}/clean-")
    assert err.endswith(": Not a directory\n")
    assert not list(tmp_path.rglob(".tmp-*"))
    # a directory where the cleaned file goes
    out = tmp_path / "out"
    target = cli.Outputs(cli.RunConfig(data=str(tiny_csv), out=str(out))).path("clean", "csv")
    target.mkdir(parents=True)
    assert run("clean", "--data", tiny_csv, "--out", out) == 1
    assert capsys.readouterr().err == f"usage error: cannot write {target}: Is a directory\n"
    assert target.is_dir() and not list(tmp_path.rglob(".tmp-*"))
    # the input side still reports an OSError as a data error
    assert run("clean", "--data", tmp_path, "--out", tmp_path / "ok") == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("command", ["clean", "indicators", "evaluate"])
def test_distance_from_2_to_the_53_is_a_data_error(dataset_path, tmp_path, capsys,
                                                    command):
    with dataset_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + [row for row in rows[1:] if row[0] == "2023-wimbledon-1304"]
    rows[1][rows[0].index("p1_distance_run")] = "1e308"
    src = tmp_path / "far.csv"
    with src.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert run(command, "--data", src, "--match", "2023-wimbledon-1304",
               "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "data error: row 1: bad p1_distance_run value '1e308': must be below 2**53\n")


def test_indicators_on_one_segment_is_a_data_error(tmp_path, capsys):
    src = tmp_path / "one-set.csv"
    src.write_text(points_csv_text(make_timeline([1, 2, 1, 2]).records), newline="")
    out = tmp_path / "out"
    assert run("indicators", "--data", src, "--player", 1, "--out", out) == 2
    assert capsys.readouterr().err == "data error: pca_reduce needs more than one row\n"


# --- record laziness --------------------------------------------------------

def _counted_record_builds(monkeypatch):
    """A list that grows by one for every PointRecord the package builds."""
    from tennis_momentum import records

    builds = []
    real = records.PointRecord

    def counting(*args, **kwargs):
        builds.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(records, "PointRecord", counting)
    return builds


def test_record_build_counter_counts_the_records_a_timeline_builds(dataset_path,
                                                                    monkeypatch):
    from tennis_momentum.ingest import load_matches

    timeline = load_matches(dataset_path, "2023-wimbledon-1304")[0]
    builds = _counted_record_builds(monkeypatch)
    assert len(timeline.records) == len(timeline)
    assert len(builds) == len(timeline)
    assert len(timeline.records) == len(timeline)  # cached: no second build
    assert len(builds) == len(timeline)


@pytest.mark.parametrize(
    "command",
    ["clean", "indicators", "evaluate", "correlate", "turning-points", "predict",
     "expand", "report"],
)
def test_column_commands_build_no_records(dataset_path, tmp_path, monkeypatch, command):
    builds = _counted_record_builds(monkeypatch)
    scope = [] if command in ("clean", "indicators") else ["--match", "2023-wimbledon-1304"]
    assert run(command, "--data", dataset_path, "--out", tmp_path, *scope) == 0
    assert builds == []


def test_clean_leaves_the_loaded_columns_as_they_were(dataset_path, tmp_path, monkeypatch):
    from tennis_momentum.ingest import load_matches

    def stored(timelines):
        return [(tl._floats.tobytes(), [list(t) for t in tl._text]) for tl in timelines]

    timelines = load_matches(dataset_path)
    before = stored(timelines)
    builds = _counted_record_builds(monkeypatch)
    assert main(["clean", "--data", str(dataset_path), "--out", str(tmp_path)],
                timelines) == 0
    assert stored(timelines) == before
    # the cleaned file filled gaps that the loaded points still have
    assert any(None in tl._text[-1] for tl in timelines)
    assert main(["report", "--data", str(dataset_path), "--out", str(tmp_path),
                 "--match", "2023-wimbledon-1304"], timelines) == 0
    # equality and hashing read the stored values, not records
    assert timelines == load_matches(dataset_path)
    assert len(set(timelines + load_matches(dataset_path))) == len(timelines)
    assert builds == []


def test_evaluate_does_not_import_numpy_ma(dataset_path, tmp_path):
    # numpy.ma costs about 15 ms of every cold start that imports it
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}

    def loads_numpy_ma(code):
        probe = code + "\nimport sys\nprint('numpy.ma' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                capture_output=True, text=True)
        return result.stdout.split()[-1] == "True"

    if loads_numpy_ma("import numpy"):
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    argv = ["evaluate", "--data", str(dataset_path), "--match", "2023-wimbledon-1304",
            "--out", str(tmp_path)]
    assert not loads_numpy_ma(
        f"from tennis_momentum import cli\nassert cli.main({argv!r}) == 0"
    )


SRC_ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
LAYERS = {"errors", "ingest", "records", "indicators", "fuzzy", "momentum", "grnn"}


@pytest.mark.parametrize("commands, loaded", [
    ((), set()),
    (("clean",), {"errors", "ingest"}),
    (("indicators",), {"errors", "ingest", "indicators"}),
    (("evaluate",), {"errors", "ingest", "indicators", "fuzzy"}),
    (("predict", "expand"), {"errors", "ingest", "momentum", "grnn"}),
    (("correlate", "turning-points", "report"), {"errors", "ingest", "momentum", "grnn"}),
], ids=["import", "clean", "indicators", "evaluate", "predict-expand",
        "correlate-turning-points-report"])
def test_each_subcommand_loads_only_its_layers(dataset_path, tmp_path, commands, loaded):
    # a cold command pays for compiling and running every module it imports
    probe = "import tennis_momentum\n"
    if commands:
        probe += "from tennis_momentum import cli\n"
    for command in commands:
        argv = [command, "--data", str(dataset_path), "--match", "2023-wimbledon-1304",
                "--player", "1", "--sigma-count", "4", "--out", str(tmp_path)]
        probe += f"assert cli.main({argv!r}) == 0\n"
    probe += "import sys\nprint(*sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, check=True,
                            capture_output=True, text=True)
    modules = {m.split(".", 1)[1] for m in result.stdout.split()
               if m.startswith("tennis_momentum.")}
    assert modules & LAYERS == loaded


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["clean", "evaluate", "predict"])
def test_module_entry_point_does_what_main_does(dataset_path, tmp_path, capsys, command):
    # python -m tennis_momentum runs cli.entry, which freezes the collector
    # before the process exits; the files and printed paths must not change
    scoped = [] if command == "clean" else ["--match", "2023-wimbledon-1304",
                                            "--player", "1"]
    inproc, cold = tmp_path / "inproc", tmp_path / "cold"
    code = main([command, "--data", str(dataset_path), *scoped, "--out", str(inproc)])
    printed = capsys.readouterr().out.replace(str(inproc), str(cold))
    done = subprocess.run(
        [sys.executable, "-m", "tennis_momentum", command, "--data", str(dataset_path),
         *scoped, "--out", str(cold)],
        env=SRC_ENV, cwd=tmp_path, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (code, printed)
    assert code == 0 and printed
    assert _files(cold) == _files(inproc)


def test_module_entry_point_reports_a_data_error(dataset_path, tmp_path, capsys):
    argv = ["evaluate", "--data", str(dataset_path), "--match", "no-such-match",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    expected = capsys.readouterr().err
    done = subprocess.run([sys.executable, "-m", "tennis_momentum", *argv],
                          env=SRC_ENV, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == expected
    assert done.stderr.startswith("data error: ")
    assert not (tmp_path / "out").exists()
