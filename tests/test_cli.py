import errno
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftscan
from driftscan import cli, kernels
from driftscan.cli import main
from driftscan.embeddings import load_embeddings, save_embeddings


@pytest.fixture
def pair_files(tmp_path):
    rng = np.random.default_rng(0)
    ref = tmp_path / "ref.csv"
    target = tmp_path / "target.csv"
    save_embeddings(rng.standard_normal((40, 3)), ref, "csv")
    save_embeddings(rng.standard_normal((40, 3)) + 1.0, target, "csv")
    return str(ref), str(target)


def test_mmd_identical_inputs_prints_zero(tmp_path, capsys):
    p = tmp_path / "a.csv"
    save_embeddings([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]], p, "csv")
    assert main(["mmd", "--ref", str(p), "--target", str(p), "--estimator", "biased"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["squared"]) < 1e-12
    assert payload["config"]["estimator"] == "biased"
    assert payload["config"]["kernel"] == {"family": "rbf", "bandwidth": "median"}


def test_scan_writes_schema_compliant_report(pair_files, tmp_path, capsys):
    ref, target = pair_files
    out = tmp_path / "report.json"
    csv_out = tmp_path / "series.csv"
    code = main([
        "scan", "--ref", ref, "--target", target,
        "--window", "8", "--bootstraps", "19", "--seed", "7",
        "--out", str(out), "--csv-out", str(csv_out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    for key in ("config", "bandwidth_used", "windows", "summary_score", "summary_median",
                "argmax_index", "cause_reference", "cause_target"):
        assert key in report
    assert report["config"]["window"] == 8
    assert report["config"]["seed"] == 7
    assert report["config"]["alpha"] == 0.05  # default recorded
    assert report["config"]["cli"]["ref"] == ref
    lines = csv_out.read_text().splitlines()
    assert lines[1] == "t_index,observed_sq,boot_median,p_value"
    assert len(report["windows"]) == 40 - 8 + 1


MISSING_SIDES = ["--ref", "missing.csv", "--target", "missing.csv"]


@pytest.mark.parametrize("flags", [
    ["scan", *MISSING_SIDES, "--window", "8192"],
    ["scan", *MISSING_SIDES, "--batch-size", "0"],
    ["scan", *MISSING_SIDES, "--alpha", "1.5"],
    ["extract", *MISSING_SIDES, "--report", "missing.json", "--which", "target"],
    ["extract", *MISSING_SIDES, "--report", "missing.json", "--which", "both", "--out-ref", "ref.csv"],
    ["batch", "--input", "missing.csv", "--out", "out.csv", "--batch-size", "0"],
    ["batch", "--input", "missing.csv", "--out", "out.csv", "--seed", "-1"],
    ["batch", "--input", "missing.csv", "--out", "out.csv", "--seed", "-1", "--no-shuffle"],
])
def test_scan_checks_its_flags_before_reading_the_inputs(flags, monkeypatch, capsys):
    # scan, extract and batch: a usage error costs no parse, and wins
    # (exit 1) over an input that cannot be read (exit 2)
    def unread(*args):
        raise AssertionError(f"{flags[0]} read its inputs before checking its flags")

    monkeypatch.setattr(cli, "load_embeddings", unread)
    monkeypatch.setattr(cli, "load_report", unread)
    assert main(flags) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_scan_stride_past_the_rows_scans_the_first_window(pair_files, tmp_path):
    # any stride past rows - window leaves one window; a stride whose byte
    # offset overflows a C long must not reach the window views
    ref, target = pair_files
    outputs = []
    for stride in (10**18, 40):
        out, csv_out = tmp_path / f"{stride}.json", tmp_path / f"{stride}.csv"
        assert main(["scan", "--ref", ref, "--target", target, "--window", "8", "--bootstraps", "19",
                     "--stride", str(stride), "--out", str(out), "--csv-out", str(csv_out)]) == 0
        report = json.loads(out.read_text())
        outputs.append((report.pop("config"), report, csv_out.read_text().splitlines()[1:]))
    (huge, *scanned), (rows, *expected) = outputs
    assert scanned == expected and len(expected[0]["windows"]) == 1
    assert {**huge, "stride": 40} == rows  # only the config echo differs


@pytest.mark.parametrize("argv", [
    ["calibrate", "--trials", "1", "--n", str(10**15)],
    ["simulate", "mixture", "--n", str(10**15), "--dims", "1", "--out", "m.csv"],
], ids=["calibrate", "simulate-mixture"])
def test_allocation_past_the_address_space_exits_two(tmp_path, capsys, monkeypatch, argv):
    # 10**15 rows exceed any 64-bit address space, so numpy refuses the
    # allocation whatever the overcommit setting
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: not enough memory: Unable to allocate ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "m.csv").exists()


def test_scan_stdout_when_no_out(pair_files, capsys):
    ref, target = pair_files
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8",
                 "--bootstraps", "5", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["bootstraps"] == 5
    assert payload["config"]["rng_scheme"] == "lockstep-flip"


def test_scan_with_batching(pair_files, tmp_path):
    ref, target = pair_files
    out = tmp_path / "r.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "4",
                 "--bootstraps", "5", "--batch-size", "8", "--seed", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scanned_rows"] == 5  # 40 rows in batches of 8
    assert report["config"]["cli"]["batch_size"] == 8


def test_batch_subcommand(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    save_embeddings(np.arange(12, dtype=float).reshape(6, 2), src, "csv")
    assert main(["batch", "--input", str(src), "--batch-size", "2", "--no-shuffle",
                 "--out", str(out)]) == 0
    m = load_embeddings(out)
    assert m.shape == (3, 2)
    np.testing.assert_allclose(m[0], [1.0, 2.0])


def test_extract_both_sides(pair_files, tmp_path):
    ref, target = pair_files
    report = tmp_path / "rep.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8",
                 "--bootstraps", "5", "--seed", "2", "--out", str(report)]) == 0
    out_ref = tmp_path / "cause_ref.csv"
    out_target = tmp_path / "cause_target.csv"
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                 "--which", "both", "--out-ref", str(out_ref), "--out-target", str(out_target)]) == 0
    assert load_embeddings(out_ref).shape[0] == 8
    assert load_embeddings(out_target).shape[0] == 8

    # single side requires --out
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                 "--which", "target"]) == 1
    single = tmp_path / "cause.bin"
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                 "--which", "target", "--out", str(single), "--out-format", "binary"]) == 0
    cause = load_embeddings(single)
    rep = json.loads(report.read_text())
    start, end = rep["cause_target"]
    expected = load_embeddings(target)[start - 1 : end]
    np.testing.assert_array_equal(cause, expected)


@pytest.mark.parametrize("scheme", ["window-permutation", None])
def test_extract_reads_reports_of_the_earlier_nulls(pair_files, tmp_path, scheme):
    # reports written under the permutation null, or before the config named
    # its scheme, differ only in null fields, which extract does not read
    ref, target = pair_files
    report = tmp_path / "rep.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8",
                 "--bootstraps", "19", "--seed", "2", "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    if scheme is None:
        del payload["config"]["rng_scheme"]
    else:
        payload["config"]["rng_scheme"] = scheme
    report.write_text(json.dumps(payload))
    out = tmp_path / "cause.csv"
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report), "--out", str(out)]) == 0
    start, end = payload["cause_target"]
    np.testing.assert_array_equal(load_embeddings(out), load_embeddings(target)[start - 1:end])


def test_extract_rejects_report_with_out_of_range_config(pair_files, tmp_path, capsys):
    ref, target = pair_files
    report = tmp_path / "rep.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8",
                 "--bootstraps", "5", "--seed", "2", "--out", str(report)]) == 0
    scanned = report.read_text()
    for section, key, value, message in (
        ("config", "window", 0, "window must be >= 1, got 0"),
        ("kernel", "bandwidth", True, "fixed bandwidth must be a positive finite number, got True"),
        ("kernel", "bandwidth", 10**400, "int too large to convert to float"),
    ):
        payload = json.loads(scanned)
        config = payload["config"]
        (config if section == "config" else config[section])[key] = value
        report.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                     "--out", str(tmp_path / "cause.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {report}: not a valid drift report: {message}\n"
        assert captured.out == ""


def test_extract_reads_the_report_before_the_inputs(tmp_path, monkeypatch, capsys):
    # the inputs do not exist, so an error naming the report shows that it
    # was read first: a bad report costs no parse of the inputs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rep.json").write_text("not json")
    assert main(["extract", "--ref", "a.csv", "--target", "b.csv", "--report", "rep.json",
                 "--out", "cause.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: rep.json: not a valid drift report: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("span", [[500, 531], [0, 31], ["a", "b"]])
@pytest.mark.parametrize("side", ["cause_reference", "cause_target"])
def test_extract_rejects_cause_ranges_outside_the_rows(pair_files, tmp_path, capsys, side, span):
    # each range must be two ints, 1 <= start <= end <= that side's 40 rows;
    # else the report is invalid (exit 2) and no file is written
    ref, target = pair_files
    report = tmp_path / "rep.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8",
                 "--bootstraps", "5", "--seed", "2", "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    payload[side] = span
    report.write_text(json.dumps(payload))
    capsys.readouterr()
    outs = [tmp_path / "cause_ref.csv", tmp_path / "cause_target.csv"]
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                 "--which", "both", "--out-ref", str(outs[0]), "--out-target", str(outs[1])]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {report}: not a valid drift report: "
                            f"cause range {span!r} is not within rows 1..40\n")
    assert captured.out == ""
    assert not any(out.exists() for out in outs)


def test_simulate_mixture_and_scan_roundtrip(tmp_path):
    mix = tmp_path / "mix.csv"
    assert main(["simulate", "mixture", "--n", "60", "--dims", "3", "--fraction", "0.4",
                 "--seed", "3", "--out", str(mix)]) == 0
    m = load_embeddings(mix)
    assert m.shape == (60, 3)


def test_simulate_ratio_drift_table(tmp_path):
    out = tmp_path / "table.csv"
    code = main([
        "simulate", "ratio-drift", "--n", "400", "--dims", "3",
        "--fractions", "0.1,0.5,0.9", "--seed", "7", "--batch-size", "16",
        "--window", "8", "--bootstraps", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "fraction,summary_score"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["0.1", "0.5", "0.9"]
    scores = {float(r[0]): float(r[1]) for r in rows}
    assert min(scores, key=scores.get) == 0.5


def test_simulate_ratio_drift_documented_example(tmp_path):
    # the documented invocation: 5 fractions at protocol scale, minimum at 0.5
    out = tmp_path / "table.csv"
    code = main([
        "simulate", "ratio-drift", "--n", "5000", "--dims", "16",
        "--fractions", "0.1,0.3,0.5,0.7,0.9", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 5
    scores = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[2:]}
    assert min(scores, key=scores.get) == 0.5


def test_calibrate_prints_rate(capsys):
    assert main(["calibrate", "--trials", "10", "--n", "48", "--dims", "3",
                 "--window", "8", "--bootstraps", "19", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 10
    assert 0.0 <= payload["rate"] <= 1.0
    assert payload["config"]["bootstraps"] == 19


@pytest.mark.parametrize("bootstraps, warns", [(5, True), (18, True), (19, False), (50, False)])
def test_scan_warns_when_no_window_can_flag(pair_files, tmp_path, capsys, bootstraps, warns):
    ref, target = pair_files
    out = tmp_path / "report.json"
    argv = ["scan", "--ref", ref, "--target", target, "--window", "8",
            "--bootstraps", str(bootstraps), "--seed", "1", "--alpha", "0.05"]
    assert main(argv + ["--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert ("no window can be flagged" in err) is warns
    # the warning goes to stderr only: the report on stdout is the file's bytes
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()


def coarse_warning(window, what):
    """The warning for windows whose flip null has under 1/alpha values, at --alpha 0.05."""
    return (f"warning: a --window {window} null has 2^{window - 1} distinct values, so a {what} rarely flags "
            f"at --alpha 0.05; use --window >= 6\n")


#: the warning for --bootstraps 5 at --alpha 0.05
FEW_FLIPS_WARNING = ("warning: with --bootstraps 5 no p-value falls below 1/6 > --alpha 0.05, so no window "
                     "can be flagged; use --bootstraps >= 19\n")


@pytest.mark.parametrize("window, warns", [(2, True), (5, True), (6, False), (32, False)])
@pytest.mark.parametrize("command", ["scan", "calibrate", "simulate ratio-drift", "correlate"])
def test_coarse_flip_nulls_warn(pair_files, capsys, command, window, warns):
    # a window of w rows has 2^(w - 1) flip values, and a flip ties the
    # observed one with chance 2^(1 - w): at w <= 5 that is over alpha = 0.05
    ref, target = pair_files
    argv = {
        "scan": ["scan", "--ref", ref, "--target", target],
        "calibrate": ["calibrate", "--trials", "2", "--n", "32", "--dims", "3"],
        "simulate ratio-drift": ["simulate", "ratio-drift", "--n", "2048", "--dims", "3", "--fractions", "0.5",
                                 "--batch-size", "32"],
        "correlate": ["correlate", "--profile", "0,1", "--n", "2048", "--dims", "3", "--batch-size", "32"],
    }[command]
    assert main([*argv, "--window", str(window), "--bootstraps", "19"]) == 0
    what = "trial" if command == "calibrate" else "window"
    assert capsys.readouterr().err == (coarse_warning(window, what) if warns else "")


def test_calibrate_warns_when_no_trial_can_reject(capsys):
    assert main(["calibrate", "--trials", "4", "--n", "24", "--dims", "2",
                 "--window", "8", "--bootstraps", "9", "--alpha", "0.05"]) == 0
    captured = capsys.readouterr()
    assert "no trial can be flagged" in captured.err
    assert json.loads(captured.out)["rejections"] == 0


@pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
def test_calibrate_rejects_alpha_outside_zero_one(capsys, alpha):
    assert main(["calibrate", "--trials", "2", "--n", "16", "--window", "8", "--bootstraps", "9",
                 "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: alpha must be in (0, 1), got {float(alpha)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [("--bootstraps", "0"), ("--window", "0"), ("--dims", "0")])
def test_calibrate_usage_errors_exit_one(capsys, flag, value):
    assert main(["calibrate", "--trials", "2", "--n", "16", "--window", "8", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag[2:]} must be >= 1, got {value}\n"
    assert captured.out == ""


def test_blocks_too_small_for_the_settings_exit_one(capsys):
    # the block size follows from the flags alone, so it is a usage error before any data is tested
    assert main(["calibrate", "--window", "1", "--estimator", "unbiased", "--trials", "2", "--n", "16",
                 "--bootstraps", "19"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unbiased estimator needs blocks of >= 2 rows\n"
    assert captured.out == ""


def test_calibrate_runs_one_row_windows_with_the_biased_estimator(capsys):
    # a one-row window runs, though its one pair has a single flip value, so it never flags
    assert main(["calibrate", "--window", "1", "--trials", "3", "--n", "16", "--bootstraps", "19"]) == 0
    captured = capsys.readouterr()
    assert captured.err == coarse_warning(1, "trial")
    assert json.loads(captured.out)["rejections"] == 0
    payload = json.loads(captured.out)
    assert payload["trials"] == 3
    assert payload["config"]["window"] == 1


def test_scan_runs_one_row_windows_and_extract_reads_the_report(pair_files, tmp_path, capsys):
    # scan takes the windows calibrate takes: none of 0 rows, and a one-row
    # window, whose one pair has a single flip value, so every p-value is 1
    ref, target = pair_files
    assert main(["scan", "--ref", ref, "--target", target, "--window", "0"]) == 1
    assert capsys.readouterr() == ("", "error: window must be >= 1, got 0\n")
    report = tmp_path / "rep.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "1", "--bootstraps", "19",
                 "--out", str(report)]) == 0
    assert capsys.readouterr().err == coarse_warning(1, "window")
    windows = json.loads(report.read_text())["windows"]
    assert len(windows) == 40
    assert all(w["p_value"] == 1.0 and not w["flagged"] for w in windows)
    cause = tmp_path / "cause.csv"
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report), "--out", str(cause)]) == 0
    assert capsys.readouterr().err == ""
    assert load_embeddings(cause).shape == (1, 3)


@pytest.mark.parametrize("argv", [
    ["scan", "--window", "8192"],
    ["scan", "--bootstraps", "2000000"],
    ["calibrate", "--trials", "2", "--n", "8192", "--window", "8192"],
], ids=["scan-window", "scan-bootstraps", "calibrate-window"])
def test_window_over_the_memory_limit_exits_one(pair_files, capsys, argv):
    # one window test would need over 2 GB (a 2w x 2w Gram, or its null's
    # k x 2w arrays); the flags alone refuse it, before any window is built
    ref, target = pair_files
    inputs = ["--ref", ref, "--target", target] if argv[0] == "scan" else []
    assert main([*argv, *inputs]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: windows of ") and captured.err.count("\n") == 1
    assert "resample.WINDOW_NUMBERS" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "mixture", "--n", "10", "--out", "mix.csv"],
    ["simulate", "ratio-drift", "--n", "64"],
    ["correlate", "--profile", "0,1", "--n", "64"],
], ids=lambda argv: argv[-3] if argv[0] == "simulate" else argv[0])
def test_zero_dims_exits_one_without_traceback(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--dims", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: dims must be >= 1, got 0\n"
    assert captured.out == ""
    assert not (tmp_path / "mix.csv").exists()


def _spy_on_mixtures(monkeypatch) -> list:
    # the name of every mixture generator the studies and simulate mixture call, in order; none draws
    from driftscan import simharness

    drawn = []
    for module, name in ((simharness, "generate_mixture"), (simharness, "generate_labeled_mixture"),
                         (cli, "generate_mixture")):
        monkeypatch.setattr(module, name, lambda spec, name=name: drawn.append(name))
    return drawn


@pytest.mark.parametrize("argv", [
    ["simulate", "ratio-drift", "--n", "64"],
    ["correlate", "--profile", "0,1", "--n", "64"],
], ids=lambda argv: argv[0] if argv[0] != "simulate" else "ratio-drift")
def test_studies_check_the_batch_size_before_drawing_a_mixture(capsys, monkeypatch, argv):
    drawn = _spy_on_mixtures(monkeypatch)
    assert main([*argv, "--batch-size", "0"]) == 1
    assert capsys.readouterr().err == "error: batch_size must be >= 1, got 0\n"
    assert drawn == []


def test_ratio_drift_checks_every_fraction_before_drawing_a_mixture(capsys, monkeypatch):
    drawn = _spy_on_mixtures(monkeypatch)
    assert main(["simulate", "ratio-drift", "--n", "64", "--fractions", "0.5,1.5"]) == 1
    assert capsys.readouterr().err == "error: positive_fraction must be in [0, 1], got 1.5\n"
    assert drawn == []


MIXTURE = ["simulate", "mixture", "--n", "10", "--dims", "2", "--out", "mix.csv"]


@pytest.mark.parametrize("argv, message", [
    ([*MIXTURE, "--separation", "nan"], "separation must be finite, got nan"),
    ([*MIXTURE, "--scale", "inf"], "scale must be finite, got inf"),
    ([*MIXTURE, "--separation", "1e308", "--scale", "10"], "class means overflow at scale 10.0, separation 1e+308"),
    # finite in float64, but the mixture is stored as float32
    ([*MIXTURE, "--scale", "1e39"], "class means overflow at scale 1e+39, separation 4.0, shift 0.0, past float32"),
    ([*MIXTURE, "--scale", "1e308", "--separation", "1"], "class means overflow at scale 1e+308, separation 1.0"),
    (["correlate", "--profile", "0,inf", "--n", "64"], "shift must be finite, got inf"),
], ids=["separation-nan", "scale-inf", "means-overflow", "means-past-float32", "means-past-float32-separation-1",
        "correlate-shift-inf"])
def test_non_finite_class_means_fail_before_drawing_a_mixture(tmp_path, capsys, monkeypatch, argv, message):
    drawn = _spy_on_mixtures(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert drawn == []
    assert not (tmp_path / "mix.csv").exists()


def test_correlate_writes_table_and_correlations(tmp_path, capsys):
    out = tmp_path / "buckets.csv"
    code = main([
        "correlate", "--profile", "0,1.5,3", "--n", "512", "--dims", "3",
        "--batch-size", "32", "--window", "8", "--bootstraps", "5",
        "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pearson_drift_bce"] > 0
    assert payload["pearson_drift_auc"] < 0
    lines = out.read_text().splitlines()
    assert lines[1] == "bucket_id,drift,bce,auc"
    assert len(lines) == 5


def test_correlate_degenerate_profile_gives_null(capsys):
    code = main(["correlate", "--profile", "1,1,1", "--n", "256", "--dims", "3",
                 "--batch-size", "32", "--window", "4", "--bootstraps", "5", "--seed", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pearson_drift_bce"] is None
    assert payload["pearson_drift_auc"] is None


def test_correlate_at_zero_separation_gives_null(capsys):
    # the scorer's weight is 0, so every bucket's BCE and AUC are the same
    code = main(["correlate", "--profile", "0,1,2", "--n", "256", "--dims", "3", "--separation", "0",
                 "--batch-size", "32", "--window", "4", "--bootstraps", "5", "--seed", "2"])
    assert code == 0
    captured = capsys.readouterr()
    # the scan's settings warn first, then the library's undefined correlations
    assert captured.err == (FEW_FLIPS_WARNING + coarse_warning(4, "window")
                            + "warning: pearson undefined for zero-variance input\n" * 2)
    payload = json.loads(captured.out)
    assert payload["pearson_drift_bce"] is None
    assert payload["pearson_drift_auc"] is None


def test_library_warning_prints_as_one_line(capsys):
    assert main(["correlate", "--profile", "1,1", "--n", "256", "--dims", "3",
                 "--batch-size", "32", "--window", "4", "--bootstraps", "5", "--seed", "2"]) == 0
    assert capsys.readouterr().err == (FEW_FLIPS_WARNING + coarse_warning(4, "window")
                                       + "warning: degenerate drift profile: correlations are undefined\n")


@pytest.fixture
def study_files(tmp_path, monkeypatch):
    """ref.csv, a 200-row prod.csv and a scan's report.json, in the working directory."""
    rng = np.random.default_rng(4)
    save_embeddings(rng.standard_normal((200, 3)), tmp_path / "ref.csv", "csv")
    save_embeddings(rng.standard_normal((200, 3)) + 0.5, tmp_path / "prod.csv", "csv")
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "--ref", "ref.csv", "--target", "prod.csv", "--window", "32", "--bootstraps", "19",
                 "--out", "report.json"]) == 0
    return tmp_path


@pytest.mark.parametrize("argv, message", [
    (["scan", "--ref", "ref.csv", "--target", "prod.csv", "--out", "same.out", "--csv-out", "same.out"],
     "--csv-out names the same file as --out: same.out"),
    (["extract", "--ref", "ref.csv", "--target", "prod.csv", "--report", "report.json", "--which", "target",
      "--out", "prod.csv"], "--out names the same file as --target: prod.csv"),
    (["extract", "--ref", "ref.csv", "--target", "prod.csv", "--report", "report.json", "--which", "both",
      "--out-ref", "x.csv", "--out-target", "x.csv"], "--out-target names the same file as --out-ref: x.csv"),
    (["batch", "--input", "prod.csv", "--out", "prod.csv"], "--out names the same file as --input: prod.csv"),
    (["batch", "--input", "prod.csv", "--out", "./prod.csv"], "--out names the same file as --input: ./prod.csv"),
], ids=["scan-out-is-csv-out", "extract-out-is-target", "extract-out-ref-is-out-target", "batch-out-is-input",
        "batch-out-is-input-by-another-name"])
def test_an_output_on_another_file_of_the_command_exits_one(study_files, capsys, argv, message):
    before = {p.name: p.read_bytes() for p in study_files.iterdir()}
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert {p.name: p.read_bytes() for p in study_files.iterdir()} == before


@pytest.mark.parametrize("linked, argv, message", [
    ("report.json", ["scan", "--ref", "ref.csv", "--target", "prod.csv", "--out", "report.json", "--csv-out", "link.csv"],
     "--csv-out names the same file as --out: link.csv"),
    ("prod.csv", ["batch", "--input", "prod.csv", "--batch-size", "4", "--out", "link.csv"],
     "--out names the same file as --input: link.csv"),
    ("prod.csv", ["extract", "--ref", "ref.csv", "--target", "prod.csv", "--report", "report.json",
                  "--which", "target", "--out", "link.csv"], "--out names the same file as --target: link.csv"),
], ids=["scan", "batch", "extract"])
def test_an_output_hard_linked_to_another_file_of_the_command_exits_one(study_files, capsys, linked, argv, message):
    # link.csv is a second name of the file, which a comparison of real paths does not see
    os.link(linked, "link.csv")
    before = {p.name: p.read_bytes() for p in study_files.iterdir()}
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert {p.name: p.read_bytes() for p in study_files.iterdir()} == before


@pytest.mark.skipif(not os.path.exists(os.devnull) or os.path.isfile(os.devnull), reason="no null device")
def test_outputs_may_share_the_null_device(study_files):
    assert main(["scan", "--ref", "ref.csv", "--target", "ref.csv", "--window", "32", "--bootstraps", "19",
                 "--out", os.devnull, "--csv-out", os.devnull]) == 0


def test_unknown_flag_exits_one(pair_files):
    ref, target = pair_files
    with pytest.raises(SystemExit) as exc:
        main(["mmd", "--ref", ref, "--target", target, "--frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["scan", "--ref", "ref.csv", "--target", "target.csv"],
    ["simulate", "ratio-drift"],
    ["correlate", "--profile", "0,1"],
    ["calibrate"],
], ids=lambda argv: argv[0] if argv[0] != "simulate" else "ratio-drift")
def test_split_is_an_unknown_flag(argv, capsys):
    # the null has one form, flips of the row pairs; --split no longer chooses its blocks
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--split", "paired"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --split paired" in capsys.readouterr().err


def test_missing_required_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["mmd", "--ref", "only.csv"])
    assert exc.value.code == 1


def test_unreadable_file_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["mmd", "--ref", missing, "--target", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("blob, message", [
    (b"EMB1\x00\x00", "truncated binary header (6 bytes)"),
    (b"EMB1" + bytes(8), "dims must be >= 1, got 0"),
    (b"1,2\n\xff\n", "not valid UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
], ids=["short-binary-header", "zero-dims-binary-header", "csv-not-utf8"])
def test_unparseable_input_file_exits_two(tmp_path, capsys, blob, message):
    bad = tmp_path / "bad.emb"
    bad.write_bytes(blob)
    assert main(["mmd", "--ref", str(bad), "--target", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def test_unreadable_report_exits_two(pair_files, tmp_path, capsys):
    ref, target = pair_files
    missing = tmp_path / "missing.json"
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(missing),
                 "--out", str(tmp_path / "cause.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read {missing}: {os.strerror(errno.ENOENT)}\n")
    assert not (tmp_path / "cause.csv").exists()


@pytest.mark.parametrize("fractions, message", [
    ("a,b", "expected comma-separated numbers, got 'a,b'"),
    (",", "expected at least one number"),
])
def test_fractions_that_are_not_a_list_of_numbers_exit_one(capsys, fractions, message):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "ratio-drift", "--fractions", fractions])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"driftscan simulate ratio-drift: error: argument --fractions: {message}"]


def test_dimension_mismatch_exits_two(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_embeddings([[1.0, 2.0]], a, "csv")
    save_embeddings([[1.0]], b, "csv")
    assert main(["mmd", "--ref", str(a), "--target", str(b)]) == 2
    assert "dims" in capsys.readouterr().err


def test_extract_dimension_mismatch_exits_two_before_writing(pair_files, tmp_path, capsys):
    ref, target = pair_files
    report = tmp_path / "rep.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8", "--bootstraps", "5",
                 "--out", str(report)]) == 0
    narrow = tmp_path / "narrow.csv"
    save_embeddings(np.zeros((40, 2)), narrow, "csv")  # the report's rows, one column short
    outs = [tmp_path / "cause_ref.csv", tmp_path / "cause_target.csv"]
    assert main(["extract", "--ref", ref, "--target", str(narrow), "--report", str(report), "--which", "both",
                 "--out-ref", str(outs[0]), "--out-target", str(outs[1])]) == 2
    assert "dims" in capsys.readouterr().err
    assert not any(out.exists() for out in outs)


def test_mmd_over_the_memory_limit_exits_two(pair_files, monkeypatch, capsys):
    # the row counts come from the data, so a data error (exit 2), with the
    # limit patched small so that no large array is built: 40 + 40 rows
    # need 6400 Gram entries
    monkeypatch.setattr(importlib.import_module("driftscan.mmd"), "WINDOW_NUMBERS", 6399)
    ref, target = pair_files
    assert main(["mmd", "--ref", ref, "--target", target]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: MMD of 40 and 40 rows needs ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_window_too_large_exits_two(pair_files, capsys):
    ref, target = pair_files
    assert main(["scan", "--ref", ref, "--target", target, "--window", "100",
                 "--bootstraps", "5"]) == 2
    assert "window" in capsys.readouterr().err


def test_bad_bandwidth_value_exits_one(tmp_path, monkeypatch, capsys):
    # the input files do not exist, so exit 1 (not 2) shows that no file was read; at
    # 1e-200 the kernel's divisor -2 * bandwidth**2 rounds to -0.0, which once gave NaN,
    # and at 1e160 it is -inf, which once gave MMD^2 0 for any inputs
    monkeypatch.chdir(tmp_path)
    for command in ("mmd", "scan"):
        for value in ("-3", "0", "nan", "inf", "foo", "1e-200", "1e160"):
            assert main([command, "--ref", "a.csv", "--target", "b.csv", "--bandwidth", value]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_the_smallest_accepted_bandwidth_prints_no_warning(pair_files, capsys):
    # at 1.5e-162 each nonzero distance over the kernel's divisor overflows to -inf, whose exp 0 is exact
    ref, target = pair_files
    assert main(["mmd", "--ref", ref, "--target", target, "--bandwidth", "1.5e-162"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["squared"] > 0


def _child_env():
    # children import the same driftscan as this process, whatever the cwd
    return {**os.environ, "PYTHONPATH": str(Path(driftscan.__file__).resolve().parents[1])}


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats and scipy.spatial are slow to import; only correlate needs
    # the one and only the median bandwidth of a small pool (one pdist) the
    # other, so start-up (--help included) must pay for neither; nor for
    # concurrent.futures, which only the distance passes and calibrate use;
    # nor for numpy.ma and numpy.random, which numpy imports on first use
    modules = ("scipy.stats", "scipy.spatial", "concurrent.futures", "numpy.ma", "numpy.random")
    code = f"import sys, driftscan.cli; print(*(m in sys.modules for m in {modules!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False False False"


#: runs the CLI on its arguments, then prints whether scipy.spatial was imported
SPATIAL_WRAPPER = """
import sys
from driftscan.cli import main
code = main(sys.argv[1:])
print("scipy.spatial" in sys.modules)
sys.exit(code)
"""


def test_scan_past_the_one_pdist_pool_leaves_scipy_spatial_out(tmp_path):
    # 2200 pooled rows have more than BLOCK_DISTANCES pairs, so the median
    # goes through blocks, and 6000 more than EXACT_PAIRS, so it is of a
    # sample of pairs; every distance of the scan is summed in numpy
    assert 2200 * 2199 // 2 > kernels.BLOCK_DISTANCES and 6000 * 5999 // 2 > kernels.EXACT_PAIRS
    argv = [sys.executable, "-c", SPATIAL_WRAPPER, "scan", "--ref", "ref.emb", "--target", "target.emb",
            "--window", "32", "--bootstraps", "19", "--stride", "256", "--out", "report.json"]
    rng = np.random.default_rng(33)
    for rows in (1100, 3000):
        for side in ("ref", "target"):
            save_embeddings(rng.standard_normal((rows, 8)), tmp_path / f"{side}.emb")
        proc = subprocess.run(argv, cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False", f"{2 * rows} pooled rows"


def test_scan_leaves_numpy_ma_out(tmp_path):
    # np.median imports numpy.ma on first use, which takes longer than a
    # small scan's windows; the scan's medians come from a partition. The
    # bandwidth is fixed: a small pool's median takes one pdist, and
    # scipy.spatial imports numpy.ma itself
    argv = [sys.executable, "-c", SPATIAL_WRAPPER.replace("scipy.spatial", "numpy.ma"), "scan", "--ref", "ref.emb",
            "--target", "target.emb", "--window", "8", "--bootstraps", "19", "--bandwidth", "1.5",
            "--out", "report.json", "--csv-out", "series.csv"]
    rng = np.random.default_rng(34)
    for side in ("ref", "target"):
        save_embeddings(rng.standard_normal((40, 3)), tmp_path / f"{side}.emb")
    proc = subprocess.run(argv, cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


#: peak RSS allowed to a scan whose pooled median bandwidth spans 16000 rows.
#: Their 128M pairs are over EXACT_PAIRS, so the median is of a fixed sample
#: of 2**18 pairs (2 MB); all 128M distances would take 1 GB
SCAN_RSS_BOUND_MB = 512

#: runs the CLI on its arguments, then prints the process's own peak RSS
#: (VmHWM, in kB) as the last line of stdout. The rusage of a reaped child
#: is no use here: on Linux its ru_maxrss starts from the parent's RSS at
#: the fork, so a large test process inflates it.
PEAK_RSS_WRAPPER = """
import sys
from driftscan.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status for the child's own peak RSS")
def test_scan_memory_stays_bounded_on_a_large_pool(tmp_path):
    rng = np.random.default_rng(31)
    for side in ("ref", "target"):
        save_embeddings(rng.standard_normal((8000, 8)), tmp_path / f"{side}.emb")
    argv = [sys.executable, "-c", PEAK_RSS_WRAPPER, "scan", "--ref", "ref.emb", "--target", "target.emb",
            "--window", "32", "--bootstraps", "19", "--stride", "512", "--out", "report.json"]
    proc = subprocess.run(argv, cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb < SCAN_RSS_BOUND_MB, f"peak RSS {peak_mb:.0f} MB"
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["windows"]) == len(range(32, 8001, 512))


#: a --window 512 scan may peak at most this many of its windows' 8 MB pool
#: Grams above a tiny scan; one window_test per window peaked at about four
WIDE_WINDOW_GRAMS = 5


def _peak_rss_mb(work: Path, rows: int, window: int, bootstraps: int = 50) -> float:
    rng = np.random.default_rng(32)
    for side in ("ref", "target"):
        save_embeddings(rng.standard_normal((rows, 8)), work / f"{side}.emb")
    argv = [sys.executable, "-c", PEAK_RSS_WRAPPER, "scan", "--ref", "ref.emb", "--target", "target.emb",
            "--window", str(window), "--bootstraps", str(bootstraps), "--stride", "1", "--out", "report.json"]
    proc = subprocess.run(argv, cwd=work, env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((work / "report.json").read_text())["windows"]) == rows - window + 1
    return int(proc.stdout.split()[-1]) / 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status for the child's own peak RSS")
def test_wide_window_scan_memory_stays_within_a_few_window_grams(tmp_path):
    # at stride 1, runs of overlapping windows share a pool Gram over their
    # union; the runs and the windows in flight must keep to the budget
    (tmp_path / "tiny").mkdir()
    (tmp_path / "wide").mkdir()
    base_mb = _peak_rss_mb(tmp_path / "tiny", 40, 8)
    peak_mb = _peak_rss_mb(tmp_path / "wide", 600, 512)
    gram_mb = (2 * 512) ** 2 * 8 / 2**20
    assert peak_mb - base_mb < WIDE_WINDOW_GRAMS * gram_mb, f"peak RSS {peak_mb:.0f} MB, tiny scan {base_mb:.0f} MB"


#: the window phase's arrays in flight hold about BLOCK_DISTANCES (2**21)
#: numbers, 16 MB; a --bootstraps 2000 scan may peak at most twice that
#: above a tiny scan
LARGE_NULL_MB = 32


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status for the child's own peak RSS")
def test_large_null_scan_memory_stays_within_the_budget(tmp_path):
    # at stride 1 and w = 32 a window's null (its flips and their product
    # with H, 2000 x 32 numbers each) outweighs its 64 x 64 Gram about
    # 30-fold, so the budget must count it: runs of 32 such windows would
    # hold about 33 MB
    (tmp_path / "tiny").mkdir()
    (tmp_path / "null").mkdir()
    base_mb = _peak_rss_mb(tmp_path / "tiny", 40, 8)
    peak_mb = _peak_rss_mb(tmp_path / "null", 95, 32, bootstraps=2000)
    assert peak_mb - base_mb < LARGE_NULL_MB, f"peak RSS {peak_mb:.0f} MB, tiny scan {base_mb:.0f} MB"
