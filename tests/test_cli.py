import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftscan
from driftscan import cli
from driftscan.cli import main
from driftscan.embeddings import EmbeddingMatrix, load_embeddings, save_embeddings


@pytest.fixture
def pair_files(tmp_path):
    rng = np.random.default_rng(0)
    ref = tmp_path / "ref.csv"
    target = tmp_path / "target.csv"
    save_embeddings(EmbeddingMatrix.from_array(rng.standard_normal((40, 3))), ref, "csv")
    save_embeddings(EmbeddingMatrix.from_array(rng.standard_normal((40, 3)) + 1.0), target, "csv")
    return str(ref), str(target)


def test_mmd_identical_inputs_prints_zero(tmp_path, capsys):
    p = tmp_path / "a.csv"
    save_embeddings(EmbeddingMatrix.from_array([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]]), p, "csv")
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


@pytest.mark.parametrize("flags", [["--window", "8192"], ["--batch-size", "0"], ["--alpha", "1.5"]])
def test_scan_checks_its_flags_before_reading_the_inputs(flags, monkeypatch, capsys):
    # a usage error costs no parse, and wins (exit 1) over an input that
    # cannot be read (exit 2)
    def unread(*args):
        raise AssertionError("scan read its inputs before checking its flags")

    monkeypatch.setattr(cli, "load_embeddings", unread)
    assert main(["scan", "--ref", "missing.csv", "--target", "missing.csv", *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_scan_stdout_when_no_out(pair_files, capsys):
    ref, target = pair_files
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8",
                 "--bootstraps", "5", "--seed", "1", "--split", "literal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["bootstraps"] == 5
    assert payload["config"]["split_policy"] == "literal_quarter"


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
    save_embeddings(EmbeddingMatrix.from_array(np.arange(12, dtype=float).reshape(6, 2)), src, "csv")
    assert main(["batch", "--input", str(src), "--batch-size", "2", "--no-shuffle",
                 "--out", str(out)]) == 0
    m = load_embeddings(out)
    assert m.rows == 3 and m.dims == 2
    np.testing.assert_allclose(m.values[0], [1.0, 2.0])


def test_extract_both_sides(pair_files, tmp_path):
    ref, target = pair_files
    report = tmp_path / "rep.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8",
                 "--bootstraps", "5", "--seed", "2", "--out", str(report)]) == 0
    out_ref = tmp_path / "cause_ref.csv"
    out_target = tmp_path / "cause_target.csv"
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                 "--which", "both", "--out-ref", str(out_ref), "--out-target", str(out_target)]) == 0
    assert load_embeddings(out_ref).rows == 8
    assert load_embeddings(out_target).rows == 8

    # single side requires --out
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                 "--which", "target"]) == 2
    single = tmp_path / "cause.bin"
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                 "--which", "target", "--out", str(single), "--out-format", "binary"]) == 0
    cause = load_embeddings(single)
    rep = json.loads(report.read_text())
    start, end = rep["cause_target"]
    expected = load_embeddings(target).values[start - 1 : end]
    np.testing.assert_array_equal(cause.values, expected)


def test_extract_rejects_report_with_out_of_range_config(pair_files, tmp_path, capsys):
    ref, target = pair_files
    report = tmp_path / "rep.json"
    assert main(["scan", "--ref", ref, "--target", target, "--window", "8",
                 "--bootstraps", "5", "--seed", "2", "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    payload["config"]["window"] = 1
    report.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["extract", "--ref", ref, "--target", target, "--report", str(report),
                 "--out", str(tmp_path / "cause.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {report}: not a valid drift report: window must be >= 2, got 1\n"
    assert captured.out == ""


def test_simulate_mixture_and_scan_roundtrip(tmp_path):
    mix = tmp_path / "mix.csv"
    assert main(["simulate", "mixture", "--n", "60", "--dims", "3", "--fraction", "0.4",
                 "--seed", "3", "--out", str(mix)]) == 0
    m = load_embeddings(mix)
    assert m.rows == 60 and m.dims == 3


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


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--window", "1", "--split", "literal"],
     "split 'literal_quarter' with windows of 1 rows leaves empty blocks"),
    (["calibrate", "--window", "3", "--split", "literal", "--estimator", "unbiased"],
     "unbiased estimator needs blocks of >= 2 rows"),
    (["scan", "--window", "3", "--split", "literal", "--estimator", "unbiased"],
     "unbiased estimator needs blocks of >= 2 rows"),
], ids=["calibrate-empty-blocks", "calibrate-unbiased", "scan-unbiased"])
def test_blocks_too_small_for_the_settings_exit_one(pair_files, capsys, argv, message):
    # the block size follows from the flags alone, so it is a usage error before any data is tested
    ref, target = pair_files
    inputs = ["--ref", ref, "--target", target] if argv[0] == "scan" else ["--trials", "2", "--n", "16"]
    assert main([*argv, *inputs, "--bootstraps", "19"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["scan", "--window", "8192"],
    ["scan", "--bootstraps", "1000000"],
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


def test_library_warning_prints_as_one_line(capsys):
    assert main(["correlate", "--profile", "1,1", "--n", "256", "--dims", "3",
                 "--batch-size", "32", "--window", "4", "--bootstraps", "5", "--seed", "2"]) == 0
    assert capsys.readouterr().err == "warning: degenerate drift profile: correlations are undefined\n"


def test_unknown_flag_exits_one(pair_files):
    ref, target = pair_files
    with pytest.raises(SystemExit) as exc:
        main(["mmd", "--ref", ref, "--target", target, "--frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["mmd", "--ref", "only.csv"])
    assert exc.value.code == 1


def test_unreadable_file_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["mmd", "--ref", missing, "--target", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_dimension_mismatch_exits_two(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_embeddings(EmbeddingMatrix.from_array([[1.0, 2.0]]), a, "csv")
    save_embeddings(EmbeddingMatrix.from_array([[1.0]]), b, "csv")
    assert main(["mmd", "--ref", str(a), "--target", str(b)]) == 2
    assert "dims" in capsys.readouterr().err


def test_window_too_large_exits_two(pair_files, capsys):
    ref, target = pair_files
    assert main(["scan", "--ref", ref, "--target", target, "--window", "100",
                 "--bootstraps", "5"]) == 2
    assert "window" in capsys.readouterr().err


def test_bad_bandwidth_value_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["mmd", "--ref", "a.csv", "--target", "b.csv", "--bandwidth", "-3"])
    assert exc.value.code == 1


def _child_env():
    # children import the same driftscan as this process, whatever the cwd
    return {**os.environ, "PYTHONPATH": str(Path(driftscan.__file__).resolve().parents[1])}


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats and scipy.spatial are slow to import; only correlate needs
    # the one and only the commands that compute distances the other, so
    # start-up (--help included) must pay for neither; nor for
    # concurrent.futures, which only the distance passes and calibrate use
    modules = ("scipy.stats", "scipy.spatial", "concurrent.futures")
    code = f"import sys, driftscan.cli; print(*(m in sys.modules for m in {modules!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False"


#: peak RSS allowed to a scan whose pooled median bandwidth spans 16000 rows
#: (128M distances: 1 GB as one pdist vector, about 2 GB with its partition)
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
        save_embeddings(EmbeddingMatrix.from_array(rng.standard_normal((8000, 8))), tmp_path / f"{side}.emb")
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
        save_embeddings(EmbeddingMatrix.from_array(rng.standard_normal((rows, 8))), work / f"{side}.emb")
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
    # at stride 1 and w = 32 a window's null (counts, their float copy and
    # their product with the Gram, 2 x 2000 x 64 numbers each) outweighs its
    # Gram 50-fold, so the budget must count it: runs of 32 such windows
    # would hold about 200 MB a thread
    (tmp_path / "tiny").mkdir()
    (tmp_path / "null").mkdir()
    base_mb = _peak_rss_mb(tmp_path / "tiny", 40, 8)
    peak_mb = _peak_rss_mb(tmp_path / "null", 95, 32, bootstraps=2000)
    assert peak_mb - base_mb < LARGE_NULL_MB, f"peak RSS {peak_mb:.0f} MB, tiny scan {base_mb:.0f} MB"
