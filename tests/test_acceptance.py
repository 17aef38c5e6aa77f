"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output on failure) and enforces the criterion's tolerances and,
where stated, its runtime bound.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import driftscan
from driftscan.embeddings import (
    DegenerateInputError,
    FormatError,
    ValidationError,
    as_embeddings,
    load_embeddings,
    save_embeddings,
)
from driftscan.kernels import KernelSpec, median_heuristic_bandwidth
from driftscan.mmd import mmd
from driftscan.rng import derive_rng
from driftscan.scan import ScanConfig, drift_scan
from driftscan.simharness import (ClassMixtureSpec, bce, correlation_study, generate_labeled_mixture,
                                  null_calibration, ratio_drift_study)
from oracle import mmd_oracle


def record(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} [{detail}]", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def test_c1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    kernels = (KernelSpec("rbf", "median"), KernelSpec("linear"))
    estimators = ("biased", "unbiased")
    worst = 0.0
    for i in range(50):
        rows1 = int(rng.integers(2, 65))
        rows2 = int(rng.integers(2, 65))
        dims = int(rng.integers(1, 17))
        q1 = as_embeddings(rng.standard_normal((rows1, dims)))
        q2 = as_embeddings(rng.standard_normal((rows2, dims)))
        spec = kernels[i % 2]
        estimator = estimators[(i // 2) % 2]
        fast = mmd(spec, q1, q2, estimator)[0]
        slow = mmd_oracle(spec, q1, q2, estimator)[0]
        if abs(slow) < 1e-2:
            ok = abs(fast - slow) <= 1e-12
            worst = max(worst, abs(fast - slow))
        else:
            rel = abs(fast - slow) / abs(slow)
            ok = rel <= 1e-10
            worst = max(worst, rel)
        assert ok, f"instance {i}: fast={fast!r} oracle={slow!r}"
    elapsed = time.perf_counter() - start
    record(1, "oracle equivalence", elapsed < 5.0,
           f"50 instances agree, worst deviation {worst:.2e}, {elapsed:.2f}s < 5s")


def test_c2_null_calibration():
    start = time.perf_counter()
    p_values = null_calibration(trials=200, n=512, dims=8, window=32, bootstraps=199, seed=2002)
    elapsed = time.perf_counter() - start
    rate = (p_values <= 0.05).mean()
    ok = 0.02 <= rate <= 0.10 and elapsed < 60.0
    record(2, "null calibration", ok,
           f"rejection rate {rate:.3f} in [0.02, 0.10], {elapsed:.1f}s < 60s")


def test_c3_unbiasedness():
    rng = np.random.default_rng(3003)
    spec = KernelSpec("rbf", 1.0)
    values = np.empty(500)
    for i in range(500):
        q1 = as_embeddings(rng.standard_normal((16, 4)))
        q2 = as_embeddings(rng.standard_normal((16, 4)))
        values[i] = mmd(spec, q1, q2, "unbiased")[0]
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / np.sqrt(500)
    record(3, "unbiasedness", abs(mean) <= 3 * se,
           f"mean {mean:.2e} within 3 SE ({3 * se:.2e}) of 0 over 500 trials")


def test_c4_monotone_drift_response():
    config = ScanConfig(window=32, bootstraps=50, seed=4004)
    scores = []
    for shift in (0.0, 1.0, 2.0, 4.0):
        data_rng = derive_rng(4004, "ladder", int(shift * 1000))
        ref = data_rng.standard_normal((2000, 8))
        target = data_rng.standard_normal((2000, 8))
        target[:, 0] += shift  # mean shift of `shift` sigma along one axis
        report = drift_scan(
            ref, target,
            config,
        )
        scores.append(report["summary_score"])
    increasing = all(a < b for a, b in zip(scores, scores[1:]))
    record(4, "monotone drift response", increasing,
           "summary scores " + " < ".join(f"{s:.4f}" for s in scores))


def test_c5_ratio_drift_shape():
    start = time.perf_counter()
    base = ClassMixtureSpec(dims=16, n=5000, positive_fraction=0.5, seed=7, scale=1.0, separation=4.0)
    scan = ScanConfig(window=32, bootstraps=50, seed=7)
    fractions = [0.1, 0.3, 0.5, 0.7, 0.9]
    table = dict(ratio_drift_study(base, fractions, scan, batch_size=64))
    elapsed = time.perf_counter() - start
    minimum_at_center = min(table, key=table.get) == 0.5
    endpoints = table[0.1] > 3 * table[0.5] and table[0.9] > 3 * table[0.5]
    symmetric = abs(table[0.3] - table[0.7]) <= 0.25 * max(table[0.3], table[0.7])
    ok = minimum_at_center and endpoints and symmetric and elapsed < 120.0
    detail = (
        "scores " + ", ".join(f"{f}:{table[f]:.4f}" for f in fractions)
        + f"; min at 0.5={minimum_at_center}, endpoints>3x={endpoints}, "
        + f"0.3~0.7 within 25%={symmetric}, {elapsed:.1f}s < 120s"
    )
    record(5, "ratio-drift shape", ok, detail)


def test_c6_correlation_shape():
    profile = np.linspace(0.0, 3.0, 12)
    series, corr_bce, corr_auc = correlation_study(
        ClassMixtureSpec(dims=16, n=4096, positive_fraction=0.5, seed=6006),
        profile,
        ScanConfig(window=32, bootstraps=50, seed=6006),
        batch_size=64,
    )
    ok = corr_bce > 0.6 and corr_auc < -0.5
    record(6, "drift/performance correlation", ok,
           f"pearson(drift, bce)={corr_bce:.3f} > 0.6, pearson(drift, auc)={corr_auc:.3f} < -0.5")


def test_c7_localization():
    beta = 32
    hits = 0
    for trial in range(20):
        data_rng = derive_rng(7007, "localization", trial)
        ref = data_rng.standard_normal((200, 8))
        target = ref.copy()
        replacement = data_rng.standard_normal((beta, 8))
        replacement[:, 0] += 10.0  # +10 sigma burst
        target[100 : 100 + beta] = replacement
        report = drift_scan(
            ref, target,
            ScanConfig(window=beta, bootstraps=50, seed=trial),
        )
        start, end = report["cause_target"]  # 1-based inclusive
        cause_rows = set(range(start - 1, end))
        drift_rows = set(range(100, 100 + beta))
        if len(cause_rows & drift_rows) >= beta / 2:
            hits += 1
    record(7, "drift-cause localization", hits >= 18, f"{hits}/20 trials with >= 50% overlap")


def _run_cli(args, cwd):
    # The child runs from ``cwd``, where a relative PYTHONPATH (such as ``src``)
    # no longer resolves; put the directory holding the driftscan this process
    # imported first, so the child runs the very code under test.
    package_root = str(Path(driftscan.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited]))}
    proc = subprocess.run(
        [sys.executable, "-m", "driftscan", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_c8_cli_determinism(tmp_path):
    rng = np.random.default_rng(88)
    save_embeddings(rng.standard_normal((48, 4)), tmp_path / "ref.csv", "csv")
    save_embeddings(rng.standard_normal((48, 4)) + 0.5,
                    tmp_path / "target.csv", "csv")

    scan_args = ["scan", "--ref", "ref.csv", "--target", "target.csv",
                 "--window", "8", "--bootstraps", "19", "--seed", "7"]
    _run_cli([*scan_args, "--out", "r1.json", "--csv-out", "c1.csv"], tmp_path)
    _run_cli([*scan_args, "--out", "r2.json", "--csv-out", "c2.csv"], tmp_path)
    scan_ok = (
        (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        and (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
    )

    sim_args = ["simulate", "ratio-drift", "--n", "300", "--dims", "3",
                "--fractions", "0.2,0.5,0.8", "--seed", "11", "--batch-size", "16",
                "--window", "8", "--bootstraps", "9"]
    _run_cli([*sim_args, "--out", "t1.csv"], tmp_path)
    _run_cli([*sim_args, "--out", "t2.csv"], tmp_path)
    sim_ok = (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    cal_args = ["calibrate", "--trials", "8", "--n", "48", "--dims", "3",
                "--window", "8", "--bootstraps", "19", "--seed", "5"]
    out_a = _run_cli(cal_args, tmp_path)
    out_b = _run_cli(cal_args, tmp_path)
    cal_ok = out_a == out_b

    record(8, "CLI determinism", scan_ok and sim_ok and cal_ok,
           f"scan={scan_ok}, simulate={sim_ok}, calibrate={cal_ok} byte-identical across reruns")


def test_c9_degenerate_safety(tmp_path):
    problems = []

    rng = np.random.default_rng(99)
    m = as_embeddings(rng.standard_normal((50, 4)))
    report = drift_scan(m, m, ScanConfig(window=8, bootstraps=19, seed=1))
    if not all(w["observed_sq"] == 0.0 for w in report["windows"]):
        problems.append("identical-input scan produced nonzero statistics")
    if not all(w["p_value"] == 1.0 for w in report["windows"]):
        problems.append("identical-input scan produced p < 1")
    if any(w["flagged"] for w in report["windows"]):
        problems.append("identical-input scan flagged a window")

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    try:
        load_embeddings(empty, "csv")
        problems.append("empty CSV without header did not error")
    except FormatError:
        pass

    try:
        drift_scan(m, m, ScanConfig(window=64, bootstraps=5, seed=0))
        problems.append("oversized window did not error")
    except ValidationError:
        pass

    constant = as_embeddings([[1.0, 2.0]] * 20)
    try:
        median_heuristic_bandwidth(constant)
        problems.append("degenerate bandwidth did not error")
    except DegenerateInputError:
        pass
    # fixed bandwidth is the documented fallback and must work
    fallback = drift_scan(
        constant, constant,
        ScanConfig(window=4, bootstraps=9, seed=0, kernel=KernelSpec("rbf", 1.0)),
    )
    if fallback["summary_score"] != 0.0:
        problems.append("constant-data scan with fixed bandwidth not exactly zero")

    one_row = as_embeddings([[1.0]])
    two_rows = as_embeddings([[1.0], [2.0]])
    try:
        mmd(KernelSpec("rbf", 1.0), one_row, two_rows, "unbiased")
        problems.append("unbiased estimator accepted a 1-row sample")
    except ValidationError:
        pass

    record(9, "degenerate safety", not problems, "; ".join(problems) or "all degenerate cases handled")


def _fit_logistic(x, y, weights, steps=25):
    """Weighted logistic regression with an intercept by Newton's method; the coefficients, intercept first."""
    design = np.hstack([np.ones((len(x), 1)), x.astype(np.float64)])
    coef = np.zeros(design.shape[1])
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-design @ coef))
        grad = design.T @ (weights * (p - y))
        hess = (design * (weights * p * (1.0 - p))[:, None]).T @ design
        coef -= np.linalg.solve(hess, grad)
    return coef


def _heldout_bce(ref_x, ref_y, added_x, added_y, test_x, test_y) -> float:
    # the added rows weigh as much in total as the reference's
    weights = np.concatenate([np.ones(len(ref_x)), np.full(len(added_x), len(ref_x) / max(len(added_x), 1))])
    coef = _fit_logistic(np.vstack([ref_x, added_x]), np.concatenate([ref_y, added_y]), weights)
    scores = 1.0 / (1.0 + np.exp(-(coef[0] + test_x.astype(np.float64) @ coef[1:])))
    return bce(np.clip(scores, 1e-15, 1.0 - 1e-15), test_y)


def test_c10_retraining_on_cause_rows():
    # the abstract's last claim: retraining on the samples of the highest-drift
    # window helps more than retraining on as many samples drawn at random
    wins, results = 0, []
    for s in range(10):
        ref_x, ref_y = generate_labeled_mixture(ClassMixtureSpec(8, 2000, 0.5, 100 + s, separation=4.0))
        target_x, target_y = generate_labeled_mixture(ClassMixtureSpec(8, 2000, 0.5, 200 + s, separation=4.0))
        burst = ClassMixtureSpec(8, 256, 0.5, 300 + s, separation=4.0, shift=2.0)
        target_x, target_y = target_x.copy(), target_y.copy()
        target_x[896:1152], target_y[896:1152] = generate_labeled_mixture(burst)
        report = drift_scan(ref_x, target_x, ScanConfig(window=128, bootstraps=50, stride=8, seed=s))
        start, end = report["cause_target"]
        cause = np.arange(start - 1, end)  # the range is 1-based inclusive
        random_rows = derive_rng(s, "retrain").choice(len(target_x), size=len(cause), replace=False)
        test_x, test_y = generate_labeled_mixture(ClassMixtureSpec(8, 4000, 0.5, 400 + s, separation=4.0, shift=2.0))
        results.append([_heldout_bce(ref_x, ref_y, target_x[rows], target_y[rows], test_x, test_y)
                        for rows in (cause[:0], cause, random_rows)])
        wins += results[-1][1] < results[-1][2]
    alone, on_cause, on_random = np.mean(results, axis=0)
    record(10, "retraining on cause rows", wins >= 8,
           f"cause rows win {wins}/10 seeds; mean held-out BCE {alone:.3f} reference alone, "
           f"{on_cause:.3f} with the cause rows, {on_random:.3f} with random rows")
