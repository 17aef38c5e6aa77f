"""Benchmark for the driftscan CLI: end-to-end timings and a traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-dense --seed 1 --seconds 25 --trace 0

The inputs are generated from ``--seed`` under ``.bench_work/`` and the
program receives only those files. ``--trace 0`` times a fresh
``python -m driftscan --help`` several times (``setup_s``), then runs the
workload as fresh ``python -m driftscan`` child processes until ``--seconds``
is used up and reports medians. ``--trace 1`` runs the workload once untraced
and once under ``perfbench/tracer.py`` and reports the per-layer metrics.
Every output is checked; a run that exits non-zero or fails a check counts
in ``failed``. The last line of standard output is the JSON result. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial.distance import pdist

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: fresh ``--help`` runs timed per run; their median is ``setup_s``
SETUP_RUNS = 3
#: a child still running this long after the benchmark started is killed,
#: so that a run ends within 180 s
RUN_LIMIT_S = 165.0
#: mean shift, in standard deviations, of the planted burst on axis 0
BURST_SHIFT = 2.0
#: class means sit at +-MIXTURE_OFFSET on axis 0 in the two-class mixture
MIXTURE_OFFSET = 2.0
#: relative tolerance of the independent observed-statistic recomputation
REL_TOL = 1e-9
#: windows whose observed statistic is recomputed, besides first, last and argmax
SPREAD_SAMPLES = 8


@dataclass(frozen=True)
class ScanWorkload:
    """A ``driftscan scan`` over a generated pair of files.

    Both sides are standard normal, or a two-class mixture when ``fractions``
    gives the positive share of reference and target. ``burst`` shifts
    target rows [start, stop) by ``BURST_SHIFT`` on axis 0.
    """

    name: str
    rows: int
    dims: int
    file_format: str
    window: int
    bootstraps: int
    stride: int
    batch_size: int | None = None
    burst: tuple[int, int] | None = None
    fractions: tuple[float, float] | None = None
    check_bandwidth: bool = False

    outputs = ("report.json", "series.csv")

    @property
    def scanned_rows(self) -> int:
        return self.rows // self.batch_size if self.batch_size else self.rows

    @property
    def windows(self) -> int:
        return len(range(self.window, self.scanned_rows + 1, self.stride))

    def argv(self, seed: int) -> list[str]:
        ext = "emb" if self.file_format == "binary" else "csv"
        args = ["scan", "--ref", f"ref.{ext}", "--target", f"target.{ext}",
                "--window", str(self.window), "--bootstraps", str(self.bootstraps),
                "--stride", str(self.stride), "--seed", str(seed),
                "--out", "report.json", "--csv-out", "series.csv"]
        if self.batch_size:
            args += ["--batch-size", str(self.batch_size)]
        return args


@dataclass(frozen=True)
class CalibrateWorkload:
    """``driftscan calibrate``; its data come from the fixed program seed."""

    name: str
    trials: int = 200
    n: int = 512
    dims: int = 8
    window: int = 32
    bootstraps: int = 199
    rate_band: tuple[float, float] = (0.02, 0.10)

    outputs = ("calibration.json",)

    @property
    def windows(self) -> int:
        return self.trials

    def argv(self, seed: int) -> list[str]:
        return ["calibrate", "--trials", str(self.trials), "--n", str(self.n),
                "--dims", str(self.dims), "--window", str(self.window),
                "--bootstraps", str(self.bootstraps), "--seed", "0", "--out", "calibration.json"]


WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload("scan-dense", rows=2000, dims=8, file_format="binary", window=32,
                     bootstraps=50, stride=1, burst=(960, 1024), check_bandwidth=True),
        ScanWorkload("scan-wide", rows=24000, dims=64, file_format="csv", window=32,
                     bootstraps=50, stride=64, batch_size=4, fractions=(0.5, 0.6)),
        CalibrateWorkload("calibrate"),
    )
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "windows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s", "cli.main_s": "s", "cli.self_s": "s",
    "embeddings.load_s": "s", "embeddings.load_calls": "count", "embeddings.input_mb": "MB",
    "prep.batch_means_s": "s", "prep.rows_in": "count", "prep.rows_out": "count",
    "kernels.bandwidth_s": "s", "kernels.bandwidth_calls": "count",
    "kernels.bandwidth_pairs": "count", "kernels.bandwidth_mb": "MB",
    "kernels.gram_s": "s", "kernels.gram_calls": "count", "kernels.gram_entries": "count",
    "mmd.observed_s": "s", "mmd.observed_calls": "count", "mmd.reduce_s": "s", "mmd.reduce_calls": "count",
    "resample.bootstrap_s": "s", "resample.bootstrap_self_s": "s", "resample.bootstrap_calls": "count",
    "resample.null_stats": "count", "resample.bootstrap_ms_p50": "ms", "resample.bootstrap_ms_p99": "ms",
    "resample.combine_s": "s",
    "rng.stream_s": "s", "rng.streams": "count", "rng.streams_per_window": "ratio",
    "scan.drift_scan_s": "s", "scan.self_s": "s", "scan.windows": "count",
    "scan.serialise_s": "s", "scan.report_kb": "KB",
    "simharness.calibration_s": "s", "simharness.self_s": "s", "simharness.trials": "count",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------- inputs


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def _mixture(rng: np.random.Generator, n: int, dims: int, fraction: float) -> np.ndarray:
    positive = rng.permutation(n) < round(n * fraction)
    x = rng.standard_normal((n, dims))
    x[:, 0] += np.where(positive, MIXTURE_OFFSET, -MIXTURE_OFFSET)
    return x


def make_scan_inputs(wl: ScanWorkload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference and target rows, float32, as written to the input files."""
    rng = _rng(wl.name, seed)
    if wl.fractions is None:
        ref, target = (rng.standard_normal((wl.rows, wl.dims)) for _ in range(2))
    else:
        ref, target = (_mixture(rng, wl.rows, wl.dims, f) for f in wl.fractions)
    if wl.burst is not None:
        target[wl.burst[0]:wl.burst[1], 0] += BURST_SHIFT
    return ref.astype(np.float32), target.astype(np.float32)


def write_embeddings(path: Path, x: np.ndarray, file_format: str) -> None:
    """EMB1 binary, or CSV with 9 significant digits (exact for float32)."""
    if file_format == "binary":
        path.write_bytes(struct.pack("<4sII", b"EMB1", *x.shape) + x.astype("<f4").tobytes())
    else:
        line = ",".join(["%.9g"] * x.shape[1]) + "\n"
        path.write_text((line * x.shape[0]) % tuple(x.astype(np.float64).ravel().tolist()))


def _derive_seed(base: int, tag: str) -> int:
    lo, hi = np.random.SeedSequence([base, zlib.crc32(tag.encode())]).generate_state(2, np.uint32)
    return int(hi) << 32 | int(lo)


def batch_means(x: np.ndarray, batch_size: int, scan_seed: int, side: str) -> np.ndarray:
    """The rows ``scan --batch-size`` compares: a seeded shuffle, then block means cast to float32.

    Written out here, not imported, so that the check does not trust the code it checks.
    """
    seed = _derive_seed(scan_seed, f"batch-{side}")
    perm = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"shuffle")])).permutation(len(x))
    rows = x[perm].astype(np.float64)
    full = len(rows) // batch_size
    return rows[: full * batch_size].reshape(full, batch_size, -1).mean(axis=1).astype(np.float32)


@dataclass
class Inputs:
    """Scanned rows of both sides (after any batching) and the sha256 of each input file."""

    ref: np.ndarray | None
    target: np.ndarray | None
    sha256: dict[str, str]


def prepare(wl, seed: int, work: Path) -> Inputs:
    if isinstance(wl, CalibrateWorkload):
        return Inputs(None, None, {})
    ref, target = make_scan_inputs(wl, seed)
    ext = "emb" if wl.file_format == "binary" else "csv"
    digests = {}
    for side, x in (("ref", ref), ("target", target)):
        path = work / f"{side}.{ext}"
        write_embeddings(path, x, wl.file_format)
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if wl.batch_size:
        ref = batch_means(ref, wl.batch_size, seed, "ref")
        target = batch_means(target, wl.batch_size, seed, "target")
    return Inputs(ref, target, digests)


# ----------------------------------------------------------------- checks


def _biased_mmd_sq(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    def gram(a, b):
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(sq / (-2.0 * bandwidth * bandwidth))

    return float(gram(x, x).mean() + gram(y, y).mean() - 2.0 * gram(x, y).mean())


def _lower_median_distance(x: np.ndarray) -> float:
    d = pdist(x, "euclidean")
    k = (d.size - 1) // 2
    return float(np.partition(d, k)[k])


def check_scan(wl: ScanWorkload, inputs: Inputs, report: dict, series_csv: str) -> list[str]:
    """Failed checks of a scan report; none hold the bootstrap's RNG scheme fixed."""
    errors = []
    windows = report["windows"]
    expected_t = list(range(wl.window, wl.scanned_rows + 1, wl.stride))
    if [w["t_index"] for w in windows] != expected_t:
        return [f"t_index sequence differs from range({wl.window}, {wl.scanned_rows + 1}, {wl.stride})"]
    series = np.array([w["observed_sq"] for w in windows])
    argmax = int(np.argmax(series))
    if report["argmax_index"] != expected_t[argmax]:
        errors.append(f"argmax_index {report['argmax_index']} is not the first maximum, {expected_t[argmax]}")

    bw = report["bandwidth_used"]
    ref = inputs.ref.astype(np.float64)
    target = inputs.target.astype(np.float64)
    if wl.check_bandwidth:
        expected_bw = _lower_median_distance(np.vstack([ref, target]))
        if bw != expected_bw:
            errors.append(f"bandwidth_used {bw!r} != pdist lower median {expected_bw!r}")
    spread = np.linspace(0, len(windows) - 1, SPREAD_SAMPLES).round().astype(int)
    for pos in sorted({0, len(windows) - 1, argmax, *spread.tolist()}):
        t = expected_t[pos]
        want = _biased_mmd_sq(ref[t - wl.window:t], target[t - wl.window:t], bw)
        got = windows[pos]["observed_sq"]
        if not abs(got - want) <= REL_TOL * abs(want):
            errors.append(f"window t={t}: observed_sq {got!r}, recomputed {want!r}")

    k1 = wl.bootstraps + 1
    for w in windows:
        j = round(w["p_value"] * k1)
        if not (1 <= j <= k1 and abs(w["p_value"] - j / k1) <= 1e-12):
            errors.append(f"window t={w['t_index']}: p_value {w['p_value']!r} is not on the grid j/{k1}")
            break
    if not abs(report["summary_score"] - float(np.mean(series))) <= 1e-12 * abs(float(np.mean(series))):
        errors.append("summary_score is not the mean of the observed series")

    if wl.burst is not None:
        t = expected_t[argmax]
        overlap = min(t, wl.burst[1]) - max(t - wl.window, wl.burst[0])
        if overlap < wl.window / 2:
            errors.append(f"argmax window ending at row {t} overlaps the burst {wl.burst} by {max(overlap, 0)} rows")

    lines = [ln for ln in series_csv.splitlines() if not ln.startswith("#")][1:]
    csv_pairs = [(int(a), float(b)) for a, b, *_ in (ln.split(",") for ln in lines)]
    if csv_pairs != [(w["t_index"], w["observed_sq"]) for w in windows]:
        errors.append("CSV series differs from the report's windows")
    return errors


def check_calibrate(wl: CalibrateWorkload, result: dict) -> list[str]:
    errors = []
    if result["trials"] != wl.trials:
        errors.append(f"trials {result['trials']} != {wl.trials}")
    if result["rate"] != result["rejections"] / wl.trials:
        errors.append("rate != rejections / trials")
    lo, hi = wl.rate_band
    if not lo <= result["rate"] <= hi:
        errors.append(f"false-positive rate {result['rate']} outside [{lo}, {hi}]")
    return errors


def check_outputs(wl, inputs: Inputs, work: Path) -> list[str]:
    """Failed checks of the outputs a successful child left in ``work``."""
    try:
        if isinstance(wl, CalibrateWorkload):
            return check_calibrate(wl, json.loads((work / "calibration.json").read_text()))
        report = json.loads((work / "report.json").read_text())
        return check_scan(wl, inputs, report, (work / "series.csv").read_text())
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def outputs_digest(wl, work: Path) -> str:
    h = hashlib.sha256()
    for name in wl.outputs:
        path = work / name
        h.update(path.read_bytes() if path.exists() else b"")
    return h.hexdigest()


# ----------------------------------------------------------------- children


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's ``src`` first on an absolute PYTHONPATH.

    A relative entry would stop resolving once the child's working directory
    is not the checkout root.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], work: Path, deadline: float) -> Child:
    """Run ``argv`` in ``work``; wall time, CPU time and peak RSS of that child alone (``os.wait4``)."""
    with open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write((work / "stderr.txt").read_text(errors="replace")[-2000:])
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def driftscan_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "driftscan", *args]


@dataclass
class Rep:
    child: Child
    errors: list[str]
    digest: str


def run_rep(wl, argv: list[str], inputs: Inputs, work: Path, deadline: float) -> Rep:
    for name in wl.outputs:
        (work / name).unlink(missing_ok=True)
    child = run_child(argv, work, deadline)
    errors = [f"exit code {child.code}"] if child.code != 0 else check_outputs(wl, inputs, work)
    return Rep(child, errors, outputs_digest(wl, work))


def count_failures(reps: list[Rep]) -> int:
    """Reps that failed a check, or whose outputs differ from the first rep's (determinism)."""
    failed = 0
    for rep in reps:
        if rep.digest != reps[0].digest and not rep.errors:
            rep.errors.append("outputs differ from the first run's")
        if rep.errors:
            failed += 1
            print(f"FAILED: {'; '.join(rep.errors)}", file=sys.stderr)
    return failed


# ----------------------------------------------------------------- modes


def measure(wl, seed: int, seconds: float, work: Path, deadline: float, inputs: Inputs):
    """End-to-end metrics: setup runs, then workload runs until ``seconds`` is used up."""
    run_child(driftscan_argv(["--help"]), work, deadline)  # writes bytecode caches
    setup = [run_child(driftscan_argv(["--help"]), work, deadline).wall_s for _ in range(SETUP_RUNS)]
    argv = driftscan_argv(wl.argv(seed))
    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(wl, argv, inputs, work, deadline))
        typical = statistics.median(r.child.wall_s for r in reps)
        now = time.monotonic()
        # stop unless another run would end less than half a run past --seconds
        # and well before the deadline
        if now - start + typical / 2 >= seconds or now + 1.5 * typical >= deadline:
            break
    failed = count_failures(reps)
    good = [r.child for r in reps if not r.errors] or [r.child for r in reps]
    wall = statistics.median(c.wall_s for c in good)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "windows_per_s": wl.windows / wall,
        "cpu_s": statistics.median(c.cpu_s for c in good),
        "peak_rss_mb": statistics.median(c.rss_mb for c in good),
    }
    samples = {"setup_s": len(setup), **{k: len(good) for k in metrics if k != "setup_s"}}
    table = [(name, metrics[name], END_TO_END[name], samples[name]) for name in END_TO_END]
    table.append(("error_rate", failed / len(reps), "ratio", len(reps)))
    return metrics, table, reps, failed


def layer_metrics(wl, summary: dict, counts: dict, report_bytes: int, overhead_ratio: float) -> dict[str, float]:
    """The ``PER_LAYER`` metrics from a :func:`tracer.summarise` summary and the tracer's counts."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name: str) -> dict:
        return summary.get(name, empty)

    boot_ms = np.array(get("resample.bootstrap")["durations"]) * 1e3
    pairs = counts.get("kernels.bandwidth_pairs", 0)
    return {
        "cli.import_s": get("cli.import")["total_s"],
        "cli.main_s": get("cli.main")["total_s"],
        "cli.self_s": get("cli.main")["self_s"],
        "embeddings.load_s": get("embeddings.load")["total_s"],
        "embeddings.load_calls": get("embeddings.load")["calls"],
        "embeddings.input_mb": counts.get("embeddings.input_bytes", 0) / 1e6,
        "prep.batch_means_s": get("prep.batch_means")["total_s"],
        "prep.rows_in": counts.get("prep.rows_in", 0),
        "prep.rows_out": counts.get("prep.rows_out", 0),
        "kernels.bandwidth_s": get("kernels.bandwidth")["total_s"],
        "kernels.bandwidth_calls": get("kernels.bandwidth")["calls"],
        "kernels.bandwidth_pairs": pairs,
        "kernels.bandwidth_mb": 8 * pairs / 1e6,
        "kernels.gram_s": get("kernels.gram")["total_s"],
        "kernels.gram_calls": get("kernels.gram")["calls"],
        "kernels.gram_entries": counts.get("kernels.gram_entries", 0),
        "mmd.observed_s": get("mmd.observed")["total_s"],
        "mmd.observed_calls": get("mmd.observed")["calls"],
        "mmd.reduce_s": get("mmd.reduce")["total_s"],
        "mmd.reduce_calls": get("mmd.reduce")["calls"],
        "resample.bootstrap_s": get("resample.bootstrap")["total_s"],
        "resample.bootstrap_self_s": get("resample.bootstrap")["self_s"],
        "resample.bootstrap_calls": get("resample.bootstrap")["calls"],
        "resample.null_stats": counts.get("resample.null_stats", 0),
        "resample.bootstrap_ms_p50": float(np.percentile(boot_ms, 50)) if boot_ms.size else 0.0,
        "resample.bootstrap_ms_p99": float(np.percentile(boot_ms, 99)) if boot_ms.size else 0.0,
        "resample.combine_s": get("resample.combine")["total_s"],
        "rng.stream_s": get("rng.stream")["total_s"],
        "rng.streams": get("rng.stream")["calls"],
        "rng.streams_per_window": get("rng.stream")["calls"] / wl.windows,
        "scan.drift_scan_s": get("scan.drift_scan")["total_s"],
        "scan.self_s": get("scan.drift_scan")["self_s"],
        "scan.windows": counts.get("scan.windows", 0),
        "scan.serialise_s": get("scan.serialise")["total_s"],
        "scan.report_kb": report_bytes / 1e3,
        "simharness.calibration_s": get("simharness.calibration")["total_s"],
        "simharness.self_s": get("simharness.calibration")["self_s"],
        "simharness.trials": counts.get("simharness.trials", 0),
        "trace.overhead_ratio": overhead_ratio,
    }


def shares(summary: dict, m: dict[str, float]) -> list[tuple[str, float]]:
    """Derived shares that say where the time went."""
    out = []
    if m["scan.drift_scan_s"] > 0:
        inner = sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] in ("resample", "rng", "mmd"))
        out.append(("share.resample_rng_mmd_self_of_scan", inner / m["scan.drift_scan_s"]))
    if m["cli.main_s"] > 0:
        load_bandwidth = m["embeddings.load_s"] + m["kernels.bandwidth_s"]
        out.append(("share.load_bandwidth_of_main", load_bandwidth / m["cli.main_s"]))
    return out


def trace(wl, seed: int, work: Path, deadline: float, inputs: Inputs):
    """Per-layer metrics: one untraced and one traced run of the same command."""
    run_child(driftscan_argv(["--help"]), work, deadline)  # writes bytecode caches
    plain = run_rep(wl, driftscan_argv(wl.argv(seed)), inputs, work, deadline)
    spans_path = work / "spans.json"
    traced = run_rep(wl, [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *wl.argv(seed)],
                     inputs, work, deadline)
    report = work / "report.json"
    report_bytes = report.stat().st_size if report.exists() else 0
    failed = count_failures([plain, traced])
    if traced.child.code == 0 and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        if spans["missing"]:
            print(f"boundaries not found: {', '.join(spans['missing'])}", file=sys.stderr)
    else:
        spans = {"names": [], "spans": [], "counts": {}, "missing": []}
    summary = tracer.summarise(spans)
    metrics = layer_metrics(wl, summary, spans["counts"], report_bytes, traced.child.wall_s / plain.child.wall_s)
    table = [(name, metrics[name], PER_LAYER[name], 1) for name in PER_LAYER]
    table += [(name, value, "ratio", 1) for name, value in shares(summary, metrics)]
    return metrics, table, [plain, traced], failed


# ----------------------------------------------------------------- main


def host_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in threads},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="driftscan benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(wl, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """One benchmark run in the empty directory ``work``; prints the table and info line, returns the result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = prepare(wl, seed, work)
    if traced:
        metrics, table, reps, failed = trace(wl, seed, work, deadline, inputs)
        units = PER_LAYER
    else:
        metrics, table, reps, failed = measure(wl, seed, seconds, work, deadline, inputs)
        units = END_TO_END
    print(f"workload {wl.name}  seed {seed}  {'traced' if traced else 'untraced'}")
    print(f"{'metric':32} {'value':>14} {'unit':6} {'samples':>7}")
    for name, value, unit, samples in table:
        print(f"{name:32} {value:14.6g} {unit:6} {samples:7d}")
    runs = [{"wall_s": r.child.wall_s, "cpu_s": r.child.cpu_s, "peak_rss_mb": r.child.rss_mb,
             "failed": bool(r.errors)} for r in reps]
    info = {"host": host_facts(), "input_sha256": inputs.sha256,
            "output_sha256": sorted({r.digest for r in reps}), "command": wl.argv(seed), "runs": runs}
    print("info " + json.dumps(info))
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftscan" / "__init__.py").is_file():
        print(f"error: no driftscan package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
