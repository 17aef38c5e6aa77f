"""Sliding-window drift scan driver.

A scan slides a window of ``window`` trailing rows over both sides of a
:class:`~driftscan.embeddings.DatasetPair` in lockstep. For each window
position it computes the observed MMD^2 between the two windows, bootstraps
a null distribution from their pooled rows, and records the per-window
p-value. The report aggregates the observed series into the drift score and
locates the window with the largest statistic, whose row ranges are the
drift-cause candidates for both sides.

Index convention: ``t_index`` is 1-based and names the last sample in a
window, so the first window has ``t_index == window`` and covers samples
1..window (0-based rows [0, window)). Cause ranges ``[start, end]`` use the
same 1-based inclusive convention.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import DataError, DatasetPair, EmbeddingMatrix, ValidationError
from .kernels import KernelSpec, resolve_bandwidth
from .mmd import ESTIMATORS
from .resample import RNG_SCHEME, SPLIT_POLICIES, BootstrapResult, RngPolicy, window_test


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless 0 < alpha < 1; NaN fails too."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class ScanConfig:
    """Resolved scan parameters; every field lands in the report's config echo."""

    window: int = 32
    bootstraps: int = 50
    stride: int = 1
    estimator: str = "biased"
    kernel: KernelSpec = field(default_factory=KernelSpec)
    split_policy: str = "paired_halves"
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.bootstraps < 1:
            raise ValueError(f"bootstraps must be >= 1, got {self.bootstraps}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.split_policy not in SPLIT_POLICIES:
            raise ValueError(f"unknown split policy {self.split_policy!r}")
        check_alpha(self.alpha)
        RngPolicy(self.seed)  # validates the seed range

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "bootstraps": self.bootstraps,
            "stride": self.stride,
            "estimator": self.estimator,
            "kernel": {"family": self.kernel.family, "bandwidth": self.kernel.bandwidth},
            "split_policy": self.split_policy,
            "seed": self.seed,
            "alpha": self.alpha,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScanConfig":
        kernel = KernelSpec(family=d["kernel"]["family"], bandwidth=d["kernel"]["bandwidth"])
        return cls(
            window=d["window"],
            bootstraps=d["bootstraps"],
            stride=d["stride"],
            estimator=d["estimator"],
            kernel=kernel,
            split_policy=d["split_policy"],
            seed=d["seed"],
            alpha=d["alpha"],
        )


@dataclass(frozen=True, eq=False)
class WindowResult:
    """One window position: observed statistic plus its bootstrap null."""

    t_index: int
    start_index: int
    observed_sq: float
    observed: float
    bootstrap: BootstrapResult
    flagged: bool


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Full scan output.

    ``summary_score`` and ``summary_median`` are the mean and median of the
    observed MMD^2 series, the scan's drift estimate. ``boot_median_mean``
    is the mean of the per-window bootstrap-null medians, kept for reference
    as the center of the no-drift distribution at window scale.
    """

    config: ScanConfig
    bandwidth_used: float | None
    windows: list[WindowResult]
    summary_score: float
    summary_median: float
    boot_median_mean: float
    argmax_index: int
    cause_reference: tuple[int, int]
    cause_target: tuple[int, int]
    reference_rows: int
    target_rows: int
    scanned_rows: int
    truncated: bool


def drift_scan(pair: DatasetPair, config: ScanConfig) -> DriftReport:
    """Run the sliding-window drift scan over ``pair``.

    Scans t = window, window + stride, ... up to M = min(rows); both sides
    are truncated to M when their lengths differ (recorded in the report).
    The bandwidth is resolved once over the concatenation of both full
    inputs unless the kernel's policy is per-window. Each window is one
    :func:`~driftscan.resample.window_test` on the two sides' rows: one pool
    Gram matrix serves both the observed statistic and the bootstrap null.
    Deterministic: the bootstrap for window t draws from the one stream
    (seed, "bootstrap", t), so reports are byte-identical across runs and any
    window-level parallelization.
    """
    ref, targ = pair.reference, pair.target
    m_scan = min(ref.rows, targ.rows)
    if config.window > m_scan:
        raise ValidationError(
            f"window {config.window} larger than usable rows ({m_scan}); "
            f"reference has {ref.rows}, target has {targ.rows}"
        )

    spec = config.kernel
    global_bw: float | None = None
    if spec.needs_bandwidth and not spec.per_window_bandwidth:
        global_bw = resolve_bandwidth(spec, np.vstack([ref.as_float64(), targ.as_float64()]))

    policy = RngPolicy(config.seed)
    width = config.window
    windows: list[WindowResult] = []
    for t in range(width, m_scan + 1, config.stride):
        rows = slice(t - width, t)
        est, boot = window_test(spec, ref.values[rows], targ.values[rows], config.bootstraps, policy,
                                config.split_policy, config.estimator, global_bw, window_index=t)
        windows.append(
            WindowResult(
                t_index=t,
                start_index=t - width + 1,
                observed_sq=est.squared,
                observed=est.value,
                bootstrap=boot,
                flagged=boot.p_value <= config.alpha,
            )
        )

    observed_series = np.array([w.observed_sq for w in windows])
    boot_medians = np.array([w.bootstrap.median for w in windows])
    argmax_pos = int(np.argmax(observed_series))  # first occurrence on ties
    peak = windows[argmax_pos]
    cause = (peak.start_index, peak.t_index)
    return DriftReport(
        config=config,
        bandwidth_used=global_bw,
        windows=windows,
        summary_score=float(np.mean(observed_series)),
        summary_median=float(np.median(observed_series)),
        boot_median_mean=float(np.mean(boot_medians)),
        argmax_index=peak.t_index,
        cause_reference=cause,
        cause_target=cause,
        reference_rows=ref.rows,
        target_rows=targ.rows,
        scanned_rows=m_scan,
        truncated=ref.rows != targ.rows,
    )


def extract_cause_samples(
    pair: DatasetPair, report: DriftReport, which: str = "target"
) -> EmbeddingMatrix | tuple[EmbeddingMatrix, EmbeddingMatrix]:
    """Rows of the drift-cause window, from the requested side(s).

    ``which`` is ``reference``, ``target``, or ``both`` (returns a
    (reference, target) tuple). The pair must be the one the report was
    produced from.
    """
    if which not in ("reference", "target", "both"):
        raise ValueError(f"which must be reference, target, or both, got {which!r}")
    if pair.reference.rows != report.reference_rows or pair.target.rows != report.target_rows:
        raise ValidationError(
            f"pair shape ({pair.reference.rows}, {pair.target.rows}) does not match report "
            f"({report.reference_rows}, {report.target_rows})"
        )

    def cut(m: EmbeddingMatrix, span: tuple[int, int]) -> EmbeddingMatrix:
        start, end = span  # 1-based inclusive
        return m.take_rows(start - 1, end)

    if which == "reference":
        return cut(pair.reference, report.cause_reference)
    if which == "target":
        return cut(pair.target, report.cause_target)
    return cut(pair.reference, report.cause_reference), cut(pair.target, report.cause_target)


def report_to_dict(report: DriftReport) -> dict:
    return {
        "config": {**report.config.to_dict(), "rng_scheme": RNG_SCHEME},
        "bandwidth_used": report.bandwidth_used,
        "reference_rows": report.reference_rows,
        "target_rows": report.target_rows,
        "scanned_rows": report.scanned_rows,
        "truncated": report.truncated,
        "windows": [
            {
                "t_index": w.t_index,
                "start_index": w.start_index,
                "observed_sq": w.observed_sq,
                "observed": w.observed,
                "boot_median": w.bootstrap.median,
                "p_value": w.bootstrap.p_value,
                "flagged": w.flagged,
            }
            for w in report.windows
        ],
        "summary_score": report.summary_score,
        "summary_median": report.summary_median,
        "boot_median_mean": report.boot_median_mean,
        "argmax_index": report.argmax_index,
        "cause_reference": list(report.cause_reference),
        "cause_target": list(report.cause_target),
    }


def report_from_dict(d: dict) -> DriftReport:
    """Rebuild a report parsed from JSON.

    Bootstrap stats lists are not serialized; reconstructed windows carry
    empty stats arrays with the recorded median and p-value.
    """
    windows = [
        WindowResult(
            t_index=w["t_index"],
            start_index=w["start_index"],
            observed_sq=w["observed_sq"],
            observed=w["observed"],
            bootstrap=BootstrapResult(
                stats=np.empty(0), median=w["boot_median"], p_value=w["p_value"]
            ),
            flagged=w["flagged"],
        )
        for w in d["windows"]
    ]
    return DriftReport(
        config=ScanConfig.from_dict(d["config"]),
        bandwidth_used=d["bandwidth_used"],
        windows=windows,
        summary_score=d["summary_score"],
        summary_median=d["summary_median"],
        boot_median_mean=d["boot_median_mean"],
        argmax_index=d["argmax_index"],
        cause_reference=tuple(d["cause_reference"]),
        cause_target=tuple(d["cause_target"]),
        reference_rows=d["reference_rows"],
        target_rows=d["target_rows"],
        scanned_rows=d["scanned_rows"],
        truncated=d["truncated"],
    )


def report_to_json(report: DriftReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def save_report(report: DriftReport, path) -> None:
    try:
        Path(path).write_text(report_to_json(report), encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_report(path) -> DriftReport:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return report_from_dict(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a valid drift report: {exc}") from exc


def windows_to_csv(report: DriftReport) -> str:
    """Flat window series for plotting, with the config echoed as a comment."""
    buf = io.StringIO()
    buf.write(f"# config: {json.dumps(report_to_dict(report)['config'])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t_index", "observed_sq", "boot_median", "p_value"])
    for w in report.windows:
        writer.writerow([w.t_index, repr(w.observed_sq), repr(w.bootstrap.median), repr(w.bootstrap.p_value)])
    return buf.getvalue()
