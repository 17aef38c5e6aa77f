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

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .embeddings import DataError, DatasetPair, EmbeddingMatrix, ValidationError
from .kernels import KernelSpec, resolve_bandwidth
from .resample import RNG_SCHEME, block_size, window_test
from .rng import check_seed


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless 0 < alpha < 1; NaN fails too."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _field_values(cls, d: dict) -> dict:
    """The entries of ``d`` named by the dataclass ``cls``'s fields; KeyError if one is missing."""
    return {f.name: d[f.name] for f in fields(cls)}


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
        block_size(self.window, self.bootstraps, self.split_policy, self.estimator)
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        check_alpha(self.alpha)
        check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScanConfig":
        return cls(**{**_field_values(cls, d), "kernel": KernelSpec(**_field_values(KernelSpec, d["kernel"]))})


@dataclass(frozen=True)
class WindowResult:
    """One window position: the observed statistic and its bootstrap null's median and p-value.

    The fields are the report's window keys, in order.
    """

    t_index: int
    start_index: int
    observed_sq: float
    observed: float
    boot_median: float
    p_value: float
    flagged: bool


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Full scan output; the fields are the report's keys, in order.

    ``summary_score`` and ``summary_median`` are the mean and median of the
    observed MMD^2 series, the scan's drift estimate. ``boot_median_mean``
    is the mean of the per-window bootstrap-null medians, kept for reference
    as the center of the no-drift distribution at window scale.
    """

    config: ScanConfig
    bandwidth_used: float | None
    reference_rows: int
    target_rows: int
    scanned_rows: int
    truncated: bool
    windows: list[WindowResult]
    summary_score: float
    summary_median: float
    boot_median_mean: float
    argmax_index: int
    cause_reference: tuple[int, int]
    cause_target: tuple[int, int]


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
    bandwidth = None if spec.per_window_bandwidth else resolve_bandwidth(
        spec, np.vstack([ref.as_float64(), targ.as_float64()]))

    width = config.window
    windows: list[WindowResult] = []
    for t in range(width, m_scan + 1, config.stride):
        rows = slice(t - width, t)
        est, boot = window_test(spec, ref.values[rows], targ.values[rows], config.bootstraps, config.seed,
                                config.split_policy, config.estimator, bandwidth, window_index=t)
        windows.append(
            WindowResult(
                t_index=t,
                start_index=t - width + 1,
                observed_sq=est.squared,
                observed=est.value,
                boot_median=boot.median,
                p_value=boot.p_value,
                flagged=boot.p_value <= config.alpha,
            )
        )

    observed_series = np.array([w.observed_sq for w in windows])
    boot_medians = np.array([w.boot_median for w in windows])
    argmax_pos = int(np.argmax(observed_series))  # first occurrence on ties
    peak = windows[argmax_pos]
    cause = (peak.start_index, peak.t_index)
    return DriftReport(
        config=config,
        bandwidth_used=bandwidth,
        reference_rows=ref.rows,
        target_rows=targ.rows,
        scanned_rows=m_scan,
        truncated=ref.rows != targ.rows,
        windows=windows,
        summary_score=float(np.mean(observed_series)),
        summary_median=float(np.median(observed_series)),
        boot_median_mean=float(np.mean(boot_medians)),
        argmax_index=peak.t_index,
        cause_reference=cause,
        cause_target=cause,
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


def _config_echo(config: ScanConfig) -> dict:
    return {**config.to_dict(), "rng_scheme": RNG_SCHEME}


def report_to_dict(report: DriftReport) -> dict:
    return {
        **asdict(report),
        "config": _config_echo(report.config),
        "cause_reference": list(report.cause_reference),
        "cause_target": list(report.cause_target),
    }


def report_from_dict(d: dict) -> DriftReport:
    """Rebuild a report parsed from JSON; keys that name no field are ignored."""
    return DriftReport(**{
        **_field_values(DriftReport, d),
        "config": ScanConfig.from_dict(d["config"]),
        "windows": [WindowResult(**_field_values(WindowResult, w)) for w in d["windows"]],
        "cause_reference": tuple(d["cause_reference"]),
        "cause_target": tuple(d["cause_target"]),
    })


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
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError and out-of-range configs are ValueErrors
        raise DataError(f"{path}: not a valid drift report: {exc}") from exc


def table_csv(config: dict, header: list[str], rows) -> str:
    """A ``# config:`` comment line, a header and one line per row; floats as their repr."""
    lines = [f"# config: {json.dumps(config)}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def windows_to_csv(report: DriftReport) -> str:
    """Flat window series for plotting, with the config echoed as a comment."""
    header = ["t_index", "observed_sq", "boot_median", "p_value"]
    rows = ([getattr(w, name) for name in header] for w in report.windows)
    return table_csv(_config_echo(report.config), header, rows)
