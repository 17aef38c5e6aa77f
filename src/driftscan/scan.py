"""Sliding-window drift scan driver.

A scan slides a window of ``window`` trailing rows over both sides of a
:class:`~driftscan.embeddings.DatasetPair` in lockstep. For each window
position it computes the observed MMD^2 between the two windows, calibrates
it against sign flips of their row pairs, and records the per-window
p-value. The report aggregates the observed series into the drift score and
locates the window with the largest statistic, whose row ranges are the
drift-cause candidates for both sides. A report is the dict its JSON
encodes, keyed by ``REPORT_KEYS``; a loaded one is checked and kept as
parsed (:func:`load_report`). Runs of overlapping windows share
their Grams, blocks of runs are tested along a leading axis, and every
window reads its flips from one sign matrix per scan
(:func:`~driftscan.resample.scan_window_tests`). Reports are written
through json's C encoder (:func:`indented_json`), with the bytes of
``json.dumps(..., indent=2)``.

Index convention: ``t_index`` is 1-based and names the last sample in a
window, so the first window has ``t_index == window`` and covers samples
1..window (0-based rows [0, window)). Cause ranges ``[start, end]`` use the
same 1-based inclusive convention.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, fields
from operator import itemgetter
from pathlib import Path

import numpy as np

from .embeddings import DataError, DatasetPair, EmbeddingMatrix, ValidationError
from .kernels import KernelSpec, resolve_bandwidth
from .mmd import mmd_value
from .resample import RNG_SCHEME, check_window_settings, median, scan_window_tests
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
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        check_window_settings(self.window, self.bootstraps, self.estimator)
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        check_alpha(self.alpha)
        check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScanConfig":
        return cls(**{**_field_values(cls, d), "kernel": KernelSpec(**_field_values(KernelSpec, d["kernel"]))})


#: each window's keys in a report, in order: its rows, observed statistic, flip null's median and p-value
WINDOW_KEYS = ("t_index", "start_index", "observed_sq", "observed", "boot_median", "p_value", "flagged")


#: a report's keys, in order: the config echo, inputs, window records, the observed series' mean (the drift
#: score) and median, the null medians' mean, and the [start, end] rows of the largest statistic's window
REPORT_KEYS = ("config", "bandwidth_used", "reference_rows", "target_rows", "scanned_rows", "truncated", "windows",
               "summary_score", "summary_median", "boot_median_mean", "argmax_index", "cause_reference",
               "cause_target")


def shared_bandwidth(spec: KernelSpec, reference: EmbeddingMatrix, target: EmbeddingMatrix) -> float | None:
    """The bandwidth all windows share: None per window or for the linear kernel."""
    return None if spec.per_window_bandwidth else resolve_bandwidth(spec, reference.values, target.values)


def drift_scan(pair: DatasetPair, config: ScanConfig) -> dict:
    """Run the sliding-window drift scan over ``pair``; the report, keyed by ``REPORT_KEYS``.

    Scans t = window, window + stride, ... up to M = min(rows); both sides
    are truncated to M when their lengths differ (recorded in the report).
    The bandwidth is resolved once by :func:`shared_bandwidth`. Window t
    takes its flips from columns [t - window, t) of the scan's one sign
    matrix (:func:`~driftscan.resample.flip_signs`), so reports are
    byte-identical across runs and for any number of CPUs.
    """
    ref, targ = pair.reference, pair.target
    m_scan = min(ref.rows, targ.rows)
    if config.window > m_scan:
        raise ValidationError(
            f"window {config.window} larger than usable rows ({m_scan}); "
            f"reference has {ref.rows}, target has {targ.rows}"
        )

    bandwidth = shared_bandwidth(config.kernel, ref, targ)
    width = config.window
    observed_sq, boot_medians, p_values = scan_window_tests(
        config.kernel, ref.values[:m_scan], targ.values[:m_scan], width, config.stride, config.bootstraps,
        config.seed, config.estimator, bandwidth)
    windows = [
        dict(zip(WINDOW_KEYS, (t, t - width + 1, sq, mmd_value(sq), middle, p, p <= config.alpha)))
        for t, sq, middle, p in zip(range(width, m_scan + 1, config.stride), observed_sq, boot_medians, p_values)
    ]
    peak = windows[int(np.argmax(observed_sq))]  # first occurrence on ties
    cause = [peak["start_index"], peak["t_index"]]
    return dict(zip(REPORT_KEYS, (
        {**config.to_dict(), "rng_scheme": RNG_SCHEME}, bandwidth, ref.rows, targ.rows, m_scan,
        ref.rows != targ.rows, windows, float(np.mean(observed_sq)), float(median(np.array(observed_sq))),
        float(np.mean(boot_medians)), peak["t_index"], cause, cause.copy())))


def extract_cause_samples(pair: DatasetPair, report: dict, which: str) -> EmbeddingMatrix:
    """Rows of the drift-cause window from one side, ``reference`` or ``target``.

    The pair must be the one the report was produced from.
    """
    if which not in ("reference", "target"):
        raise ValueError(f"which must be reference or target, got {which!r}")
    if pair.reference.rows != report["reference_rows"] or pair.target.rows != report["target_rows"]:
        raise ValidationError(
            f"pair shape ({pair.reference.rows}, {pair.target.rows}) does not match report "
            f"({report['reference_rows']}, {report['target_rows']})"
        )
    start, end = report["cause_" + which]
    return getattr(pair, which).take_rows(start - 1, end)  # the range is 1-based inclusive


def _cause_range(span, rows) -> None:
    """Check a report's cause range: two ints with 1 <= start <= end <= ``rows``, else ValueError."""
    start, end = span
    if type(start) is not int or type(end) is not int or not 1 <= start <= end <= rows:
        raise ValueError(f"cause range {span!r} is not within rows 1..{rows}")


def report_from_dict(d: dict) -> dict:
    """A report parsed from JSON, checked and kept as parsed, its own ``rng_scheme`` too.

    KeyError for a missing report or window key, ValueError or TypeError for a bad config or cause range.
    """
    for w in d["windows"]:
        itemgetter(*WINDOW_KEYS)(w)  # a KeyError names a key the window lacks
    itemgetter(*REPORT_KEYS)(d)
    ScanConfig.from_dict(d["config"])
    _cause_range(d["cause_reference"], d["reference_rows"])
    _cause_range(d["cause_target"], d["target_rows"])
    return d


#: JSON's scalars: a container of only these is encoded in one call to json's C encoder
_SCALARS = (str, int, float, type(None))


def _flat(value) -> bool:
    """Whether ``value`` is a non-empty dict, list or tuple of JSON scalars."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return False
    return all(isinstance(item, _SCALARS) for item in (value.values() if isinstance(value, dict) else value))


@functools.cache
def _flat_encoder(pad: str):
    """json's C encoder with each item of a container of scalars on a line of its own after ``pad``."""
    return json.JSONEncoder(separators=("," + pad, ": ")).encode


def indented_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``'s text, with containers of scalars encoded by json's C encoder.

    That encoder serves only ``indent=None``; with the item separator ``,``
    followed by a newline and the item's indentation, it writes a flat
    container's lines as the indenting encoder does, which leaves only the
    brackets' lines to add. A list of flat containers, such as a report's
    windows, is one call too. ``pad`` is a newline and the indentation of
    ``value``'s own line.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = pad + "  "
    if _flat(value):
        text = _flat_encoder(inner)(value)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if not isinstance(value, dict) and all(map(_flat, value)):
        # no scalar's text ends in a bracket, so a closing bracket and the
        # separator after it end an item; each item's brackets get lines of their own
        deeper = inner + "  "
        text = _flat_encoder(deeper)(value)
        brackets = {"{}" if isinstance(item, dict) else "[]" for item in value}
        for _, close in brackets:
            for open_, _ in brackets:
                text = text.replace(close + "," + deeper + open_, inner + close + "," + inner + open_ + deeper)
        return text[0] + inner + text[1] + deeper + text[2:-2] + inner + text[-2] + pad + text[-1]
    if isinstance(value, dict):
        # json.dumps's text of each key, which may be a number, a bool or None
        lines = (json.dumps({key: None})[1:-7] + ": " + indented_json(item, inner) for key, item in value.items())
        return "{" + inner + ("," + inner).join(lines) + pad + "}"
    return "[" + inner + ("," + inner).join(indented_json(item, inner) for item in value) + pad + "]"


def report_to_json(report: dict) -> str:
    return indented_json(report) + "\n"


def save_report(report: dict, path) -> None:
    try:
        Path(path).write_text(report_to_json(report), encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_report(path) -> dict:
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


def windows_to_csv(report: dict) -> str:
    """Flat window series for plotting, with the config echoed as a comment; a :func:`table_csv`."""
    columns = ["t_index", "observed_sq", "boot_median", "p_value"]
    rows = map(itemgetter(*columns), report["windows"])
    return table_csv(report["config"], columns, ()) + "".join(["%d,%r,%r,%r\n" % row for row in rows])
