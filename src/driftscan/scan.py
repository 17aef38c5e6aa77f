"""Sliding-window drift scan driver.

A scan slides a window of ``window`` trailing rows over a reference and a
target embedding set in lockstep. For each window
position it computes the observed MMD^2 between the two windows, calibrates
it against sign flips of their row pairs, and records the per-window
p-value. The report aggregates the observed series into the drift score and
locates the window with the largest statistic, whose row ranges are the
drift-cause candidates for both sides. A report is the dict its JSON
encodes, keyed by ``REPORT_KEYS``; a loaded one is checked and kept as
parsed (:func:`load_report`). Runs of overlapping windows share
their Grams, blocks of runs are tested along a leading axis, and every
window reads its flips from one sign matrix per scan
(:func:`~driftscan.resample.scan_window_tests`). A report's text is
``json.dumps(report, indent=2)``'s, with the window records encoded in one
call to json's C encoder (:func:`report_to_json`).

Index convention: ``t_index`` is 1-based and names the last sample in a
window, so the first window has ``t_index == window`` and covers samples
1..window (0-based rows [0, window)). Cause ranges ``[start, end]`` use the
same 1-based inclusive convention.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from operator import itemgetter
from pathlib import Path

import numpy as np

from .embeddings import DataError, ValidationError, as_embeddings, check_same_dims, write_file
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


def shared_bandwidth(spec: KernelSpec, reference: np.ndarray, target: np.ndarray) -> float | None:
    """The bandwidth all windows share: None per window or for the linear kernel."""
    return None if spec.per_window_bandwidth else resolve_bandwidth(spec, reference, target)


def drift_scan(reference, target, config: ScanConfig) -> dict:
    """Run the sliding-window drift scan of ``target`` against ``reference``; the report, keyed by ``REPORT_KEYS``.

    Both sides pass :func:`~driftscan.embeddings.as_embeddings` and must
    have the same dims. Scans t = window, window + stride, ... up to M =
    min(rows); both sides are truncated to M when their lengths differ
    (recorded in the report).
    The bandwidth is resolved once by :func:`shared_bandwidth`. Window t
    takes its flips from columns [t - window, t) of the scan's one sign
    matrix (:func:`~driftscan.resample.flip_signs`), so reports are
    byte-identical across runs and for any number of CPUs.
    """
    ref, targ = as_embeddings(reference), as_embeddings(target)
    check_same_dims(ref, targ)
    m_scan = min(len(ref), len(targ))
    if config.window > m_scan:
        raise ValidationError(
            f"window {config.window} larger than usable rows ({m_scan}); "
            f"reference has {len(ref)}, target has {len(targ)}"
        )

    bandwidth = shared_bandwidth(config.kernel, ref, targ)
    width = config.window
    observed_sq, boot_medians, p_values = scan_window_tests(
        config.kernel, ref[:m_scan], targ[:m_scan], width, config.stride, config.bootstraps,
        config.seed, config.estimator, bandwidth)
    windows = [
        dict(zip(WINDOW_KEYS, (t, t - width + 1, sq, mmd_value(sq), middle, p, p <= config.alpha)))
        for t, sq, middle, p in zip(range(width, m_scan + 1, config.stride), observed_sq, boot_medians, p_values)
    ]
    peak = windows[int(np.argmax(observed_sq))]  # first occurrence on ties
    cause = [peak["start_index"], peak["t_index"]]
    return dict(zip(REPORT_KEYS, (
        {**config.to_dict(), "rng_scheme": RNG_SCHEME}, bandwidth, len(ref), len(targ), m_scan,
        len(ref) != len(targ), windows, float(np.mean(observed_sq)), float(median(np.array(observed_sq))),
        float(np.mean(boot_medians)), peak["t_index"], cause, cause.copy())))


def extract_cause_samples(reference, target, report: dict, which: str) -> np.ndarray:
    """Rows of the drift-cause window from one side, ``reference`` or ``target``.

    The two sides must be the ones the report was produced from.
    """
    if which not in ("reference", "target"):
        raise ValueError(f"which must be reference or target, got {which!r}")
    sides = {"reference": as_embeddings(reference), "target": as_embeddings(target)}
    check_same_dims(*sides.values())
    rows = tuple(len(side) for side in sides.values())
    if rows != (report["reference_rows"], report["target_rows"]):
        raise ValidationError(
            f"pair shape {rows} does not match report ({report['reference_rows']}, {report['target_rows']})"
        )
    start, end = report["cause_" + which]
    return sides[which][start - 1:end]  # the range is 1-based inclusive


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


#: the types of JSON's scalars: a window record of only these is encoded by json's C encoder
_SCALARS = frozenset((str, int, float, bool, type(None)))


def report_to_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` and a newline, with a report's window records in one C-encoder call.

    json's indenting encoder is pure Python. A top-level ``windows`` list of non-empty dicts of scalars is
    encoded with the item separator ``,`` and a newline and an entry's indentation, which writes each entry's
    line as the indenting encoder does; no scalar's text holds a newline, so the records' brace lines go
    where a closing brace meets that separator.
    """
    records = payload.get("windows")
    if not (isinstance(records, list) and records and all(
            isinstance(r, dict) and r and _SCALARS.issuperset(map(type, r.values())) for r in records)):
        return json.dumps(payload, indent=2) + "\n"
    text = json.dumps(records, separators=(",\n      ", ": "))
    text = "[\n    {\n      " + text[2:-2].replace("},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]"
    head, tail = json.dumps({**payload, "windows": None}, indent=2).split('\n  "windows": null', 1)
    return head + '\n  "windows": ' + text + tail + "\n"


def save_report(report: dict, path) -> None:
    write_file(path, report_to_json(report))


def load_report(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return report_from_dict(json.loads(text))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:  # a JSONDecodeError is a ValueError
        raise DataError(f"{path}: not a valid drift report: {exc}") from exc


def table_csv(config: dict, header, rows) -> str:
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
