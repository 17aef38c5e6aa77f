"""driftscan: embedding drift detection via sliding-window MMD.

Compare a reference set of embedding vectors against a target set with a
kernel two-sample statistic computed over sliding windows, calibrate each
window against sign flips of its row pairs, and extract the window of
samples responsible for the largest drift.
"""

from .embeddings import (
    DataError,
    DegenerateInputError,
    FormatError,
    ValidationError,
    as_embeddings,
    load_embeddings,
    save_embeddings,
)
from .kernels import KernelSpec, median_heuristic_bandwidth
from .mmd import mmd
from .prep import BatchConfig, batch_means, shuffle_rows
from .resample import window_test
from .scan import (
    ScanConfig,
    drift_scan,
    extract_cause_samples,
    load_report,
    report_to_json,
    save_report,
)
from .simharness import (
    ClassMixtureSpec,
    auc,
    bce,
    correlation_study,
    generate_mixture,
    null_calibration,
    pearson,
    ratio_drift_study,
)

__version__ = "0.1.0"

__all__ = [
    "BatchConfig",
    "ClassMixtureSpec",
    "DataError",
    "DegenerateInputError",
    "FormatError",
    "KernelSpec",
    "ScanConfig",
    "ValidationError",
    "as_embeddings",
    "auc",
    "batch_means",
    "bce",
    "correlation_study",
    "drift_scan",
    "extract_cause_samples",
    "generate_mixture",
    "load_embeddings",
    "load_report",
    "median_heuristic_bandwidth",
    "mmd",
    "null_calibration",
    "pearson",
    "ratio_drift_study",
    "report_to_json",
    "save_embeddings",
    "save_report",
    "shuffle_rows",
    "window_test",
]
