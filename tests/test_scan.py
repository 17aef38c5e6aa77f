import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftscan import kernels, simharness
from driftscan.embeddings import DataError, ValidationError, as_embeddings
from driftscan.kernels import KernelSpec
from driftscan.mmd import mmd, mmd_value
from driftscan.resample import RNG_SCHEME
from driftscan.rng import check_seed, derive_rng
from driftscan.scan import (
    REPORT_KEYS,
    WINDOW_KEYS,
    ScanConfig,
    drift_scan,
    extract_cause_samples,
    load_report,
    report_from_dict,
    report_to_json,
    save_report,
    windows_to_csv,
)
from driftscan.simharness import null_calibration


def gaussian_pair(seed=0, n=64, dims=3, shift=0.0):
    rng = np.random.default_rng(seed)
    ref = as_embeddings(rng.standard_normal((n, dims)))
    target = as_embeddings(rng.standard_normal((n, dims)) + shift)
    return ref, target


FAST = ScanConfig(window=8, bootstraps=20, seed=3)


def test_identical_inputs_all_zero_unflagged():
    rng = np.random.default_rng(1)
    m = as_embeddings(rng.standard_normal((40, 4)))
    report = drift_scan(m, m, FAST)
    assert len(report["windows"]) == 33
    for w in report["windows"]:
        assert w["observed_sq"] == 0.0
        assert w["p_value"] == 1.0
        assert not w["flagged"]
    assert report["summary_score"] == 0.0
    assert report["summary_median"] == 0.0
    assert report["boot_median_mean"] >= 0.0
    assert report["argmax_index"] == FAST.window  # all tied, first window wins


def test_series_length_and_indices_with_stride():
    pair = gaussian_pair(n=50)
    for stride in (1, 3, 7):
        config = ScanConfig(window=8, bootstraps=5, stride=stride, seed=0)
        report = drift_scan(*pair, config)
        expected = (50 - 8) // stride + 1
        assert len(report["windows"]) == expected
        for w in report["windows"]:
            assert w["t_index"] - w["start_index"] + 1 == 8
        assert report["windows"][0]["t_index"] == 8
        assert report["windows"][-1]["t_index"] == 8 + stride * (expected - 1)


def test_window_larger_than_data_rejected():
    pair = gaussian_pair(n=10)
    with pytest.raises(ValidationError, match="window"):
        drift_scan(*pair, ScanConfig(window=16, bootstraps=5))


def test_truncation_to_shorter_side_recorded():
    rng = np.random.default_rng(2)
    ref = as_embeddings(rng.standard_normal((40, 2)))
    target = as_embeddings(rng.standard_normal((55, 2)))
    report = drift_scan(ref, target, FAST)
    assert report["scanned_rows"] == 40
    assert report["truncated"]
    assert report["windows"][-1]["t_index"] == 40


def test_drift_increases_summary_score():
    base = drift_scan(*gaussian_pair(seed=5, shift=0.0), FAST)["summary_score"]
    shifted = drift_scan(*gaussian_pair(seed=5, shift=2.0), FAST)["summary_score"]
    assert shifted > base


def test_injected_drift_localized_single_seed():
    rng = np.random.default_rng(11)
    n, beta = 120, 16
    ref = rng.standard_normal((n, 4))
    target = rng.standard_normal((n, 4))
    target[60:76] += 8.0  # drift rows, 0-based [60, 76)
    report = drift_scan(
        ref, target,
        # p-values bottom out at 1/(bootstraps + 1), so flagging at 0.05 needs >= 19
        ScanConfig(window=beta, bootstraps=19, seed=1),
    )
    start, end = report["cause_target"]  # 1-based inclusive
    rows = set(range(start - 1, end))
    assert len(rows & set(range(60, 76))) >= beta // 2
    flagged = [w for w in report["windows"] if w["flagged"]]
    assert flagged  # a +8 sigma burst must trip the test somewhere


def test_cause_ranges_span_window_and_agree():
    report = drift_scan(*gaussian_pair(seed=7), FAST)
    for span in (report["cause_reference"], report["cause_target"]):
        assert span[1] - span[0] + 1 == FAST.window
        assert span[1] == report["argmax_index"]


def test_extract_cause_samples_shapes_and_boundary():
    pair = gaussian_pair(seed=8, n=30)
    report = drift_scan(*pair, FAST)
    target_rows = extract_cause_samples(*pair, report, "target")
    assert target_rows.shape == (FAST.window, pair[1].shape[1])
    ref_rows = extract_cause_samples(*pair, report, "reference")
    assert ref_rows.shape[0] == FAST.window
    start, end = report["cause_target"]
    np.testing.assert_array_equal(target_rows, pair[1][start - 1 : end])
    start, end = report["cause_reference"]
    np.testing.assert_array_equal(ref_rows, pair[0][start - 1 : end])

    # argmax at the first window maps to rows [0, window)
    m = as_embeddings(np.random.default_rng(3).standard_normal((20, 2)))
    tied = drift_scan(m, m, FAST)
    assert tied["argmax_index"] == FAST.window
    first = extract_cause_samples(m, m, tied, "reference")
    np.testing.assert_array_equal(first, m[0 : FAST.window])


def test_extract_rejects_mismatched_pair():
    pair = gaussian_pair(seed=9, n=30)
    report = drift_scan(*pair, FAST)
    other = gaussian_pair(seed=9, n=29)
    with pytest.raises(ValidationError, match="does not match"):
        extract_cause_samples(*other, report, "target")
    for which in ("everything", "both"):
        with pytest.raises(ValueError, match="which"):
            extract_cause_samples(*pair, report, which)


def test_report_json_roundtrip(tmp_path):
    report = drift_scan(*gaussian_pair(seed=10), FAST)
    rebuilt = report_from_dict(json.loads(json.dumps(report)))
    assert rebuilt == report

    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report


def test_report_window_missing_a_key_does_not_load(tmp_path):
    d = drift_scan(*gaussian_pair(seed=10), FAST)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(d))
    assert load_report(path)["windows"] == d["windows"]  # the parsed records, kept as they are
    del d["windows"][3]["p_value"]
    path.write_text(json.dumps(d))
    with pytest.raises(DataError, match="not a valid drift report: 'p_value'"):
        load_report(path)


#: config entries of reports from earlier versions, in place of today's rng_scheme
OLDER_CONFIGS = {
    "without-rng-scheme": {},  # written before the entry existed
    "bootstrap": {"rng_scheme": "window-stream", "split_policy": "literal_quarter"},  # before the permutation null
    "bootstrap-paired": {"rng_scheme": "window-stream", "split_policy": "paired_halves"},  # the old default split
    "permutation": {"rng_scheme": "window-permutation"},  # before the lockstep flips
}


@pytest.mark.parametrize("name", sorted(OLDER_CONFIGS))
def test_report_without_rng_scheme_still_loads(name, tmp_path):
    d = drift_scan(*gaussian_pair(seed=11), FAST)
    assert d["config"]["rng_scheme"] == RNG_SCHEME
    del d["config"]["rng_scheme"]
    d["config"].update(OLDER_CONFIGS[name])
    path = tmp_path / "report.json"
    path.write_text(json.dumps(d))
    rebuilt = load_report(path)
    assert ScanConfig.from_dict(rebuilt["config"]) == FAST
    # the loaded report keeps the file's own scheme, or its lack of one
    assert rebuilt["config"].get("rng_scheme") == OLDER_CONFIGS[name].get("rng_scheme")
    assert rebuilt == d


@pytest.mark.parametrize("family", ["rbf", "linear"])
@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
def test_observed_from_pool_gram_matches_mmd_bitwise(family, estimator):
    # at this width numpy sums a strided Gram block in another order than a
    # contiguous one, so the blocks must be copied out to keep the bits
    pair = gaussian_pair(seed=16, n=130, shift=0.5)
    config = ScanConfig(window=120, bootstraps=5, stride=5, estimator=estimator, kernel=KernelSpec(family))
    report = drift_scan(*pair, config)
    for w in report["windows"]:
        rows = (w["t_index"] - config.window, w["t_index"])
        squared, _ = mmd(config.kernel, pair[0][slice(*rows)], pair[1][slice(*rows)],
                         estimator, bandwidth=report["bandwidth_used"])
        assert (w["observed_sq"], w["observed"]) == (squared, mmd_value(squared))


def test_report_schema_fields():
    d = drift_scan(*gaussian_pair(seed=12), FAST)
    assert tuple(d) == REPORT_KEYS
    for key in (
        "config",
        "bandwidth_used",
        "windows",
        "summary_score",
        "summary_median",
        "argmax_index",
        "cause_reference",
        "cause_target",
    ):
        assert key in d
    w = d["windows"][0]
    assert tuple(w) == WINDOW_KEYS == (
        "t_index", "start_index", "observed_sq", "observed", "boot_median", "p_value", "flagged")
    assert d["config"]["seed"] == FAST.seed
    assert d["config"]["alpha"] == FAST.alpha


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
                 | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, "é ☃ \"\\\n\t\x00",
                                    "},\n      {", "}"]))
_JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda children: st.lists(children, max_size=4) | st.tuples(children)
                            | st.dictionaries(_JSON_KEYS, children, max_size=4), max_leaves=30)
#: window records of scalars take one call to json's C encoder; a list with any other item takes json.dumps
_SCALAR_RECORDS = st.dictionaries(_JSON_KEYS, _JSON_SCALARS, min_size=1, max_size=7)
_WINDOWS = st.lists(_SCALAR_RECORDS, min_size=1, max_size=5) | st.lists(_SCALAR_RECORDS | _JSON_VALUES, max_size=5)
_ENTRIES = st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=4)


@settings(max_examples=300, deadline=None)
@given(_ENTRIES | st.builds(lambda head, windows, tail: {**head, "windows": windows, **tail}, _ENTRIES, _WINDOWS,
                            _ENTRIES))
@example({"windows": [{}, [], {"a": [float("nan"), -0.0, 5e-324]}], "é\n": {"x": None, "y": True}, "z": []})
@example({"windows": [[1, [2.5, float("inf")], {"k": -float("inf")}], {}, [], "\u2603\"\\"]})
@example({"windows": [{"a": "},\n      {", "b": 1}, ["]", "[,"], (None, True), {"": -0.0}]})
@example({"config": {"cli": {"command": "scan"}}, "windows": [{"a": "},\n      {", "b": 1}, {1: None, None: "}"}],
          "cause": [1, 2]})
@example({"windows": [{"t_index": 3, "flagged": False}], "windows_": {}})
@example({"a": {"windows": [{"t_index": 3}]}, "windows": {"t_index": 3}})
@example({"windows": 1})
def test_report_to_json_writes_the_bytes_of_json_dumps(payload):
    # a report's window records go through json's C encoder; every byte must be the indenting encoder's
    assert report_to_json(payload) == json.dumps(payload, indent=2) + "\n"


def test_windows_csv_has_config_and_header():
    report = drift_scan(*gaussian_pair(seed=13), FAST)
    text = windows_to_csv(report)
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "t_index,observed_sq,boot_median,p_value"
    assert len(lines) == 2 + len(report["windows"])


def test_scan_is_deterministic_byte_identical():
    pair = gaussian_pair(seed=14)
    a = report_to_json(drift_scan(*pair, FAST))
    b = report_to_json(drift_scan(*pair, FAST))
    assert a == b


def test_per_window_bandwidth_policy_runs():
    pair = gaussian_pair(seed=15, n=24)
    config = ScanConfig(window=8, bootstraps=5, kernel=KernelSpec("rbf", "median-window"), seed=0)
    report = drift_scan(*pair, config)
    assert report["bandwidth_used"] is None  # no single global bandwidth
    assert all(np.isfinite(w["observed_sq"]) for w in report["windows"])


def test_linear_kernel_scan_runs():
    pair = gaussian_pair(seed=16, n=24)
    report = drift_scan(*pair, ScanConfig(window=8, bootstraps=5, kernel=KernelSpec("linear"), seed=0))
    assert report["bandwidth_used"] is None


@pytest.mark.parametrize("bandwidth, copies_both_sides", [("median", True), ("median-window", False), (1.5, False)])
@pytest.mark.parametrize("family", ["rbf", "linear"])
def test_only_the_global_median_copies_the_full_inputs(monkeypatch, family, bandwidth, copies_both_sides):
    # the shared bandwidth reads both sides' rows only for the global median;
    # the windows read slices of the stored rows, never a float64 copy of a side
    copied, pooled, sides = [], [], []

    class Spy(np.ndarray):
        def astype(self, dtype, *args, **kwargs):  # records the rows of each float64 copy
            if np.dtype(dtype) == np.float64:
                copied.append(len(self))
            return super().astype(dtype, *args, **kwargs)

    def spied(data):  # read-only float32 embeddings of the spy's type, which as_embeddings keeps
        sides.append(as_embeddings(data).view(Spy))
        return sides[-1]

    monkeypatch.setattr(simharness, "as_embeddings", spied)
    median = kernels.median_heuristic_bandwidth
    monkeypatch.setattr(kernels, "median_heuristic_bandwidth", lambda rows: pooled.append(len(rows)) or median(rows))
    spec = KernelSpec(family, bandwidth)
    drift_scan(*map(spied, gaussian_pair(seed=17, n=40)), ScanConfig(window=8, bootstraps=5, kernel=spec))
    null_calibration(trials=2, n=40, dims=3, window=8, bootstraps=5, seed=1, kernel=spec)
    assert len(sides) == 6 and all(as_embeddings(side) is side for side in sides)  # the scan's, then each trial's
    assert 40 not in copied
    assert set(pooled) <= {16, 80}  # a window's two sides or both full inputs
    # the scan, then each trial
    assert pooled.count(80) == (3 if copies_both_sides and spec.needs_bandwidth else 0)


@pytest.mark.parametrize("seed", [1.5, True, "3"])
def test_seed_must_be_an_integer(seed):
    for refuse in (check_seed, lambda s: derive_rng(s, "tag"), lambda s: ScanConfig(seed=s)):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            refuse(seed)


def test_config_validation():
    with pytest.raises(ValueError, match="window must be >= 1, got 0"):
        ScanConfig(window=0)
    with pytest.raises(ValueError, match="unbiased estimator needs blocks of >= 2 rows"):
        ScanConfig(window=1, estimator="unbiased")
    with pytest.raises(ValueError):
        ScanConfig(bootstraps=0)
    with pytest.raises(ValueError):
        ScanConfig(stride=0)
    with pytest.raises(ValueError):
        ScanConfig(alpha=1.0)
    with pytest.raises(ValueError):
        ScanConfig(estimator="robust")
    with pytest.raises(ValueError):
        ScanConfig(seed=-5)
