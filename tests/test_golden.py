"""Golden-output guard: byte-level pins for small fixed commands of every subcommand.

A refactor that keeps the outputs must keep these hashes. For the scan, two pins:

* ``SCAN_JSON_SHA256`` and ``SCAN_CSV_SHA256`` hash the whole report and
  window series. They move with any deliberate change to the outputs,
  including the bootstrap's index-draw scheme; update them in the same
  change and say why.
* ``OBSERVED_SHA256`` hashes only the observed side of the report: the
  statistic series, the drift score and the cause. Those fields do not
  depend on the bootstrap at all, and this pin dates from before the
  per-window bootstrap stream, so it shows that changing the null left the
  drift score and cause untouched.

``VARIANT_PINS`` hashes the JSON and CSV of the same scan under each
other kernel, estimator, split and bandwidth policy. ``BLOCKWISE_PINS``
hashes a scan whose pool is large enough for the median bandwidth to be
taken one row block at a time, so ``bandwidth_used`` from that pass is
pinned to the byte. Both were taken before that pass ran on threads.

For ``calibrate``, ``CALIBRATE_PINS`` hashes the JSON of two commands, and
the trials' p-values from :func:`null_calibration` with the same arguments,
since the JSON carries only the rejection count. Both were taken before the
observed statistic and the null of a trial moved onto one pool Gram matrix.
The p-value pins must also hold with the trials on 1, 2 and 3 threads.
``CALIBRATE_MEDIAN_WINDOW_PINS`` pins ``--bandwidth median-window`` the same
way; it was taken when that policy first chose each trial's bandwidth per
window, as a scan does, instead of over the trial's 2n pooled rows.

``COMMAND_PINS`` hashes the stdout and every written file of one command of
each other subcommand: ``mmd``, ``batch``, ``extract`` (one side and both),
``simulate mixture``, ``simulate ratio-drift`` and ``correlate``. They were
taken before the configuration echoes came from one table of keys.

The hashes hold for the float64 results of this numpy/scipy stack; a
platform whose ``exp`` rounds differently in the last bit moves them.
"""

import hashlib
import json

import pytest

from driftscan import kernels
from driftscan.cli import main
from driftscan.kernels import KernelSpec
from driftscan.simharness import null_calibration

SCAN_JSON_SHA256 = "9d830df1abd08419509517c26ac9e9a964fa05166d5f8319bc26a48e6278f6ff"
SCAN_CSV_SHA256 = "2c4aed7ad00edcd12b1cd8c2b48980e74c92a7fbb810b7554d70011bba41f862"
OBSERVED_SHA256 = "14fdcc96fb362188f6994adc2f61e489a7f9283d08fdd325559797cff8eaf910"

#: extra scan flags -> (sha256 of the JSON, sha256 of the CSV)
VARIANT_PINS = {
    ("--kernel", "linear"): (
        "652fefaddd332198e45a19132905ce86b8219fc6970b8da866166597136b1bf9",
        "0dc59777d060b093619dc91dade3d32ae6847325925a851e62a960ea3120a26f",
    ),
    ("--estimator", "unbiased"): (
        "6ce65e7a2d426b8a3be321eebd30293ae1041cd4f1526fac2a33e72cf083a972",
        "babf2ac15e5d10ba9c779e7caee0a31238f32e937038624558a5a540cfd23fa7",
    ),
    ("--split", "literal"): (
        "7368b55f7663d8334757b2d2d4dbcdfead1037ad0cec759f316d7848fc206c72",
        "bbc04e61e1f1dd5a96fe68a4495ce4e91e1b5a6a35a5828721e629bc073b1c9e",
    ),
    ("--bandwidth", "median-window"): (
        "5ea81eb836500b97c7b441701ae66c0f4a8fee4f88b50fc9426e94dfa0c40243",
        "7b301866a1224f7bf9a5745a56c35f20f0edd28243c5039efed0d0d15d0b18cc",
    ),
}
#: 2 x 1100 pooled rows make 2418450 pairs, over BLOCK_DISTANCES (2**21)
BLOCKWISE_ROWS = 1100
BLOCKWISE_PINS = (
    "d61174ee2d6073c8e2bf8db915cf3932be8c98df7749684ecc38d6eb7c10a9ad",
    "38993397c6f4f5300fd321975281f7df2afcb29e9aff54f23c0bebfbb2cdf796",
)

#: (kernel, estimator, split) -> (sha256 of the JSON, sha256 of the p-values' float64 bytes)
CALIBRATE_PINS = {
    ("rbf", "biased", "paired"): (
        "d2ffc8b57a9619bf16074dd6161c784193e2d5f7343d1cb3055cf58f3561de54",
        "009dcebe74eaa041235ed588b6fb456fa0aca11f86417d2a14fab2f82dda85d7",
    ),
    ("linear", "unbiased", "literal"): (
        "33779d442e5847bc111baf7172e4848682934c38e6dca28a9da515d19a25bd55",
        "90e9433e9b2d8d9297982fed35ccc695262daaa2c45a3b7a47c05630ea664756",
    ),
}
#: (sha256 of the JSON, sha256 of the p-values) of the same commands under
#: ``--bandwidth median-window``, which tests each trial's window at the
#: median distance of its own 2 * window pooled rows
CALIBRATE_MEDIAN_WINDOW_PINS = (
    "bf3cdd497d14b3827ad3e552ef51721ae12b6c9121cd637079d5b6a840bb70ad",
    "70165560abb3c880cfe33d3606cdd5239f04b7525dd7114bf3d9fa00cd5257e5",
)
#: alpha 0.5 makes the rejection count move with the p-values
CALIBRATE_ARGS = {"trials": 12, "n": 48, "dims": 3, "window": 8, "bootstraps": 19, "alpha": 0.5, "seed": 5}
SPLIT_POLICIES = {"paired": "paired_halves", "literal": "literal_quarter"}

#: name -> (argv run in the golden inputs' directory, files it writes,
#: sha256 of its stdout and then of each file). ``golden.json`` is the
#: report of the pinned scan.
COMMAND_PINS = {
    "mmd": (
        ["mmd", "--ref", "ref.csv", "--target", "target.csv"],
        (),
        ("91785042a44cdcf2ddda7cb40a6ceb7d5c57d2aa526f43a6096f3ba0506b80ed",),
    ),
    "batch": (
        ["batch", "--input", "ref.csv", "--batch-size", "16", "--seed", "4", "--out", "batch.csv"],
        ("batch.csv",),
        (
            "96ffc056c8cf463144a92382713518bd5a4caf80564887ed4dfa861729d0687c",
            "1edced15dca3db5fe73327b39bf0669386b09761a7f77f0b86366d89aa2a4b9c",
        ),
    ),
    "extract-target": (
        ["extract", "--ref", "ref.csv", "--target", "target.csv", "--report", "golden.json", "--out", "cause.csv"],
        ("cause.csv",),
        (
            "14714de61e5cf28b6f75957a3d6e78586e1d4c161fd8f030f75608003a94d3ed",
            "b47a27618ca9c692c87401e4ff5bd6769856af4a803fd1da587e69c822fe0ee7",
        ),
    ),
    "extract-both": (
        ["extract", "--ref", "ref.csv", "--target", "target.csv", "--report", "golden.json", "--which", "both",
         "--out-ref", "cause_ref.bin", "--out-target", "cause_target.bin", "--out-format", "binary"],
        ("cause_ref.bin", "cause_target.bin"),
        (
            "a4b42810636384a61def141bbe1510c8e311f18fd7b1c43a69693df980e0d5a0",
            "e8467d15a24322b26660752e003aede1eb08cca8359168b80156f84a3019933b",
            "b0512886362c9fcc3a4916195ec92f3ce823081848cd96f9e839441ddc7bc8e8",
        ),
    ),
    "simulate-mixture": (
        ["simulate", "mixture", "--n", "40", "--dims", "3", "--fraction", "0.3", "--seed", "4", "--out", "mix.csv"],
        ("mix.csv",),
        (
            "492d81720a465f559e48ff22d7a5aac10c74436d1ca7395eb345214ec2aada91",
            "a549c25c51c41ce9d95f1ea5e7138021b369ad795fc40d26ca3f894f24cb6bb4",
        ),
    ),
    "simulate-ratio-drift": (
        ["simulate", "ratio-drift", "--n", "400", "--dims", "3", "--fractions", "0.1,0.5,0.9", "--seed", "7",
         "--batch-size", "16", "--window", "8", "--bootstraps", "5"],
        (),
        ("671659ac1c595121c93a7ef6d2e5be1904b1692743131fd84f967a4843a0ed86",),
    ),
    "correlate": (
        ["correlate", "--profile", "0,1.5,3", "--n", "512", "--dims", "3", "--batch-size", "32", "--window", "8",
         "--bootstraps", "5", "--seed", "9", "--out", "buckets.csv"],
        ("buckets.csv",),
        (
            "0411f950493afc4f9499e49cd9a3c1cf326fc65dbff8d10dbd2c8d465d2b3649",
            "8cf73f99e899f498301646317b265319a4fa6a7819a71204acf5806198d80a5f",
        ),
    ),
}

OBSERVED_FIELDS = (
    "summary_score",
    "summary_median",
    "argmax_index",
    "cause_reference",
    "cause_target",
    "bandwidth_used",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observed_projection(report: dict) -> bytes:
    """The report's fields that do not depend on the bootstrap, as canonical JSON."""
    projection = {name: report[name] for name in OBSERVED_FIELDS}
    projection["windows"] = [[w["t_index"], w["observed_sq"], w["observed"]] for w in report["windows"]]
    return json.dumps(projection, sort_keys=True).encode("utf-8")


def _simulate_pair(work, n: int) -> None:
    for fraction, seed, side in ((0.5, 1, "ref"), (0.8, 2, "target")):
        assert main(["simulate", "mixture", "--n", str(n), "--dims", "4", "--fraction", str(fraction),
                     "--seed", str(seed), "--out", str(work / f"{side}.csv")]) == 0


def _scan(work, *flags: str, stride: int = 4) -> tuple[bytes, bytes]:
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)  # the report echoes the input paths; keep them relative
        assert main(["scan", "--ref", "ref.csv", "--target", "target.csv", "--window", "16",
                     "--bootstraps", "19", "--stride", str(stride), "--seed", "5", *flags,
                     "--out", "report.json", "--csv-out", "series.csv"]) == 0
    return (work / "report.json").read_bytes(), (work / "series.csv").read_bytes()


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    _simulate_pair(work, 160)
    return work


@pytest.fixture(scope="module")
def golden_run(golden_inputs):
    return _scan(golden_inputs)


def test_scan_outputs_match_golden_hashes(golden_run):
    report, series = golden_run
    assert _sha256(report) == SCAN_JSON_SHA256
    assert _sha256(series) == SCAN_CSV_SHA256


def test_observed_fields_match_golden_hash(golden_run):
    report, _ = golden_run
    assert _sha256(observed_projection(json.loads(report))) == OBSERVED_SHA256


@pytest.mark.parametrize("flags", sorted(VARIANT_PINS), ids=lambda flags: "=".join(flags).lstrip("-"))
def test_scan_variants_match_golden_hashes(golden_inputs, flags):
    report, series = _scan(golden_inputs, *flags)
    assert (_sha256(report), _sha256(series)) == VARIANT_PINS[flags]


def test_blockwise_bandwidth_scan_matches_golden_hashes(tmp_path, monkeypatch):
    _simulate_pair(tmp_path, BLOCKWISE_ROWS)
    calls = []
    real = kernels._blockwise_order_statistic
    monkeypatch.setattr(kernels, "_blockwise_order_statistic", lambda x, k: calls.append(k) or real(x, k))
    report, series = _scan(tmp_path, stride=512)
    assert len(calls) == 1  # the pooled median went through the row blocks
    assert (_sha256(report), _sha256(series)) == BLOCKWISE_PINS


@pytest.mark.parametrize("name", sorted(COMMAND_PINS))
def test_subcommand_outputs_match_golden_hashes(golden_inputs, golden_run, capsys, name):
    argv, files, pins = COMMAND_PINS[name]
    (golden_inputs / "golden.json").write_bytes(golden_run[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(golden_inputs)  # the configs echo the paths; keep them relative
        capsys.readouterr()
        assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert (_sha256(stdout), *(_sha256((golden_inputs / f).read_bytes()) for f in files)) == pins


@pytest.mark.parametrize("kernel, estimator, split", sorted(CALIBRATE_PINS))
def test_calibrate_outputs_match_golden_hashes(tmp_path, kernel, estimator, split):
    json_sha, p_values_sha = CALIBRATE_PINS[kernel, estimator, split]
    out = tmp_path / "calibrate.json"
    flags = [f"--{name}={value}" for name, value in CALIBRATE_ARGS.items()]
    assert main(["calibrate", *flags, "--kernel", kernel, "--estimator", estimator, "--split", split,
                 "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == json_sha
    result = null_calibration(**CALIBRATE_ARGS, kernel=KernelSpec(kernel), estimator=estimator,
                              split_policy=SPLIT_POLICIES[split])
    assert _sha256(result.p_values.tobytes()) == p_values_sha


def _p_values_by_workers(monkeypatch, **kwargs) -> list:
    # the trials on 1, 2 and 3 worker threads; each schedule must give the same bits
    hashes = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
        hashes.append(_sha256(null_calibration(**CALIBRATE_ARGS, **kwargs).p_values.tobytes()))
    return hashes


@pytest.mark.parametrize("kernel, estimator, split", sorted(CALIBRATE_PINS))
def test_calibrate_p_values_do_not_depend_on_the_worker_count(monkeypatch, kernel, estimator, split):
    hashes = _p_values_by_workers(monkeypatch, kernel=KernelSpec(kernel), estimator=estimator,
                                  split_policy=SPLIT_POLICIES[split])
    assert hashes == [CALIBRATE_PINS[kernel, estimator, split][1]] * 3


def test_calibrate_median_window_matches_golden_hashes(tmp_path, monkeypatch):
    json_sha, p_values_sha = CALIBRATE_MEDIAN_WINDOW_PINS
    out = tmp_path / "calibrate.json"
    flags = [f"--{name}={value}" for name, value in CALIBRATE_ARGS.items()]
    assert main(["calibrate", *flags, "--bandwidth", "median-window", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == json_sha
    assert _p_values_by_workers(monkeypatch, kernel=KernelSpec("rbf", "median-window")) == [p_values_sha] * 3
