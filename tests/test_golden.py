"""Golden-output guard: byte-level pins for small fixed commands of every subcommand.

A refactor that keeps the outputs must keep these hashes. For the scan, two pins:

* ``SCAN_JSON_SHA256`` and ``SCAN_CSV_SHA256`` hash the whole report and
  window series. They move with any deliberate change to the outputs,
  including the null's draw scheme; update them in the same change and say
  why.
* ``OBSERVED_SHA256`` hashes only the observed side of the report: the
  statistic series, the drift score and the cause. Those fields do not
  depend on the null at all, and this pin dates from before the per-window
  bootstrap stream, so it shows that changing the null left the drift score
  and cause untouched.

``VARIANT_PINS`` hashes the JSON and CSV of the same scan under each
other kernel, estimator and bandwidth policy. ``STRIDE_PINS`` hashes
the default scan and every variant at strides 1 and 8 as well, where runs of
16 and of 2 overlapping windows share their Grams. Every scan pin must
also hold with blocks of one window, of a few 3-window runs and of every
full run (``BLOCK_SHAPES``), and in a child process whose BLAS runs one
thread. ``BLOCKWISE_PINS``
hashes a scan whose pool is large enough for the median bandwidth to be
taken one row block at a time, so ``bandwidth_used`` from that pass is
pinned to the byte.
``NULL_PINS`` hashes the null statistics of single window tests, and
``SPAN_NULL_PINS`` a run of overlapping windows on stacked H blocks, at
shapes where a BLAS product of the signs and H adds its terms in an order
that depends on the shape and the thread count: one flip (a matrix-vector
product), windows of 129 and 160 rows, and the 32-row windows of 50 and 199
flips that the benchmark's scan and ``calibrate`` run. Each must also hold
in the child process whose BLAS runs one thread.
``OBSERVED_PINS`` and ``BLOCKWISE_OBSERVED_SHA256`` hash the observed
projection of each of those scans, and ``DATA_ROW_PINS`` the data rows of
``simulate ratio-drift`` and ``correlate``, which hold only observed
statistics. They were taken before the null moved from the bootstrap to
permutations, and show that neither that change nor the move to flips
touched the observed side.

The lockstep sign-flip null moved, once, every scan pin
(``SCAN_*_SHA256``, ``VARIANT_PINS``, ``STRIDE_PINS``, ``BLOCKWISE_PINS``),
``NULL_PINS``, ``SPAN_NULL_PINS`` and every calibrate p-value pin: the
per-window ``boot_median``, ``p_value`` and ``flagged``,
``boot_median_mean``, the trials' p-values and the config echo's
``rng_scheme``. The calibrate JSON pins moved where the rejection count
did. ``COMMAND_PINS`` did not move: its studies print only observed
statistics, and ``extract`` reads only the cause.

Rounding each window's H onto a grid before the sign product, so that the
product is exact in any order, moved the scan pins, ``BLOCKWISE_PINS``,
``NULL_PINS`` and ``SPAN_NULL_PINS`` once more: every null statistic and
``boot_median`` by a few ulps. No observed byte moved, nor did any calibrate
pin or ``COMMAND_PINS``.

For ``calibrate``, ``CALIBRATE_PINS`` hashes the JSON of two commands, and
the trials' p-values from :func:`null_calibration` with the same arguments
but ``alpha``, since the JSON carries only the rejection count.
The p-value pins must also hold with the trials on 1, 2 and 3 threads.
``CALIBRATE_MEDIAN_WINDOW_PINS`` pins ``--bandwidth median-window`` the same
way, a test of each trial's window at the median distance of its own rows.

``COMMAND_PINS`` hashes the stdout and every written file of one command of
each other subcommand: ``mmd``, ``batch``, ``extract`` (each side and both),
``simulate mixture``, ``simulate ratio-drift`` and ``correlate``. They were
taken before the configuration echoes came from one table of keys, all but
``extract-reference``: it was taken later, before ``extract`` wrote every
side it is asked for through one loop over the sides. The three
``*-negative-separation`` entries were taken while each study still
built its class means as vectors, and pin which way a negative separation
puts the classes and moves the positive mean.

The hashes hold for the float64 results of this numpy/scipy stack; a
platform whose ``exp`` rounds differently in the last bit moves them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftscan
from driftscan import kernels, resample, simharness
from driftscan.cli import main
from driftscan.kernels import KernelSpec
from driftscan.resample import scan_window_tests, window_test
from driftscan.simharness import null_calibration
from test_resample import blocks_of

SCAN_JSON_SHA256 = "01637011580d656fdd9345f8f14b0ce34bb454210572a82a9c2e6011c8aac580"
SCAN_CSV_SHA256 = "ee3e50180bdbb82153a25cb9a8def3c94255bc1f49405f074b740a3b846be8a6"
OBSERVED_SHA256 = "14fdcc96fb362188f6994adc2f61e489a7f9283d08fdd325559797cff8eaf910"

#: extra scan flags -> (sha256 of the JSON, sha256 of the CSV)
VARIANT_PINS = {
    ("--kernel", "linear"): (
        "534c5995f4a34a56ffaa323ed7436fbe728353e1b2ad11f66dec1676a474a899",
        "f4bdaa3c154630b529cf0ffd1f91a86461fdca68fef72be95478e47d93c0f610",
    ),
    ("--estimator", "unbiased"): (
        "b47d5f957e66f2adc6f8f56bbe3025b8ddc30f2a815bb567e13afc4cc24c4377",
        "5ad1b7de46b2d98e4f26714333966b160b6ae7c760da8eee74c7e77f7818734f",
    ),
    ("--bandwidth", "median-window"): (
        "0a3826ce60247f11efabb93dd728ec53edfecc59b44e23cd7ad1531105112085",
        "33711b87d8ff1b7895700ef6545a0e14b4f6dd6672ad5c9b68b175fd0221dd9c",
    ),
}
#: (stride, extra scan flags) -> (sha256 of the JSON, sha256 of the CSV)
STRIDE_PINS = {
    (1, ()): (
        "6b568988b261468a8c19b966f9691b961248480679b558bad4f05f5b9cb42462",
        "0dbbed15a7be62d4a687e254cb9381fc11574d68ba445341c84d6265861e0c67",
    ),
    (1, ("--bandwidth", "median-window")): (
        "a368460cd1afeda087b269e9a5f719d1dbc2309b560f595ca95fb73632a97212",
        "86d8ff04e50cc34d3404e89c938d2e53cc81793466338aca2fb21bee97bbcf95",
    ),
    (1, ("--estimator", "unbiased")): (
        "d91ed827850bea916db35ddba9cd9b4bcf447e5cfb7e924f247a89f8c05567d0",
        "337cc1856f24257c216fe09f82d60fb8dc6ba79f63a8d9ae337a1caae94d7ad6",
    ),
    (1, ("--kernel", "linear")): (
        "2278876e434565ec88acd49e770294efd574d031f5bf9ba0d932439641becaaa",
        "cf7f5d4a22c2e8b6c2f6d349ce42711aa109818f54ce1c889176fc99588bb7da",
    ),
    (8, ()): (
        "99d40f1544eecfb6464274485ff7b2204cb273e2ef7567c861aec12e14a1069f",
        "daa1ae0f9f4f7e5d8897d8418fb5d21cc83a7081d0bd0e3f33668aea0ee3dcf3",
    ),
    (8, ("--bandwidth", "median-window")): (
        "a9e6107f9b1ab0e0fec6a5c2bbebb9f55df7eabe1552656566a5437e36938d0a",
        "b240571ac9370650a2e16b72c9feb50dc31f2331e5082c72cc9d5e2537a4be2d",
    ),
    (8, ("--estimator", "unbiased")): (
        "66db44fee6ba3d5970e852100544c416695ac44428c916b4dcb0384fc0e4b2fd",
        "ebd4c8d2f268977de4f8ea9383d8e5d350b8797af319883d562c10c746838fb2",
    ),
    (8, ("--kernel", "linear")): (
        "e221501286174bb2e559689b58f34eb7bebf6666cf99959bab887a59f3fe7274",
        "aa9cf8c1b92051d2558351ab85bef20ecda9010e1afaed1fe95007eacd951413",
    ),
}
#: (stride, extra scan flags) -> sha256 of the report's :func:`observed_projection`.
#: The observed side does not depend on the null, so these hold through any
#: change to it.
OBSERVED_PINS = {
    (4, ()): OBSERVED_SHA256,
    (4, ("--bandwidth", "median-window")): "c922320561ad5de710924c05efd2b6845f48353816fc8566799a4132e2e6df3e",
    (4, ("--estimator", "unbiased")): "d15830c35f0e2df9231b80ad79988d47defc71622e3df0564eafbbd3e9eba8d4",
    (4, ("--kernel", "linear")): "997562e8775de81fa096e6b118a0064469497c68dd9148e6aad654c9064dcf01",
    (1, ()): "0defcd1b52c1af936cb21def3b37e1ade18e502cfbdefc46b55f42c5b68a8e07",
    (1, ("--bandwidth", "median-window")): "11ddb9d3787764c2ee07c1ea1c1b7e6e736b0ec0b21f4636bd35024b22207cb2",
    (1, ("--estimator", "unbiased")): "b3cd02e09d488d90f93cabc69d315ce4a9ae74e9da302d7d6619f39fede61b1c",
    (1, ("--kernel", "linear")): "2201252b86eba7f2d471914ebc0c679fbf9017803e779bd005911bf604d5d881",
    (8, ()): "7d25df4effc58e724fee4a6206867c6d5636e67cb4d24f6974dfd8d1ab0df9d5",
    (8, ("--bandwidth", "median-window")): "68f43be06f6f781ae912d9263d052e95efa8ce0545f961cfdc599fc7d1b3278a",
    (8, ("--estimator", "unbiased")): "b64a3c151eb058ac3192f2fda79257481b9414ff5cff5620e919af96558ab7d4",
    (8, ("--kernel", "linear")): "33dd86915c0ce9ec504af0aba58af384537d69e5ccb0a832bab046e274cde525",
}
#: every scan of the golden inputs: (stride, extra flags) -> its pins
SCAN_PINS = {
    (4, ()): (SCAN_JSON_SHA256, SCAN_CSV_SHA256),
    **{(4, flags): pins for flags, pins in VARIANT_PINS.items()},
    **STRIDE_PINS,
}
#: 2 x 1100 pooled rows make 2418450 pairs, over BLOCK_DISTANCES (2**21)
BLOCKWISE_ROWS = 1100
BLOCKWISE_PINS = (
    "5dc4dff918cba74d78228eeafd6d6d359553983c5357cd7c8be67dec1d5fccd6",
    "2a4ed39b55a6ed5634cce21828497209bb783a3fa0e4cc2dbe9c7670cff155a8",
)
BLOCKWISE_OBSERVED_SHA256 = "070ae36210ef4f04deb0264f20925ef6643f4fc296d85cca8c8527d9b031a6e3"

#: (width, bootstraps) -> sha256 of :func:`window_test`'s null statistics on :func:`_null_inputs`
NULL_PINS = {
    (32, 1): "5c38364dae5ae2d258f6c4fbf6b655867fe82130678b1cd8f73a0c4139e6a6dd",
    (32, 2): "916e88bf31ec80264f191bfb1255805b13757092a95b90d47b1bd383522b6802",
    (32, 50): "914bac93695c75ca255be6db1fe18f219b2fa371e414d5b24a55fd09ff8a7b3c",
    (32, 199): "d37d31a6504e663074e0468d0ddcb31a091d8012d3abfc9c0a068fe5de311066",
    (129, 50): "babf91bdc12340202771af5cbdc55601b48026333599a9eed10567891397d40b",
    (160, 19): "79d78b0c7226f0f619d1e083f2fdda85257ea20249de00b77818d0d1137f4bb6",
}
#: bootstraps -> sha256 of :func:`scan_window_tests`' observed MMD^2, medians and
#: p-values, 11 windows of 160 rows at stride 4 over 200 rows of :func:`_null_inputs`,
#: at the fixed bandwidth ``SPAN_BANDWIDTH``
SPAN_NULL_PINS = {
    1: "ae54e2e740ac02cc0a306ab82470904a92f47db9b904130d8a45aa1295ea798e",
    19: "dd510a09a0df8c97651d8473328384285a6897673193e9371853627d3848e4c2",
}
SPAN_BANDWIDTH = 2.0

#: (kernel, estimator) -> (sha256 of the JSON, sha256 of the p-values' float64 bytes)
CALIBRATE_PINS = {
    ("rbf", "biased"): (
        "819b8342ed28517b30b5f1aa1966c3f8a7d8d5f957c1b0b2664c219b524b8ddd",
        "41d38b2273b22d476a8242561a4eed94c9e7d5a9fe317de2e40bafce522054dd",
    ),
    ("linear", "unbiased"): (
        "a85841a46990e99cc60b46e3aa46f240ee4da0f1a31cf60df9ce0645cbf31adc",
        "77ca39ed1b17d3101fa7b92febe4d4686b3022e2af147d32fa649c52ae2ae5b4",
    ),
}
#: (sha256 of the JSON, sha256 of the p-values) of the same commands under
#: ``--bandwidth median-window``, which tests each trial's window at the
#: median distance of its own 2 * window pooled rows
CALIBRATE_MEDIAN_WINDOW_PINS = (
    "13d9bc915d3bb13fddd1347cbe8f300552ac2aebfccc44dc99e27ab74283e00c",
    "a4b8bdeb18ecd2143bab1033fcd77a770983064333242369a32489f4dd1367a0",
)
#: alpha 0.5 makes the rejection count move with the p-values
CALIBRATE_ARGS = {"trials": 12, "n": 48, "dims": 3, "window": 8, "bootstraps": 19, "alpha": 0.5, "seed": 5}
#: the same trials through :func:`null_calibration`, which returns the p-values and takes no alpha
NULL_CALIBRATION_ARGS = {name: value for name, value in CALIBRATE_ARGS.items() if name != "alpha"}

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
    "extract-reference": (
        ["extract", "--ref", "ref.csv", "--target", "target.csv", "--report", "golden.json", "--which", "reference",
         "--out", "cause_ref.csv"],
        ("cause_ref.csv",),
        (
            "7374147609e0973eb3b12f78a03ecc7549f0d3a75c737167cd3428b3e1d6393a",
            "5d24dfe6b0b219f20d3a42320b3ad5f6cc95ed59b84847d40fe890987203f88c",
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
        ("08159e254153ac91c09c9584caebefdb16ce00a8040882798adb660eb8680ad3",),
    ),
    "correlate": (
        ["correlate", "--profile", "0,1.5,3", "--n", "512", "--dims", "3", "--batch-size", "32", "--window", "8",
         "--bootstraps", "5", "--seed", "9", "--out", "buckets.csv"],
        ("buckets.csv",),
        (
            "98bcde2c4ff2fcb963bb495dc5a5f48f7086889deb5817bae9c9b73bf0521960",
            "91bc8bebe60264341e4954511d2cc378f9c19992621ee9a2c4a93a4519aee44a",
        ),
    ),
    "simulate-mixture-negative-separation": (
        ["simulate", "mixture", "--n", "40", "--dims", "3", "--fraction", "0.3", "--separation", "-1",
         "--out", "neg.csv"],
        ("neg.csv",),
        (
            "c5e0b39b78e1e1c2422893e3eaa4552b241ab81c04e3931c88bd9eafc44c181c",
            "9b013445720a91292519319b14e022d4b78ec73575555add1032dbc7a52e6b10",
        ),
    ),
    "simulate-ratio-drift-negative-separation": (
        ["simulate", "ratio-drift", "--n", "400", "--dims", "3", "--fractions", "0.1,0.9", "--batch-size", "16",
         "--window", "8", "--bootstraps", "5", "--separation", "-3", "--scale", "0.7"],
        (),
        ("ac718b0583d48af0faff784cf32ff1274088ac9c7b5dc5e5f8937f5c90eb35ea",),
    ),
    "correlate-negative-separation": (
        ["correlate", "--profile", "0,0.5,1.5,-1", "--n", "512", "--dims", "3", "--batch-size", "32", "--window",
         "8", "--bootstraps", "5", "--seed", "9", "--separation", "-2", "--out", "b.csv"],
        ("b.csv",),
        (
            "95da86cb4b2562de1171cd472cdb9a70b65a2163566718b409040c4be3fd6a29",
            "b4f429a7a5e9aaa317132c775005da3fcfae218fb41a8f14cff7162746a8d211",
        ),
    ),
}

#: name in COMMAND_PINS -> (the CSV it writes, None for stdout; sha256 of
#: its :func:`data_rows`). The rows hold only observed statistics, so these
#: hold through any change to the null.
DATA_ROW_PINS = {
    "simulate-ratio-drift": (None, "8ceb2c5d562d4f8d480ff22dfcd35a5cce70993ec2adbb3115f575bac9940d73"),
    "correlate": ("buckets.csv", "40bbd616b2e186414f31bddd0087a8aea328257518f5b06679651fffb66d86f4"),
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


def data_rows(table: bytes) -> bytes:
    """A CSV table without its ``# config:`` line."""
    return b"".join(line for line in table.splitlines(keepends=True) if not line.startswith(b"# config:"))


def _observed_sha256(report_path) -> str:
    return _sha256(observed_projection(json.loads(report_path.read_bytes())))


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


#: (windows a run, runs a block) in the block-shape checks: one window a
#: block, a few runs a block, and all runs in one block (32 windows is more
#: than any golden run may hold, so the run holds width // stride)
BLOCK_SHAPES = ((1, 1), (3, 4), (32, 32))


def _scan_by_block_shape(monkeypatch, work, *flags: str, stride: int) -> list:
    # the golden scan (w = 16, k = 19) in each block shape; each must give the same bytes
    grams = []
    real = resample.kernel_matrix
    monkeypatch.setattr(resample, "kernel_matrix", lambda *args: grams.append(1) or real(*args))
    hashes = []
    for windows, runs in BLOCK_SHAPES:
        blocks_of(monkeypatch, windows, runs)
        grams.clear()
        hashes.append(tuple(map(_sha256, _scan(work, *flags, stride=stride))))
        count = len(json.loads((work / "report.json").read_bytes())["windows"])
        run = 1 if "median-window" in flags else max(1, min(windows, 16 // stride))
        # one Gram build a block: the full runs, then a shorter last run of its own
        assert len(grams) == -(-(count // run) // runs) + (count % run > 0)
    return hashes


_ONE_BLAS_THREAD = """
import hashlib, json, os, sys
from driftscan.cli import main
import test_golden as golden
os.chdir(sys.argv[1])
hashes = []
for stride, flags in json.loads(sys.argv[2]):
    assert main(["scan", "--ref", "ref.csv", "--target", "target.csv", "--window", "16", "--bootstraps", "19",
                 "--stride", str(stride), "--seed", "5", *flags, "--out", "blas.json", "--csv-out", "blas.csv"]) == 0
    hashes.append([hashlib.sha256(open(name, "rb").read()).hexdigest() for name in ("blas.json", "blas.csv")])
nulls = [golden.window_null_sha256(width, k) for width, k in sorted(golden.NULL_PINS)]
spans = [golden.span_null_sha256(k) for k in sorted(golden.SPAN_NULL_PINS)]
print(json.dumps([hashes, nulls, spans]))
"""


@pytest.fixture(scope="module")
def one_blas_thread_hashes(golden_inputs):
    """The pinned hashes taken again in a child whose BLAS runs one thread.

    A dict of three: "scans" maps (stride, flags) to the hashes of every
    golden scan, "nulls" maps each key of ``NULL_PINS`` and "spans" each key
    of ``SPAN_NULL_PINS`` to its hash. BLAS picks the sum order of the
    null's sign product by its thread count, and the bytes must not move
    with it.
    """
    keys = sorted(SCAN_PINS)
    path = os.pathsep.join([str(Path(driftscan.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _ONE_BLAS_THREAD, str(golden_inputs), json.dumps(keys)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    scans, nulls, spans = json.loads(proc.stdout)
    return {"scans": {key: tuple(pins) for key, pins in zip(keys, scans)},
            "nulls": dict(zip(sorted(NULL_PINS), nulls)), "spans": dict(zip(sorted(SPAN_NULL_PINS), spans))}


@pytest.mark.parametrize("stride, flags", sorted(SCAN_PINS),
                         ids=[f"stride{s}-" + ("=".join(f).lstrip("-") or "default") for s, f in sorted(SCAN_PINS)])
def test_scan_outputs_do_not_depend_on_the_worker_count(golden_inputs, one_blas_thread_hashes, monkeypatch, stride,
                                                        flags):
    # the scan's only workers are BLAS threads; blocks of more or fewer windows must not move a byte either
    hashes = _scan_by_block_shape(monkeypatch, golden_inputs, *flags, stride=stride)
    assert _observed_sha256(golden_inputs / "report.json") == OBSERVED_PINS[stride, flags]
    assert hashes == [SCAN_PINS[stride, flags]] * len(BLOCK_SHAPES)
    assert one_blas_thread_hashes["scans"][stride, flags] == SCAN_PINS[stride, flags]


def test_blockwise_bandwidth_scan_matches_golden_hashes(tmp_path, monkeypatch):
    _simulate_pair(tmp_path, BLOCKWISE_ROWS)
    calls = []
    real = kernels._blockwise_order_statistic
    monkeypatch.setattr(kernels, "_blockwise_order_statistic", lambda x, k: calls.append(k) or real(x, k))
    hashes = _scan_by_block_shape(monkeypatch, tmp_path, stride=512)
    assert _observed_sha256(tmp_path / "report.json") == BLOCKWISE_OBSERVED_SHA256
    assert hashes == [BLOCKWISE_PINS] * len(BLOCK_SHAPES)
    assert len(calls) == len(BLOCK_SHAPES)  # each scan's pooled median went through the row blocks


@pytest.mark.parametrize("name", sorted(COMMAND_PINS))
def test_subcommand_outputs_match_golden_hashes(golden_inputs, golden_run, capsys, name):
    argv, files, pins = COMMAND_PINS[name]
    (golden_inputs / "golden.json").write_bytes(golden_run[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(golden_inputs)  # the configs echo the paths; keep them relative
        capsys.readouterr()
        assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    if name in DATA_ROW_PINS:
        table, rows_sha = DATA_ROW_PINS[name]
        assert _sha256(data_rows(stdout if table is None else (golden_inputs / table).read_bytes())) == rows_sha
    assert (_sha256(stdout), *(_sha256((golden_inputs / f).read_bytes()) for f in files)) == pins


@pytest.mark.parametrize("kernel, estimator", sorted(CALIBRATE_PINS))
def test_calibrate_outputs_match_golden_hashes(tmp_path, kernel, estimator):
    json_sha, p_values_sha = CALIBRATE_PINS[kernel, estimator]
    out = tmp_path / "calibrate.json"
    flags = [f"--{name}={value}" for name, value in CALIBRATE_ARGS.items()]
    assert main(["calibrate", *flags, "--kernel", kernel, "--estimator", estimator, "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == json_sha
    p_values = null_calibration(**NULL_CALIBRATION_ARGS, kernel=KernelSpec(kernel), estimator=estimator)
    assert _sha256(p_values.tobytes()) == p_values_sha


def _p_values_by_workers(monkeypatch, **kwargs) -> list:
    # the trials on 1, 2 and 3 worker threads; each schedule must give the same bits
    hashes = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(simharness, "_usable_cpus", lambda: workers)
        hashes.append(_sha256(null_calibration(**NULL_CALIBRATION_ARGS, **kwargs).tobytes()))
    return hashes


@pytest.mark.parametrize("kernel, estimator", sorted(CALIBRATE_PINS))
def test_calibrate_p_values_do_not_depend_on_the_worker_count(monkeypatch, kernel, estimator):
    hashes = _p_values_by_workers(monkeypatch, kernel=KernelSpec(kernel), estimator=estimator)
    assert hashes == [CALIBRATE_PINS[kernel, estimator][1]] * 3


def test_calibrate_median_window_matches_golden_hashes(tmp_path, monkeypatch):
    json_sha, p_values_sha = CALIBRATE_MEDIAN_WINDOW_PINS
    out = tmp_path / "calibrate.json"
    flags = [f"--{name}={value}" for name, value in CALIBRATE_ARGS.items()]
    assert main(["calibrate", *flags, "--bandwidth", "median-window", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == json_sha
    assert _p_values_by_workers(monkeypatch, kernel=KernelSpec("rbf", "median-window")) == [p_values_sha] * 3


def _null_inputs(rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, 4)), rng.standard_normal((rows, 4)) + 0.25


def window_null_sha256(width: int, k: int) -> str:
    """The hash that ``NULL_PINS`` pins at (width, k)."""
    _, stats, _, _ = window_test(KernelSpec(), *_null_inputs(width, width), k, 7, "biased")
    return _sha256(stats.tobytes())


def span_null_sha256(k: int) -> str:
    """The hash that ``SPAN_NULL_PINS`` pins at k."""
    x, y = _null_inputs(200, 160)
    columns = scan_window_tests(KernelSpec("rbf", SPAN_BANDWIDTH), x, y, 160, 4, k, 7, "biased", SPAN_BANDWIDTH)
    return _sha256(np.array(columns).tobytes())


@pytest.mark.parametrize("width, k", sorted(NULL_PINS))
def test_window_nulls_match_golden_hashes(one_blas_thread_hashes, width, k):
    assert window_null_sha256(width, k) == NULL_PINS[width, k]
    assert one_blas_thread_hashes["nulls"][width, k] == NULL_PINS[width, k]


@pytest.mark.parametrize("k", sorted(SPAN_NULL_PINS))
def test_stacked_window_nulls_match_golden_hashes(one_blas_thread_hashes, monkeypatch, k):
    for windows, runs in BLOCK_SHAPES:
        blocks_of(monkeypatch, windows, runs)
        assert span_null_sha256(k) == SPAN_NULL_PINS[k]
    assert one_blas_thread_hashes["spans"][k] == SPAN_NULL_PINS[k]
