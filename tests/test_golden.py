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
16 and of 2 overlapping windows share one pool Gram; they were taken while
every window still built its own. Every scan pin must also hold with the
windows on 1, 2 and 3 threads. ``BLOCKWISE_PINS``
hashes a scan whose pool is large enough for the median bandwidth to be
taken one row block at a time, so ``bandwidth_used`` from that pass is
pinned to the byte. Both were taken before that pass ran on threads.
``NULL_PINS`` hashes the null statistics of single window tests, and
``SPAN_NULL_PINS`` a run of overlapping windows on stacked Grams, at shapes
where a BLAS product of the signs and the Gram may add its terms in another
order than einsum: one permutation (a matrix-vector product) and a pool
over 256 rows. They were taken while that product always ran through
einsum. ``OBSERVED_PINS`` and ``BLOCKWISE_OBSERVED_SHA256`` hash the observed
projection of each of those scans, and ``DATA_ROW_PINS`` the data rows of
``simulate ratio-drift`` and ``correlate``, which hold only observed
statistics. They were taken before the null moved from the bootstrap to
permutations, and show that that change left the observed side untouched.

The permutation null moved, once, every scan pin (``SCAN_*_SHA256``,
``VARIANT_PINS``, ``STRIDE_PINS``, ``BLOCKWISE_PINS``), every calibrate pin
and the ``simulate-ratio-drift`` and ``correlate`` entries of
``COMMAND_PINS``: the per-window ``boot_median``, ``p_value`` and
``flagged``, ``boot_median_mean``, the trials' p-values, and the config
echo (``rng_scheme``; no ``split_policy`` or ``split``). The pins of the
``--split literal`` scans went with the flag. The notes on when each pin
was taken describe the bootstrap pins that these replaced.

For ``calibrate``, ``CALIBRATE_PINS`` hashes the JSON of two commands, and
the trials' p-values from :func:`null_calibration` with the same arguments
but ``alpha``, since the JSON carries only the rejection count. Both were
taken before the observed statistic and the null of a trial moved onto one
pool Gram matrix.
The p-value pins must also hold with the trials on 1, 2 and 3 threads.
``CALIBRATE_MEDIAN_WINDOW_PINS`` pins ``--bandwidth median-window`` the same
way; it was taken when that policy first chose each trial's bandwidth per
window, as a scan does, instead of over the trial's 2n pooled rows.

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

import numpy as np
import pytest

from driftscan import kernels
from driftscan.cli import main
from driftscan.kernels import KernelSpec
from driftscan.resample import scan_window_tests, window_test
from driftscan.simharness import null_calibration

SCAN_JSON_SHA256 = "800437c0fa5123ab8a93000a5c95fdcd66ca604a10dd520ac5f5832a3b898e71"
SCAN_CSV_SHA256 = "896dd4faccc1a8c3c2bb7867a22a54af44730e9bfb1e8af0c9f060e143e2af29"
OBSERVED_SHA256 = "14fdcc96fb362188f6994adc2f61e489a7f9283d08fdd325559797cff8eaf910"

#: extra scan flags -> (sha256 of the JSON, sha256 of the CSV)
VARIANT_PINS = {
    ("--kernel", "linear"): (
        "efcdbbd33ce6c70b2dc4dac07ecc974117c88d4f03c49b5c7ba1f826f0d8b90a",
        "ba3ed40efd3aaab063676162db1d18b8dccbe1969f8b13939f3c61be7b2bcef0",
    ),
    ("--estimator", "unbiased"): (
        "257242530c10e0eccb69301ce66c242b36a9bc9feda2991a61a12ea5069b35a7",
        "67a7e1c5e0cf876bbf471f1d45ae7677be02809cc7f4119a32096d84850050fd",
    ),
    ("--bandwidth", "median-window"): (
        "e765dcf8dbd33f3e7afa3eb3ac850244c777d5d6fab170582fc4fb2df439c0a1",
        "685a9297c1665dce958041fda483a9e85adf2d44c7aefff0e5e08c75cbc884c0",
    ),
}
#: (stride, extra scan flags) -> (sha256 of the JSON, sha256 of the CSV)
STRIDE_PINS = {
    (1, ()): (
        "4aa0b66dc227cc8473b9c50fa7e2515f16935575171561bfca3020ed1c03c93b",
        "d1eb3998b0b732ffe0e0146cc3e6a3a469968c5c626a696285fa39dd7a0cb5fa",
    ),
    (1, ("--bandwidth", "median-window")): (
        "c91786d546a81fcbaa9554c85150fdc42224848b795092fe6e5566ea7a48bc8c",
        "110b62ed7b520db6d178c2179a994f8fcdbd84749497d131349f7d64b75715df",
    ),
    (1, ("--estimator", "unbiased")): (
        "b631e3fa96ab09041b3a1482c531e0bfdffea3cbd721f6c909904d4c658092f4",
        "e73e5ec7d56dbea273b963f82005d2f5b6eeb990e92d20017c3bb91b41e3c66d",
    ),
    (1, ("--kernel", "linear")): (
        "80254ae95b85f3f854ab7f3341cfb65119c1ba034cbdae4e649d50f6f857d8dd",
        "5bc1a3ebc6d6792474aa58f7c98d93a29ec64bf5d6f01ba0ccb8b26e3ff740e9",
    ),
    (8, ()): (
        "ae0f60a84b402104df8b2685cec089bae99a657030ed80793282ba2318e7ce43",
        "e92b956478c30920d1d0572db5f9412edff68140a8dc09bda44ca5bb8761bbfe",
    ),
    (8, ("--bandwidth", "median-window")): (
        "c752f0f2fdd9914bdb8e600f7fae6de241c9abffa53eb27c2b071b7873452cde",
        "6f4624d5f66ef5ad19a772b5ab845b7002e0dcca15423aed6b3aef07bcb59463",
    ),
    (8, ("--estimator", "unbiased")): (
        "b23b391e88793f8bc723704a1ee45f076f4917c625114b77ea7a6e2d70517912",
        "17b0349f5bc37ef3ac44599f3c5de1c3e3a9fc64809234ee321fd52f3cfa3b3f",
    ),
    (8, ("--kernel", "linear")): (
        "d9845cf19e1f817c76d7fbeacd396a64e86e42cea6000b318e4b060bbc395db4",
        "aa8db19d9da27f7cc148425203b98a2cc68c987e364c6ab02305a446c7785aca",
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
    "d86a374fba81b1296d04394cedd98d1f80ee7f0a5a58acfe5d6b8b4733bf7d71",
    "177f82f411b8dcb1383feb6306e999b2041ab8013aef40192607ed224f4a9ef7",
)
BLOCKWISE_OBSERVED_SHA256 = "070ae36210ef4f04deb0264f20925ef6643f4fc296d85cca8c8527d9b031a6e3"

#: (width, bootstraps) -> sha256 of :func:`window_test`'s null statistics on :func:`_null_inputs`
NULL_PINS = {
    (32, 1): "95f8978b0dbd4ccbf1b916b82e6fa6dac6ba5a1dfc48ded09e306fa91e9b9ca7",
    (32, 2): "cb282ac1315b2a34e820b616bc440a189ed6a16fa252bf5bca2d8802be2fe4a8",
    (129, 50): "0dc07eca5ccd07af1367c5abc4bc858cd2ff6ed294513893a2e2d79a9e3a97e4",
    (160, 19): "57c044ae1402fe6e3dffb96345c910c935d4c6f5f14974e66433b9249157ab6c",
}
#: bootstraps -> sha256 of :func:`scan_window_tests`' observed MMD^2, medians and
#: p-values, 11 windows of 160 rows at stride 4 over 200 rows of :func:`_null_inputs`,
#: at the fixed bandwidth ``SPAN_BANDWIDTH``
SPAN_NULL_PINS = {
    1: "aa48fb3de4a79bfee95a86695308e36bb5e9c0f655c8b0aebff22161763e392f",
    19: "f499438c268394bd154c354469bf726af89a423a6ef5922c769fc74ed5b5fc67",
}
SPAN_BANDWIDTH = 2.0

#: (kernel, estimator) -> (sha256 of the JSON, sha256 of the p-values' float64 bytes)
CALIBRATE_PINS = {
    ("rbf", "biased"): (
        "819b8342ed28517b30b5f1aa1966c3f8a7d8d5f957c1b0b2664c219b524b8ddd",
        "0406cd81b7e0f98a7fb4a4574a382129f97bbb39f8a7e008f262ef0c55c662dc",
    ),
    ("linear", "unbiased"): (
        "a787fef64b632e10a0d273932de5c38005b777a2797b600532784ca1a618caba",
        "f35f3f892e4881ee49e4504c07d1786039c8235311fee20b288fec44239e4f35",
    ),
}
#: (sha256 of the JSON, sha256 of the p-values) of the same commands under
#: ``--bandwidth median-window``, which tests each trial's window at the
#: median distance of its own 2 * window pooled rows
CALIBRATE_MEDIAN_WINDOW_PINS = (
    "90addabadc962957b53c471bcd84977bc0185a07f249595283c640794f4c58fc",
    "7604eed1573d3c015ac42b99cc795617fcb70553763d31514cd1698a9c447a67",
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


def _scan_by_workers(monkeypatch, work, *flags: str, stride: int) -> list:
    # the scan's windows on 1, 2 and 3 worker threads; each schedule must give the same bytes
    hashes = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
        hashes.append(tuple(map(_sha256, _scan(work, *flags, stride=stride))))
    return hashes


@pytest.mark.parametrize("stride, flags", sorted(SCAN_PINS),
                         ids=[f"stride{s}-" + ("=".join(f).lstrip("-") or "default") for s, f in sorted(SCAN_PINS)])
def test_scan_outputs_do_not_depend_on_the_worker_count(golden_inputs, monkeypatch, stride, flags):
    hashes = _scan_by_workers(monkeypatch, golden_inputs, *flags, stride=stride)
    assert _observed_sha256(golden_inputs / "report.json") == OBSERVED_PINS[stride, flags]
    assert hashes == [SCAN_PINS[stride, flags]] * 3


def test_blockwise_bandwidth_scan_matches_golden_hashes(tmp_path, monkeypatch):
    _simulate_pair(tmp_path, BLOCKWISE_ROWS)
    calls = []
    real = kernels._blockwise_order_statistic
    monkeypatch.setattr(kernels, "_blockwise_order_statistic", lambda x, k: calls.append(k) or real(x, k))
    hashes = _scan_by_workers(monkeypatch, tmp_path, stride=512)
    assert _observed_sha256(tmp_path / "report.json") == BLOCKWISE_OBSERVED_SHA256
    assert hashes == [BLOCKWISE_PINS] * 3
    assert len(calls) == 3  # each run's pooled median went through the row blocks


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
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
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


@pytest.mark.parametrize("width, k", sorted(NULL_PINS))
def test_window_nulls_match_golden_hashes(width, k):
    _, stats, _, _ = window_test(KernelSpec(), *_null_inputs(width, width), k, 7, "biased")
    assert _sha256(stats.tobytes()) == NULL_PINS[width, k]


@pytest.mark.parametrize("k", sorted(SPAN_NULL_PINS))
def test_stacked_window_nulls_match_golden_hashes(monkeypatch, k):
    x, y = _null_inputs(200, 160)
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
        columns = scan_window_tests(KernelSpec("rbf", SPAN_BANDWIDTH), x, y, 160, 4, k, 7, "biased", SPAN_BANDWIDTH)
        assert _sha256(np.array(columns).tobytes()) == SPAN_NULL_PINS[k]
