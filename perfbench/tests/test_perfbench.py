"""Tests of the benchmark itself: tiny runs of every workload, and tampered outputs.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer

TINY = {
    "scan-dense": replace(run.WORKLOADS["scan-dense"], rows=240, dims=4, window=16, bootstraps=19,
                          burst=(96, 128)),
    "scan-wide": replace(run.WORKLOADS["scan-wide"], rows=800, dims=8, window=16, bootstraps=9, stride=8),
    "calibrate": replace(run.WORKLOADS["calibrate"], n=64, dims=4, window=16, bootstraps=39),
}


@pytest.fixture(autouse=True)
def one_setup_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct(name, traced, tmp_path):
    result = run.run(TINY[name], seed=3, seconds=0.1, traced=traced, work=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if traced else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if traced:
        assert result["metrics"]["cli.main_s"]["value"] > 0
        assert result["metrics"]["rng.streams"]["value"] == result["metrics"]["resample.null_stats"]["value"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tamper_window(path: Path, field: str, change) -> None:
    report = json.loads(path.read_text())
    window = report["windows"][len(report["windows"]) // 2]
    window[field] = change(window[field])
    path.write_text(json.dumps(report, indent=2) + "\n")


@pytest.mark.parametrize(
    "field, change",
    [("observed_sq", lambda v: v * (1 + 1e-6)), ("p_value", lambda v: v - 1e-6)],
    ids=["observed_sq", "p_value"],
)
def test_tampered_report_counts_as_failed_run(field, change, tmp_path, monkeypatch):
    run_child = run.run_child

    def tampering_run_child(argv, work, deadline):
        child = run_child(argv, work, deadline)
        if (work / "report.json").exists():
            _tamper_window(work / "report.json", field, change)
        return child

    monkeypatch.setattr(run, "run_child", tampering_run_child)
    result = run.run(TINY["scan-dense"], seed=3, seconds=0.1, traced=False, work=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_differing_outputs_count_as_failed():
    reps = [run.Rep(run.Child(0, 1.0, 1.0, 1.0), [], digest) for digest in ("a", "a", "b")]
    assert run.count_failures(reps) == 1
    assert reps[2].errors == ["outputs differ from the first run's"]


def test_inputs_depend_only_on_seed():
    wl = TINY["scan-wide"]
    a, b, c = (run.make_scan_inputs(wl, s) for s in (5, 5, 6))
    assert all((x == y).all() for x, y in zip(a, b))
    assert not (a[0] == c[0]).all()


def test_missing_package_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "calibrate", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_summarise_subtracts_direct_children():
    trace = {
        "names": ["outer", "inner"],
        "spans": [(1, 1, 1.0, 3.0, 0), (2, 1, 4.0, 5.0, 0), (0, 0, 0.0, 10.0, -1)],
    }
    s = tracer.summarise(trace)
    assert s["outer"]["calls"] == 1 and s["outer"]["self_s"] == pytest.approx(7.0)
    assert s["inner"]["calls"] == 2 and s["inner"]["total_s"] == pytest.approx(3.0)


def test_missing_boundary_is_reported_not_fatal():
    t = tracer.Tracer()

    class Module:
        present = staticmethod(lambda x: x + 1)

    t.patch(Module, "present", "layer.present")
    t.patch(Module, "absent", "layer.absent")
    t.patch(None, "anything", "layer.gone")
    assert Module.present(1) == 2
    assert t.missing == ["layer.absent:absent", "layer.gone:anything"]
    assert tracer.summarise({"names": t.names, "spans": t.spans})["layer.present"]["calls"] == 1


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
