"""The README's examples run as written, so the docs cannot drift from the API."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import driftscan
from driftscan.embeddings import load_embeddings

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"^```{language}\n(.*?)^```$", after, re.M | re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    np.save(tmp_path / "ref.npy", rng.standard_normal((256, 8)))
    np.save(tmp_path / "prod.npy", rng.standard_normal((256, 8)) + np.linspace(0.0, 1.0, 256)[:, None])
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("As a library:", "python"), str(README), "exec"), {})
    summary_line, rate_line = capsys.readouterr().out.splitlines()
    summary_score, argmax_index = summary_line.split()
    assert float(summary_score) > 0.0 and int(argmax_index) >= 0
    assert 0.0 <= float(rate_line) <= 1.0


def test_quick_start_runs(tmp_path):
    script = re.sub(r"^driftscan ", f"'{sys.executable}' -m driftscan ", _block("## Quick start", "sh"), flags=re.M)
    env = {**os.environ, "PYTHONPATH": str(Path(driftscan.__file__).resolve().parents[1])}
    proc = subprocess.run(["sh", "-e", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    start, end = report["cause_target"]
    assert load_embeddings(tmp_path / "cause.csv").shape[0] == end - start + 1
    assert (tmp_path / "series.csv").read_text().startswith("# config: ")
