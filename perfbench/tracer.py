"""In-memory span tracer for one driftscan CLI run.

Run as a script, with ``PYTHONPATH`` naming the package's ``src`` directory:

    python3 perfbench/tracer.py SPANS.json -- scan --ref a.emb --target b.emb ...

It times ``import driftscan.cli``, wraps the public call boundaries between
the package's modules, calls ``driftscan.cli.main(argv)`` in this process and
writes every span to SPANS.json when the run ends. The package itself is not
modified: the wrappers replace the names each calling module bound with
``from .x import y``, so a boundary that a later version removes is listed
under ``missing`` and reports zero calls.

A span is ``[id, name index, start, end, parent id]``; times come from
``time.perf_counter`` and the parent is the innermost traced call open on the
same thread (-1 for none).
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
import uuid
from pathlib import Path


class Tracer:
    """Spans and counters kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call, and ``count(counts, args, kwargs, result)`` after it."""
        name_index = len(self.names)
        self.names.append(name)
        spans, ids, local, counts = self.spans, self._ids, self._local, self.counts

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name_index, start, end, parent))
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by its traced version; note it as missing if absent."""
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{name}:{attr}")
            return
        setattr(owner, attr, self.wrap(fn, name, count))

    def dump(self, path, **extra) -> None:
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing,
            **extra,
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _rows(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        return int(shape[0])
    return int(getattr(matrix, "rows", 0))


def _count_input(counts, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    _add(counts, "embeddings.input_bytes", os.path.getsize(path))


def _count_batch(counts, args, kwargs, result):
    _add(counts, "prep.rows_in", _rows(args[0] if args else kwargs.get("m")))
    _add(counts, "prep.rows_out", _rows(result))


def _count_pairs(counts, args, kwargs, result):
    # resolve_bandwidth(spec, pooled) or median_heuristic_bandwidth(samples)
    spec = args[0] if len(args) == 2 else None
    if spec is not None and not (spec.needs_bandwidth and isinstance(spec.bandwidth, str)):
        return  # a linear kernel or a fixed bandwidth computes no distances
    n = _rows(args[-1])
    _add(counts, "kernels.bandwidth_pairs", n * (n - 1) // 2)


def _count_entries(counts, args, kwargs, result):
    _add(counts, "kernels.gram_entries", int(getattr(result, "size", 0)))


def _count_null_stats(counts, args, kwargs, result):
    _add(counts, "resample.null_stats", len(getattr(result, "stats", ())))


def _count_windows(counts, args, kwargs, result):
    _add(counts, "scan.windows", len(getattr(result, "windows", ())))


def _count_trials(counts, args, kwargs, result):
    _add(counts, "simharness.trials", int(getattr(result, "trials", 0)))


#: (calling module, name bound there, span name, counter). Spans are named
#: after the layer that is called, so one layer's time adds up across callers.
BOUNDARIES = (
    ("cli", "load_embeddings", "embeddings.load", _count_input),
    ("cli", "batch_means", "prep.batch_means", _count_batch),
    ("cli", "drift_scan", "scan.drift_scan", _count_windows),
    ("cli", "report_to_dict", "scan.serialise", None),
    ("cli", "windows_to_csv", "scan.serialise", None),
    ("cli", "null_calibration", "simharness.calibration", _count_trials),
    ("scan", "resolve_bandwidth", "kernels.bandwidth", _count_pairs),
    ("scan", "median_heuristic_bandwidth", "kernels.bandwidth", _count_pairs),
    ("simharness", "resolve_bandwidth", "kernels.bandwidth", _count_pairs),
    ("mmd", "resolve_bandwidth", "kernels.bandwidth", _count_pairs),
    ("resample", "resolve_bandwidth", "kernels.bandwidth", _count_pairs),
    ("mmd", "kernel_matrix", "kernels.gram", _count_entries),
    ("resample", "kernel_matrix", "kernels.gram", _count_entries),
    ("scan", "mmd", "mmd.observed", None),
    ("simharness", "mmd", "mmd.observed", None),
    ("resample", "mmd_sq_from_gram", "mmd.reduce", None),
    ("scan", "combine_under_null", "resample.combine", None),
    ("simharness", "combine_under_null", "resample.combine", None),
    ("scan", "bootstrap_null", "resample.bootstrap", _count_null_stats),
    ("simharness", "bootstrap_null", "resample.bootstrap", _count_null_stats),
)


def install(tracer: Tracer) -> None:
    """Wrap every boundary in :data:`BOUNDARIES` and ``RngPolicy.stream``.

    Modules are looked up in ``sys.modules``: ``driftscan/__init__.py`` rebinds
    the attribute ``driftscan.mmd`` to the function of that name.
    """
    for module, attr, name, count in BOUNDARIES:
        tracer.patch(sys.modules.get(f"driftscan.{module}"), attr, name, count)
    rng = sys.modules.get("driftscan.rng")
    tracer.patch(getattr(rng, "RngPolicy", None), "stream", "rng.stream")


def summarise(trace: dict) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and each call's ``durations``.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_s: dict[int, float] = {}
    for _, _, start, end, parent in trace["spans"]:
        if parent >= 0:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for span_id, name_index, start, end, _ in trace["spans"]:
        entry = out.setdefault(
            trace["names"][name_index], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_s.get(span_id, 0.0)
        entry["durations"].append(duration)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- DRIFTSCAN_ARGS...", file=sys.stderr)
        return 1
    tracer = Tracer()
    cli = tracer.wrap(importlib.import_module, "cli.import")("driftscan.cli")
    install(tracer)
    code = tracer.wrap(cli.main, "cli.main")(argv[2:])
    tracer.dump(argv[0], exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
