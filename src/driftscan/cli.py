"""Command-line interface.

Subcommands: mmd, scan, batch, extract, simulate (ratio-drift | mixture),
calibrate, correlate. Exit codes: 0 success, 1 usage error, 2 data or
validation error, or not enough memory. Diagnostics go to stderr; data
goes to files named by flags or to stdout. Every output embeds the fully
resolved configuration, defaults and seed included, so runs can be
reproduced from their outputs alone.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import asdict, fields

from .embeddings import DataError, load_embeddings, save_embeddings, write_file
from .kernels import KernelSpec
from .mmd import mmd, mmd_value
from .prep import BatchConfig, batch_means
from .rng import derive_seed
from .scan import (ScanConfig, check_alpha, drift_scan, extract_cause_samples, load_report, report_to_json, table_csv,
                   windows_to_csv)
from .simharness import (RATIO_COLUMNS, SERIES_COLUMNS, ClassMixtureSpec, correlation_study, generate_mixture,
                         null_calibration, ratio_drift_study)

#: each subcommand's config echo after its "command" key, in order; a key
#: names an ``args`` attribute unless the command passes a resolved value
_ECHO_KEYS = {
    "mmd": ("ref", "target", "format", "kernel", "estimator"),
    "scan": ("ref", "target", "format", "batch_size"),
    "batch": ("input", "format", "batch_size", "shuffle", "seed", "tail_policy", "out", "out_format"),
    "extract": ("ref", "target", "report", "which", "out", "out_ref", "out_target", "out_format"),
    "simulate ratio-drift": ("n", "dims", "fractions", "scale", "separation", "batch_size", "scan"),
    "simulate mixture": ("n", "dims", "fraction", "scale", "separation", "seed", "out", "out_format"),
    "calibrate": ("trials", "n", "dims", "window", "bootstraps", "alpha", "seed", "kernel", "estimator"),
    "correlate": ("profile", "n", "dims", "batch_size", "scale", "separation", "scan"),
}

#: the ``args`` attributes that name output files, which no two flags of a command may share
_OUTPUT_FILES = ("out", "csv_out", "out_ref", "out_target")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _bandwidth_arg(text: str):
    """A number as a float, any other text as it is; :class:`KernelSpec` judges both."""
    try:
        return float(text)
    except ValueError:
        return text


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _add_io_flags(p):
    p.add_argument("--ref", required=True, metavar="PATH", help="reference embeddings file")
    p.add_argument("--target", required=True, metavar="PATH", help="target embeddings file")
    p.add_argument("--format", choices=("auto", "csv", "binary"), default="auto",
                   help="input file format (default: auto-sniff)")


def _add_kernel_flags(p):
    p.add_argument("--kernel", choices=("rbf", "linear"), default="rbf")
    p.add_argument("--bandwidth", type=_bandwidth_arg, default="median", metavar="POLICY",
                   help="median | median-window | positive number (default: median)")
    p.add_argument("--estimator", choices=("biased", "unbiased"), default="biased")


def _add_scan_flags(p):
    p.add_argument("--window", type=int, default=32, help="samples per compared window (default: 32)")
    p.add_argument("--bootstraps", type=int, default=50, help="null sign flips per window (default: 50)")
    p.add_argument("--stride", type=int, default=1, help="window step (default: 1)")
    p.add_argument("--alpha", type=float, default=0.05, help="flagging threshold (default: 0.05)")
    _add_kernel_flags(p)


def _add_run_flags(p):
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default: 0)")


def _add_study_flags(p, n: int, rows: str):
    p.add_argument("--n", type=int, default=n, help=f"samples per {rows} (default: {n})")
    p.add_argument("--dims", type=int, default=16)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--separation", type=float, default=4.0, help="class-mean separation in units of scale (default: 4)")
    p.add_argument("--batch-size", type=int, default=64)
    _add_scan_flags(p)
    _add_run_flags(p)


def _kernel_spec(args) -> KernelSpec:
    return KernelSpec(family=args.kernel, bandwidth=args.bandwidth)


def _from_args(keys, args, resolved: dict) -> dict:
    """Each key's value from ``resolved`` if it is there, else from ``args``, in order."""
    return {key: resolved[key] if key in resolved else getattr(args, key) for key in keys}


def _scan_config(args) -> ScanConfig:
    return ScanConfig(**_from_args([f.name for f in fields(ScanConfig)], args, {"kernel": _kernel_spec(args)}))


def _echo(command: str, args, **resolved) -> dict:
    """The config echo of ``command``, keyed as in ``_ECHO_KEYS``."""
    return {"command": command, **_from_args(_ECHO_KEYS[command], args, resolved)}


def _check_distinct_files(args) -> None:
    """ValueError if an output flag names the file of another output or of an input."""
    flags = {}
    for name in ("ref", "target", "report", "input", *_OUTPUT_FILES):
        path, flag = getattr(args, name, None), "--" + name.replace("_", "-")
        if not path or os.path.exists(path) and not os.path.isfile(path):
            continue  # a device such as /dev/null loses nothing when written twice
        stat = os.path.isfile(path) and os.stat(path)  # a file that exists is known by its inode, hard links and all
        key = (stat.st_dev, stat.st_ino) if stat else os.path.realpath(path)
        if key in flags and name in _OUTPUT_FILES:
            raise ValueError(f"{flag} names the same file as {flags[key]}: {path}")
        flags.setdefault(key, flag)


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when ``path`` is None or empty."""
    if path:
        write_file(path, text)
    else:
        sys.stdout.write(text)


def _warn_if_unflaggable(bootstraps: int, window: int, alpha: float, what: str) -> None:
    # the smallest p-value is 1/(k + 1); above alpha nothing can reach the threshold
    if bootstraps >= 1 and 1.0 / (bootstraps + 1) > alpha:
        print(f"warning: with --bootstraps {bootstraps} no p-value falls below 1/{bootstraps + 1} > --alpha {alpha}, "
              f"so no {what} can be flagged; use --bootstraps >= {math.ceil(1.0 / alpha) - 1}", file=sys.stderr)
    # a window of w rows has 2^(w - 1) flip values, and a flip ties the observed one with chance 2^(1 - w)
    if window >= 1 and window - 1 < math.log2(1.0 / alpha):
        print(f"warning: a --window {window} null has 2^{window - 1} distinct values, so a {what} rarely flags at "
              f"--alpha {alpha}; use --window >= {math.ceil(math.log2(1.0 / alpha)) + 1}", file=sys.stderr)


def _json_safe(value: float):
    # undefined statistics serialize as null rather than the non-JSON NaN literal
    return None if isinstance(value, float) and math.isnan(value) else value


def _load_sides(args) -> list:
    """The ``--ref`` and ``--target`` embeddings, in that order."""
    return [load_embeddings(path, args.format) for path in (args.ref, args.target)]


def cmd_mmd(args) -> int:
    spec = _kernel_spec(args)  # before the inputs are read, as in cmd_scan
    squared, bandwidth = mmd(spec, *_load_sides(args), args.estimator)
    _write_text(args.out, report_to_json({
        "config": _echo("mmd", args, kernel=asdict(spec)),
        "squared": squared,
        "value": mmd_value(squared),
        "bandwidth_used": bandwidth,
    }))
    return 0


def cmd_scan(args) -> int:
    # the flags are checked before the inputs are read: a usage error costs no parse
    config = _scan_config(args)
    batches = [] if args.batch_size is None else [
        BatchConfig(args.batch_size, shuffle=True, seed=derive_seed(args.seed, f"batch-{side}"))
        for side in ("ref", "target")
    ]
    _warn_if_unflaggable(config.bootstraps, config.window, config.alpha, "window")
    sides = _load_sides(args)
    if batches:
        sides = [batch_means(m, batch) for m, batch in zip(sides, batches)]
    report = drift_scan(*sides, config)
    # the CLI echo goes to the JSON's copy of the config, not to the CSV's
    _write_text(args.out, report_to_json({**report, "config": {**report["config"], "cli": _echo("scan", args)}}))
    if args.csv_out:
        _write_text(args.csv_out, windows_to_csv(report))
    return 0


def cmd_batch(args) -> int:
    config = BatchConfig(
        batch_size=args.batch_size,
        shuffle=not args.no_shuffle,
        seed=args.seed,
        tail_policy="keep_partial" if args.tail == "keep" else "drop",
    )
    matrix = load_embeddings(args.input, args.format)
    reduced = batch_means(matrix, config)
    save_embeddings(reduced, args.out, args.out_format)
    _write_text(None, report_to_json({
        "config": _echo("batch", args, shuffle=config.shuffle, tail_policy=config.tail_policy),
        "input_rows": len(matrix),
        "output_rows": len(reduced),
        "dims": reduced.shape[1],
    }))
    return 0


def cmd_extract(args) -> int:
    if args.which == "both" and not (args.out_ref and args.out_target):
        raise ValueError("--which both needs --out-ref and --out-target")
    if args.which != "both" and not args.out:
        raise ValueError(f"--which {args.which} needs --out")
    outs = {"reference": args.out_ref, "target": args.out_target} if args.which == "both" else {args.which: args.out}
    report = load_report(args.report)  # before the inputs: a bad report costs no parse
    sides = _load_sides(args)
    for which, path in outs.items():
        save_embeddings(extract_cause_samples(*sides, report, which), path, args.out_format)
    _write_text(None, report_to_json({
        "config": _echo("extract", args),
        "cause_reference": report["cause_reference"],
        "cause_target": report["cause_target"],
        "rows": report["cause_target"][1] - report["cause_target"][0] + 1,
    }))
    return 0


def _mixture(args, fraction: float = 0.5) -> ClassMixtureSpec:
    return ClassMixtureSpec(args.dims, args.n, fraction, args.seed, args.scale, args.separation)


def cmd_simulate_ratio(args) -> int:
    scan = _scan_config(args)
    _warn_if_unflaggable(scan.bootstraps, scan.window, scan.alpha, "window")
    rows = ratio_drift_study(_mixture(args), args.fractions, scan, batch_size=args.batch_size)
    _write_text(args.out, table_csv(_echo("simulate ratio-drift", args, scan=asdict(scan)), RATIO_COLUMNS, rows))
    return 0


def cmd_simulate_mixture(args) -> int:
    save_embeddings(generate_mixture(_mixture(args, args.fraction)), args.out, args.out_format)
    _write_text(None, report_to_json({"config": _echo("simulate mixture", args)}))
    return 0


def cmd_calibrate(args) -> int:
    check_alpha(args.alpha)  # before any trial: the rate is taken at alpha
    spec = _kernel_spec(args)
    p_values = null_calibration(
        trials=args.trials,
        n=args.n,
        dims=args.dims,
        window=args.window,
        bootstraps=args.bootstraps,
        seed=args.seed,
        kernel=spec,
        estimator=args.estimator,
    )
    # after the trials, so settings that fail print only their error
    _warn_if_unflaggable(args.bootstraps, args.window, args.alpha, "trial")
    rejections = int((p_values <= args.alpha).sum())
    _write_text(args.out, report_to_json({
        "config": _echo("calibrate", args, kernel=asdict(spec)),
        "trials": args.trials,
        "rejections": rejections,
        "rate": rejections / args.trials,
    }))
    return 0


def cmd_correlate(args) -> int:
    scan = _scan_config(args)
    _warn_if_unflaggable(scan.bootstraps, scan.window, scan.alpha, "window")
    rows, corr_bce, corr_auc = correlation_study(_mixture(args), args.profile, scan, args.batch_size)
    config = _echo("correlate", args, scan=asdict(scan))
    if args.out:
        _write_text(args.out, table_csv(config, SERIES_COLUMNS, rows))
    _write_text(None, report_to_json({
        "config": config,
        "pearson_drift_bce": _json_safe(corr_bce),
        "pearson_drift_auc": _json_safe(corr_auc),
    }))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="driftscan", description="Embedding drift detection via sliding-window MMD")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("mmd", help="MMD between two embedding files")
    _add_io_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_mmd)

    p = sub.add_parser("scan", help="sliding-window drift scan")
    _add_io_flags(p)
    _add_scan_flags(p)
    _add_run_flags(p)
    p.add_argument("--batch-size", type=int, default=None, metavar="N",
                   help="reduce inputs to means of N-sample batches before scanning")
    p.add_argument("--out", metavar="PATH", help="report JSON destination (default: stdout)")
    p.add_argument("--csv-out", metavar="PATH", help="also write the window series as CSV")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("batch", help="batch-mean reduction of one embedding file")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--format", choices=("auto", "csv", "binary"), default="auto")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true", help="keep input row order")
    p.add_argument("--tail", choices=("drop", "keep"), default="drop")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--out-format", choices=("csv", "binary"), default="csv")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("extract", help="rows of the drift-cause window from a report")
    _add_io_flags(p)
    p.add_argument("--report", required=True, metavar="PATH", help="drift report JSON")
    p.add_argument("--which", choices=("reference", "target", "both"), default="target")
    p.add_argument("--out", metavar="PATH", help="output for a single side")
    p.add_argument("--out-ref", metavar="PATH", help="reference output for --which both")
    p.add_argument("--out-target", metavar="PATH", help="target output for --which both")
    p.add_argument("--out-format", choices=("csv", "binary"), default="csv")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("simulate", help="synthetic-data studies and generators")
    sim = p.add_subparsers(dest="study", required=True, metavar="STUDY")

    q = sim.add_parser("ratio-drift", help="drift score vs target class-ratio table")
    q.add_argument("--fractions", type=_float_list, default=[0.1, 0.3, 0.5, 0.7, 0.9],
                   metavar="F1,F2,...", help="target positive-class fractions")
    _add_study_flags(q, 5000, "side")
    q.add_argument("--out", metavar="PATH", help="table CSV destination (default: stdout)")
    q.set_defaults(func=cmd_simulate_ratio)

    q = sim.add_parser("mixture", help="write a synthetic two-class embedding file")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--dims", type=int, required=True)
    q.add_argument("--fraction", type=float, default=0.5, help="positive-class fraction")
    q.add_argument("--scale", type=float, default=1.0)
    q.add_argument("--separation", type=float, default=4.0)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True, metavar="PATH")
    q.add_argument("--out-format", choices=("csv", "binary"), default="csv")
    q.set_defaults(func=cmd_simulate_mixture)

    p = sub.add_parser("calibrate", help="false-positive rate of the test under no drift")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--n", type=int, default=512, help="rows per side per trial (default: 512)")
    p.add_argument("--dims", type=int, default=8)
    p.add_argument("--window", type=int, default=32)
    p.add_argument("--bootstraps", type=int, default=199)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_kernel_flags(p)
    _add_run_flags(p)
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("correlate", help="drift vs scorer-performance correlation study")
    p.add_argument("--profile", type=_float_list, required=True, metavar="D1,D2,...",
                   help="per-bucket drift magnitudes")
    _add_study_flags(p, 4096, "bucket")
    p.add_argument("--out", metavar="PATH", help="per-bucket CSV destination")
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # library warnings print as one line each; the filters are restored on return
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            _check_distinct_files(args)  # before any file is read or written
            return args.func(args)
        except DataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            print(f"error: not enough memory: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
