"""Embedding sets and file ingestion.

Every other module takes embedding data as a read-only (rows, dims) float32
array, one row per sample, made by :func:`as_embeddings`. Statistics
downstream are computed in float64; float32 is the storage precision, which
matches both the binary file format and typical encoder output.

Two file formats are supported:

* CSV: one row per line, comma separated, full-precision decimal rendering.
  Lines starting with ``#`` are comments. An optional first line
  ``# dims=<d>`` declares the dimensionality, which permits empty matrices.
* binary: magic ``EMB1``, then row count and dim count as unsigned 32-bit
  little-endian integers, then the values as IEEE-754 float32 little-endian,
  row major. Binary round trips are bit-exact.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

BINARY_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")


class DataError(Exception):
    """Base class for data-dependent failures (bad files, bad values)."""


class FormatError(DataError):
    """A file does not parse under its declared format."""


class ValidationError(DataError):
    """Parsed data violates an invariant (non-finite value, shape mismatch)."""


class DegenerateInputError(DataError):
    """Input is too degenerate for the requested computation."""


def _check_finite(arr: np.ndarray, what: str = "non-finite value", after: str = "") -> None:
    """ValidationError naming 2-D ``arr``'s first non-finite entry as ``{what} at row r, column c{after}``."""
    if not np.isfinite(arr).all():
        r, c = np.argwhere(~np.isfinite(arr))[0]
        raise ValidationError(f"{what} at row {r}, column {c}{after}")


def as_embeddings(data) -> np.ndarray:
    """``data`` as a read-only (rows, dims) float32 array, the form every layer takes.

    A read-only float32 array is returned as it is and a writeable one as a
    read-only copy; any other input is read as float64 and cast to float32.
    ValidationError unless it is 2-D with at least one column and every
    value is finite and within float32's range.
    """
    arr = data if isinstance(data, np.ndarray) and data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D array, got {arr.ndim}-D")
    if arr.shape[1] < 1:
        raise ValidationError("embedding dimensionality must be >= 1")
    _check_finite(arr)
    if arr.dtype != np.float32:
        with np.errstate(over="ignore"):
            arr = arr.astype(np.float32)
        _check_finite(arr, "value", " exceeds float32 range")  # finite in float64 but not in float32
    elif arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def check_same_dims(reference: np.ndarray, target: np.ndarray) -> None:
    """ValidationError unless the two embedding sets have the same number of columns."""
    if reference.shape[1] != target.shape[1]:
        raise ValidationError(
            f"dimension mismatch: reference dims ({reference.shape[1]}) != target dims ({target.shape[1]})"
        )


def _format_value(v: np.float32) -> str:
    # shortest decimal that round-trips to the same float32
    return np.format_float_positional(v, unique=True, trim="-")


def _declared_dims(line: str, path: str) -> int | None:
    # the dims of a stripped first line '# dims=<d>', None for any other line
    if not (line.startswith("#") and line[1:].strip().startswith("dims=")):
        return None
    tail = line[1:].strip()[len("dims="):]
    try:
        dims = int(tail)
    except ValueError:
        raise FormatError(f"{path}: line 1: bad dims declaration {tail!r}") from None
    if dims < 1:
        raise FormatError(f"{path}: line 1: dims must be >= 1, got {dims}")
    return dims


def _parse_csv(text: str, path: str) -> np.ndarray:
    # numpy's C reader parses the data lines in one call. Its float32
    # converter parses each field to a double as float() does, then casts,
    # so it gives the bits of as_embeddings. It refuses every field float()
    # refuses, but strips the control character U+001F around a field,
    # which float() keeps. Such text, and every file numpy refuses or that
    # holds a non-finite value, goes to the strict walker, which alone
    # names an error's position.
    lines = [line.strip() for line in text.splitlines()]
    declared_dims = _declared_dims(lines[0], path) if lines else None
    data = [line for line in lines if line and not line.startswith("#")]
    if data and "\x1f" not in text:  # loadtxt warns on empty input
        try:
            values = np.loadtxt(data, delimiter=",", dtype=np.float32, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if declared_dims in (None, values.shape[1]) and np.isfinite(values).all():
                values.flags.writeable = False
                return values
    return _parse_csv_strict(lines, declared_dims, path)


def _parse_csv_strict(lines: list[str], declared_dims: int | None, path: str) -> np.ndarray:
    # Row by row and field by field, with float(), over the stripped lines
    # and line 1's declared dims: the first bad field of the first bad row
    # sets the error, text that is not a number as a FormatError, a
    # non-finite number as a ValidationError.
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
            if declared_dims is not None and width != declared_dims:
                raise FormatError(
                    f"{path}: line {lineno}: row has {width} values but header declares dims={declared_dims}"
                )
        elif len(fields) != width:
            raise FormatError(
                f"{path}: line {lineno}: ragged row, has {len(fields)} values, expected {width}"
            )
        row = []
        for col, field in enumerate(fields):
            try:
                value = float(field)
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: column {col}: cannot parse {field.strip()!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(f"{path}: non-finite value at row {len(rows)}, column {col}")
            row.append(value)
        rows.append(row)
    if not rows:
        if declared_dims is None:
            raise FormatError(f"{path}: no data rows and no '# dims=<d>' header")
        return as_embeddings(np.zeros((0, declared_dims)))
    return as_embeddings(rows)


def _parse_binary(blob: bytes, path: str) -> np.ndarray:
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated binary header ({len(blob)} bytes)")
    magic, n, d = _HEADER.unpack_from(blob)
    if magic != BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {BINARY_MAGIC!r}")
    if d < 1:
        raise FormatError(f"{path}: dims must be >= 1, got {d}")
    expected = _HEADER.size + 4 * n * d
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload is {len(blob) - _HEADER.size} bytes, expected {4 * n * d} for {n}x{d}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    out = np.ascontiguousarray(data, dtype=np.float32)
    _check_finite(out, f"{path}: non-finite value")
    out.flags.writeable = False
    return out


def load_embeddings(path, format: str = "auto") -> np.ndarray:
    """Load an embedding matrix from ``path``.

    ``format`` is ``csv``, ``binary``, or ``auto`` (sniffs the binary magic,
    otherwise parses as CSV).
    """
    if format not in ("csv", "binary", "auto"):
        raise ValueError(f"unknown format {format!r}")
    p = Path(path)
    try:
        blob = p.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc.strerror or exc}") from exc
    if format == "auto":
        format = "binary" if blob[:4] == BINARY_MAGIC else "csv"
    if format == "binary":
        return _parse_binary(blob, str(p))
    try:
        text = blob.decode("utf-8-sig")  # a leading byte-order mark, as Excel writes, is dropped
    except UnicodeDecodeError as exc:
        raise FormatError(f"{p}: not valid UTF-8 text: {exc}") from exc
    return _parse_csv(text, str(p))


def save_embeddings(m, path, format: str = "binary") -> None:
    """Write the embeddings ``m`` (:func:`as_embeddings`) to ``path`` as ``csv`` or ``binary``.

    The binary format round-trips bit-exactly. CSV rendering is lossless for
    float32 values (shortest decimal that uniquely identifies each value); a
    ``# dims=<d>`` header is emitted only for empty matrices, which would
    otherwise not be loadable.
    """
    if format not in ("csv", "binary"):
        raise ValueError(f"unknown format {format!r}")
    m = as_embeddings(m)
    rows, dims = m.shape
    if format == "binary":
        data = _HEADER.pack(BINARY_MAGIC, rows, dims) + np.ascontiguousarray(m, dtype="<f4").tobytes()
    else:
        lines = [f"# dims={dims}"] if rows == 0 else []
        data = "\n".join(lines + [",".join(map(_format_value, row)) for row in m]) + "\n"
    write_file(Path(path), data)


def write_file(path, data: str | bytes) -> None:
    """Write ``data`` to the file at ``path``, text as UTF-8; DataError if it cannot be written."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
