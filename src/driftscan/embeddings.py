"""Embedding sample containers and file ingestion.

Every other module consumes embedding data through :class:`EmbeddingMatrix`,
an immutable n x d matrix of float32 values (one row per sample). Statistics
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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Immutable n x d matrix of embedding vectors, stored as float32.

    ``values`` is a read-only (rows, dims) array. Use :meth:`from_array` to
    construct from arbitrary array-likes with validation.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if not isinstance(v, np.ndarray) or v.ndim != 2:
            raise ValidationError("embedding data must be a 2-D array")
        if v.dtype != np.float32:
            raise ValidationError(f"embedding storage dtype must be float32, got {v.dtype}")
        if v.shape[1] < 1:
            raise ValidationError("embedding dimensionality must be >= 1")
        if not np.all(np.isfinite(v)):
            r, c = np.argwhere(~np.isfinite(v))[0]
            raise ValidationError(f"non-finite value at row {r}, column {c}")
        if v.flags.writeable:
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, "values", v)

    @classmethod
    def from_array(cls, data) -> "EmbeddingMatrix":
        """Build a matrix from any 2-D array-like, casting to float32."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"expected a 2-D array, got {arr.ndim}-D")
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            r, c = bad[0]
            raise ValidationError(f"non-finite value at row {r}, column {c}")
        with np.errstate(over="ignore"):
            out = arr.astype(np.float32)
        bad = np.argwhere(~np.isfinite(out))
        if bad.size:  # finite in float64 but overflows float32
            r, c = bad[0]
            raise ValidationError(f"value at row {r}, column {c} exceeds float32 range")
        out.flags.writeable = False
        return cls(out)

    @classmethod
    def empty(cls, dims: int) -> "EmbeddingMatrix":
        out = np.zeros((0, dims), dtype=np.float32)
        out.flags.writeable = False
        return cls(out)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def as_float64(self) -> np.ndarray:
        """Computation-precision copy of the data."""
        return self.values.astype(np.float64)

    def take_rows(self, start: int, stop: int) -> "EmbeddingMatrix":
        """Row slice [start, stop) as a new matrix."""
        v = self.values[start:stop]
        v.flags.writeable = False
        return EmbeddingMatrix(v)


@dataclass(frozen=True)
class DatasetPair:
    """A (reference, target) pair of embedding sets with matching dims."""

    reference: EmbeddingMatrix
    target: EmbeddingMatrix

    def __post_init__(self) -> None:
        if self.reference.dims != self.target.dims:
            raise ValidationError(
                f"reference dims ({self.reference.dims}) != target dims ({self.target.dims})"
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


def _parse_csv(text: str, path: str) -> EmbeddingMatrix:
    # numpy's C reader parses the data lines in one call. Its float32
    # converter parses each field to a double as float() does, then casts,
    # so it gives the bits of from_array. It refuses every field float()
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
                return EmbeddingMatrix(values)
    return _parse_csv_strict(text, path)


def _parse_csv_strict(text: str, path: str) -> EmbeddingMatrix:
    # Row by row and field by field, with float(): the first bad field of
    # the first bad row sets the error, text that is not a number as a
    # FormatError, a non-finite number as a ValidationError.
    declared_dims = None
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno == 1:
                declared_dims = _declared_dims(line, path)
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
        return EmbeddingMatrix.empty(declared_dims)
    return EmbeddingMatrix.from_array(rows)


def _parse_binary(blob: bytes, path: str) -> EmbeddingMatrix:
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
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        r, c = bad[0]
        raise ValidationError(f"{path}: non-finite value at row {r}, column {c}")
    out.flags.writeable = False
    return EmbeddingMatrix(out)


def load_embeddings(path, format: str = "auto") -> EmbeddingMatrix:
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


def save_embeddings(m: EmbeddingMatrix, path, format: str = "binary") -> None:
    """Write ``m`` to ``path`` as ``csv`` or ``binary``.

    The binary format round-trips bit-exactly. CSV rendering is lossless for
    float32 values (shortest decimal that uniquely identifies each value); a
    ``# dims=<d>`` header is emitted only for empty matrices, which would
    otherwise not be loadable.
    """
    if format not in ("csv", "binary"):
        raise ValueError(f"unknown format {format!r}")
    if format == "binary":
        data = _HEADER.pack(BINARY_MAGIC, m.rows, m.dims) + np.ascontiguousarray(m.values, dtype="<f4").tobytes()
    else:
        lines = [f"# dims={m.dims}"] if m.rows == 0 else []
        data = "\n".join(lines + [",".join(map(_format_value, row)) for row in m.values]) + "\n"
    write_file(Path(path), data)


def write_file(path, data: str | bytes) -> None:
    """Write ``data`` to the file at ``path``, text as UTF-8; DataError if it cannot be written."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
