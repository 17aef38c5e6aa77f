from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftscan import embeddings
from driftscan.embeddings import (
    DataError,
    FormatError,
    ValidationError,
    _declared_dims,
    _parse_csv,
    _parse_csv_strict,
    as_embeddings,
    check_same_dims,
    load_embeddings,
    save_embeddings,
)
from driftscan.kernels import KernelSpec
from driftscan.mmd import mmd
from driftscan.scan import ScanConfig, drift_scan, report_to_json
from peak_rss import HAS_PROC_STATUS, peak_rise_mb

finite_f32 = st.floats(
    min_value=-(2.0**60), max_value=2.0**60, allow_nan=False, allow_infinity=False, width=32
)


def matrices(min_rows=0, max_rows=12, max_dims=6):
    return st.integers(1, max_dims).flatmap(
        lambda d: arrays(np.float32, st.tuples(st.integers(min_rows, max_rows), st.just(d)), elements=finite_f32)
    )


def test_csv_parse_example(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    m = load_embeddings(p, "csv")
    assert m.shape == (2, 2)
    np.testing.assert_array_equal(m, np.array([[1, 2], [3, 4]], dtype=np.float32))


def test_csv_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# a comment\n1,2\n\n# another\n3,4\n")
    m = load_embeddings(p, "auto")
    assert m.shape[0] == 2


def test_csv_zero_row_renders_bare_zeros(tmp_path):
    p = tmp_path / "z.csv"
    save_embeddings([[0.0, 0.0, 0.0]], p, "csv")
    assert p.read_text() == "0,0,0\n"


def test_empty_binary_roundtrip(tmp_path):
    p = tmp_path / "e.bin"
    save_embeddings(np.zeros((0, 5)), p, "binary")
    m = load_embeddings(p, "auto")
    assert m.shape == (0, 5)


def test_empty_csv_needs_dims_header(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        load_embeddings(p, "csv")
    p.write_text("# dims=3\n")
    m = load_embeddings(p, "csv")
    assert m.shape == (0, 3)


def test_ragged_csv_names_line(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(FormatError, match="line 2"):
        load_embeddings(p, "csv")


def test_non_finite_csv_names_row_and_column(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("1,2\n3,nan\n")
    with pytest.raises(ValidationError, match="row 1, column 1"):
        load_embeddings(p, "csv")


@pytest.mark.parametrize(
    "row, error, where",
    [
        ("1,nan,abc", ValidationError, "row 0, column 1"),  # nan comes first in the row
        ("1,abc,nan", FormatError, "line 1: column 1"),
        ("inf,2,3", ValidationError, "row 0, column 0"),
        ("1,2,", FormatError, "line 1: column 2: cannot parse ''"),
    ],
)
def test_first_bad_field_of_a_row_sets_the_error(tmp_path, row, error, where):
    p = tmp_path / "f.csv"
    p.write_text(row + "\n")
    with pytest.raises(error, match=where):
        load_embeddings(p, "csv")


def test_csv_with_a_byte_order_mark_loads_to_the_same_bits(tmp_path):
    text = "# written by a spreadsheet\n1.5,-2\n0.1,3e-7\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert load_embeddings(marked).tobytes() == load_embeddings(plain).tobytes()


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
def test_a_byte_order_mark_keeps_the_error_line_numbers(tmp_path, encoding):
    p = tmp_path / "f.csv"
    p.write_bytes("1,2\n3,abc\n".encode(encoding))
    with pytest.raises(FormatError, match="line 2: column 1: cannot parse 'abc'"):
        load_embeddings(p)
    p.write_bytes("abc,2\n".encode(encoding))
    with pytest.raises(FormatError, match="line 1: column 0: cannot parse 'abc'"):
        load_embeddings(p)


def test_csv_values_follow_python_float(tmp_path):
    # surrounding spaces, digit-group underscores and a negative zero
    p = tmp_path / "f.csv"
    p.write_text(" 2.5 ,1_0,-0\n")
    v = load_embeddings(p, "csv")
    assert v.tolist() == [[2.5, 10.0, 0.0]]
    assert np.signbit(v[0, 2])


def test_non_finite_after_good_rows_names_its_data_row(tmp_path):
    # comments and blank lines count as lines but not as rows
    p = tmp_path / "n.csv"
    p.write_text("# note\n1,2\n\n3,4\n5,-inf\n")
    with pytest.raises(ValidationError, match="row 2, column 1"):
        load_embeddings(p, "csv")


def test_earlier_non_finite_row_wins_over_later_bad_text(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("1,2\n3,nan\nx,4\n")
    with pytest.raises(ValidationError, match="row 1, column 1"):
        load_embeddings(p, "csv")


def test_unparsable_token_names_position(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("1,2\nx,4\n")
    with pytest.raises(FormatError, match="line 2"):
        load_embeddings(p, "csv")


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_embeddings(tmp_path / "nope.csv")


def test_unknown_format_is_a_usage_error(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n")
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        load_embeddings(p, "xml")
    with pytest.raises(ValueError, match="^unknown format 'auto'$"):
        save_embeddings([[1.0]], p, "auto")
    assert p.read_text() == "1,2\n"


def test_save_to_directory_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot write"):
        save_embeddings([[1.0]], tmp_path, "csv")


def test_binary_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(FormatError, match="magic"):
        load_embeddings(p, "binary")


def test_binary_truncated_payload(tmp_path):
    p = tmp_path / "t.bin"
    save_embeddings([[1.0, 2.0]], p, "binary")
    p.write_bytes(p.read_bytes()[:-2])
    with pytest.raises(FormatError, match="payload"):
        load_embeddings(p, "binary")


def test_binary_nan_payload_names_position(tmp_path):
    p = tmp_path / "n.bin"
    save_embeddings([[1.0, 2.0]], p, "binary")
    blob = bytearray(p.read_bytes())
    blob[12:16] = np.float32("nan").tobytes()
    p.write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match="row 0, column 0"):
        load_embeddings(p, "binary")


def test_auto_sniffs_binary(tmp_path):
    p = tmp_path / "m.dat"
    src = as_embeddings([[1.5, -2.5]])
    save_embeddings(src, p, "binary")
    m = load_embeddings(p, "auto")
    np.testing.assert_array_equal(m, src)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_binary_roundtrip_bit_exact(values):
    m = as_embeddings(values)
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".bin")
    os.close(fd)
    try:
        save_embeddings(m, path, "binary")
        back = load_embeddings(path, "binary")
    finally:
        os.unlink(path)
    assert back.dtype == m.dtype
    np.testing.assert_array_equal(back, m)


@settings(max_examples=40, deadline=None)
@given(matrices(min_rows=1))
def test_csv_roundtrip_bit_exact(values):
    m = as_embeddings(values)
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        save_embeddings(m, path, "csv")
        back = load_embeddings(path, "csv")
    finally:
        os.unlink(path)
    np.testing.assert_array_equal(back, m)


def test_validation_rejects_non_finite_array():
    with pytest.raises(ValidationError, match="row 1, column 0"):
        as_embeddings([[1.0], [float("inf")]])


def test_validation_rejects_float32_overflow():
    with pytest.raises(ValidationError, match="float32 range"):
        as_embeddings([[1e300]])


def test_values_are_immutable():
    m = as_embeddings([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m[0, 0] = 5.0


def test_dims_must_be_positive():
    with pytest.raises(ValidationError):
        as_embeddings(np.zeros((3, 0), dtype=np.float32))


def test_mismatched_dims_are_refused():
    a = as_embeddings([[1.0, 2.0]])
    b = as_embeddings([[1.0]])
    with pytest.raises(ValidationError, match="dims"):
        check_same_dims(a, b)


def test_one_dimensional_input_is_refused():
    with pytest.raises(ValidationError, match="2-D"):
        as_embeddings([1.0, 2.0])


def test_read_only_float32_input_is_not_copied():
    values = np.arange(6, dtype=np.float32).reshape(3, 2)
    values.flags.writeable = False
    assert np.shares_memory(as_embeddings(values), values)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_writeable_input_is_copied(dtype):
    values = np.arange(6, dtype=dtype).reshape(3, 2)
    out = as_embeddings(values)
    assert out.dtype == np.float32 and not out.flags.writeable
    assert not np.shares_memory(out, values)
    values[0, 0] = 7.0
    assert out[0, 0] == 0.0


def test_float64_input_scans_as_its_float32_cast():
    rng = np.random.default_rng(4)
    ref, target = rng.standard_normal((40, 3)), rng.standard_normal((40, 3)) + 0.5
    config = ScanConfig(window=8, bootstraps=19, seed=2)
    cast = drift_scan(ref.astype(np.float32), target.astype(np.float32), config)
    assert report_to_json(drift_scan(ref, target, config)) == report_to_json(cast)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mmd_refuses_nan(dtype):
    x = np.ones((4, 2), dtype=dtype)
    y = x.copy()
    y[2, 1] = np.nan
    with pytest.raises(ValidationError, match="row 2, column 1"):
        mmd(KernelSpec("rbf", 1.0), x, y)


def _shortest(v: float) -> str:
    return np.format_float_positional(np.float32(v), unique=True, trim="-")


def _near_halfway(v: float, digits: int) -> str:
    # a decimal of `digits` significant digits next to the midpoint of v and
    # its float32 neighbour towards zero, where decimal -> double -> float32
    # could round apart
    a = np.float32(v)
    return f"{Decimal((float(a) + float(np.nextafter(a, np.float32(0)))) / 2):.{digits}e}"


_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
#: values that numpy's reader refuses or that are not finite float32s,
#: including U+001F, which numpy strips around a field and float() keeps
_AWKWARD = ["1_0", "\u0661", "nan", "-inf", "1e39", "", "x", "1e-50", "-0", "\x1f1", "2\x1f"]
_PADS = ["", "", " ", "\t", " \t ", "\xa0"]


@st.composite
def csv_texts(draw):
    clean = draw(st.booleans())
    number = st.one_of(_F32.map(_shortest), st.builds(_near_halfway, _F32, st.integers(9, 40)))
    if not clean:
        number = st.one_of(number, st.sampled_from(_AWKWARD))
    field = st.builds("{}{}{}".format, st.sampled_from(_PADS), number, st.sampled_from(_PADS))
    width = draw(st.integers(1, 4))
    widths = st.sampled_from([width] * 4 + ([] if clean else [width - 1, width + 1]))
    row = widths.flatmap(lambda d: st.lists(field, min_size=d, max_size=d)).map(",".join)
    other = st.sampled_from(["", "   ", "# note", "#,1"])
    lines = draw(st.lists(st.one_of(row, row, row, other), max_size=6))
    header = draw(st.sampled_from([None, f"# dims={width}", f" #dims={width + 1}", "# dims=x", "# dims=0"]))
    if header is not None:
        lines.insert(0, header)
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
    return "".join(line + draw(breaks) for line in lines)


def _outcome(parse, text):
    try:
        m = parse(text, "f.csv")
    except DataError as exc:
        return type(exc), str(exc)
    return m.shape, m.tobytes()


@settings(max_examples=300, deadline=None)
@given(csv_texts())
@example("1,2\n3,\x1f4\n")
@example("# dims=2\n1_0,2\n")
@example("1,\u0661\r\n")
@example("1,1e39\n")
@example("# dims=3\n1,2\n")
def test_csv_parse_matches_the_strict_walker(text):
    # numpy's reader must give the walker's float32 bits, or send the text
    # to the walker for its value or its error
    assert _outcome(_parse_csv, text) == _outcome(_strict_walk, text)


def _strict_walk(text, path):
    # the walker's input as _parse_csv prepares it: the stripped lines and line 1's declared dims
    lines = [line.strip() for line in text.splitlines()]
    return _parse_csv_strict(lines, _declared_dims(lines[0], path) if lines else None, path)


def test_valid_csv_never_reaches_the_strict_walker(tmp_path, monkeypatch):
    # a numpy upgrade or a refactor that sent every file down the slow path
    # would pass every other test
    def refuse(lines, declared_dims, path):
        raise AssertionError(f"{path} went to the strict walker")

    monkeypatch.setattr(embeddings, "_parse_csv_strict", refuse)
    p = tmp_path / "m.csv"
    p.write_text("1.5,-2\n3,4e-3\n")
    assert load_embeddings(p, "csv").tolist() == [[1.5, -2.0], [3.0, np.float32(4e-3)]]
    p.write_text("# dims=2\n# note\n 1 , 2 \r\n\n3,4\n")
    assert load_embeddings(p, "csv").tolist() == [[1.0, 2.0], [3.0, 4.0]]


#: a CSV load may peak this many times the file's size above the loading
#: process's resident size: the bytes, the text, its lines and the float32
#: matrix take about 3.4 times, where a list of Python floats per row took 8
CSV_LOAD_FILE_SIZES = 5


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs /proc/self/status for the child's own peak RSS")
def test_csv_load_memory_stays_within_a_few_file_sizes(tmp_path):
    p = tmp_path / "m.csv"
    save_embeddings(np.random.default_rng(3).standard_normal((4000, 64)), p, "csv")
    rise_mb = peak_rise_mb("from driftscan.embeddings import load_embeddings", f"load_embeddings({str(p)!r}, 'csv')")
    file_mb = p.stat().st_size / 2**20
    assert rise_mb < CSV_LOAD_FILE_SIZES * file_mb, f"load peaked {rise_mb:.1f} MB above start for {file_mb:.1f} MB"
