"""`datasets.write_csv` formats the matrix block by block of rows, one
operation per block, and `datasets.read_csv` parses well-formed files with
numpy's C parser. This file holds the per-value writer, the one-string writer
and the line parser they replaced, copied as they were written before, and
checks that every file is written byte for byte as before and read bit for
bit as before, and that every malformed file fails with the same message,
naming the same line.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab import core, datasets

FMT = "%.17g"


# ---------------------------------------------------------------------------
# Reference copies

def ref_write_csv(path, data, header=None):
    X = np.atleast_2d(np.asarray(data, dtype=float))
    cols = header or [f"x{j}" for j in range(X.shape[1])]
    lines = [",".join(cols)]
    for row in X:
        lines.append(",".join(FMT % v for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def one_string_write_csv(path, data, header=None):
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    cols = header or [f"x{j}" for j in range(d)]
    row = ",".join([FMT] * d) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n" + (row * n) % tuple(X.ravel().tolist()))


def ref_lines(path):
    with open(path, "r", newline="") as fh:
        raw = fh.read()
    lines = [ln for ln in raw.replace("\r\n", "\n").replace("\r", "\n").split("\n") if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    return lines


def ref_read_csv(path):
    lines = ref_lines(path)
    rows = []
    width = len(lines[0].split(","))
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed number")
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# Checks

def outcome(read, path):
    """What a reader makes of a file: the array's shape, dtype and bytes, or
    the error's type and message."""
    try:
        X = read(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return X.shape, X.dtype.str, X.tobytes()


def assert_reads_as_before(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert outcome(datasets.read_csv, path) == outcome(ref_read_csv, path), repr(text)


def assert_writes_as_before(tmp_path, X, header=None):
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    ref_write_csv(ref, X, header)
    datasets.write_csv(new, X, header)
    assert new.read_bytes() == ref.read_bytes()
    assert outcome(datasets.read_csv, new) == outcome(ref_read_csv, new)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3, -123456789.123456789, 1e-5, 1e22, 7.0]


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (5, 1), (3, 3), (0, 2), (2, 0), (14, 2)])
def test_write_csv_matches_reference_on_edge_values(tmp_path, shape):
    X = np.resize(np.array(EDGE_VALUES), shape)
    assert_writes_as_before(tmp_path, X)
    assert_writes_as_before(tmp_path, X, header=[f"c%{j}" for j in range(shape[1])])


def test_write_csv_matches_reference_on_non_finite_and_1d(tmp_path):
    assert_writes_as_before(tmp_path, np.array([[np.nan, np.inf], [-np.inf, 1.0]]))
    assert_writes_as_before(tmp_path, [1.5, -2.0, 3e-310])
    assert_writes_as_before(tmp_path, 2.5)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_write_csv_matches_reference(tmp_path_factory, n, d, data):
    X = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n * d, max_size=n * d))).reshape(n, d)
    assert_writes_as_before(tmp_path_factory.mktemp("w"), X)


@pytest.mark.parametrize("n, sizes", [(370, [100, 100, 100, 70]), (340, [100, 100, 140]),
                                      (99, [99]), (0, [0])])
def test_write_csv_writes_row_blocks_as_one_string(tmp_path, monkeypatch, n, sizes):
    # blocks of 100 rows of 3 values; a tail of fewer than core.MIN_BLOCK_ROWS
    # rows joins the block before it
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 100 * 3 * 8)
    blocks = []

    def row_blocks(*args):
        blocks.extend(core.row_blocks(*args))
        return blocks

    monkeypatch.setattr(datasets, "row_blocks", row_blocks)
    X = np.resize(np.array(EDGE_VALUES), (n, 3))
    ref = tmp_path / "ref.csv"
    one_string_write_csv(ref, X)
    assert_writes_as_before(tmp_path, X)
    assert [b.stop - b.start for b in blocks] == sizes
    assert (tmp_path / "new.csv").read_bytes() == ref.read_bytes()


# Files the line parser reads: read_csv must return the same array, bit for bit.
VALID = {
    "lf": "a,b\n1,2\n3,4\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "lone cr": "a,b\r1,2\r3,4",
    "mixed newlines": "a,b\r\n1,2\r3,4\n5,6",
    "blank lines": "\n \t\na,b\n\n1,2\n   \n3,4\n\n",
    "one row": "a,b,c\n1,2,3\n",
    "one column": "a\n1\n2\n-3.5\n",
    "subnormals": "a,b\n5e-324,-4.9406564584124654e-324\n2.2250738585072009e-308,1e-310\n",
    "extremes": "a,b\n1e308,-1e308\n1.7976931348623157e308,-0\n",
    "underscores": "a,b\n1_0,2\n3,4_000.5\n",
    "padded fields": "a,b\n 1 ,\t2\n+3,4.\n.5,1E5\n",
    "unicode space": "a,b\n\u30001,2\xa0\n3,4\n",
    "unicode digits": "a\n\u0661\u0662\n",
    "header only": "a,b\n",
    "hash header": "# a,b\n1,2\n",
    "nan": "a,b\n1,nan\n3,4\n",
    "inf": "a,b\n1,2\n-Infinity,4\n",
    "overflow to inf": "a\n1e400\n",
    "separator-only line": "a,b\n1,2\n\x1c\n3,4\n",
    "separator in header": "a\x1d,b\n1,2\n",
}
# Files the line parser rejects: read_csv must raise the same error.
MALFORMED = {
    "wide row": "a,b\n1,2\n3,4,5\n6,7\n",
    "every row wide": "a,b\n1,2,3\n4,5,6\n",
    "narrow row": "a,b,c\n1,2\n",
    "hash line": "a,b\n1,2\n# note\n3,4\n",
    "hash field": "a,b\n1,2#3\n",
    "blank only": "\n \r\n\t\n",
    "empty": "",
    "non-number": "a,b\n1,2\n3,x\n",
    "empty field": "a,b\n1,\n",
    "hex": "a\n0x10\n",
    "inner space": "a,b\n1 2,3\n",
    "quoted": "a,b\n\"1\",2\n",
    "nul": "a,b\n1\x00,2\n",
    "unit separator": "a,b\n1\x1f,2\n",
    "file separator": "a,b\n1,2\n\x1c3,4\n",
}


@pytest.mark.parametrize("name", sorted(VALID) + sorted(MALFORMED))
def test_read_csv_matches_reference(tmp_path, name):
    text = VALID.get(name, MALFORMED.get(name))
    path = tmp_path / "in.csv"
    assert_reads_as_before(path, text)
    assert len(outcome(ref_read_csv, path)) == (3 if name in VALID else 2)


@pytest.mark.parametrize("name", ["nan", "inf", "overflow to inf"])
def test_non_finite_files_remain_usage_errors(tmp_path, name):
    path = tmp_path / "in.csv"
    path.write_text(VALID[name], encoding="utf-8", newline="")
    with pytest.raises(ValueError, match="holds a non-finite value"):
        datasets.read_matrix(str(path))


FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: FMT % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.3E" % v),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "+1", "-0", ".5", "5.", "1e-320", "1e308", "-1e400", "nan", "-inf",
                     "Infinity", " 2 ", "\t3", "x", "", "#", "1#", "0x1", "1 1", "1__0", "\x1c4",
                     "5\x1f", "\u20035", "\u0663"]),
)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = [",".join(f"h{j}" for j in range(width))]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "# c"])))
            continue
        row_width = width + draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
        lines.append(",".join(draw(FIELDS) for _ in range(max(row_width, 1))))
    if draw(st.booleans()):
        lines.insert(0, "")
    text = "".join(line + draw(NEWLINES) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_read_csv_matches_reference_on_generated_files(tmp_path_factory, text):
    assert_reads_as_before(tmp_path_factory.mktemp("r") / "in.csv", text)
