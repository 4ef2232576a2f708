"""read_csv, which hands the data rows to numpy's C reader, against the
per-line reader it replaced: the same columns bit for bit, or the same
ConfigError text, line numbers included.  write_csv_atomic, which prints a
column of integers with %d, against the per-row %.12g writer it replaced:
the same bytes."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cavityspec import output
from cavityspec.errors import ConfigError
from cavityspec.output import read_csv, read_text, write_csv_atomic


def _per_line_read_csv(path):
    """The reader read_csv replaced: one float() per cell, row by row."""
    header = {}
    names = None
    rows = []
    for lineno, raw in enumerate(read_text(path, "data file").split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                header[key.strip()] = value.strip()
            continue
        if names is None:
            names = [c.strip() for c in line.split(",")]
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ConfigError(
                f"{path}: line {lineno}: expected {len(names)} columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ConfigError(
                f"{path}: line {lineno}: malformed data row {line!r}") from exc
    if names is None:
        raise ConfigError(f"{path}: no column header found")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    return header, {name: data[:, i] for i, name in enumerate(names)}


def _outcome(reader, path):
    try:
        header, cols = reader(path)
    except ConfigError as exc:
        return str(exc)
    return header, [(name, col.view(np.uint64).tolist())
                    for name, col in cols.items()]


GOOD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", " 1 ", "1_0",
                     "+2.5e-3", "1e500", "-0", "١٢"]))
BAD = st.sampled_from(["", " ", "abc", "0x10", "1e", "1__0", "nan(1)",
                       "1.5j", "--1"])
COMMENTS = st.sampled_from(["", "   ", "#", "# note", "# key: value",
                            "## seed: 7", "#k:v:w"])


@st.composite
def tables(draw):
    """The text of a table: header lines, a column header, data rows, with
    comments and blank lines between them and some bad rows or cells."""
    width = draw(st.integers(1, 4))
    lines = draw(st.lists(COMMENTS, max_size=3))
    if draw(st.integers(0, 19)):  # now and then no column header at all
        lines.append(",".join(draw(st.lists(
            st.sampled_from(["t", "x", " y ", "counts"]),
            min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 8))):
        lines += draw(st.lists(COMMENTS, max_size=2))
        n = width
        if not draw(st.integers(0, 5)):
            n = draw(st.sampled_from([max(width - 1, 1), width + 1]))
        cells = draw(st.lists(st.one_of(GOOD, GOOD, GOOD, GOOD, GOOD, BAD)
                              if draw(st.integers(0, 4)) == 0 else GOOD,
                              min_size=n, max_size=n))
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@pytest.mark.filterwarnings("error")
@given(tables())
@example("# seed: 7\nt,x\n1,2\n# mid\n\n3,nan\n")
@example("t,x\n1,2\n3,4\n# end: 1\n")
@example("t,x\n1,2\n\n\x0b\n \x1c\n\xa0\n3,4\n")
@example("x\n1\n\n2\n\xa0\n3\n\n")
@example("t,x\n1,2,\n3,4,\n")
@example("t,x\n1_0,2\n3,١٢\n")
@example("t,x\n1,2,3\n4,5,6\n")
@example("t,x,y\n1\n2\n")
@example("t,x\n1,2\n1,abc\n1,2,3\n")
@example("t,x\n1,2\n1,2,3\n1,abc\n")
@example("t,x\n")
@example("# only: comments\n")
def test_read_csv_matches_the_per_line_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert _outcome(read_csv, path) == _outcome(_per_line_read_csv, path)


def _per_row_write_csv(columns, header):
    """The text write_csv_atomic wrote before: %.12g on every cell."""
    lines = [f"# {key}: {value}" for key, value in header.items()]
    lines.append(",".join(name for name, _ in columns))
    table = np.column_stack([np.asarray(col, dtype=float)
                             for _, col in columns])
    lines.extend(",".join("%.12g" % x for x in row) for row in table.tolist())
    return "\n".join(lines) + "\n"


# integers that %.12g prints in full, and cells that a column of them must
# not print with %d: 12 digits and more, -0.0, non-finite and fractional
INTEGRAL = st.one_of(st.integers(-10**12 + 1, 10**12 - 1).map(float),
                     st.sampled_from([999_999_999_999.0, -999_999_999_999.0,
                                      0.0, 1.0, -1.0]))
BREAKERS = st.sampled_from([1e12, -1e12, 2.0**53, 2.0**63, -2.0**63, -0.0,
                            float("nan"), float("inf"), -float("inf"), 0.5])


@st.composite
def csv_columns(draw):
    """1-4 equal-length columns, some of integers, now and then with one
    cell that is not a printable integer."""
    n = draw(st.integers(0, 20))
    columns = []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            col = draw(st.lists(INTEGRAL, min_size=n, max_size=n))
            if n and draw(st.booleans()):
                col[draw(st.integers(0, n - 1))] = draw(BREAKERS)
        else:
            col = draw(st.lists(st.floats(), min_size=n, max_size=n))
        columns.append((f"c{j}", col))
    return columns


@given(csv_columns(), st.sampled_from([1, 7, output._CSV_BLOCK]))
@example([("t", [0.0, -0.0, 1.0])], 1)
@example([("n", [999_999_999_999.0, -999_999_999_999.0, 3.0]),
          ("x", [1e12, -1e12, 0.25])], 7)
@example([("n", [2.0**53, 5.0]), ("m", [2.0**63, 1.0]),
          ("k", [-2.0**63, 2.0])], 1)
@example([("n", [1.0, float("nan")]), ("m", [float("inf"), 2.0]),
          ("k", [-float("inf"), 3.0])], 7)
def test_write_csv_matches_the_per_row_writer(columns, block):
    header = {"seed": 7}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(output, "_CSV_BLOCK", block):
        path = os.path.join(tmp, "table.csv")
        write_csv_atomic(path, columns, header)
        with open(path, "rb") as fh:
            assert fh.read() == _per_row_write_csv(columns, header).encode()
