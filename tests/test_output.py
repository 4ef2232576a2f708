"""read_csv, which parses every data cell in one numpy call, against the
per-line reader it replaced: the same columns bit for bit, or the same
ConfigError text, line numbers included."""

import os
import tempfile

import numpy as np
from hypothesis import example, given, strategies as st

from cavityspec.errors import ConfigError
from cavityspec.output import read_csv, read_text


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


@given(tables())
@example("# seed: 7\nt,x\n1,2\n# mid\n\n3,nan\n")
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
