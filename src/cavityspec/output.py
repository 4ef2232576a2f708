"""Atomic file writers and the CSV dialect shared by all outputs.

Every file is written to a temporary name in the destination directory and
renamed into place, so readers never observe a partial file.  Numbers are
formatted with 12 significant digits (%.12g; a column of integers below 1e12
as %d, which prints the same digits); identical inputs therefore produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings

import numpy as np

from .errors import ConfigError

_CSV_BLOCK = 4096  # rows formatted per tolist() in write_csv_atomic


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_bytes_atomic(path, *chunks) -> None:
    """Write the bytes-like chunks, in order, as one file."""
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", suffix="~")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file owner-only; give it open()'s mode
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def write_json_atomic(path, obj) -> None:
    write_bytes_atomic(path, (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode("utf-8"))


def write_csv_atomic(path, columns: list[tuple[str, np.ndarray]],
                     header: dict | None = None) -> None:
    """Write named columns with '# key: value' header lines before the data."""
    lines = []
    for key, value in (header or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(name for name, _ in columns))
    arrays = [np.asarray(col, dtype=float) for _, col in columns]
    n = len(arrays[0]) if arrays else 0
    if any(len(a) != n for a in arrays):
        raise ValueError("all columns must have equal length")
    # a column of integers below 1e12 prints as %.12g prints it, but as %d
    # in a quarter of the time; -0.0 ("-0") and 1e12 ("1e+12") do not
    integral = [bool(np.all((np.abs(a) < 1e12) & (np.trunc(a) == a)
                            & ~((a == 0) & np.signbit(a)))) for a in arrays]
    row = ",".join("%d" if i else "%.12g" for i in integral)
    # a block of rows at a time: no copy of the whole table, and Python
    # numbers for the cells of one block only
    for start in range(0, n, _CSV_BLOCK):
        cols = [a[start:start + _CSV_BLOCK] for a in arrays]
        cols = [(c.astype(np.int64) if i else c).tolist()
                for c, i in zip(cols, integral)]
        lines.extend(map(row.__mod__, zip(*cols)))
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_text(path, what: str) -> str:
    """A UTF-8 text file's contents; any failure to read it is a ConfigError
    naming what the file was meant to be and its path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def read_csv(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by write_csv_atomic: (header dict, column dict).

    The lines after the column header go to numpy's C reader in one call; it
    converts each cell as float() does but takes no '#' or whitespace-only
    line, no '1_0' and no non-ASCII digit.  When it fails, the rows are read
    one by one, with float() on every cell, skipping comment and blank
    lines, so any table float() can read is read alike and the first bad
    line is named.
    """
    header = {}
    names = None
    rows = []
    # read_text's newline translation leaves "\n" as the only line end
    lines = read_text(path, "data file").split("\n")
    for lineno, raw in enumerate(lines, 1):
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
            try:
                with warnings.catch_warnings():  # "input contained no data"
                    warnings.simplefilter("ignore")
                    data = np.loadtxt(lines[lineno:], delimiter=",",
                                      comments=None, ndmin=2, dtype=float)
            except ValueError:
                continue
            if data.shape[0] and data.shape[1] == len(names):
                break
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ConfigError(f"{path}: line {lineno}: expected {len(names)} "
                              f"columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ConfigError(
                f"{path}: line {lineno}: malformed data row {line!r}") from exc
    else:  # no break: the C reader did not take the rows
        if names is None:
            raise ConfigError(f"{path}: no column header found")
        if not rows:
            raise ConfigError(f"{path}: no data rows")
        data = np.array(rows)
    return header, {name: data[:, i] for i, name in enumerate(names)}
