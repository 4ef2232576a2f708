"""Atomic file writers and the CSV dialect shared by all outputs.

Every file is written to a temporary name in the destination directory and
renamed into place, so readers never observe a partial file.  Numbers are
formatted with 12 significant digits; identical inputs therefore produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import ConfigError

_CSV_BLOCK = 4096  # rows formatted per tolist() in write_csv_atomic


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _atomic_write(path, data: bytes) -> None:
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", suffix="~")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file owner-only; give it open()'s mode
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_bytes_atomic(path, data: bytes) -> None:
    _atomic_write(path, data)


def write_text_atomic(path, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def write_json_atomic(path, obj) -> None:
    _atomic_write(path, (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode("utf-8"))


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
    row = ",".join(["%.12g"] * len(arrays))
    # a block of rows at a time: no copy of the whole table, and a Python
    # float for the cells of one block only
    for start in range(0, n, _CSV_BLOCK):
        block = np.column_stack([a[start:start + _CSV_BLOCK] for a in arrays])
        lines.extend(row % tuple(r) for r in block.tolist())
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


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

    Every data cell is parsed in one numpy call, which converts a str as
    float() does; only when that fails are the rows parsed one by one, to
    name the first malformed one.
    """
    header = {}
    names = None
    rows, linenos = [], []
    misfit = None  # the error of the first row with the wrong column count
    # read_text's newline translation leaves "\n" as the only line end
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
        n_cells = line.count(",") + 1
        if n_cells != len(names):
            misfit = (f"{path}: line {lineno}: expected {len(names)} columns, "
                      f"got {n_cells}")
            break
        rows.append(line)
        linenos.append(lineno)
    if rows:
        try:
            data = np.array(",".join(rows).split(","), dtype=float)
        except ValueError:  # row by row, to name the first malformed row
            data = np.array([_parse_row(path, lineno, line)
                             for lineno, line in zip(linenos, rows)])
    if misfit is not None:
        raise ConfigError(misfit)
    if names is None:
        raise ConfigError(f"{path}: no column header found")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = data.reshape(len(rows), len(names))
    return header, {name: data[:, i] for i, name in enumerate(names)}


def _parse_row(path, lineno: int, line: str) -> list[float]:
    try:
        return [float(c) for c in line.split(",")]
    except ValueError as exc:
        raise ConfigError(
            f"{path}: line {lineno}: malformed data row {line!r}") from exc
