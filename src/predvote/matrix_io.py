"""Every CSV file predvote reads or writes: the data file, labeled matrices and ECDF steps.

read_rows and write_rows are the only places a CSV file is opened. Every
file is UTF-8; blank records are skipped on reading, and a file that
cannot be opened, decoded or parsed raises DataError. Numbers are written
with repr, which round-trips doubles exactly, so a reloaded matrix equals
the in-memory one bit for bit. ECDF step files are written, never read.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError

ECDF_HEADER = ["strategy", "x", "cdf"]


def read_rows(path, what: str) -> tuple[list[str], list[list[str]], list[int]]:
    """(first non-blank record, the non-blank ones after it, the file line each starts on); what names the file."""
    rows, lines, start = [], [], 1
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(start)
                start = reader.line_num + 1  # a quoted field may span lines
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {what} {path}: not UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        raise DataError(f"cannot read {what} {path}, line {reader.line_num}: {exc}") from exc
    return (rows.pop(0) if rows else []), rows, lines[1:]


def parse_number(token: str, column: str) -> float:
    """The finite float a CSV cell of column holds; a ValueError naming the column and the token otherwise."""
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"column {column!r}: cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise ValueError(f"column {column!r}: non-finite value {token!r}")
    return value


def write_rows(path, rows) -> None:
    """Write an iterable of rows of cells as UTF-8 CSV in csv.writer's default dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_matrix_csv(path: str, entries: np.ndarray, row_labels: list, col_labels: list[str]) -> None:
    entries = np.atleast_2d(np.asarray(entries, dtype=np.float64))
    labels = ["|".join(map(str, label)) if isinstance(label, (tuple, list)) else str(label) for label in row_labels]
    rows = ([label, *[repr(float(v)) for v in row]] for label, row in zip(labels, entries))
    write_rows(path, [["voter", *[str(c) for c in col_labels]], *rows])


def read_matrix_csv(path: str) -> tuple[np.ndarray, list[str], list[str]]:
    """Read a labeled matrix; returns (entries, row_labels, col_labels). An ECDF step file is refused."""
    header, rows, lines = read_rows(path, "matrix file")
    if header == ECDF_HEADER:
        raise DataError(f"{path}: an ECDF step file ({','.join(ECDF_HEADER)}), not a labeled matrix")
    if not rows or len(header) < 2:
        raise DataError(f"{path}: expected a header row plus at least one labeled data row")
    col_labels = header[1:]
    if "" in col_labels:
        raise DataError(f"{path}: column {col_labels.index('') + 2} has an empty label; each strategy needs a name")
    repeated = next((label for i, label in enumerate(col_labels) if label in col_labels[:i]), None)
    if repeated is not None:
        raise DataError(f"{path}: column label {repeated!r} is repeated; strategy names must be unique")
    width = len(col_labels)
    row_labels, data = [], []
    for line, row in zip(lines, rows):
        if len(row) != width + 1:
            raise DataError(f"{path}, line {line}: expected {width + 1} cells, found {len(row)}")
        row_labels.append(row[0])
        try:
            data.append([parse_number(cell, label) for cell, label in zip(row[1:], col_labels)])
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from None
    return np.array(data), row_labels, col_labels


def write_ecdf_csv(path: str, steps: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Long-format ECDF jump points: one (strategy, x, cdf) row per step."""
    body = ([name, repr(float(x)), repr(float(f))] for name, (xs, cdf) in steps.items() for x, f in zip(xs, cdf))
    write_rows(path, [ECDF_HEADER, *body])
