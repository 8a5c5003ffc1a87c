"""Every CSV file predvote reads or writes: the data file, labeled matrices and ECDF steps.

read_rows and write_rows are the only places a CSV file is opened. Every
file is UTF-8; blank records are skipped on reading, and a file that
cannot be opened, decoded or parsed raises DataError. The parse_*
functions take read_rows' output. Numbers are written with repr, which
round-trips doubles exactly, so a reloaded matrix equals the in-memory one
bit for bit.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataError

ECDF_HEADER = ["strategy", "x", "cdf"]


def read_rows(path, what: str) -> tuple[list[str], list[list[str]], list[int]]:
    """(first non-blank record, the non-blank ones after it, the file line each starts on); what names the file."""
    rows, lines, start = [], [], 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    """Read a labeled matrix; returns (entries, row_labels, col_labels)."""
    return parse_matrix(path, *read_rows(path, "matrix file"))


def parse_matrix(path, header: list[str], rows: list[list[str]], lines) -> tuple[np.ndarray, list[str], list[str]]:
    """A labeled matrix from read_rows' output for path; returns (entries, row_labels, col_labels)."""
    if not rows or len(header) < 2:
        raise DataError(f"{path}: expected a header row plus at least one labeled data row")
    col_labels = header[1:]
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
            data.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from exc
    entries = np.array(data)
    if not np.all(np.isfinite(entries)):
        raise DataError(f"{path}: matrix contains non-finite entries")
    return entries, row_labels, col_labels


def write_ecdf_csv(path: str, steps: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Long-format ECDF jump points: one (strategy, x, cdf) row per step."""
    body = ([name, repr(float(x)), repr(float(f))] for name, (xs, cdf) in steps.items() for x, f in zip(xs, cdf))
    write_rows(path, [ECDF_HEADER, *body])


def read_ecdf_csv(path: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read ECDF step curves; returns {strategy: (jump points, levels)}."""
    return parse_ecdf(path, *read_rows(path, "ECDF file"))


def parse_ecdf(path, header: list[str], rows: list[list[str]], lines) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """ECDF step curves from read_rows' output for path.

    The header must be strategy,x,cdf. Every curve's jump points and levels
    must lie in [0, 1] and be nondecreasing, and its last level must be 1.
    """
    if header != ECDF_HEADER:
        raise DataError(f"{path}: expected the ECDF header {','.join(ECDF_HEADER)}, found {','.join(header)!r}")
    collected: dict[str, list[tuple[float, float]]] = {}
    for line, row in zip(lines, rows):
        if len(row) != 3:
            raise DataError(f"{path}, line {line}: expected 3 cells")
        try:
            collected.setdefault(row[0], []).append((float(row[1]), float(row[2])))
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from exc
    if not collected:
        raise DataError(f"{path}: ECDF step file has no steps")
    steps = {}
    for name, pairs in collected.items():
        xs, cdf = np.array(pairs).T
        if not np.all((xs >= 0) & (xs <= 1) & (cdf >= 0) & (cdf <= 1)):
            raise DataError(f"{path}: ECDF steps of {name!r} must lie in [0, 1]")
        if np.any(np.diff(xs) < 0) or np.any(np.diff(cdf) < 0):
            raise DataError(f"{path}: ECDF steps of {name!r} must be nondecreasing")
        if cdf[-1] != 1.0:
            raise DataError(f"{path}: ECDF of {name!r} must end at level 1, not {cdf[-1]!r}")
        steps[name] = (xs, cdf)
    return steps
