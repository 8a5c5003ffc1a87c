"""CSV serialization of labeled matrices and ECDF step data.

Numbers are written with repr, which round-trips doubles exactly, so a
reloaded matrix equals the in-memory one bit for bit.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataError


def label_to_str(label) -> str:
    if isinstance(label, (tuple, list)):
        return "|".join(str(part) for part in label)
    return str(label)


def write_matrix_csv(path: str, entries: np.ndarray, row_labels: list, col_labels: list[str]) -> None:
    entries = np.atleast_2d(np.asarray(entries, dtype=np.float64))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["voter", *[str(c) for c in col_labels]])
        for label, row in zip(row_labels, entries):
            writer.writerow([label_to_str(label), *[repr(float(v)) for v in row]])


def read_matrix_csv(path: str) -> tuple[np.ndarray, list[str], list[str]]:
    """Read a labeled matrix; returns (entries, row_labels, col_labels)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read matrix file {path}: {exc}") from exc
    if len(rows) < 2 or len(rows[0]) < 2:
        raise DataError(f"{path}: expected a header row plus at least one labeled data row")
    col_labels = rows[0][1:]
    repeated = next((label for i, label in enumerate(col_labels) if label in col_labels[:i]), None)
    if repeated is not None:
        raise DataError(f"{path}: column label {repeated!r} is repeated; strategy names must be unique")
    width = len(col_labels)
    row_labels, data = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width + 1:
            raise DataError(f"{path}, line {i}: expected {width + 1} cells, found {len(row)}")
        row_labels.append(row[0])
        try:
            data.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}, line {i}: {exc}") from exc
    entries = np.array(data)
    if not np.all(np.isfinite(entries)):
        raise DataError(f"{path}: matrix contains non-finite entries")
    return entries, row_labels, col_labels


def write_ecdf_csv(path: str, steps: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Long-format ECDF jump points: one (strategy, x, cdf) row per step."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "x", "cdf"])
        for name, (xs, cdf) in steps.items():
            for x, f in zip(xs, cdf):
                writer.writerow([name, repr(float(x)), repr(float(f))])


def read_ecdf_csv(path: str) -> dict[str, tuple[np.ndarray, np.ndarray]] | None:
    """Read ECDF step curves; returns None when the header is not strategy,x,cdf.

    Every curve's jump points and levels must lie in [0, 1] and be
    nondecreasing, and its last level must be 1.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["strategy", "x", "cdf"]:
                return None
            collected: dict[str, list[tuple[float, float]]] = {}
            for i, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise DataError(f"{path}, line {i}: expected 3 cells")
                try:
                    collected.setdefault(row[0], []).append((float(row[1]), float(row[2])))
                except ValueError as exc:
                    raise DataError(f"{path}, line {i}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read ECDF file {path}: {exc}") from exc
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
