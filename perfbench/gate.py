"""Correctness gate applied to every timed ``predvote run``.

A run passes when its accuracy matrix matches the expected one within
RTOL (ROADMAP item 2's tolerance), its four winner sets are identical to
the expected ones, and the ``--workers 1`` and ``--workers 2`` runs wrote
bit-identical matrices. CLI outputs are parsed here with the csv module,
not with predvote's own reader.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RTOL = 1e-9


@dataclass
class RunResult:
    """What one ``predvote run`` wrote: the accuracy matrix and its winners."""

    entries: np.ndarray
    row_labels: list[str]
    col_labels: list[str]
    winners: dict[str, list[str]]
    failed_refits: int
    raw_matrix: bytes

    def to_json(self) -> dict:
        return {
            "entries": [[repr(float(v)) for v in row] for row in self.entries],
            "row_labels": self.row_labels,
            "col_labels": self.col_labels,
            "winners": self.winners,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RunResult":
        entries = np.array([[float(v) for v in row] for row in doc["entries"]])
        return cls(entries, list(doc["row_labels"]), list(doc["col_labels"]), doc["winners"], 0, b"")


def read_run(out_dir: Path) -> RunResult:
    """Parse accuracy_matrix.csv and report.json from a run's output directory."""
    raw = (out_dir / "accuracy_matrix.csv").read_bytes()
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    entries = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    iterations = report["metadata"]["iterations"]
    effective = np.asarray(report["metadata"]["effective_iterations"])
    return RunResult(
        entries=entries,
        row_labels=[row[0] for row in rows[1:]],
        col_labels=rows[0][1:],
        winners={system: sorted(names) for system, names in report["winners"].items()},
        failed_refits=int((iterations - effective).sum()),
        raw_matrix=raw,
    )


def compare(result: RunResult, expected: RunResult) -> list[str]:
    """Reasons the result differs from the expected one; empty when it matches."""
    problems = []
    if result.row_labels != expected.row_labels or result.col_labels != expected.col_labels:
        problems.append("matrix labels differ")
    elif result.entries.shape != expected.entries.shape:
        problems.append("matrix shapes differ")
    elif not np.allclose(result.entries, expected.entries, rtol=RTOL, atol=0.0):
        worst = np.max(np.abs(result.entries - expected.entries) / np.abs(expected.entries))
        problems.append(f"matrix differs: max relative deviation {worst:.3e} > {RTOL:g}")
    if result.winners != expected.winners:
        problems.append(f"winner sets differ: {result.winners} != {expected.winners}")
    return problems


def compare_workers(one: RunResult, two: RunResult) -> list[str]:
    """The workers=1 and workers=2 runs must agree bit for bit."""
    problems = []
    if one.raw_matrix != two.raw_matrix:
        problems.append("workers=1 and workers=2 accuracy matrices are not bit-identical")
    if one.winners != two.winners:
        problems.append("workers=1 and workers=2 winner sets differ")
    return problems
