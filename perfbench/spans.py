"""In-memory span recorder used around calls into predvote's public functions.

A span is (name, start, end, parent, cell, family). The layer of a span is
the part of its name before the first dot, so ``models.fit`` belongs to
``models``. A span's self time is its duration minus the durations of its
direct children; the self times of all spans under a root add up to the
root's duration.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path

_NULL = nullcontext()


class Tracer:
    """Collects spans; spans are kept in memory until ``write``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.cells: list[tuple[int, int] | None] = []
        self.families: list[str | None] = []
        self._stack: list[int] = []
        self.cell: tuple[int, int] | None = None

    def span(self, name: str, family: str | None = None) -> "_Span":
        return _Span(self, name, family)

    def _open(self, name: str, family: str | None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cells.append(self.cell)
        self.families.append(family)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def durations(self, name: str, family: str | None = None) -> list[float]:
        """Durations in seconds of every span with this name (and family, if given)."""
        return [
            e - s
            for n, f, s, e in zip(self.names, self.families, self.starts, self.ends)
            if n == name and (family is None or f == family)
        ]

    def self_times(self, root: int) -> dict[str, float]:
        """Self time in seconds per layer, over the root span and all its descendants."""
        child_total = [0.0] * len(self.names)
        inside = [False] * len(self.names)
        inside[root] = True
        for i in range(root + 1, len(self.names)):
            parent = self.parents[i]
            if parent >= 0 and inside[parent]:
                inside[i] = True
                child_total[parent] += self.ends[i] - self.starts[i]
        layers: dict[str, float] = {}
        for i in range(root, len(self.names)):
            if inside[i]:
                layer = self.names[i].split(".", 1)[0]
                own = self.ends[i] - self.starts[i] - child_total[i]
                layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def write(self, path: Path) -> None:
        """Write all spans as JSON lines, times in seconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                record = {
                    "id": i,
                    "name": name,
                    "parent": self.parents[i],
                    "start": self.starts[i] - origin,
                    "end": self.ends[i] - origin,
                    "cell": self.cells[i],
                    "family": self.families[i],
                }
                fh.write(json.dumps(record) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "family", "index")

    def __init__(self, tracer: Tracer, name: str, family: str | None) -> None:
        self.tracer, self.name, self.family = tracer, name, family

    def __enter__(self) -> int:
        self.index = self.tracer._open(self.name, self.family)
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index)


class NullTracer:
    """Records nothing; the untraced replica runs with this."""

    def span(self, name: str, family: str | None = None):
        return _NULL
