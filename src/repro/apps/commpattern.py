"""Detecting communication patterns on multicore systems (§5.3, Fig. 5.1).

Communication between threads is data flowing from a writer thread to a
reader thread — exactly the cross-thread RAW dependences the profiler
records for multi-threaded targets.  Aggregating them into a thread x
thread matrix reveals the application's communication pattern; Fig. 5.1
shows such matrices for splash2x as heatmaps.  We render ASCII heatmaps and
classify the canonical shapes (all-to-all, neighbour/ring, master-worker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.profiler.deps import DependenceStore, DepType


@dataclass
class CommunicationMatrix:
    """comm[r][w] = units of data thread r read that thread w wrote."""

    matrix: np.ndarray
    n_threads: int

    def normalized(self) -> np.ndarray:
        total = self.matrix.sum()
        return self.matrix / total if total > 0 else self.matrix

    def classify(self) -> str:
        """Heuristic pattern name for the off-diagonal structure.

        Thread 0 (the main/setup thread) is excluded when worker threads
        exist: initialisation flow from main to every worker would
        otherwise read as a hub and mask the steady-state pattern.
        """
        m = self.matrix.astype(np.float64).copy()
        if self.n_threads > 2 and m[1:, 1:].sum() > 0:
            m = m[1:, 1:]
        np.fill_diagonal(m, 0.0)
        total = m.sum()
        n = m.shape[0]
        if total <= 0 or n < 2:
            return "none"
        # master-worker: one row+column dominates
        hub_flow = np.array([m[i, :].sum() + m[:, i].sum() for i in range(n)])
        if hub_flow.max() / total >= 0.85 and n > 2:
            return "master-worker"
        # neighbour/ring: adjacent off-diagonals dominate
        neighbour = sum(
            m[i, j]
            for i in range(n)
            for j in range(n)
            if abs(i - j) == 1 or abs(i - j) == n - 1
        )
        if neighbour / total >= 0.8:
            return "neighbour"
        # all-to-all: flow spread over most pairs
        pairs = (m > 0).sum()
        if pairs >= 0.6 * n * (n - 1):
            return "all-to-all"
        return "irregular"

    def heatmap(self, width: int = 4) -> str:
        """ASCII heatmap (Fig. 5.1 rendering)."""
        shades = " .:-=+*#%@"
        m = self.normalized()
        peak = m.max() or 1.0
        rows = ["    " + "".join(f"w{j:<{width - 1}}" for j in range(self.n_threads))]
        for i in range(self.n_threads):
            cells = []
            for j in range(self.n_threads):
                level = int(round((m[i, j] / peak) * (len(shades) - 1)))
                cells.append(shades[level] * (width - 1) + " ")
            rows.append(f"r{i:<3}" + "".join(cells))
        return "\n".join(rows)


def communication_matrix(
    store: DependenceStore, n_threads: Optional[int] = None
) -> CommunicationMatrix:
    """Build the thread communication matrix from cross-thread RAWs."""
    max_tid = 0
    for dep in store:
        max_tid = max(max_tid, dep.sink_tid, dep.source_tid)
    n = n_threads if n_threads is not None else max_tid + 1
    matrix = np.zeros((n, n), dtype=np.int64)
    for dep in store:
        if dep.type != DepType.RAW:
            continue
        if dep.sink_tid >= n or dep.source_tid >= n:
            continue
        if dep.sink_tid == dep.source_tid:
            matrix[dep.sink_tid, dep.source_tid] += dep.count
        else:
            matrix[dep.sink_tid, dep.source_tid] += dep.count
    return CommunicationMatrix(matrix, n)
