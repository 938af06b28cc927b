"""Execution models turning measured work distributions into speedups."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.discovery.tasks import TaskGraph
from repro.runtime.events import (
    COL_ADDR,
    COL_KIND,
    COL_TID,
    COL_TS,
    K_BGN,
    K_ITER,
)


@dataclass
class ExecutionModel:
    """Machine/runtime parameters of the simulated multicore.

    ``spawn_overhead`` — cost of creating/dispatching one task, thread,
    or DOALL chunk, in work units (one work unit = one profiled memory
    instruction).
    ``barrier_overhead`` — per-thread cost of a join/barrier.
    """

    spawn_overhead: float = 40.0
    barrier_overhead: float = 20.0

    def parallel_setup_cost(self, n_threads: int) -> float:
        return self.spawn_overhead * n_threads + self.barrier_overhead * n_threads


DEFAULT_MODEL = ExecutionModel()


def simulate_doall(
    iteration_costs: Sequence[float],
    n_threads: int,
    model: ExecutionModel = DEFAULT_MODEL,
    *,
    n_chunks: Optional[int] = None,
) -> float:
    """Speedup of a DOALL loop under the work-stealing scheduler's model.

    ``iteration_costs`` is the per-iteration work (uniform loops may pass
    ``[cost] * iterations``; :func:`loop_iteration_costs` recovers the
    real distribution from a recorded trace).  Iterations split into
    ``n_chunks`` *contiguous* chunks — the transform's actual granularity
    (:mod:`repro.parallelize.transforms` outlines ``min(n_workers,
    iterations)`` chunks, the default here).  Chunks are greedily
    assigned in order to the least-loaded worker, mirroring how idle
    workers steal queued chunks, and each chunk charges the scheduler's
    per-chunk spawn cost to its worker.  The makespan is the heaviest
    worker plus the join barrier — exactly the quantity the scheduler's
    ``makespan_units`` measures for one fork/join region.
    """
    if not iteration_costs or n_threads <= 1:
        # nothing to divide, or no parallelism requested: running the loop
        # unchanged costs exactly the sequential time
        return 1.0
    total = float(sum(iteration_costs))
    if total <= 0:
        return 1.0
    n = max(1, min(n_threads, len(iteration_costs)))
    if n_chunks is None:
        n_chunks = n
    n_chunks = max(1, min(n_chunks, len(iteration_costs)))
    chunks = _block_partition(list(iteration_costs), n_chunks)
    loads = [0.0] * n
    for chunk in chunks:
        wid = loads.index(min(loads))
        loads[wid] += sum(chunk) + model.spawn_overhead
    makespan = max(loads) + model.barrier_overhead
    return total / makespan if makespan > 0 else 1.0


def simulate_pipeline(
    stage_costs: Sequence[float],
    iterations: int,
    n_threads: int,
    model: ExecutionModel = DEFAULT_MODEL,
) -> float:
    """Speedup of a DOACROSS loop run as a pipeline over its stages.

    Each iteration flows through the stages; with S stages on
    min(S, threads) workers the steady-state rate is one iteration per
    ``max_stage`` units: makespan = fill + drain + (iters-1)*bottleneck."""
    stages = [c for c in stage_costs if c > 0]
    if not stages or iterations <= 0:
        return 1.0
    workers = max(1, min(n_threads, len(stages)))
    if workers < len(stages):
        # fuse lightest adjacent stages until they fit the workers
        stages = _fuse_stages(stages, workers)
    total = sum(stage_costs) * iterations
    bottleneck = max(stages)
    fill = sum(stages)
    makespan = fill + (iterations - 1) * bottleneck
    makespan += model.parallel_setup_cost(workers)
    return total / makespan if makespan > 0 else 1.0


def simulate_task_graph(
    graph: TaskGraph,
    n_threads: int,
    model: ExecutionModel = DEFAULT_MODEL,
) -> float:
    """Greedy list scheduling of a task graph on ``n_threads`` workers.

    Returns the speedup over serial execution of the same total work.
    """
    g = graph.graph()
    work = {n.node_id: float(max(1, n.work)) for n in graph.nodes}
    total = sum(work.values())
    if not work:
        return 1.0
    indegree = {node: g.in_degree(node) for node in g.nodes}
    ready = [node for node, deg in indegree.items() if deg == 0]
    # (finish_time, node) per busy worker
    busy: list[tuple[float, int]] = []
    idle = max(1, n_threads)
    clock = 0.0
    makespan = 0.0
    pending = set(g.nodes)
    while pending:
        while ready and idle > 0:
            node = ready.pop()
            cost = work[node] + model.spawn_overhead
            heapq.heappush(busy, (clock + cost, node))
            idle -= 1
        if not busy:  # pragma: no cover - graph must be a DAG
            break
        finish, node = heapq.heappop(busy)
        clock = finish
        makespan = max(makespan, finish)
        idle += 1
        pending.discard(node)
        for succ in g.successors(node):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    makespan += model.barrier_overhead * min(n_threads, len(work))
    return total / makespan if makespan > 0 else 1.0


def loop_iteration_costs(trace, region_id: int) -> Optional[list[int]]:
    """Per-iteration step costs of one loop, recovered from a trace.

    The trace's ``ts`` column ticks once per executed instruction, so the
    gap between consecutive ``ITER`` markers of a loop region (and from
    ``BGN`` to the first ``ITER``) *is* that iteration's cost in the same
    simulated work units the scheduler's makespan counts — inner loops,
    calls, everything attributed to the iteration that ran it.

    Returns ``None`` when the loop executed more than once (chunk
    alignment against a single fork would be ambiguous), recorded no
    iterations, or the trace is multi-threaded (the global ``ts``
    counter then also ticks for concurrently interleaved threads, which
    would inflate the gaps); callers fall back to a uniform-cost
    estimate.
    """
    return collect_iteration_costs(trace, {region_id}).get(region_id)


def collect_iteration_costs(trace, region_ids) -> dict[int, list[int]]:
    """:func:`loop_iteration_costs` for several loops in one trace scan.

    Regions that fail the single-execution / single-thread conditions
    are simply absent from the result.
    """
    wanted = set(region_ids)
    markers: dict[int, list[tuple[int, int]]] = {r: [] for r in wanted}
    if not wanted:
        return {}
    tid0 = None
    for chunk in trace.iter_chunks():
        rows = chunk.rows
        if rows.shape[0] == 0:
            continue
        tids = rows[:, COL_TID]
        if tid0 is None:
            tid0 = int(tids[0])
        if not (tids == tid0).all():
            return {}
        kinds = rows[:, COL_KIND]
        mask = (kinds == K_ITER) | (kinds == K_BGN)
        for code, rid, ts in zip(
            kinds[mask].tolist(),
            rows[mask, COL_ADDR].tolist(),
            rows[mask, COL_TS].tolist(),
        ):
            if rid in wanted:
                markers[rid].append((code, ts))
    out: dict[int, list[int]] = {}
    for rid, entries in markers.items():
        costs: list[int] = []
        executions = 0
        last = None
        for code, ts in entries:
            if code == K_BGN:
                executions += 1
                last = ts
            elif last is not None:
                costs.append(ts - last)
                last = ts
        if executions == 1 and costs:
            out[rid] = costs
    return out


def whole_program_speedup(
    region_fractions: Iterable[tuple[float, float]],
) -> float:
    """Amdahl composition: ``region_fractions`` is (coverage, local_speedup)
    per parallelized region; the rest runs serially."""
    serial = 1.0
    parallel_time = 0.0
    for coverage, local in region_fractions:
        coverage = max(0.0, min(1.0, coverage))
        serial -= coverage
        parallel_time += coverage / max(1.0, local)
    serial = max(0.0, serial)
    denom = serial + parallel_time
    return 1.0 / denom if denom > 0 else 1.0


# ---------------------------------------------------------------------------


def _block_partition(costs: list[float], n: int) -> list[list[float]]:
    """Split costs into n contiguous blocks of near-equal element count
    (static OpenMP-style scheduling)."""
    length = len(costs)
    out: list[list[float]] = []
    base = length // n
    extra = length % n
    idx = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        out.append(costs[idx : idx + size])
        idx += size
    return out


def _fuse_stages(stages: list[float], workers: int) -> list[float]:
    """Merge adjacent pipeline stages until only ``workers`` remain,
    greedily fusing the pair with the smallest combined cost."""
    fused = list(stages)
    while len(fused) > workers:
        best_idx = min(
            range(len(fused) - 1), key=lambda i: fused[i] + fused[i + 1]
        )
        fused[best_idx : best_idx + 2] = [fused[best_idx] + fused[best_idx + 1]]
    return fused
