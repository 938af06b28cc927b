"""Artifact-store bench: the crash-safe concurrency torture gates.

Seeds ``benchmarks/out/BENCH_store.json`` — the artifact
``repro bench --suite store`` also produces.  Runs concurrent batch
runners against one shared resume dir under the store fault schedules
(kill mid-write, torn tmp published against a full checksum, stale
lease left by a dead pid, silent checksum flip) and gates the store
contract: every schedule converges to a store bit-identical to a clean
single-writer reference, corrupt entries are quarantined to
``.corrupt-N/`` and recomputed rather than served, no torn read or
leftover tmp survives, and concurrent writers dedupe work on shared
keys instead of double-computing (docs/RESILIENCE.md).
"""

from __future__ import annotations

from benchmarks.conftest import run_gated_suite
from repro.engine.bench import failed_gates


def test_store_torture(benchmark):
    result = benchmark.pedantic(
        run_gated_suite, args=("store",), rounds=1, iterations=1,
    )
    assert result["passed"], failed_gates(result)


if __name__ == "__main__":
    run_gated_suite("store")
