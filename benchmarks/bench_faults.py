"""Resilience bench: the fault-recovery and store-identity gates.

Seeds ``benchmarks/out/BENCH_faults.json`` — the artifact
``repro bench --suite faults`` also produces.  Drives the supervised
sharded detection core through the deterministic fault matrix (worker
kills, hangs, dropped slab acks, corrupted done payloads at the first,
middle and last task batch, plus seeded scattered mixes and one
unrecoverable schedule) and gates the resilience contract: every
eventually-successful schedule recovers without raising, every merged
store is bit-identical to the serial vectorized reference, and the
unrecoverable schedule degrades to in-process detection instead of
failing (docs/RESILIENCE.md).
"""

from __future__ import annotations

from benchmarks.conftest import run_gated_suite
from repro.engine.bench import failed_gates


def test_fault_recovery(benchmark):
    result = benchmark.pedantic(
        run_gated_suite, args=("faults",), rounds=1, iterations=1,
    )
    assert result["passed"], failed_gates(result)


if __name__ == "__main__":
    run_gated_suite("faults")
