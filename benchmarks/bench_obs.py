"""Observability bench: the disabled-cost gate and mode transparency.

Seeds ``benchmarks/out/BENCH_obs.json`` — the first entry of the
observability trajectory (the artifact ``repro bench --suite obs``
also produces).  Measures, per workload on the pipeline trio: engine
``profile()`` wall time with obs off / metrics-only / full tracing
(the dependence stores must stay bit-identical across all three), and
the modelled *disabled* overhead — calibrated per-site
``NULL_SPAN`` guard cost times the activation count the enabled run
observed, over the obs-off wall time.  The gated claim: carrying the
instrumentation costs at most 2 % when nothing records.
"""

from __future__ import annotations

from benchmarks.conftest import run_gated_suite
from repro.engine.bench import failed_gates


def test_obs_overhead(benchmark):
    result = benchmark.pedantic(
        run_gated_suite, args=("obs",), kwargs={"reps": 3},
        rounds=1, iterations=1,
    )
    assert result["passed"], failed_gates(result)


if __name__ == "__main__":
    run_gated_suite("obs")
