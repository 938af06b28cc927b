"""Detection-core bench: vectorized scans vs. loop walk vs. sharded.

Seeds ``benchmarks/out/BENCH_detect.json`` — the detection performance
trajectory (the artifact ``repro bench --suite detect`` also produces).
Measures, per workload and detection core: detection throughput over a
recorded trace (stores must stay bit-identical), end-to-end engine
``profile()`` wall time, and peak detection memory, plus the
registry-wide equivalence sweep of stores and detect artifacts
(threaded workloads included) and the engine ``detect()`` phase per
core, gated at >= 5x on facedetection.  The multi-process sharded core
rides along on every row with its exactness tripwire, and the
accuracy-gated sampling mode reports measured
precision/recall against the exact store.  The gated trajectory numbers
are the geomeans over the loop-nest trio (matmul, CG, mandelbrot); fft
rides along ungated as the eviction- and frontier-churn-bound recursion
reference point.

The **scale leg** drives the detection layers with a synthetic
10⁸-event chunked stream (:mod:`repro.profiler.synth`) — input is
generated, never resident — and records RSS deltas plus the
conditional sharded-speedup gate (enforced only when the host has at
least as many CPUs as workers; the measured ratio and CPU count are
recorded either way).
"""

from __future__ import annotations

from benchmarks.conftest import run_gated_suite
from repro.engine.bench import (
    DETECT_SCALE_EVENTS,
    SUITES,
    evaluate_gates,
    failed_gates,
    run_detect_scale_bench,
)


def test_detect_core_throughput(benchmark):
    result = benchmark.pedantic(
        run_gated_suite, args=("detect",), kwargs={"reps": 3},
        rounds=1, iterations=1,
    )
    assert result["passed"], failed_gates(result)


def test_detect_scale_smoke(benchmark):
    """CI-sized synthetic scale leg, judged by the suite's scale gates."""
    scale = benchmark.pedantic(
        run_detect_scale_bench,
        kwargs={"workers": 2, "quick": True},
        rounds=1,
        iterations=1,
    )
    gates = [g for g in SUITES["detect"].gates if g.key.startswith("scale.")]
    failed = failed_gates({"gates": evaluate_gates(gates, {"scale": scale})})
    assert not failed, failed


if __name__ == "__main__":
    run_gated_suite("detect", workers=4, scale_events=DETECT_SCALE_EVENTS)
