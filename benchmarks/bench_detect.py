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

import json

from benchmarks.conftest import OUT_DIR, emit
from repro.engine.bench import (
    format_detect_table,
    run_detect_bench,
    run_detect_scale_bench,
)


def test_detect_core_throughput(benchmark):
    result = benchmark.pedantic(
        run_detect_bench,
        kwargs={"reps": 3},
        rounds=1,
        iterations=1,
    )
    emit("BENCH_detect", format_detect_table(result))
    (OUT_DIR / "BENCH_detect.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    # hard floors of the vectorized-detection overhaul: the segmented
    # scans must reproduce the loop core's merged stores exactly —
    # across the entire registry — and carry a >= 3x detection
    # throughput geomean on the trio
    assert result["all_stores_identical"]
    assert result["equivalence_sweep"]["all_identical"]
    assert result["equivalence_sweep"]["artifact_mismatches"] == []
    assert result["detect_speedup_geomean"] >= 3.0
    # columnar call-site anchoring: the engine detect phase (loop
    # classification + per-container task detection) on facedetection
    assert result["detect_phase"]["gate"]["passed"], (
        result["detect_phase"]["gate"])
    # end-to-end profile() also runs the (detection-independent) VM
    # recording, so its floor is lower
    assert result["profile_speedup_geomean"] >= 1.5
    # the multi-process core must be exact, and the sampled mode must
    # clear the accuracy gate on the bench set
    assert result["sharded_all_identical"]
    assert result["sampling_precision_min"] >= 0.95
    assert result["sampling_recall_min"] >= 0.95


def test_detect_scale_smoke(benchmark):
    """CI-sized synthetic scale leg: exactness + conditional speedup."""
    result = benchmark.pedantic(
        run_detect_scale_bench,
        kwargs={"workers": 2, "quick": True},
        rounds=1,
        iterations=1,
    )
    assert result["store_identical"]
    assert result["sampled"]["precision"] >= 0.95
    assert result["sampled"]["recall"] >= 0.95
    gate = result["speedup_gate"]
    if gate["enforced"]:
        assert gate["passed"], (
            f"sharded speedup {gate['measured']:.2f}x < "
            f"{gate['required']}x on {gate['cpus']} cpus"
        )


if __name__ == "__main__":
    result = run_detect_bench()
    result["scale"] = run_detect_scale_bench()
    print(format_detect_table(result))
    (OUT_DIR / "BENCH_detect.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    (OUT_DIR / "BENCH_detect.txt").write_text(
        format_detect_table(result) + "\n"
    )
