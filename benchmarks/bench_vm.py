"""VM dispatch bench: compiled closure-specialized core vs. switch loop.

Seeds ``benchmarks/out/BENCH_vm.json`` — the first entry of the VM
performance trajectory (the artifact ``repro bench --suite vm`` also
produces).  Measures, per workload and dispatch core: instrumented
recording wall time (traces must stay bit-identical), untraced execution
(the validate/scheduler path), and end-to-end engine ``profile()`` wall
time.  The gated trajectory numbers are the geomeans over all four
workloads: the loop-nest trio (pi, EP, mandelbrot) plus the call-bound
fft recursion, gated since lazy untraced closure tables fixed its
short-run regression.
"""

from __future__ import annotations

from benchmarks.conftest import run_gated_suite
from repro.engine.bench import failed_gates


def test_vm_dispatch_throughput(benchmark):
    result = benchmark.pedantic(
        run_gated_suite, args=("vm",), kwargs={"reps": 3},
        rounds=1, iterations=1,
    )
    assert result["passed"], failed_gates(result)


if __name__ == "__main__":
    run_gated_suite("vm")
