"""Performance benchmarks: VM dispatch, detection, and the gated layers.

Every suite is one entry of the gate table :data:`SUITES`: its runner,
its table formatter, the ``repro bench`` options the runner takes, and
its gates.  A :class:`Gate` is data — a dotted result key that also
names it, a comparison, a threshold, and whether it is enforced.
:func:`run_suite` runs a suite and writes ``result["gates"]`` (each
with ``name``, ``measured``, ``op``, ``required``, ``enforced``,
``passed``) and ``result["passed"]`` into every ``BENCH_*.json``.
Identity flags are always enforced.  Speed and accuracy floors are
enforced when the suite ran its default workload set
(``result["default_set"]``); on a workload list the caller chose they
are recorded with ``enforced: False``.

The suites (``BENCH_<suite>.json``):

* **vm** (:func:`run_vm_bench`) — switch vs. compiled dispatch
  (:mod:`repro.runtime.compile`): traced recording, untraced execution
  and engine ``profile()`` wall time, traces bit-identical.
* **detect** (:func:`run_detect_bench`) — the loop oracle vs. the
  vectorized and multi-process sharded detection cores
  (:mod:`repro.profiler.sharded`): throughput and peak memory, the
  registry-wide equivalence sweep, sampled precision/recall, engine
  ``profile()`` and ``detect()`` phase per core, and optionally the
  10⁸-event synthetic scale leg (:func:`run_detect_scale_bench`).
* **obs** (:func:`run_obs_bench`) — :mod:`repro.obs` off / metrics /
  trace: stores bit-identical in every mode, and the modelled cost of
  the *disabled* instrumentation.
* **faults** (:func:`run_faults_bench`) — the fault matrix against the
  supervised sharded core (:mod:`repro.resilience`,
  docs/RESILIENCE.md): recovery, store identity, and degradation.
* **store** (:func:`run_store_bench`) — concurrent batch runners on one
  :mod:`repro.store` directory under kill, torn-write, stale-lease and
  checksum-flip schedules: convergence, healing, no torn reads.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import operator
import resource
import statistics
import time
import tracemalloc
import warnings
from typing import Callable, NamedTuple, Optional

from repro.profiler.serial import SerialProfiler
from repro.resilience.faults import KILL_EXIT_CODE
from repro.profiler.shadow import PerfectShadow
from repro.runtime.events import TraceSink
from repro.runtime.interpreter import VM


def _geomean(values: list[float]) -> float:
    import math

    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@contextlib.contextmanager
def _gc_paused():
    """Collect, then keep the collector off for one timed sample."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _profile_modes(name: str, scale: int, reps: int, field: str, modes):
    """Best-of-``reps`` engine ``profile()`` per value of one config field.

    A fresh engine per run (``profile()`` caches per instance); modes
    interleave per repetition so host-speed drift hits every side of a
    ratio equally.  Returns the ``profile`` row (``<mode>_seconds`` and
    whether every mode's store is identical) and, per mode, the profile
    stats and the :class:`~repro.obs.Observability` of its fastest run.
    """
    from repro.engine.config import DiscoveryConfig
    from repro.engine.core import DiscoveryEngine
    from repro.workloads import get_workload

    workload = get_workload(name)
    best: dict = {}
    for _ in range(reps):
        for mode in modes:
            engine = DiscoveryEngine(
                config=DiscoveryConfig(
                    source=workload.source(scale), name=name,
                    entry=workload.entry, **{field: mode},
                )
            )
            artifact = engine.profile()
            seconds = engine.timings["profile"]
            if mode not in best or seconds < best[mode][0]:
                best[mode] = (
                    seconds, artifact.stats, engine.obs,
                    artifact.store.to_dict(),
                )
    stores = [store for *_, store in best.values()]
    row = {f"{mode}_seconds": best[mode][0] for mode in modes}
    row["stores_identical"] = all(s == stores[0] for s in stores)
    return row, {mode: best[mode][1:3] for mode in modes}


# ---------------------------------------------------------------------------
# the VM dispatch suite
# ---------------------------------------------------------------------------

#: the VM bench set: three loop-nest workloads whose hot path is
#: dispatch bound — one textbook, one NAS, one apps-chapter program —
#: plus the call/ret-heavy fft recursion, gated since the untraced
#: variant went lazy (closures build on first execution, so short
#: recursive runs no longer pay for the whole instruction space).  The
#: gated trajectory number is their geomean.
VM_BENCH_WORKLOADS = ("pi", "EP", "mandelbrot", "fft")


def _trace_rows(trace):
    import numpy as np

    return np.concatenate([chunk.rows for chunk in trace.chunks])


def bench_vm_workload(name: str, *, scale: int = 1, reps: int = 3) -> dict:
    """Measure one workload under both dispatch cores."""
    import numpy as np

    from repro.workloads import get_workload

    workload = get_workload(name)
    module = workload.compile(scale)
    row: dict = {"workload": name, "scale": scale}

    # -- instrumented recording (trace production) ---------------------
    # timed samples run with the collector paused (and a collect()
    # beforehand): the retained traces make every gen-0 pass scan a
    # large heap, which otherwise dominates short recordings
    traces = {}
    states = {}
    for dispatch in ("switch", "compiled"):
        best = float("inf")
        first = None
        for _ in range(reps):
            trace = TraceSink()
            vm = VM(module, trace, dispatch=dispatch)
            with _gc_paused():
                t0 = time.perf_counter()
                vm.run(workload.entry)
                wall = time.perf_counter() - t0
            if first is None:
                first = wall  # includes one-time closure compilation
            best = min(best, wall)
        traces[dispatch] = (trace, vm)
        states[dispatch] = (vm.memory, vm.output, vm.total_steps)
        row[dispatch] = {
            "record_seconds": best,
            "first_run_seconds": first,
            "events": len(trace),
            "events_per_sec": len(trace) / best if best else 0.0,
        }
    rows_s = _trace_rows(traces["switch"][0])
    rows_c = _trace_rows(traces["compiled"][0])
    row["trace_identical"] = bool(
        np.array_equal(rows_s, rows_c)
        and traces["switch"][1].strings.values
        == traces["compiled"][1].strings.values
        and [len(c) for c in traces["switch"][0].chunks]
        == [len(c) for c in traces["compiled"][0].chunks]
    )
    row["state_identical"] = states["switch"] == states["compiled"]
    row["steps"] = states["compiled"][2]
    row["traced_speedup"] = (
        row["switch"]["record_seconds"] / row["compiled"]["record_seconds"]
        if row["compiled"]["record_seconds"]
        else 0.0
    )

    # -- untraced execution (validate / scheduler path) ----------------
    # pilot runs warm the codegen caches and size an inner loop so every
    # timed sample is tens of milliseconds; the cores are then sampled
    # interleaved, so host frequency drift cannot bias the ratio the way
    # sequential per-core blocks would — short recursive workloads (fft)
    # were otherwise pure scheduler noise.  CPU time, not wall: the
    # untraced legs are single-threaded and CPU bound, and on shared
    # hosts wall-clock scheduler noise easily exceeds the few
    # milliseconds a short recursion (fft) runs for
    inner = {}
    samples: dict[str, list] = {"switch": [], "compiled": []}
    for dispatch in ("switch", "compiled"):
        vm = VM(module, None, dispatch=dispatch, instrument=False)
        t0 = time.process_time()
        vm.run(workload.entry)
        pilot = time.process_time() - t0
        inner[dispatch] = max(1, int(0.05 / max(pilot, 1e-4)))
    for _ in range(max(3, reps)):
        for dispatch in ("switch", "compiled"):
            vms = [
                VM(module, None, dispatch=dispatch, instrument=False)
                for _ in range(inner[dispatch])
            ]
            with _gc_paused():
                t0 = time.process_time()
                for vm in vms:
                    vm.run(workload.entry)
                samples[dispatch].append(
                    (time.process_time() - t0) / inner[dispatch]
                )
    row["untraced"] = {
        "switch_seconds": statistics.median(samples["switch"]),
        "compiled_seconds": statistics.median(samples["compiled"]),
        # per-round ratios: adjacent samples see the same host state, so
        # frequency drift cancels instead of crowning a lucky baseline
        "speedup": statistics.median(
            s / c for s, c in zip(samples["switch"], samples["compiled"])
        ),
    }

    # -- end-to-end engine profile() -----------------------------------
    profile_row, runs = _profile_modes(
        name, scale, reps, "dispatch", ("switch", "compiled")
    )
    for dispatch, (stats, _) in runs.items():
        profile_row[f"{dispatch}_events_per_sec"] = stats["vm_events_per_sec"]
    profile_row["speedup"] = (
        profile_row["switch_seconds"] / profile_row["compiled_seconds"]
        if profile_row["compiled_seconds"]
        else 0.0
    )
    row["profile"] = profile_row
    return row


def run_vm_bench(
    workloads=None,
    *,
    scale: int = 1,
    reps: int = 3,
    quick: bool = False,
) -> dict:
    """Benchmark the dispatch cores; geomeans computed over every row.

    The headline numbers: ``traced_speedup_geomean`` (instrumented
    recording, compiled over switch, traces bit-identical) and
    ``profile_speedup_geomean`` (end-to-end engine profile phase).
    """
    if quick:
        reps = max(2, reps - 1)
    rows = [
        bench_vm_workload(name, scale=scale, reps=reps)
        for name in workloads or VM_BENCH_WORKLOADS
    ]
    traced = [r["traced_speedup"] for r in rows]
    untraced = [r["untraced"]["speedup"] for r in rows]
    profile = [r["profile"]["speedup"] for r in rows]
    return {
        "bench": "vm",
        "workloads": rows,
        "default_set": not workloads,
        "traced_speedup_geomean": _geomean(traced),
        "traced_speedup_min": min(traced) if traced else 0.0,
        "untraced_speedup_geomean": _geomean(untraced),
        "profile_speedup_geomean": _geomean(profile),
        "all_traces_identical": all(
            r["trace_identical"] and r["state_identical"] for r in rows
        ),
        "all_stores_identical": all(
            r["profile"]["stores_identical"] for r in rows
        ),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
    }


# ---------------------------------------------------------------------------
# the detection-core suite
# ---------------------------------------------------------------------------

#: the detection bench trio: loop-nest workloads whose profile cost is
#: detection bound — one textbook, one NAS, one apps-chapter program.
#: The gated trajectory numbers are their geomeans.
DETECT_BENCH_WORKLOADS = ("matmul", "CG", "mandelbrot")

#: reported alongside but not gated: deep recursion is eviction- and
#: frontier-churn bound, the detection core's least favourable regime
DETECT_BENCH_EXTRA = ("fft",)

#: the detect suite measures at a larger scale than the other suites:
#: detection throughput is the scaling story, and sub-100k-event traces
#: mostly measure fixed costs
DETECT_BENCH_SCALE = 2

#: the lossy sharded mode's sampling rate, scored for precision/recall
#: against the exact store on every bench row and on the scale leg
DETECT_SAMPLING_RATE = 0.25


def _detector(mode: str, vm, *, workers=2, sampling=None):
    from repro.profiler.sharded import ShardedDetector
    from repro.profiler.vectorized import VectorizedProfiler

    if mode == "sharded":
        return ShardedDetector(
            None, vm.loop_signature, n_shards=workers, sampling=sampling,
        )
    if mode == "vectorized":
        return VectorizedProfiler(None, vm.loop_signature)
    return SerialProfiler(PerfectShadow(), vm.loop_signature)


def _measured_detect_pass(trace, vm, mode: str) -> dict:
    """One untimed detection pass under tracemalloc.

    Peak-memory probes run separately from the timed loops on purpose:
    tracemalloc's allocation hooks distort throughput, so the timing
    samples stay clean and this pass pays the bookkeeping.  Returns the
    tracemalloc peak (python-level allocations of this process) and the
    detector's own ``memory_bytes`` accounting.
    """
    profiler = _detector(mode, vm)
    tracemalloc.start()
    for chunk in trace.chunks:
        profiler.process_chunk(chunk)
    if mode == "vectorized":
        profiler.flush()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "peak_tracemalloc_bytes": peak,
        "memory_bytes": profiler.memory_bytes(),
    }


def bench_detect_workload(
    name: str,
    *,
    scale: int = DETECT_BENCH_SCALE,
    reps: int = 3,
    gated: bool = True,
    workers: int = 2,
) -> dict:
    """Measure one workload under the detection cores.

    ``loop`` vs ``vectorized`` is the gated interleaved comparison; the
    multi-process ``sharded`` core is measured alongside (store checked
    identical against vectorized, throughput reported not gated — on a
    single hot trace the fork/IPC overhead is the point of the
    measurement), and so is a lossy sharded run at
    :data:`DETECT_SAMPLING_RATE`, scored with
    :func:`repro.profiler.deps.store_accuracy` against the exact store.
    """
    from repro.workloads import get_workload

    workload = get_workload(name)
    module = workload.compile(scale)
    row: dict = {"workload": name, "scale": scale, "gated": gated}

    trace = TraceSink()
    vm = VM(module, trace)
    vm.run(workload.entry)
    events = len(trace)
    row["events"] = events

    # cores sample interleaved per round with the collector paused (the
    # retained trace makes gen passes expensive and host-speed drift
    # would otherwise bias whichever core ran second); the speedup is
    # the median of per-round ratios, so adjacent samples see the same
    # host state
    stores = {}
    counts = {}
    samples: dict[str, list] = {"loop": [], "vectorized": []}
    for _ in range(max(3, reps)):
        for mode in ("loop", "vectorized"):
            profiler = _detector(mode, vm)
            with _gc_paused():
                t0 = time.perf_counter()
                for chunk in trace.chunks:
                    profiler.process_chunk(chunk)
                if mode == "vectorized":
                    profiler.flush()
                samples[mode].append(time.perf_counter() - t0)
            stores[mode] = profiler.store.to_dict()
            counts[mode] = (
                len(profiler.store), profiler.store.raw_occurrences,
            )
    for mode in ("loop", "vectorized"):
        wall = statistics.median(samples[mode])
        row[mode] = {
            "detect_seconds": wall,
            "events_per_sec": events / wall if wall else 0.0,
            "deps": counts[mode][0],
            "raw_occurrences": counts[mode][1],
        }
    row["stores_identical"] = stores["loop"] == stores["vectorized"]
    row["detect_speedup"] = statistics.median(
        lo / ve
        for lo, ve in zip(samples["loop"], samples["vectorized"])
    )

    # -- per-run peak memory (untimed probe passes) --------------------
    for mode in ("loop", "vectorized"):
        row[mode].update(_measured_detect_pass(trace, vm, mode))

    # -- the multi-process sharded core --------------------------------
    from repro.profiler.deps import DependenceStore, store_accuracy

    sharded = _detector("sharded", vm, workers=workers)
    gc.collect()
    t0 = time.perf_counter()
    for chunk in trace.chunks:
        sharded.process_chunk(chunk)
    sharded.finalize()
    wall = time.perf_counter() - t0
    row["sharded"] = {
        "workers": workers,
        "detect_seconds": wall,
        "events_per_sec": events / wall if wall else 0.0,
        "deps": len(sharded.store),
        "store_identical": sharded.store.to_dict() == stores["vectorized"],
        "memory_bytes": sharded.memory_bytes(),
        "speedup_vs_vectorized": (
            statistics.median(samples["vectorized"]) / wall if wall else 0.0
        ),
    }

    sampled = _detector(
        "sharded", vm, workers=workers, sampling=DETECT_SAMPLING_RATE
    )
    t0 = time.perf_counter()
    for chunk in trace.chunks:
        sampled.process_chunk(chunk)
    sampled.finalize()
    wall = time.perf_counter() - t0
    exact_store = DependenceStore.from_dict(stores["vectorized"])
    row["sampled"] = {
        "workers": workers,
        "rate": DETECT_SAMPLING_RATE,
        "detect_seconds": wall,
        "events_per_sec": events / wall if wall else 0.0,
        "shipped_events": sampled.shipped_events,
        **store_accuracy(sampled.store, exact_store),
    }

    # -- end-to-end engine profile() -----------------------------------
    profile_row, runs = _profile_modes(
        name, scale, reps, "detect", ("loop", "vectorized")
    )
    for mode, (stats, _) in runs.items():
        profile_row[f"{mode}_detect_events_per_sec"] = (
            stats["detect_events_per_sec"]
        )
    profile_row["speedup"] = (
        profile_row["loop_seconds"] / profile_row["vectorized_seconds"]
        if profile_row["vectorized_seconds"]
        else 0.0
    )
    row["profile"] = profile_row
    return row


def _engine_for(name: str, mode: str, scale: int):
    """A discovery engine over one registry workload under ``mode``."""
    from repro.engine.config import DiscoveryConfig
    from repro.engine.core import DiscoveryEngine
    from repro.workloads import get_workload

    workload = get_workload(name)
    return DiscoveryEngine(
        workload.compile(scale),
        config=DiscoveryConfig(name=name, entry=workload.entry, detect=mode),
    )


def detect_equivalence_sweep(*, scale: int = 1) -> dict:
    """Loop vs. vectorized equality over the whole registry.

    Every workload — the threaded ones included — runs through one
    engine per detection mode.  ``mismatches`` lists the workloads whose
    profile :class:`DependenceStore` or control-record map differ;
    ``artifact_mismatches`` those whose whole
    :class:`~repro.engine.artifacts.DetectArtifact` differs (loops, and
    per task container the anchored store, CU graph, SPMD groups and
    task graph); ``cu_mismatches`` those whose engine
    :class:`~repro.engine.artifacts.CUArtifact` (registry and line
    counts) differs from :meth:`TopDownBuilder.process` over the decoded
    trace.  The sweep passes only when all three lists are empty.
    """
    from repro.cu.topdown import TopDownBuilder
    from repro.workloads import REGISTRY

    mismatches: list[str] = []
    artifact_mismatches: list[str] = []
    cu_mismatches: list[str] = []
    for name in sorted(REGISTRY):
        results = {}
        for mode in ("loop", "vectorized"):
            engine = _engine_for(name, mode, scale)
            profile = engine.profile()
            results[mode] = (
                profile.store.to_dict(),
                {r: c.to_dict() for r, c in profile.control.items()},
                engine.detect().to_dict(),
            )
        loop, vec = results["loop"], results["vectorized"]
        if loop[:2] != vec[:2]:
            mismatches.append(name)
        if loop[2] != vec[2]:
            artifact_mismatches.append(name)
        # the vectorized engine's CUs (the default path) vs. the oracle
        cus = engine.build_cus()
        oracle = TopDownBuilder(engine.module)
        oracle.process(profile.trace.events())
        if (
            cus.registry.to_dict() != oracle.build().to_dict()
            or cus.line_counts != oracle.line_counts
        ):
            cu_mismatches.append(name)
    return {
        "workloads_checked": len(REGISTRY),
        "mismatches": mismatches,
        "artifact_mismatches": artifact_mismatches,
        "cu_mismatches": cu_mismatches,
        "all_identical": (
            not mismatches and not artifact_mismatches and not cu_mismatches
        ),
    }


#: the detect-phase leg: engine ``detect()`` (loop classification plus
#: task detection's per-container anchoring) timed under both cores at
#: the end-to-end scale.  facedetection, whose six task containers made
#: the anchored replay the slowest phase of the pipeline, carries the
#: gated floor.
DETECT_PHASE_SCALE = 1
DETECT_PHASE_GATE_WORKLOAD = "facedetection"
DETECT_PHASE_MIN_SPEEDUP = 5.0


def bench_detect_phase(name: str, *, reps: int = 3) -> dict:
    """Interleaved engine ``detect()`` wall time, loop vs. vectorized.

    Profile and CU phases run once per engine, untimed; each round then
    re-runs ``detect(force=True)`` under both cores with the collector
    paused.  The speedup is the median of per-round ratios.
    """
    engines = {
        mode: _engine_for(name, mode, DETECT_PHASE_SCALE)
        for mode in ("loop", "vectorized")
    }
    artifacts = {}
    for mode, engine in engines.items():
        engine.build_cus()
        artifacts[mode] = engine.detect().to_dict()
    samples: dict[str, list] = {"loop": [], "vectorized": []}
    for _ in range(max(2, reps)):
        for mode, engine in engines.items():
            with _gc_paused():
                t0 = time.perf_counter()
                engine.detect(force=True)
                samples[mode].append(time.perf_counter() - t0)
    detect = artifacts["vectorized"]
    return {
        "workload": name,
        "containers": len(detect["functions"]) + len(detect["loop_tasks"]),
        "loop_seconds": statistics.median(samples["loop"]),
        "vectorized_seconds": statistics.median(samples["vectorized"]),
        "speedup": statistics.median(
            lo / ve for lo, ve in zip(samples["loop"], samples["vectorized"])
        ),
        "identical": artifacts["loop"] == detect,
    }


def run_detect_bench(
    workloads=None,
    *,
    scale: int = DETECT_BENCH_SCALE,
    reps: int = 3,
    quick: bool = False,
    workers: int = 2,
    scale_events: Optional[int] = None,
) -> dict:
    """Benchmark the detection cores; geomeans computed over gated rows.

    The headline numbers: ``detect_speedup_geomean`` (vectorized over
    loop detection throughput, stores bit-identical) and
    ``profile_speedup_geomean`` (end-to-end engine profile phase).  The
    multi-process sharded core (``workers`` processes) rides along on
    every row — ``sharded_all_identical`` is its exactness tripwire and
    ``sampling_precision_min`` / ``sampling_recall_min`` the measured
    accuracy of the lossy mode.  The ``detect_phase`` leg times engine
    ``detect()`` per core on every row's workload plus facedetection,
    and the registry-wide equivalence sweep always rides along.
    ``scale_events`` adds the synthetic-stream scale leg under
    ``result["scale"]``.
    """
    if workloads:
        names = [(w, True) for w in workloads]
    else:
        names = [(w, True) for w in DETECT_BENCH_WORKLOADS] + [
            (w, False) for w in DETECT_BENCH_EXTRA
        ]
    if quick:
        reps = max(2, reps - 1)
    rows = [
        bench_detect_workload(
            name, scale=scale, reps=reps, gated=gated, workers=workers,
        )
        for name, gated in names
    ]
    gated_rows = [r for r in rows if r["gated"]]
    detect = [r["detect_speedup"] for r in gated_rows]
    profile = [r["profile"]["speedup"] for r in gated_rows]
    result = {
        "bench": "detect",
        "workloads": rows,
        "default_set": not workloads,
        "gated": [r["workload"] for r in gated_rows],
        "detect_speedup_geomean": _geomean(detect),
        "detect_speedup_min": min(detect) if detect else 0.0,
        "profile_speedup_geomean": _geomean(profile),
        "all_stores_identical": all(
            r["stores_identical"] and r["profile"]["stores_identical"]
            for r in rows
        ),
        "sharded_workers": workers,
        "sharded_all_identical": all(
            r["sharded"]["store_identical"] for r in rows
        ),
        "sampling_rate": DETECT_SAMPLING_RATE,
        "sampling_precision_min": min(
            r["sampled"]["precision"] for r in rows
        ),
        "sampling_recall_min": min(r["sampled"]["recall"] for r in rows),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
    }
    phase_names = [name for name, _ in names]
    if DETECT_PHASE_GATE_WORKLOAD not in phase_names:
        phase_names.append(DETECT_PHASE_GATE_WORKLOAD)
    phase_rows = [bench_detect_phase(name, reps=reps) for name in phase_names]
    gate_row = next(
        r for r in phase_rows if r["workload"] == DETECT_PHASE_GATE_WORKLOAD
    )
    result["detect_phase"] = {
        "scale": DETECT_PHASE_SCALE,
        "workloads": phase_rows,
        "gate": {
            "workload": DETECT_PHASE_GATE_WORKLOAD,
            "required": DETECT_PHASE_MIN_SPEEDUP,
            "measured": gate_row["speedup"],
            "passed": gate_row["speedup"] >= DETECT_PHASE_MIN_SPEEDUP,
        },
    }
    result["equivalence_sweep"] = detect_equivalence_sweep()
    result["all_stores_identical"] = (
        result["all_stores_identical"]
        and all(r["identical"] for r in phase_rows)
        and result["equivalence_sweep"]["all_identical"]
    )
    if scale_events:
        result["scale"] = run_detect_scale_bench(
            n_events=scale_events, workers=max(workers, 2), quick=quick,
        )
    return result


# ---------------------------------------------------------------------------
# the large-scale (synthetic-stream) detection leg
# ---------------------------------------------------------------------------

#: the out-of-core scale point: ~10⁸ events, per the acceptance bar
DETECT_SCALE_EVENTS = 100_000_000

#: sharded-vs-vectorized speedup the scale leg demands at 4 workers —
#: enforced only when the host actually has that many CPUs (a 1-core CI
#: container physically cannot demonstrate process parallelism; the
#: measured ratio and the CPU count are recorded either way)
DETECT_SCALE_SPEEDUP = 2.5


def _available_cpus() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_detect_scale_bench(
    *,
    n_events: int = DETECT_SCALE_EVENTS,
    workers: int = 4,
    quick: bool = False,
) -> dict:
    """Vectorized vs. sharded detection on a synthetic 10⁸-event stream.

    The stream (:class:`repro.profiler.synth.SyntheticStream`) is
    generated chunk-at-a-time, so the input never resides in memory —
    peak RSS is detector state plus one chunk regardless of
    ``n_events`` (the out-of-core claim; RSS deltas are recorded).
    ``quick`` shrinks the stream to a smoke size for CI.

    The sharded speedup gate is **conditional on hardware**: the gate
    object records the required ratio, the measured ratio, the CPU
    count, and whether the gate is enforced (``cpus >= workers``).
    Numbers are never synthesized — on a single-CPU host the measured
    ratio honestly shows the IPC overhead instead.
    """
    from repro.profiler.deps import store_accuracy
    from repro.profiler.sharded import ShardedDetector
    from repro.profiler.synth import SyntheticStream
    from repro.profiler.vectorized import VectorizedProfiler

    if quick:
        n_events = min(n_events, 2_000_000)
    stream = SyntheticStream(n_events)
    cpus = _available_cpus()

    def rss_self_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def rss_children_kb() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    result: dict = {
        "bench": "detect_scale",
        "n_events": stream.n_events,
        "workers": workers,
        "cpus": cpus,
        "quick": quick,
    }

    # -- single-process vectorized baseline ----------------------------
    gc.collect()
    rss_before = rss_self_kb()
    vec = VectorizedProfiler(None, stream.sig_decoder)
    t0 = time.perf_counter()
    for chunk in stream.iter_chunks():
        vec.process_chunk(chunk)
    vec.flush()
    vec_wall = time.perf_counter() - t0
    result["vectorized"] = {
        "detect_seconds": vec_wall,
        "events_per_sec": stream.n_events / vec_wall if vec_wall else 0.0,
        "deps": len(vec.store),
        "memory_bytes": vec.memory_bytes(),
        "ru_maxrss_kb": rss_self_kb(),
        "ru_maxrss_delta_kb": max(0, rss_self_kb() - rss_before),
    }

    # -- sharded exact -------------------------------------------------
    gc.collect()
    rss_before = rss_self_kb()
    sharded = ShardedDetector(None, stream.sig_decoder, n_shards=workers)
    t0 = time.perf_counter()
    for chunk in stream.iter_chunks():
        sharded.process_chunk(chunk)
    sharded.finalize()
    sharded_wall = time.perf_counter() - t0
    result["sharded"] = {
        "detect_seconds": sharded_wall,
        "events_per_sec": (
            stream.n_events / sharded_wall if sharded_wall else 0.0
        ),
        "deps": len(sharded.store),
        "memory_bytes": sharded.memory_bytes(),
        "ru_maxrss_kb": rss_self_kb(),
        "ru_maxrss_delta_kb": max(0, rss_self_kb() - rss_before),
        # worker processes are children: their peak RSS lands here
        "children_maxrss_kb": rss_children_kb(),
    }
    result["store_identical"] = (
        sharded.store.to_dict() == vec.store.to_dict()
    )
    speedup = vec_wall / sharded_wall if sharded_wall else 0.0
    result["sharded_speedup"] = speedup
    enforced = cpus >= workers
    result["speedup_gate"] = {
        "required": DETECT_SCALE_SPEEDUP,
        "measured": speedup,
        "cpus": cpus,
        "enforced": enforced,
        "passed": (speedup >= DETECT_SCALE_SPEEDUP) if enforced else None,
    }

    # -- sharded sampled -----------------------------------------------
    gc.collect()
    sampled = ShardedDetector(
        None, stream.sig_decoder, n_shards=workers,
        sampling=DETECT_SAMPLING_RATE,
    )
    t0 = time.perf_counter()
    for chunk in stream.iter_chunks():
        sampled.process_chunk(chunk)
    sampled.finalize()
    wall = time.perf_counter() - t0
    result["sampled"] = {
        "rate": DETECT_SAMPLING_RATE,
        "detect_seconds": wall,
        "events_per_sec": stream.n_events / wall if wall else 0.0,
        "shipped_events": sampled.shipped_events,
        "speedup_vs_vectorized": vec_wall / wall if wall else 0.0,
        **store_accuracy(sampled.store, vec.store),
    }
    return result


def format_detect_scale_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    lines = [
        f"scale leg: {result['n_events']} synthetic events, "
        f"{result['workers']} workers, {result['cpus']} cpu(s)"
    ]
    for mode in ("vectorized", "sharded", "sampled"):
        row = result[mode]
        extra = ""
        if mode == "sharded":
            extra = f"  children RSS {row['children_maxrss_kb']} kB"
        if mode == "sampled":
            extra = (
                f"  precision {row['precision']:.3f} "
                f"recall {row['recall']:.3f}"
            )
        lines.append(
            f"  {mode:10s} {row['detect_seconds']:8.2f}s "
            f"{row['events_per_sec']:12.0f} ev/s{extra}"
        )
    lines.append(
        f"  sharded speedup {result['sharded_speedup']:.2f}x; "
        f"store identical: {result['store_identical']}"
    )
    return "\n".join(lines)


def format_detect_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'workload':12s} {'events':>8s} {'loop eps':>10s} "
        f"{'vec eps':>10s} {'shard eps':>10s} {'detect':>7s} "
        f"{'profile':>8s} {'identical':>9s} {'gated':>5s}"
    )
    lines = [header, "-" * len(header)]
    for row in result["workloads"]:
        sharded = row.get("sharded", {})
        lines.append(
            f"{row['workload']:12s} {row['events']:8d} "
            f"{row['loop']['events_per_sec']:10.0f} "
            f"{row['vectorized']['events_per_sec']:10.0f} "
            f"{sharded.get('events_per_sec', 0.0):10.0f} "
            f"{row['detect_speedup']:6.2f}x "
            f"{row['profile']['speedup']:7.2f}x "
            f"{str(row['stores_identical']):>9s} "
            f"{str(row['gated']):>5s}"
        )
    sweep = result["equivalence_sweep"]
    lines.append(
        f"gated geomean: detect {result['detect_speedup_geomean']:.2f}x "
        f"(min {result['detect_speedup_min']:.2f}x), profile "
        f"{result['profile_speedup_geomean']:.2f}x; "
        f"sharded({result['sharded_workers']}w) identical: "
        f"{result['sharded_all_identical']}; "
        f"sampled@{result['sampling_rate']} precision≥"
        f"{result['sampling_precision_min']:.3f} recall≥"
        f"{result['sampling_recall_min']:.3f}; "
        f"sweep {sweep['workloads_checked']} workloads identical: "
        f"{sweep['all_identical']}; peak RSS {result['ru_maxrss_kb']} kB"
    )
    lines.append(
        f"{'detect()':13s} {'containers':>10s} {'loop s':>8s} "
        f"{'vec s':>8s} {'speedup':>8s} {'identical':>9s}"
    )
    for row in result["detect_phase"]["workloads"]:
        lines.append(
            f"{row['workload']:13s} {row['containers']:10d} "
            f"{row['loop_seconds']:8.3f} "
            f"{row['vectorized_seconds']:8.3f} "
            f"{row['speedup']:7.2f}x {str(row['identical']):>9s}"
        )
    scale = result.get("scale")
    if scale:
        lines.append(format_detect_scale_table(scale))
    return "\n".join(lines)


def format_vm_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'workload':12s} {'events':>8s} {'switch eps':>11s} "
        f"{'compiled eps':>13s} {'traced':>7s} {'untraced':>9s} "
        f"{'profile':>8s} {'identical':>9s}"
    )
    lines = [header, "-" * len(header)]
    for row in result["workloads"]:
        lines.append(
            f"{row['workload']:12s} {row['switch']['events']:8d} "
            f"{row['switch']['events_per_sec']:11.0f} "
            f"{row['compiled']['events_per_sec']:13.0f} "
            f"{row['traced_speedup']:6.2f}x "
            f"{row['untraced']['speedup']:8.2f}x "
            f"{row['profile']['speedup']:7.2f}x "
            f"{str(row['trace_identical']):>9s}"
        )
    lines.append(
        f"geomean: traced {result['traced_speedup_geomean']:.2f}x "
        f"(min {result['traced_speedup_min']:.2f}x), untraced "
        f"{result['untraced_speedup_geomean']:.2f}x, profile "
        f"{result['profile_speedup_geomean']:.2f}x; peak RSS "
        f"{result['ru_maxrss_kb']} kB"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the observability suite
# ---------------------------------------------------------------------------

#: the obs bench trio: one textbook, one NAS, one recursion-heavy
#: workload, so the disabled-overhead bound covers both chunk-dense
#: loops and call/ret-dense traces
OBS_BENCH_WORKLOADS = ("pi", "EP", "fft")

#: instrumentation-site calibration loop length (per measurement pass)
_OBS_CALIBRATION_CALLS = 200_000


def _disabled_site_cost_ns(calls: int = _OBS_CALIBRATION_CALLS) -> float:
    """Per-activation cost of one *disabled* instrumentation site, in ns.

    Every site in the pipeline guards on a single attribute
    (``tracer.enabled``) before doing any tracing work; the most
    expensive disabled form is the unconditional
    ``with tracer.span(...)`` used at phase granularity, which still
    allocates nothing but pays a method call plus the shared
    :data:`~repro.obs.trace.NULL_SPAN` enter/exit.  This measures that
    worst form (best of three passes), so the modelled overhead is an
    upper bound on what real sites pay.
    """
    from repro.obs.trace import Tracer

    tracer = Tracer(enabled=False)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            with tracer.span("calibrate", "obs"):
                pass
        best = min(best, (time.perf_counter_ns() - t0) / calls)
    return best


def bench_obs_workload(
    name: str, *, scale: int = 1, reps: int = 3,
    site_cost_ns: float = 0.0,
) -> dict:
    """One workload through the engine ``profile()`` phase per obs mode.

    Best-of-``reps`` wall per mode.  The dependence stores must stay
    bit-identical across all three modes — observability must never
    perturb what the pipeline computes.
    """
    row, runs = _profile_modes(
        name, scale, reps, "obs", ("off", "metrics", "trace")
    )
    stats, obs = runs["trace"]
    n_spans = obs.tracer.n_spans
    row = {
        "workload": name,
        **row,
        "events": stats["trace_events"],
        "n_spans": n_spans,
        "n_metrics": len(obs.metrics.snapshot()),
    }
    off = row["off_seconds"]
    row["metrics_overhead_pct"] = (
        (row["metrics_seconds"] / off - 1.0) * 100.0 if off else 0.0
    )
    row["trace_overhead_pct"] = (
        (row["trace_seconds"] / off - 1.0) * 100.0 if off else 0.0
    )
    # the gated number: disabled sites cost one guarded call apiece;
    # the enabled run counts how often sites would activate, so
    # (per-site cost x activations) / obs-off wall bounds what the
    # disabled build pays for carrying the instrumentation at all
    row["disabled_overhead_pct"] = (
        site_cost_ns * n_spans / (off * 1e9) * 100.0 if off else 0.0
    )
    return row


def run_obs_bench(
    workloads=None,
    *,
    scale: int = 1,
    reps: int = 3,
    quick: bool = False,
) -> dict:
    """Benchmark the observability layer (``BENCH_obs.json``).

    Records whether the dependence stores are bit-identical with
    observability off, metrics-only, and full tracing
    (``all_stores_identical``), and the cost of the *disabled* layer as
    a percentage of profile wall time (``disabled_overhead_pct_max`` —
    modelled as calibrated per-site guard cost times the activation
    count the enabled run observed).  The enabled overheads are
    reported but not gated; tracing is opt-in.
    """
    if quick:
        reps = max(2, reps - 1)
    site_cost = _disabled_site_cost_ns()
    rows = [
        bench_obs_workload(
            name, scale=scale, reps=reps, site_cost_ns=site_cost,
        )
        for name in workloads or OBS_BENCH_WORKLOADS
    ]
    return {
        "bench": "obs",
        "workloads": rows,
        "default_set": not workloads,
        "disabled_site_cost_ns": site_cost,
        "disabled_overhead_pct_max": max(
            r["disabled_overhead_pct"] for r in rows
        ) if rows else 0.0,
        "metrics_overhead_pct_max": max(
            r["metrics_overhead_pct"] for r in rows
        ) if rows else 0.0,
        "trace_overhead_pct_max": max(
            r["trace_overhead_pct"] for r in rows
        ) if rows else 0.0,
        "all_stores_identical": all(r["stores_identical"] for r in rows),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
    }


def format_obs_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'workload':12s} {'off s':>8s} {'metrics s':>10s} "
        f"{'trace s':>8s} {'spans':>7s} {'metr %':>7s} {'trace %':>8s} "
        f"{'disabled %':>10s} {'identical':>9s}"
    )
    lines = [header, "-" * len(header)]
    for row in result["workloads"]:
        lines.append(
            f"{row['workload']:12s} {row['off_seconds']:8.3f} "
            f"{row['metrics_seconds']:10.3f} {row['trace_seconds']:8.3f} "
            f"{row['n_spans']:7d} {row['metrics_overhead_pct']:+6.1f}% "
            f"{row['trace_overhead_pct']:+7.1f}% "
            f"{row['disabled_overhead_pct']:9.4f}% "
            f"{str(row['stores_identical']):>9s}"
        )
    lines.append(
        f"disabled site {result['disabled_site_cost_ns']:.0f} ns/call; "
        f"worst disabled overhead "
        f"{result['disabled_overhead_pct_max']:.4f}%; stores "
        f"{'identical' if result['all_stores_identical'] else 'MISMATCHED'}"
        f"; peak RSS {result['ru_maxrss_kb']} kB"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the resilience fault suite
# ---------------------------------------------------------------------------

#: the fault matrix runs on one detection-bound workload — matrix cost is
#: cases x recovery latency, not trace size, so the smallest gated detect
#: workload suffices
FAULTS_BENCH_WORKLOAD = "matmul"

#: worker-side fault kinds exercised by the matrix (raise_in_phase is an
#: engine-level fault covered by the batch-resume tests, not this suite)
FAULTS_BENCH_KINDS = (
    "kill_worker",
    "hang_worker",
    "drop_slab_ack",
    "corrupt_done_payload",
)

#: small batches so the matrix has a real first/middle/last structure
#: (~140 task messages on the scale-1 trace) without a big trace
FAULTS_BENCH_BATCH_EVENTS = 512

#: supervision knobs tuned for bench latency: recovery behaviour is
#: identical to the defaults, only the waits are shortened so a hung
#: worker costs ~1 s instead of the production 60 s patience
FAULTS_BENCH_POLICY = {
    "hang_timeout": 1.0,
    "poll_interval": 0.1,
    "backoff_base": 0.01,
    "backoff_max": 0.1,
}


def _faults_reference(trace, vm):
    """The serial vectorized store every fault case must reproduce."""
    from repro.profiler.vectorized import VectorizedProfiler

    ref = VectorizedProfiler(None, vm.loop_signature)
    for chunk in trace.chunks:
        ref.process_chunk(chunk)
    ref.flush()
    return _faults_state(ref)


def _faults_state(det) -> dict:
    return {
        "store": det.store.to_dict(),
        "control": {
            line: rec.to_dict() for line, rec in sorted(det.control.items())
        },
    }


def _run_fault_case(trace, vm, plan, *, workers: int = 2) -> dict:
    """One supervised sharded run under a fault plan; never raises."""
    from repro.profiler.sharded import ShardedDetector

    det = ShardedDetector(
        None,
        vm.loop_signature,
        n_shards=workers,
        batch_events=FAULTS_BENCH_BATCH_EVENTS,
        slab_rows=FAULTS_BENCH_BATCH_EVENTS,
        policy=FAULTS_BENCH_POLICY,
        faults=plan,
    )
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            # the degrade rung warns by design; the bench records the
            # tally instead of spamming the report
            warnings.simplefilter("ignore", RuntimeWarning)
            for chunk in trace.chunks:
                det.process_chunk(chunk)
            det.finalize()
    except BaseException as exc:
        det.close()
        return {
            "recovered": False,
            "error": f"{type(exc).__name__}: {exc}",
            "seconds": round(time.perf_counter() - t0, 3),
            "recovery": dict(det.recovery),
        }
    return {
        "recovered": True,
        "state": _faults_state(det),
        "seconds": round(time.perf_counter() - t0, 3),
        "recovery": dict(det.recovery),
    }


def run_faults_bench(
    *,
    scale: int = 1,
    workers: int = 2,
    quick: bool = False,
    seed: int = 0,
) -> dict:
    """Benchmark the fault-recovery layer (``BENCH_faults.json``).

    Runs each worker fault kind at the first, middle and last task
    batch, seeded :meth:`~repro.resilience.FaultPlan.scattered` mixes,
    and one schedule that exhausts every retry budget and must degrade
    to in-process detection.  Records whether every case completed
    without raising (``all_recovered``), whether every merged store is
    bit-identical to the serial vectorized reference
    (``all_stores_identical``) and how many runs degraded.  ``quick``
    trims the matrix to one position per kind for the CI smoke lane.
    """
    from repro.resilience import FaultEvent, FaultPlan
    from repro.workloads import get_workload

    workload = get_workload(FAULTS_BENCH_WORKLOAD)
    module = workload.compile(scale)
    trace = TraceSink()
    vm = VM(module, trace)
    vm.run(workload.entry)
    reference = _faults_reference(trace, vm)

    events = len(trace)
    n_batches = max(1, -(-events // FAULTS_BENCH_BATCH_EVENTS))
    positions = [0, n_batches // 2, n_batches - 1]
    rows = []

    if quick:
        # one position per kind, rotating so the reduced lane still
        # touches first, middle and last batches across the kinds
        matrix = [
            (kind, positions[i % len(positions)])
            for i, kind in enumerate(FAULTS_BENCH_KINDS)
        ]
    else:
        matrix = [
            (kind, batch)
            for kind in FAULTS_BENCH_KINDS
            for batch in positions
        ]
    for kind, batch in matrix:
        plan = FaultPlan([FaultEvent(kind=kind, shard=0, batch=batch)])
        case = _run_fault_case(trace, vm, plan, workers=workers)
        case.update(case_kind=kind, batch=batch, schedule="single")
        rows.append(case)

    n_scattered = 1 if quick else 3
    for i in range(n_scattered):
        plan = FaultPlan.scattered(
            seed + i, n_shards=workers, n_batches=n_batches,
        )
        case = _run_fault_case(trace, vm, plan, workers=workers)
        case.update(
            case_kind="+".join(e.kind for e in plan.events),
            batch=None,
            schedule=f"scattered[{seed + i}]",
        )
        rows.append(case)

    # unrecoverable: a kill at every generation exhausts shard retries
    # and the pool restart; the ladder's last rung must degrade to
    # in-process detection, not raise
    degrade_plan = FaultPlan(
        [
            FaultEvent(kind="kill_worker", batch=0, gen=gen)
            for gen in range(8)
        ]
    )
    case = _run_fault_case(trace, vm, degrade_plan, workers=workers)
    case.update(case_kind="kill_worker", batch=0, schedule="unrecoverable")
    rows.append(case)

    for row in rows:
        row["store_identical"] = (
            row["recovered"] and row.pop("state", None) == reference
        )
    degraded_runs = sum(r["recovery"].get("degraded", 0) for r in rows)
    return {
        "bench": "faults",
        "workload": FAULTS_BENCH_WORKLOAD,
        "events": events,
        "n_batches": n_batches,
        "workers": workers,
        "cases": rows,
        "all_recovered": all(r["recovered"] for r in rows),
        "all_stores_identical": all(r["store_identical"] for r in rows),
        "degraded_runs": degraded_runs,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
    }


def format_faults_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'schedule':<16} {'fault':<32} {'batch':>5} {'ok':>3} "
        f"{'ident':>5} {'retry':>5} {'pool':>4} {'degr':>4} {'s':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in result["cases"]:
        rec = row["recovery"]
        batch = "-" if row["batch"] is None else str(row["batch"])
        lines.append(
            f"{row['schedule']:<16} {row['case_kind']:<32} {batch:>5} "
            f"{'y' if row['recovered'] else 'n':>3} "
            f"{'y' if row['store_identical'] else 'N':>5} "
            f"{rec.get('shard_retries', 0):>5} "
            f"{rec.get('pool_restarts', 0):>4} "
            f"{rec.get('degraded', 0):>4} {row['seconds']:>6.2f}"
        )
    lines.append(
        f"{len(result['cases'])} cases over {result['events']} events "
        f"({result['n_batches']} batches, {result['workers']} workers)"
    )
    return "\n".join(lines)


# -- store suite: crash-safe concurrent artifact store -----------------

#: two registry workloads with distinct keys, so two writers have real
#: overlap (same keys, different order) without a long bench wall clock
STORE_BENCH_WORKLOADS = ("fib", "sort")

#: stable result-row fields: what a job *computed*, not how this
#: particular writer got it (resumed/deduped/attempts/seconds differ)
_STORE_ROW_FIELDS = (
    "ok", "name", "return_value", "n_threads", "total_instructions",
    "deps", "loops", "parallelizable_loops", "suggestions", "kinds", "top",
)

#: per-artifact volatility: stats keys that legitimately differ run-to-run
_STORE_VOLATILE_STAT_MARKERS = ("seconds", "per_sec")


def _store_canonical_json(name: str, text: str):
    """Reduce one JSON artifact to its run-invariant content."""
    import json as _json

    data = _json.loads(text)
    if name == "result.json":
        return {k: data.get(k) for k in _STORE_ROW_FIELDS}
    if name == "profile.json" and isinstance(data.get("stats"), dict):
        data = dict(data)
        data["stats"] = {
            k: v
            for k, v in data["stats"].items()
            if not any(m in k for m in _STORE_VOLATILE_STAT_MARKERS)
        }
    return data


def _store_artifact_digest(path: str, name: str) -> str:
    """Content digest of one artifact, ignoring volatile bytes.

    ``trace.npz`` is hashed by loaded array contents (the zip container
    embeds timestamps); JSON artifacts are canonicalized first.
    """
    import hashlib
    import json as _json

    import numpy as np

    digest = hashlib.sha256()
    if name.endswith(".npz"):
        with np.load(path, allow_pickle=False) as archive:
            for key in sorted(archive.files):
                arr = archive[key]
                digest.update(key.encode())
                digest.update(str(arr.dtype).encode())
                digest.update(str(arr.shape).encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if name.endswith(".json"):
        canonical = _json.dumps(
            _store_canonical_json(name, text), sort_keys=True
        )
        digest.update(canonical.encode())
    else:
        digest.update(text.encode())
    return digest.hexdigest()


#: artifacts that never converge across writers, excluded from identity
_STORE_IDENTITY_EXCLUDED = ("config.json", "attempts.json", "manifest.json")


def _store_state(root: str) -> dict:
    """``{key: {artifact: digest}}`` canonical content of a whole store."""
    import os

    from repro.store import ArtifactStore

    store = ArtifactStore(root)
    state = {}
    for key in store.keys():
        key_dir = store.key_dir(key)
        entries = {}
        for name in sorted(os.listdir(key_dir)):
            path = os.path.join(key_dir, name)
            if (
                name.startswith(".")
                or ".tmp-" in name
                or name in _STORE_IDENTITY_EXCLUDED
                or not os.path.isfile(path)
            ):
                continue
            entries[name] = _store_artifact_digest(path, name)
        state[key] = entries
    return state


def _store_healed_count(root: str) -> int:
    """Quarantined artifacts across the store (files under .corrupt-N/)."""
    import glob
    import os

    return sum(
        1
        for path in glob.glob(os.path.join(root, "*", ".corrupt-*", "*"))
        if os.path.isfile(path)
    )


def _store_tmp_count(root: str) -> int:
    import glob
    import os

    return sum(
        1
        for path in glob.glob(os.path.join(root, "**", "*"), recursive=True)
        if ".tmp-" in os.path.basename(path) and os.path.isfile(path)
    )


def _store_bench_jobs(faulty: Optional[dict] = None) -> list:
    """One job per bench workload; ``faulty`` maps workload -> fault plan."""
    from repro.engine.batch import job_for_workload

    jobs = []
    for name in STORE_BENCH_WORKLOADS:
        overrides = {"obs": "metrics"}
        if faulty and name in faulty:
            overrides["fault_plan"] = faulty[name]
        jobs.append(job_for_workload(name, **overrides))
    return jobs


def _store_bench_writer(jobs, resume_dir, queue, store_options) -> None:
    """Process entry point: one concurrent batch runner."""
    from repro.engine.batch import run_batch

    queue.put(
        run_batch(
            jobs,
            jobs_parallel=1,
            resume_dir=resume_dir,
            store_options=store_options,
        )
    )


def _store_run_writers(
    writer_jobs: list, resume_dir: str, store_options: Optional[dict] = None
) -> tuple:
    """Run one batch-runner process per job list; returns (rows, exits).

    A writer killed by an injected fault reports no rows (``None`` in
    that slot) and its exit code carries
    :data:`~repro.resilience.faults.KILL_EXIT_CODE`.
    """
    import multiprocessing

    ctx = multiprocessing.get_context()
    procs, queues = [], []
    for jobs in writer_jobs:
        queue = ctx.SimpleQueue()
        proc = ctx.Process(
            target=_store_bench_writer,
            args=(jobs, resume_dir, queue, store_options),
            daemon=True,
        )
        proc.start()
        procs.append(proc)
        queues.append(queue)
    rows, exits = [], []
    for proc, queue in zip(procs, queues):
        proc.join(timeout=600)
        if proc.is_alive():  # defensive: a wedged writer fails the gate
            proc.kill()
            proc.join()
        exits.append(proc.exitcode)
        rows.append(queue.get() if not queue.empty() else None)
    return rows, exits


def _store_case_summary(
    schedule: str,
    root: str,
    reference: dict,
    all_rows: list,
    *,
    writers: int,
    expected_kill_exits: int = 0,
    exits: Optional[list] = None,
    t0: float = 0.0,
) -> dict:
    """Post-schedule audit: convergence, healing, torn reads, metrics."""
    from repro.store import ArtifactStore

    rows = [r for batch in all_rows if batch for r in batch]
    report = ArtifactStore(root).verify()
    kill_exits = sum(1 for code in (exits or []) if code == KILL_EXIT_CODE)
    counters: dict = {}
    for row in rows:
        for name, value in row.get("store_counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    # a torn read would surface as a failed row, a verify-corrupt entry,
    # or a tmp file left under a final-looking tree
    torn_reads = (
        sum(1 for r in rows if not r.get("ok"))
        + report["corrupt"]
        + _store_tmp_count(root)
    )
    return {
        "schedule": schedule,
        "writers": writers,
        "rows": len(rows),
        "rows_ok": all(r.get("ok") for r in rows) and bool(rows),
        "deduped": sum(1 for r in rows if r.get("deduped")),
        "computed": sum(1 for r in rows if r.get("phases_run")),
        "kill_exits": kill_exits,
        "expected_kill_exits": expected_kill_exits,
        "exits_ok": kill_exits == expected_kill_exits
        and all(
            code in (0, KILL_EXIT_CODE) for code in (exits or [])
        ),
        "healed": _store_healed_count(root),
        "torn_reads": torn_reads,
        "store_identical": _store_state(root) == reference,
        "lock_waits": counters.get("store.lock_waits", 0),
        "lock_steals": counters.get("store.lock_steals", 0),
        "tmps_swept": counters.get("store.torn_tmp_cleaned", 0),
        "seconds": round(time.perf_counter() - t0, 3),
    }


def run_store_bench(*, seed: int = 0) -> dict:
    """Torture the artifact store under concurrent writers + faults.

    Five schedules, each ending with ≥2 concurrent batch runners on one
    shared resume dir (``BENCH_store.json``):

    * ``concurrent_clean`` — two runners, same keys in opposite order:
      every key computed exactly once, the latecomer dedupes.
    * ``kill_mid_write`` — a runner dies (``os._exit``) mid-``detect``
      publish, leaving a torn tmp; two clean runners then converge and
      sweep the orphan, and the killed runner's rerun fully dedupes.
    * ``torn_tmp`` — a runner publishes a truncated ``result.json``
      against its full-payload checksum; the next runners quarantine it
      to ``.corrupt-N/`` and recompute.
    * ``stale_lease`` — lease lock backend with a dead-pid lease planted
      on a key: deterministic takeover, counted on ``store.lock_steals``.
    * ``checksum_flip`` — a byte of a published ``detect.json`` flipped
      on disk (and the finished row removed): verified restore heals the
      poisoned artifact and recomputes from the surviving prefix.

    Each schedule's final store is compared (canonicalized content)
    with a clean single-writer reference.  The matrix is already
    minimal, so there is no quick mode.
    """
    import shutil
    import tempfile

    from repro.engine.batch import config_for_job, run_batch
    from repro.engine.checkpoint import job_key
    from repro.resilience.faults import FaultPlan, plant_stale_lease
    from repro.store import ArtifactStore

    keys = {
        name: job_key(config_for_job(job))
        for name, job in zip(STORE_BENCH_WORKLOADS, _store_bench_jobs())
    }
    first = STORE_BENCH_WORKLOADS[0]

    roots = []

    def new_root(tag: str) -> str:
        root = tempfile.mkdtemp(prefix=f"repro-store-bench-{tag}-")
        roots.append(root)
        return root

    cases = []
    try:
        ref_dir = new_root("ref")
        t0 = time.perf_counter()
        ref_rows = run_batch(
            _store_bench_jobs(), jobs_parallel=1, resume_dir=ref_dir
        )
        reference = _store_state(ref_dir)
        reference_ok = all(r.get("ok") for r in ref_rows)
        ref_seconds = round(time.perf_counter() - t0, 3)

        jobs_fwd = _store_bench_jobs()
        jobs_rev = list(reversed(_store_bench_jobs()))

        # 1. clean concurrency: dedupe instead of double-compute
        t0 = time.perf_counter()
        root = new_root("clean")
        rows, exits = _store_run_writers([jobs_fwd, jobs_rev], root)
        case = _store_case_summary(
            "concurrent_clean", root, reference, rows,
            writers=2, exits=exits, t0=t0,
        )
        flat = [r for batch in rows if batch for r in batch]
        per_name: dict = {}
        for row in flat:
            if row.get("phases_run"):
                per_name[row["name"]] = per_name.get(row["name"], 0) + 1
        case["computed_once"] = bool(per_name) and all(
            count == 1 for count in per_name.values()
        )
        cases.append(case)

        # 2. kill -9 mid-write, then heal under concurrency, then rerun
        t0 = time.perf_counter()
        root = new_root("kill")
        kill_plan = FaultPlan(
            [{"kind": "kill_in_store_write", "artifact": "detect.json"}]
        ).to_dict()
        _rows1, exits1 = _store_run_writers(
            [_store_bench_jobs({first: kill_plan})], root
        )
        rows2, exits2 = _store_run_writers([jobs_fwd, jobs_rev], root)
        rows3, exits3 = _store_run_writers(
            [_store_bench_jobs({first: kill_plan})], root
        )
        case = _store_case_summary(
            "kill_mid_write", root, reference, rows2 + rows3,
            writers=2, expected_kill_exits=1,
            exits=exits1 + exits2 + exits3, t0=t0,
        )
        case["rerun_deduped"] = bool(rows3[0]) and all(
            r.get("resumed") and r.get("phases_run") == [] for r in rows3[0]
        )
        cases.append(case)

        # 3. torn write published against a full-payload checksum
        t0 = time.perf_counter()
        root = new_root("torn")
        torn_plan = FaultPlan(
            [{"kind": "torn_store_write", "artifact": "result.json"}]
        ).to_dict()
        _rows1, exits1 = _store_run_writers(
            [_store_bench_jobs({first: torn_plan})], root
        )
        rows2, exits2 = _store_run_writers([jobs_fwd, jobs_rev], root)
        cases.append(
            _store_case_summary(
                "torn_tmp", root, reference, rows2,
                writers=2, exits=exits1 + exits2, t0=t0,
            )
        )

        # 4. stale lease left by a dead pid: deterministic takeover
        t0 = time.perf_counter()
        root = new_root("lease")
        lease_opts = {"lock_backend": "lease"}
        plant_stale_lease(ArtifactStore(root).key_dir(keys[first]))
        rows, exits = _store_run_writers(
            [jobs_fwd, jobs_rev], root, store_options=lease_opts
        )
        case = _store_case_summary(
            "stale_lease", root, reference, rows,
            writers=2, exits=exits, t0=t0,
        )
        cases.append(case)

        # 5. silent on-disk corruption of a published artifact
        t0 = time.perf_counter()
        root = new_root("flip")
        rows1, exits1 = _store_run_writers([_store_bench_jobs()], root)
        store = ArtifactStore(root)
        key_dir = store.key_dir(keys[first])
        from repro.resilience.faults import flip_artifact_byte

        flip_artifact_byte(f"{key_dir}/detect.json")
        import os as _os

        _os.unlink(f"{key_dir}/result.json")
        rows2, exits2 = _store_run_writers([jobs_fwd, jobs_rev], root)
        case = _store_case_summary(
            "checksum_flip", root, reference, rows2,
            writers=2, exits=exits1 + exits2, t0=t0,
        )
        flat = [r for batch in rows2 if batch for r in batch]
        case["healed_prefix_resume"] = any(
            r["name"] == first and r.get("phases_restored") == ["profile", "cus"]
            and r.get("phases_run") == ["detect", "rank"]
            for r in flat
        )
        cases.append(case)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)

    return {
        "bench": "store",
        "workloads": list(STORE_BENCH_WORKLOADS),
        "keys": keys,
        "reference_ok": reference_ok,
        "reference_seconds": ref_seconds,
        "cases": cases,
        "all_stores_identical": all(c["store_identical"] for c in cases),
        "all_rows_ok": all(c["rows_ok"] for c in cases),
        "all_exits_ok": all(c["exits_ok"] for c in cases),
        "healed_corruptions": sum(c["healed"] for c in cases),
        "torn_reads": sum(c["torn_reads"] for c in cases),
        "deduped_total": sum(c["deduped"] for c in cases),
        "lock_waits": sum(c["lock_waits"] for c in cases),
        "lock_steals": sum(c["lock_steals"] for c in cases),
        "min_concurrent_writers": min(c["writers"] for c in cases),
        "computed_once": all(
            c.get("computed_once", True) for c in cases
        ),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "seed": seed,
    }


def format_store_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'schedule':<18} {'wr':>3} {'rows':>4} {'ok':>3} {'ident':>5} "
        f"{'heal':>4} {'torn':>4} {'dedup':>5} {'waits':>5} {'steal':>5} "
        f"{'s':>6}"
    )
    lines = [header, "-" * len(header)]
    for case in result["cases"]:
        lines.append(
            f"{case['schedule']:<18} {case['writers']:>3} "
            f"{case['rows']:>4} {'y' if case['rows_ok'] else 'N':>3} "
            f"{'y' if case['store_identical'] else 'N':>5} "
            f"{case['healed']:>4} {case['torn_reads']:>4} "
            f"{case['deduped']:>5} {case['lock_waits']:>5} "
            f"{case['lock_steals']:>5} {case['seconds']:>6.2f}"
        )
    lines.append(
        f"{len(result['cases'])} schedules over "
        f"{'+'.join(result['workloads'])}; "
        f"{result['deduped_total']} deduped jobs, "
        f"{result['lock_waits']} lock waits"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the gate table
# ---------------------------------------------------------------------------


class Gate(NamedTuple):
    """One pass/fail check on a suite result: ``result[key] <op> required``.

    ``key`` is a dotted path into the result and names the gate.
    ``enforced`` is True or the dotted path of the result value that
    decides it; an unenforced gate is recorded with ``passed: None`` and
    cannot fail the run.
    """

    key: str
    op: str = "=="
    required: object = True
    enforced: object = True


class Suite(NamedTuple):
    """A ``repro bench`` suite: runner, table, accepted options, gates."""

    run: Callable[..., dict]
    format: Callable[[dict], str]
    options: tuple
    gates: tuple


#: speed and accuracy floors hold on the suite's own workload set only
DEFAULT_SET = "default_set"

#: the options of every suite that times registry workloads
_MEASURED = ("workloads", "scale", "reps", "quick")

SUITES = {
    "vm": Suite(run_vm_bench, format_vm_table, _MEASURED, (
        Gate("all_traces_identical"),
        Gate("all_stores_identical"),
        Gate("traced_speedup_geomean", ">=", 2.0, DEFAULT_SET),
        Gate("profile_speedup_geomean", ">=", 1.25, DEFAULT_SET),
    )),
    "detect": Suite(
        run_detect_bench, format_detect_table,
        _MEASURED + ("workers", "scale_events"), (
            Gate("all_stores_identical"),
            Gate("equivalence_sweep.all_identical"),
            Gate("sharded_all_identical"),
            Gate("detect_speedup_geomean", ">=", 3.0, DEFAULT_SET),
            Gate("profile_speedup_geomean", ">=", 1.5, DEFAULT_SET),
            Gate("detect_phase.gate.measured", ">=",
                 DETECT_PHASE_MIN_SPEEDUP),
            Gate("sampling_precision_min", ">=", 0.95, DEFAULT_SET),
            Gate("sampling_recall_min", ">=", 0.95, DEFAULT_SET),
            # the synthetic-stream scale leg, whenever it ran
            Gate("scale.store_identical", enforced="scale"),
            Gate("scale.sharded_speedup", ">=", DETECT_SCALE_SPEEDUP,
                 "scale.speedup_gate.enforced"),
            Gate("scale.sampled.precision", ">=", 0.95, "scale"),
            Gate("scale.sampled.recall", ">=", 0.95, "scale"),
        ),
    ),
    "obs": Suite(run_obs_bench, format_obs_table, _MEASURED, (
        Gate("all_stores_identical"),
        Gate("disabled_overhead_pct_max", "<=", 2.0, DEFAULT_SET),
    )),
    "faults": Suite(
        run_faults_bench, format_faults_table,
        ("scale", "workers", "quick", "seed"), (
            Gate("all_recovered"),
            Gate("all_stores_identical"),
            Gate("degraded_runs", "==", 1),
        ),
    ),
    "store": Suite(run_store_bench, format_store_table, ("seed",), (
        Gate("reference_ok"),
        Gate("all_stores_identical"),
        Gate("all_rows_ok"),
        Gate("all_exits_ok"),
        Gate("computed_once"),
        Gate("torn_reads", "==", 0),
        Gate("healed_corruptions", ">=", 2),
        Gate("lock_steals", ">=", 1),
        Gate("min_concurrent_writers", ">=", 2),
    )),
}

_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def _lookup(result: dict, key: str):
    try:
        return functools.reduce(operator.getitem, key.split("."), result)
    except (KeyError, TypeError):
        return None


def evaluate_gates(gates, result: dict) -> list:
    """One verdict record per gate; an enforced gate on a missing key fails."""
    records = []
    for gate in gates:
        measured = _lookup(result, gate.key)
        enforced = gate.enforced is True or bool(
            _lookup(result, gate.enforced)
        )
        passed = None
        if enforced:
            passed = measured is not None and bool(
                _OPS[gate.op](measured, gate.required)
            )
        records.append({
            "name": gate.key, "measured": measured, "op": gate.op,
            "required": gate.required, "enforced": enforced,
            "passed": passed,
        })
    return records


def failed_gates(result: dict) -> list:
    """The enforced gates of an evaluated result that did not pass."""
    return [g for g in result["gates"] if g["passed"] is False]


def run_suite(name: str, **options) -> dict:
    """Run one suite and write its gate verdicts into the result."""
    suite = SUITES[name]
    result = suite.run(**options)
    result["gates"] = evaluate_gates(suite.gates, result)
    result["passed"] = not failed_gates(result)
    return result


def describe_gate(gate: dict) -> str:
    """``name: measured op required`` for one verdict record."""
    measured = gate["measured"]
    if isinstance(measured, float):
        measured = f"{measured:.3f}"
    return f"{gate['name']}: {measured} {gate['op']} {gate['required']}"


def format_suite(name: str, result: dict) -> str:
    """The suite's table followed by one verdict line per gate."""
    verdicts = {True: "ok", False: "FAIL", None: "not enforced"}
    return "\n".join(
        [SUITES[name].format(result)]
        + [
            f"gate {describe_gate(g)} {verdicts[g['passed']]}"
            for g in result["gates"]
        ]
    )
