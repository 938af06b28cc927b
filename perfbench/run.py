#!/usr/bin/env python3
"""End-to-end discovery benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload tasks --seed 1 --seconds 30 --trace 0

Runs one workload through the public API (``DiscoveryEngine(config).run()``
or ``run_batch``), checks every program's return value, and prints one
JSON object as the last line of stdout: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is the separate traced run that reports the per-layer ones.
End-to-end times are scaled to a reference host speed by a probe run
next to each timed interval (see :func:`timed`).  The full record (host,
draw, per-program samples as scaled and as measured) goes to
``perfbench/out/``.
Exits 1 when any output check fails and 2 when the program sources are
missing.
"""

import os
import time

_T_START = time.perf_counter()
# the benchmark forks one process per job, so keep this one single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("tasks", "loops", "batch")
#: the batch class: programs of either class whose trace held at most
#: this many events at the commit that added the benchmark
BATCH_MAX_EVENTS = 35_000
BATCH_WORKERS = 2
#: cost-balanced groups of a class; the traced run replays one of them
TRACE_GROUPS = {"tasks": 4, "loops": 3}
#: set-up is repeated this many times and its median reported
SETUP_REPEATS = 3
#: seconds :func:`probe` takes on a quiet reference host (2-CPU Intel
#: Xeon); reported times are scaled to that host speed
PROBE_REF_S = 0.020

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s_geomean": "s",
    "peak_rss_mb": "MB",
    "loop_precision": "ratio",
    "loop_recall": "ratio",
}

PER_LAYER = {
    "engine.profile_s": "s",
    "engine.build_cus_s": "s",
    "engine.detect_s": "s",
    "engine.rank_s": "s",
    "engine.parallelize_s": "s",
    "engine.validate_s": "s",
    "frontend.compile_s": "s",
    "runtime.vm_s": "s",
    "runtime.vm_self_s": "s",
    "runtime.events": "count",
    "runtime.steps": "count",
    "profiler.chunk_s": "s",
    "profiler.pet_s": "s",
    "profiler.finish_s": "s",
    "profiler.deps": "count",
    "cu.cus": "count",
    "discovery.loops_s": "s",
    "discovery.containers": "count",
    "discovery.replay_s": "s",
    "discovery.replay_events": "count",
    "discovery.replay_ratio": "ratio",
    "discovery.cu_graph_s": "s",
    "discovery.tasks_find_s": "s",
    "discovery.suggestions": "count",
    "parallelize.feasible": "count",
    "parallelize.seq_ref_s": "s",
    "parallelize.validate_plan_s": "s",
    "parallelize.validation_runs": "count",
    "parallelize.pvm_steals": "count",
    "parallelize.transform_identical_frac": "ratio",
    "simulate.iteration_costs_s": "s",
    "simulate.prediction_error": "ratio",
    "store.hit_read_s": "s",
    "store.restore_s": "s",
    "store.save_s": "s",
    "store.lock_wait_s": "s",
    "store.bytes_written": "bytes",
    "batch.jobs_hit": "count",
    "batch.jobs_resumed": "count",
    "batch.jobs_computed": "count",
    "batch.pool_idle_s": "s",
    "engine.self_s": "s",
    "frontend.self_s": "s",
    "runtime.self_s": "s",
    "profiler.self_s": "s",
    "cu.self_s": "s",
    "discovery.self_s": "s",
    "parallelize.self_s": "s",
    "simulate.self_s": "s",
    "store.self_s": "s",
    "batch.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "checks.failed_frac": "ratio",
}

#: per-layer counts that must repeat exactly for a seed (and do, across
#: the traced passes of one run)
EXACT_COUNTS = (
    "runtime.events", "runtime.steps", "profiler.deps", "cu.cus",
    "discovery.containers", "discovery.replay_events",
    "discovery.suggestions", "parallelize.feasible",
    "parallelize.validation_runs", "parallelize.pvm_steals",
    "batch.jobs_hit", "batch.jobs_resumed", "batch.jobs_computed",
)


def _import_program() -> None:
    """Import the program under test (timed as part of set-up).

    Modules the pipeline would otherwise import lazily on its first job
    are imported here too, so no timed pass pays for them.
    """
    sys.path.insert(0, str(SRC))
    global np, DiscoveryConfig, DiscoveryEngine, ground_truth_from_source
    global get_workload, job_for_workload, config_for_job, run_job
    global run_batch, JobCheckpoint, DetectArtifact, tracing
    import numpy as np
    import repro.frontend.lowering  # noqa: F401
    from repro import DiscoveryConfig, DiscoveryEngine
    from repro.engine.artifacts import DetectArtifact
    from repro.engine.batch import (
        config_for_job, job_for_workload, run_batch, run_job,
    )
    from repro.engine.checkpoint import JobCheckpoint
    from repro.workloads import get_workload, ground_truth_from_source

    import tracing


# ---------------------------------------------------------------------------
# the draw
# ---------------------------------------------------------------------------


def load_programs() -> dict:
    with open(HERE / "programs.json", encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def class_members(workload: str, programs: dict) -> list:
    if workload == "batch":
        return sorted(
            name for name, p in programs.items()
            if p["trace_events"] <= BATCH_MAX_EVENTS
        )
    return sorted(
        name for name, p in programs.items() if p["class"] == workload
    )


def cheapest(names: list, programs: dict, k: int) -> list:
    """The ``k`` cheapest members, always including one Python program."""
    by_cost = sorted(names, key=lambda n: programs[n]["cost_s"])
    python = next(n for n in by_cost if programs[n]["frontend"] == "python")
    return [python] + [n for n in by_cost if n != python][: k - 1]


def balanced_groups(names: list, cost: dict, n_groups: int) -> list:
    """Split ``names`` into groups of near-equal cost (largest first)."""
    n_groups = max(1, min(n_groups, len(names)))
    groups = [[] for _ in range(n_groups)]
    load = [0.0] * n_groups
    for name in sorted(names, key=lambda n: (-cost[n], n)):
        i = load.index(min(load))
        groups[i].append(name)
        load[i] += cost[name]
    return groups


def batch_roles(names: list, cost: dict) -> dict:
    """hit / partial / new in thirds: one of each per cost-ranked triple.

    Which member of a triple takes which role rotates from triple to
    triple, so every role gets cheap and dear programs alike.
    """
    ranked = sorted(names, key=lambda n: (cost[n], n))
    kinds = ["hit", "partial", "new"]
    roles = {}
    for t, i in enumerate(range(0, len(ranked), 3)):
        turn = t % 3
        roles.update(zip(ranked[i:i + 3], kinds[turn:] + kinds[:turn]))
    return roles


#: batch submission order: the longest jobs go first so the pool's tail
#: is short
ROLE_ORDER = {"new": 0, "partial": 1, "hit": 2}


def make_draw(workload: str, seed: int, draw_size, programs: dict) -> dict:
    """The seeded draw: the workload's class in a seeded order.

    Every run covers its whole class (or, for tests, the ``draw_size``
    cheapest members).  The seed orders the programs (for ``batch``,
    within each role) and picks the group the traced run replays.
    """
    rng = random.Random(f"{workload}:{seed}")
    names = class_members(workload, programs)
    if draw_size:
        names = cheapest(names, programs, draw_size)
    names = sorted(names)
    rng.shuffle(names)
    if not any(programs[n]["frontend"] == "python" for n in names):
        raise ValueError(f"draw for {workload} holds no Python program")
    cost = {n: programs[n]["cost_s"] for n in names}
    draw = {"programs": names}
    if workload == "batch":
        roles = batch_roles(names, cost)
        names.sort(key=lambda n: ROLE_ORDER[roles[n]])
        draw["roles"] = roles
    else:
        groups = balanced_groups(names, cost, TRACE_GROUPS[workload])
        traced = set(rng.choice(groups))
        draw["traced"] = [n for n in names if n in traced]
    return draw


# ---------------------------------------------------------------------------
# host-normalised timing
# ---------------------------------------------------------------------------


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    On a shared host the CPU speed a process gets swings by up to 2x
    within minutes, and a job's time tracks this probe's (r = 0.83 over
    246 paired samples of one program).
    """
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(150_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


def pool_probe() -> float:
    """:func:`probe` on every pool worker's CPU at once: the mean of one
    probe here and one in each of ``BATCH_WORKERS - 1`` forked children.
    """
    children = []
    for _ in range(BATCH_WORKERS - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.write(write_fd, repr(probe()).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [probe()]
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def timed(fn, *args, host_probe=probe) -> tuple:
    """``(fn(*args), seconds, scale)``, probing right before and after.

    ``seconds * scale`` is the time at the reference host speed.
    """
    before = host_probe()
    t0 = time.perf_counter()
    value = fn(*args)
    seconds = time.perf_counter() - t0
    return value, seconds, 2 * PROBE_REF_S / (before + host_probe())


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def prepare(workload: str, draw: dict, template) -> dict:
    """Generate the inputs (and the batch resume-dir template)."""
    specs = {}
    for name in draw["programs"]:
        workload_def = get_workload(name)
        specs[name] = {
            "source": workload_def.source(1),
            "entry": workload_def.entry,
            "frontend": workload_def.frontend,
        }
    prepared = {"specs": specs}
    if workload == "batch":
        jobs = [job_for_workload(name) for name in draw["programs"]]
        reply = in_child(build_template, jobs, draw["roles"], template)
        if not reply["ok"]:
            raise RuntimeError(f"batch template: {reply['error']}")
        prepared["jobs"] = jobs
        prepared["template"] = template
    return prepared


def build_template(jobs: list, roles: dict, path: Path) -> None:
    """Resume-dir start state: hits are complete, partials profiled."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    for job in jobs:
        role = roles[job["workload"]]
        if role == "hit":
            row = run_job(job, resume_dir=str(path))
            if not row["ok"]:
                raise RuntimeError(f"template hit {job}: {row['error']}")
        elif role == "partial":
            config = config_for_job(job)
            engine = DiscoveryEngine(config=config)
            engine.profile()
            JobCheckpoint(str(path), config).save_phases(engine)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checker:
    """Expected return values: the recorded file (MiniC) or CPython."""

    def __init__(self, programs: dict, specs: dict) -> None:
        self.programs = programs
        self.specs = specs
        self._values: dict = {}

    def expected(self, name: str):
        if name not in self._values:
            program = self.programs[name]
            if program["frontend"] == "python":
                spec = self.specs[name]
                namespace = {"__name__": "perfbench_reference"}
                exec(compile(spec["source"], name, "exec"), namespace)
                self._values[name] = namespace[spec["entry"]]()
            else:
                self._values[name] = program["expected"]
        return self._values[name]


def loop_counts(source: str, loops) -> dict:
    """PAR-marker agreement of one program's loop classification."""
    truth = ground_truth_from_source(source)
    parallel = {info.start_line for info in loops if info.is_parallelizable}
    hits = sum(1 for line in parallel if truth.get(line, False))
    return {
        "tp": hits,
        "fp": len(parallel) - hits,
        "par": sum(1 for marked in truth.values() if marked),
    }


def precision_recall(quality: dict) -> tuple:
    tp = sum(q["tp"] for q in quality.values())
    fp = sum(q["fp"] for q in quality.values())
    par = sum(q["par"] for q in quality.values())
    return (tp / (tp + fp) if tp + fp else 0.0, tp / par if par else 0.0)


def transform_quality(quality: dict) -> tuple:
    """(identical / feasible, mean |prediction error| over identical)."""
    feasible = sum(q.get("feasible", 0) for q in quality.values())
    errors = [e for q in quality.values() for e in q.get("errors", [])]
    return (
        len(errors) / feasible if feasible else 0.0,
        sum(errors) / len(errors) if errors else 0.0,
    )


# ---------------------------------------------------------------------------
# tasks / loops: DiscoveryEngine(config).run() per program
# ---------------------------------------------------------------------------


class Runs:
    """Every job attempted in one run, and what the checks found."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.attempted = 0
        self.failures: list = []
        #: per program: host-normalised seconds, and as measured
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.quality: dict = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, value) -> bool:
        self.attempted += 1
        expected = self.checker.expected(name)
        if value != expected:
            self.failures.append(
                {"program": name, "error": f"returned {value!r}, "
                                           f"expected {expected!r}"}
            )
            return False
        return True

    def add_sample(self, name: str, seconds: float, scale: float) -> None:
        self.samples[name].append(seconds * scale)
        self.raw[name].append(seconds)

    def error(self, name: str, message: str) -> None:
        self.attempted += 1
        self.failures.append({"program": name, "error": message})


def in_child(fn, *args) -> dict:
    """Run ``fn(*args)`` in a process forked from this one.

    Every job starts from the same warmed state (imports done, inputs
    built, heap frozen), the way a user runs one program per process, so
    no job inherits another's heap or caches.  The child sends back
    ``{"ok": True, "value": ...}`` or ``{"ok": False, "error": ...}`` as
    JSON; its peak RSS reaches ``RUSAGE_CHILDREN`` once it is reaped.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = {"ok": True, "value": fn(*args)}
            except Exception as exc:  # reported to the parent as a failure
                payload = {"ok": False,
                           "error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump(payload, pipe, default=repr)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as pipe:
        data = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if not data:
        return {"ok": False,
                "error": f"job process ended with wait status {status}"}
    return json.loads(data)


def _discover(name: str, spec: dict):
    config = DiscoveryConfig(
        source=spec["source"], name=name, entry=spec["entry"],
        frontend=spec["frontend"], validate=True,
    )
    return DiscoveryEngine(config=config).run()


def discover_job(name: str, spec: dict, traced: bool) -> dict:
    """(in the child) Source text to result for one program."""
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.program = name

    def job():
        if tracer is None:
            return _discover(name, spec)
        with tracer.span("engine.job", "engine"):
            return _discover(name, spec)

    result, seconds, scale = timed(job)
    quality = loop_counts(spec["source"], result.loops)
    feasible = [r for r in result.validations if r.feasible]
    quality["feasible"] = len(feasible)
    quality["errors"] = [
        abs(r.prediction_error) for r in feasible if r.identical
    ]
    payload = {
        "seconds": seconds,
        "scale": scale,
        "return_value": result.return_value,
        "quality": quality,
    }
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["counts"] = dict(tracer.counts)
    return payload


def run_program(name: str, spec: dict, runs: Runs, tracer=None):
    """One checked job; returns its raw seconds, or None when it failed.

    Untraced jobs add their host-normalised time to ``runs.samples``.
    """
    reply = in_child(discover_job, name, spec, tracer is not None)
    if not reply["ok"]:
        runs.error(name, reply["error"])
        return None
    job = reply["value"]
    if tracer is not None:
        tracer.absorb(job["spans"], job["counts"])
    if not runs.check(name, job["return_value"]):
        return None
    runs.quality.setdefault(name, job["quality"])
    if tracer is None:
        runs.add_sample(name, job["seconds"], job["scale"])
    return job["seconds"]


def measure_programs(draw: dict, prepared: dict, runs: Runs,
                     seconds: float) -> None:
    """Round-robin over the draw: one full pass, then on while the next
    job, at its last measured time, still ends before the deadline."""
    order = draw["programs"]
    specs = prepared["specs"]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        name = order[i % len(order)]
        last = runs.raw.get(name)
        if i >= len(order) and (
            not last or time.perf_counter() + last[-1] > deadline
        ):
            return
        run_program(name, specs[name], runs)
        i += 1


def trace_programs(draw: dict, prepared: dict, runs: Runs,
                   seconds: float) -> tuple:
    """Alternate untraced and traced passes over the traced group."""
    group = draw["traced"]
    specs = prepared["specs"]
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while True:
        started = time.perf_counter()
        untraced.append(sum(
            run_program(name, specs[name], runs) or 0.0 for name in group
        ))
        tracer = tracing.Tracer()
        for name in group:
            run_program(name, specs[name], runs, tracer)
        traced.append(tracer)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return untraced, traced


# ---------------------------------------------------------------------------
# batch: run_batch over a resume dir copied from the template
# ---------------------------------------------------------------------------


def fresh_pass_dir(prepared: dict, index: int) -> Path:
    path = prepared["template"].parent / f"pass-{index}"
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(prepared["template"], path)
    return path


def dir_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _dirs, files in os.walk(path) for f in files
    )


def batch_job(jobs: list, path: str, workers: int, traced: bool) -> dict:
    """(in the child, or the parent for the pool) One ``run_batch`` call."""
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()

    def batch():
        if tracer is None:
            return run_batch(jobs, jobs_parallel=workers, resume_dir=path)
        with tracer.span("batch.run_batch", "batch"):
            return run_batch(jobs, jobs_parallel=workers, resume_dir=path)

    # a pool pass runs on every worker's CPU, so probe them all
    rows, wall, scale = timed(
        batch, host_probe=pool_probe if workers > 1 else probe
    )
    payload = {"wall": wall, "scale": scale, "rows": rows}
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["counts"] = dict(tracer.counts)
    return payload


def batch_pass(prepared: dict, runs: Runs, index: int, workers: int,
               tracer=None):
    """One checked ``run_batch`` over a fresh copy of the template.

    Pool passes run from this process, whose pool workers fork from it;
    in-process (``workers == 1``) passes run in a child like every other
    job.  Returns ``{"path", "wall", "scale", "idle"}`` or None when the
    pass itself failed.
    """
    path = fresh_pass_dir(prepared, index)
    jobs = prepared["jobs"]
    if workers > 1:
        result = batch_job(jobs, str(path), workers, False)
    else:
        reply = in_child(batch_job, jobs, str(path), workers,
                         tracer is not None)
        if not reply["ok"]:
            runs.error("<batch pass>", reply["error"])
            return None
        result = reply["value"]
        if tracer is not None:
            tracer.absorb(result["spans"], result["counts"])
    rows = result["rows"]
    for row in rows:
        name = row["name"]
        if not row.get("ok"):
            runs.error(name, row.get("error", "ok=False"))
        elif runs.check(name, row["return_value"]) and row.get("phases_run"):
            # hits (nothing run) report seconds rounded to 1 ms, below
            # their cost; they are left out of job_s_geomean
            runs.add_sample(name, row["seconds"], result["scale"])
    return {
        "path": path,
        "wall": result["wall"],
        "scale": result["scale"],
        "idle": workers * result["wall"] - sum(r["seconds"] for r in rows),
    }


def batch_quality(prepared: dict, path: Path, runs: Runs) -> None:
    """Loop classifications from each job's checkpointed detect artifact."""
    for job in prepared["jobs"]:
        name = job["workload"]
        checkpoint = JobCheckpoint(str(path), config_for_job(job))
        data = checkpoint.store.read_json(checkpoint.key, "detect.json")
        if data is None:
            runs.error(name, "no detect.json in the resume dir")
            continue
        detect = DetectArtifact.from_dict(data)
        runs.quality[name] = loop_counts(
            prepared["specs"][name]["source"], detect.loops
        )


def measure_batch(prepared: dict, runs: Runs, seconds: float) -> tuple:
    """Pool passes until time is up.

    Returns the passes' host-normalised and measured walls and the last
    pass's resume dir.
    """
    deadline = time.perf_counter() + seconds
    walls, raw = [], []
    last = None
    while not raw or time.perf_counter() + raw[-1] <= deadline:
        result = batch_pass(prepared, runs, len(raw), BATCH_WORKERS)
        walls.append(result["wall"] * result["scale"])
        raw.append(result["wall"])
        if last is not None:
            shutil.rmtree(last, ignore_errors=True)
        last = result["path"]
    return walls, raw, last


def trace_batch(prepared: dict, runs: Runs, seconds: float) -> tuple:
    """Pool pass, then untraced and traced in-process passes, repeated."""
    deadline = time.perf_counter() + seconds
    idle, untraced, traced, written = [], [], [], []
    index = 0
    while True:
        started = time.perf_counter()
        pool = batch_pass(prepared, runs, index, BATCH_WORKERS)
        plain = batch_pass(prepared, runs, index + 1, 1)
        tracer = tracing.Tracer()
        done = batch_pass(prepared, runs, index + 2, 1, tracer)
        index += 3
        if pool is None or plain is None or done is None:
            return untraced, traced, idle, written
        idle.append(pool["idle"])
        untraced.append(plain["wall"])
        traced.append(tracer)
        written.append(
            dir_bytes(done["path"]) - dir_bytes(prepared["template"])
        )
        for result in (pool, plain, done):
            shutil.rmtree(result["path"], ignore_errors=True)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return untraced, traced, idle, written


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def geomean(values: list) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timings(samples: dict, walls) -> dict:
    """``wall_s`` and ``job_s_geomean`` from per-program samples.

    tasks/loops: one pass over every program, from per-program medians;
    batch: the median wall of the ``run_batch`` passes.
    """
    medians = [statistics.median(v) for v in samples.values()]
    return {
        "wall_s": statistics.median(walls) if walls else sum(medians),
        "job_s_geomean": geomean(medians),
    }


def end_to_end(runs: Runs, setup_s: float, walls) -> dict:
    precision, recall = precision_recall(runs.quality)
    return {
        "setup_s": setup_s,
        **timings(runs.samples, walls),
        "peak_rss_mb": peak_rss_mb(),
        "loop_precision": precision,
        "loop_recall": recall,
    }


def pass_layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    metrics = dict(tracer.span_totals())
    for layer, secs in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = secs
    counts = tracer.counts
    for name in EXACT_COUNTS:
        metrics[name] = counts.get(name, 0)
    replayed_from = counts.get("runtime.events", 0) + counts.get(
        "store.restored_events", 0
    )
    metrics["discovery.replay_ratio"] = (
        counts.get("discovery.replay_events", 0) / replayed_from
        if replayed_from else 0.0
    )
    feasible = counts.get("transforms.feasible", 0)
    identical = counts.get("transforms.identical", 0)
    metrics["parallelize.transform_identical_frac"] = (
        identical / feasible if feasible else 0.0
    )
    metrics["simulate.prediction_error"] = (
        counts.get("transforms.error_nano", 0) / 1e9 / identical
        if identical else 0.0
    )
    roots = [s for s in tracer.spans if s[4] == -1]
    metrics["trace.wall_s"] = sum(end - start for _, _, start, end, _, _
                                  in roots)
    return metrics


def per_layer(traced: list, untraced: list, runs: Runs, idle=None,
              written=None) -> tuple:
    """Median over traced passes; counts must agree across them."""
    passes = [pass_layer_metrics(t) for t in traced]
    problems = []
    metrics = {}
    for name in PER_LAYER:
        values = [p[name] for p in passes if name in p]
        if not values:
            continue
        if name in EXACT_COUNTS:
            if len(set(values)) > 1:
                problems.append(
                    f"{name} differs across traced passes: {values}"
                )
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead"] = (
        metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
    )
    metrics["batch.pool_idle_s"] = statistics.median(idle) if idle else 0.0
    metrics["store.bytes_written"] = (
        statistics.median(written) if written else 0
    )
    metrics["checks.failed_frac"] = runs.failed / max(1, runs.attempted)
    return metrics, problems


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------


def host_record(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--draw-size", type=int, default=None,
        help="draw only this many of the cheapest programs (tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found at {SRC}",
              file=sys.stderr)
        return 2
    _import_program()
    import_s = time.perf_counter() - _T_START

    programs = load_programs()
    work = OUT / f"work-{os.getpid()}"
    try:
        return _run(args, programs, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, programs: dict, import_s: float, work: Path) -> int:
    draw = make_draw(args.workload, args.seed, args.draw_size, programs)
    import_scale = PROBE_REF_S / probe()
    setups, scaled = [], []
    for i in range(SETUP_REPEATS):
        prepared, secs, scale = timed(
            prepare, args.workload, draw, work / f"template-{i}"
        )
        setups.append(secs)
        scaled.append(secs * scale)
        if i:
            shutil.rmtree(work / f"template-{i - 1}", ignore_errors=True)
    setup_s = import_s * import_scale + statistics.median(scaled)

    runs = Runs(Checker(programs, prepared["specs"]))
    # every job forks from here: freeze the warmed heap so the children's
    # collectors leave its pages shared
    gc.collect()
    gc.freeze()
    problems = []
    spans = []
    measured = None
    if args.trace:
        if args.workload == "batch":
            untraced, traced, idle, written = trace_batch(
                prepared, runs, args.seconds
            )
        else:
            untraced, traced = trace_programs(
                draw, prepared, runs, args.seconds
            )
            idle = written = None
        metrics, problems = per_layer(traced, untraced, runs, idle, written)
        units = PER_LAYER
        for tracer in traced:
            spans.extend(tracer.records())
    else:
        walls = raw_walls = None
        if args.workload == "batch":
            walls, raw_walls, last = measure_batch(
                prepared, runs, args.seconds
            )
            batch_quality(prepared, last, runs)
        else:
            measure_programs(draw, prepared, runs, args.seconds)
        metrics = end_to_end(runs, setup_s, walls)
        measured = {
            "setup_s": import_s + statistics.median(setups),
            **timings(runs.raw, raw_walls),
        }
        units = END_TO_END

    host = host_record(args.seed)
    correct = runs.failed == 0 and not problems
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "draw": draw,
        "setup_repeats_s": setups,
        "import_s": import_s,
        "samples": dict(runs.samples),
        "raw_samples": dict(runs.raw),
        "measured": measured,
        "quality": runs.quality,
        "quality_summary": dict(zip(
            ("loop_precision", "loop_recall", "transform_identical_frac",
             "prediction_error"),
            precision_recall(runs.quality) + transform_quality(runs.quality),
        )),
        "failures": runs.failures,
        "problems": problems,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    for failure in runs.failures + [{"error": p} for p in problems]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
