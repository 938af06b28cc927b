"""Batch discovery over many workloads (the ``repro batch`` backend).

Fans a list of jobs — registry workload names or raw MiniC/Python
sources — across
a :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker runs a full
:class:`~repro.engine.core.DiscoveryEngine` pipeline and returns a compact
JSON-ready summary row, so a fleet of programs can be analysed in one
command and the rows aggregated without holding every trace in memory.

With ``resume_dir`` the batch becomes a *checkpointing queue* (see
:mod:`repro.engine.checkpoint` and docs/RESILIENCE.md): every completed
phase persists to a content-addressed directory, already-finished jobs
are skipped outright, and a crashed job re-enters at its first missing
phase on the next run.  ``job_timeout`` adds a per-job wall-clock cap
(each job then runs in its own process), and jobs that keep failing
land on a quarantine list instead of burning the whole batch's budget
forever.

The checkpoint tree is a :class:`repro.store.ArtifactStore`, which makes
a shared ``resume_dir`` safe for *concurrent* batch runners: each job
computes under its key's advisory writer lock, so two runners that reach
the same key dedupe — the second waits, finds the finished row, and
returns it with ``resumed=True, deduped=True`` instead of racing the
first writer's ``os.replace`` calls.  The ``quarantine.json`` ledger is
updated as a locked read-modify-write of per-name deltas for the same
reason (two runners must not last-writer-win each other's counts).
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Optional

from repro.engine.config import DiscoveryConfig
from repro.engine.core import DiscoveryEngine

#: engine timing keys -> checkpoint phase names (tier-1 phases only)
_PHASE_TIMING_KEYS = (
    ("profile", "profile"),
    ("build_cus", "cus"),
    ("detect", "detect"),
    ("rank", "rank"),
)


def job_for_workload(
    name: str, scale: int = 1, **overrides
) -> dict:
    """A batch job dict referencing a registry workload by name."""
    return {"workload": name, "scale": scale, "overrides": overrides}


def job_for_source(
    source: str, name: str = "<source>", frontend: str = "minic",
    **overrides
) -> dict:
    """A batch job dict carrying raw source text (MiniC or Python)."""
    return {
        "source": source,
        "name": name,
        "frontend": frontend,
        "overrides": overrides,
    }


def config_for_job(job: dict) -> DiscoveryConfig:
    """Materialize a job dict into the DiscoveryConfig it will run."""
    if "workload" in job:
        from repro.workloads import get_workload

        workload = get_workload(job["workload"])
        return DiscoveryConfig(
            source=workload.source(job.get("scale", 1)),
            name=job["workload"],
            entry=workload.entry,
            frontend=workload.frontend,
            **job.get("overrides", {}),
        )
    return DiscoveryConfig(
        source=job["source"],
        name=job.get("name", "<source>"),
        frontend=job.get("frontend", "minic"),
        **job.get("overrides", {}),
    )


def _resumed_row(saved: dict, t0: float) -> dict:
    row = dict(saved)
    row.update(
        resumed=True,
        phases_run=[],
        seconds=round(time.perf_counter() - t0, 3),
    )
    return row


def run_job(
    job: dict,
    *,
    resume_dir: Optional[str] = None,
    store_options: Optional[dict] = None,
) -> dict:
    """Run one batch job to completion; never raises (errors become rows).

    With ``resume_dir``, the job checkpoints each completed phase and a
    re-run skips finished work: a completed job returns its saved row
    with ``resumed=True`` and ``phases_run == []``; a partially
    completed one restores the persisted phase prefix and re-enters at
    the first missing phase.

    The compute happens under the job key's writer lock, so concurrent
    runners sharing the ``resume_dir`` dedupe: a runner that blocked on
    the lock re-checks for a finished row after acquiring and, finding
    one, returns it with ``deduped=True`` instead of recomputing.
    ``store_options`` forwards to the :class:`~repro.store.ArtifactStore`
    (``lock_backend``, ``stale_after``, ``poll_interval``).
    """
    t0 = time.perf_counter()
    name = job.get("workload") or job.get("name", "<source>")
    row = {"name": name, "ok": False}
    checkpoint = None
    engine = None
    restored: list = []
    lock = None
    try:
        try:
            config = config_for_job(job)
            if resume_dir is not None:
                from repro.engine.checkpoint import JobCheckpoint

                checkpoint = JobCheckpoint(
                    resume_dir, config, store_options=store_options
                )
                saved = checkpoint.load_result()
                if saved is not None:
                    return _resumed_row(saved, t0)
                lock = checkpoint.lock()
                lock.acquire()
                # another runner may have finished the key while we
                # waited; a verified row now means our work is done
                saved = checkpoint.load_result(heal=True)
                if saved is not None:
                    checkpoint.store._count("store.dedup_hits")
                    row = _resumed_row(saved, t0)
                    row["deduped"] = True
                    return row
                # the job's recorded failure count keys store-write
                # faults exactly like engine-phase ones
                checkpoint.store.fault_attempt = checkpoint.attempts()
            engine = DiscoveryEngine(config=config)
            if checkpoint is not None:
                checkpoint.attach_metrics(engine.obs.metrics)
                restored = checkpoint.restore(engine)
                # a retry sails past the fault that killed attempt 0
                engine.fault_attempt = checkpoint.attempts()
                if restored and engine.obs.metrics is not None:
                    engine.obs.metrics.counter(
                        "resilience.phases_restored",
                        "checkpoint phases adopted instead of recomputed",
                    ).inc(len(restored))
            result = engine.run()
        except Exception as exc:  # a bad job must not sink the whole batch
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["traceback"] = traceback.format_exc()
            if checkpoint is not None:
                if engine is not None:
                    # phases that finished before the crash are exactly
                    # what the next attempt skips
                    checkpoint.save_phases(engine)
                checkpoint.record_failure(row["error"])
                row["checkpoint_key"] = checkpoint.key
                row["attempts"] = checkpoint.attempts()
        else:
            if result.metrics:
                # jobs run in pool processes: metrics ride the row home,
                # and span lanes ship in Tracer transport form.  Nothing
                # absorbs them yet: merging every job lane onto one
                # timeline is the open `batch --obs` item (ROADMAP item 4)
                row["metrics"] = result.metrics
            if engine.obs.tracer.enabled:
                row["spans"] = engine.obs.tracer.ship()
                row["timing_detail"] = dict(result.timing_detail)
            top = result.suggestions[0] if result.suggestions else None
            row.update(
                ok=True,
                return_value=result.return_value,
                n_threads=result.n_threads,
                total_instructions=result.total_instructions,
                deps=len(result.store),
                loops=len(result.loops),
                parallelizable_loops=sum(
                    1 for info in result.loops if info.is_parallelizable
                ),
                suggestions=len(result.suggestions),
                kinds=sorted({s.kind for s in result.suggestions}),
                top=(
                    {
                        "kind": top.kind,
                        "location": top.location,
                        "score": top.scores.combined if top.scores else 0.0,
                    }
                    if top
                    else None
                ),
            )
            row["phases_run"] = [
                phase
                for key, phase in _PHASE_TIMING_KEYS
                if key in engine.timing_detail
            ]
            if checkpoint is not None:
                row["checkpoint_key"] = checkpoint.key
                row["attempts"] = checkpoint.attempts()
                row["resumed"] = bool(restored)
                row["phases_restored"] = restored
                checkpoint.save_phases(engine)
                done = dict(row)
                done["seconds"] = round(time.perf_counter() - t0, 3)
                checkpoint.save_result(done)
    finally:
        if lock is not None and lock.held:
            lock.release()
        if checkpoint is not None and checkpoint.store.counters:
            row["store_counters"] = dict(checkpoint.store.counters)
    row["seconds"] = round(time.perf_counter() - t0, 3)
    return row


# -- quarantine bookkeeping (resume_dir-scoped) ------------------------


def _quarantine_path(resume_dir: str) -> str:
    return os.path.join(resume_dir, "quarantine.json")


def load_quarantine(resume_dir: str) -> dict:
    """``{job name: consecutive failure count}`` for this resume dir."""
    try:
        with open(_quarantine_path(resume_dir), "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def _save_quarantine(resume_dir: str, counts: dict) -> None:
    path = _quarantine_path(resume_dir)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(counts, f)
    os.replace(tmp, path)


def _apply_quarantine_deltas(
    resume_dir: str, succeeded: list, failed: list
) -> dict:
    """Locked read-modify-write of the quarantine ledger.

    Concurrent batch runners each apply only their own per-name deltas
    (clear on success, +1 per failure) under a store-wide named lock, so
    counts accumulate instead of last-writer-winning.  Returns the
    ledger as written.
    """
    from repro.store import ArtifactStore

    store = ArtifactStore(resume_dir)
    with store.root_lock("quarantine"):
        counts = load_quarantine(resume_dir)
        for name in succeeded:
            counts.pop(name, None)
        for name in failed:
            counts[name] = counts.get(name, 0) + 1
        _save_quarantine(resume_dir, counts)
    return counts


def _job_worker(
    job: dict, resume_dir: Optional[str], queue, store_options=None
) -> None:
    """Process entry point of the per-job wall-clock-cap mode."""
    queue.put(run_job(job, resume_dir=resume_dir, store_options=store_options))


def _run_job_capped(
    job: dict, resume_dir: Optional[str], job_timeout: float,
    store_options: Optional[dict] = None,
) -> dict:
    """One job in its own process, killed past ``job_timeout`` seconds.

    A kill leaves the job's checkpoint directory at its last completed
    phase, so the timeout row is resumable like any other crash.
    """
    name = job.get("workload") or job.get("name", "<source>")
    ctx = multiprocessing.get_context()
    queue = ctx.SimpleQueue()
    proc = ctx.Process(
        target=_job_worker, args=(job, resume_dir, queue, store_options),
        daemon=True,
    )
    t0 = time.perf_counter()
    proc.start()
    proc.join(timeout=job_timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=5)
        if proc.is_alive():  # SIGTERM ignored: escalate
            proc.kill()
            proc.join()
        return {
            "name": name,
            "ok": False,
            "error": f"TimeoutError: job exceeded {job_timeout:g}s cap",
            "timed_out": True,
            "seconds": round(time.perf_counter() - t0, 3),
        }
    if not queue.empty():
        return queue.get()
    return {
        "name": name,
        "ok": False,
        "error": (
            f"RuntimeError: job process died with exit code "
            f"{proc.exitcode} before reporting a row"
        ),
        "seconds": round(time.perf_counter() - t0, 3),
    }


def run_batch(
    jobs: Iterable[dict],
    *,
    jobs_parallel: Optional[int] = None,
    resume_dir: Optional[str] = None,
    job_timeout: Optional[float] = None,
    quarantine_after: int = 3,
    store_options: Optional[dict] = None,
) -> list[dict]:
    """Run every job; ``jobs_parallel`` > 1 uses a process pool.

    Rows come back in submission order regardless of completion order.
    ``resume_dir`` checkpoints per-job progress (see :func:`run_job`);
    ``job_timeout`` caps each job's wall clock by running it in its own
    process; with a ``resume_dir``, a job that has failed
    ``quarantine_after`` times is skipped with a ``quarantined`` row
    until its counter is cleared from ``quarantine.json``.
    ``store_options`` tunes the artifact store's lock backend (see
    :func:`run_job`).
    """
    jobs = list(jobs)
    if jobs_parallel is None:
        jobs_parallel = min(len(jobs), 4) or 1
    quarantine = load_quarantine(resume_dir) if resume_dir else {}

    runnable: list = []  # (original index, job)
    rows: list = [None] * len(jobs)
    for i, job in enumerate(jobs):
        name = job.get("workload") or job.get("name", "<source>")
        if quarantine.get(name, 0) >= quarantine_after:
            rows[i] = {
                "name": name,
                "ok": False,
                "quarantined": True,
                "error": (
                    f"quarantined after {quarantine[name]} failed "
                    f"attempts (clear quarantine.json to retry)"
                ),
                "seconds": 0.0,
            }
        else:
            runnable.append((i, job))

    if job_timeout is not None:
        # wall-clock caps need a dedicated process per job so a
        # runaway one can be killed without losing its siblings
        results = [
            _run_job_capped(job, resume_dir, job_timeout, store_options)
            for _, job in runnable
        ]
    elif jobs_parallel <= 1 or len(runnable) <= 1:
        results = [
            run_job(job, resume_dir=resume_dir, store_options=store_options)
            for _, job in runnable
        ]
    else:
        runner = functools.partial(
            run_job, resume_dir=resume_dir, store_options=store_options
        )
        with ProcessPoolExecutor(max_workers=jobs_parallel) as pool:
            results = list(pool.map(runner, (job for _, job in runnable)))

    succeeded: list = []
    failed: list = []
    for (i, _job), row in zip(runnable, results):
        rows[i] = row
        if resume_dir is not None:
            name = row.get("name", "<source>")
            (succeeded if row.get("ok") else failed).append(name)
    clears = [name for name in succeeded if name in quarantine]
    if resume_dir is not None and (failed or clears):
        # locked delta application: concurrent runners sharing this
        # resume_dir accumulate counts instead of last-writer-winning
        _apply_quarantine_deltas(resume_dir, clears, failed)
    return rows


def format_batch_table(rows: list[dict]) -> str:
    """Render batch rows as an aligned text table."""
    header = (
        f"{'workload':<16} {'ok':<3} {'loops':>5} {'par':>4} "
        f"{'sugg':>4} {'deps':>6} {'top suggestion':<32} {'s':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        if row["ok"]:
            top = row["top"]
            top_txt = (
                f"{top['kind']} {top['location']}" if top else "(none)"
            )
            flag = "y" if not row.get("resumed") else "r"
            lines.append(
                f"{row['name']:<16} {flag:<3} {row['loops']:>5} "
                f"{row['parallelizable_loops']:>4} {row['suggestions']:>4} "
                f"{row['deps']:>6} {top_txt:<32} {row['seconds']:>6.2f}"
            )
        else:
            lines.append(
                f"{row['name']:<16} {'n':<3} {row['error']}"
            )
    return "\n".join(lines)
